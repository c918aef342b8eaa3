import math
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcpursuit.bitio import BitReader, BitWriter, DecodeError, bits_to_bytes
from mcpursuit.codecs import (
    CODEC_HEADER_BITS,
    CODEC_IDS,
    PAIR_OVERHEAD_BITS,
    UNIVERSAL_CODE_SLACK,
    CodecError,
    CodedSignal,
    coded_from_bytes,
    coded_to_bytes,
    coeff_resolution,
    decode_any,
    decode_uint,
    dl_surrogate,
    encode_compressor_proxy,
    encode_literal,
    encode_piecewise_poly,
    encode_sparse,
    encode_uint,
    log_star,
    pp_dl_bound,
    pp_sample_numerators,
    quantize_pp_spec,
    sparse_dl_bound,
    uint_code_len,
)
from mcpursuit.quantize import QuantizedVector, quantize_vector, subtract_mod
from mcpursuit.solver import SolverConfig
from oracle_enum import iter_config_codebook


def sparse_vectors(max_n=40, max_m=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        m = draw(st.integers(1, max_m))
        k = draw(st.integers(0, min(n, 6)))
        support = draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
        )
        nums = [0] * n
        for pos in support:
            nums[pos] = draw(st.integers(1, (1 << m) - 1))
        return QuantizedVector(tuple(nums), m)

    return build()


# ---------------------------------------------------------------------------
# universal integer code


def test_log_star_values():
    assert log_star(1) == 0.0
    assert log_star(2) == 1.0
    assert log_star(8) == pytest.approx(6.169925001442312, rel=0, abs=1e-14)
    assert log_star(1024) == pytest.approx(10 + 2 * math.log2(10), rel=1e-15)


def test_uint_code_known_words():
    assert encode_uint(1) == "1"
    assert encode_uint(2) == "0100"
    assert encode_uint(3) == "0101"
    assert encode_uint(8) == "00100000"


@given(n=st.integers(min_value=1, max_value=1 << 48))
def test_uint_code_roundtrip(n):
    s = encode_uint(n)
    assert len(s) == uint_code_len(n)
    r = BitReader(s)
    assert decode_uint(r) == n
    r.expect_end()


def test_uint_code_self_delimiting():
    # decoding stops at the word boundary even with trailing data
    r = BitReader(encode_uint(37) + "10110")
    assert decode_uint(r) == 37
    assert r.read_fixed(5) == 0b10110
    r.expect_end()


def test_uint_code_length_bound_exhaustive():
    for n in range(1, 10**6 + 1):
        assert uint_code_len(n) <= math.ceil(log_star(n)) + UNIVERSAL_CODE_SLACK


@given(e=st.integers(min_value=1, max_value=500), off=st.integers(0, 2))
def test_uint_code_length_bound_large(e, off):
    n = (1 << e) + off
    assert uint_code_len(n) <= math.ceil(log_star(n)) + UNIVERSAL_CODE_SLACK


def test_uint_rejects_nonpositive():
    with pytest.raises(ValueError):
        encode_uint(0)
    with pytest.raises(ValueError):
        uint_code_len(0)
    with pytest.raises(ValueError):
        log_star(0)


# ---------------------------------------------------------------------------
# sparse codec


def test_sparse_bound_values():
    assert sparse_dl_bound(0, 3, 2) == 12
    assert sparse_dl_bound(2, 256, 8) == 78
    assert sparse_dl_bound(2, 1024, 10) == 91


@given(q=sparse_vectors())
@settings(max_examples=300)
def test_sparse_roundtrip_and_bound(q):
    c = encode_sparse(q)
    assert c.codec_id == "sparse"
    assert decode_any(c, q.n, q.resolution_bits) == q
    k = len(q.support())
    assert c.dl_bits <= sparse_dl_bound(k, q.n, q.resolution_bits)


def test_sparse_decode_rejects_context_mismatch():
    q = QuantizedVector((0, 5, 0, 0), 3)
    c = encode_sparse(q)
    with pytest.raises(DecodeError):
        decode_any(c, 5, 3)


def test_sparse_decode_rejects_noncanonical_zero():
    # handcrafted stream coding position 1 with payload 0
    w = BitWriter()
    w.write_bits("000")
    w.write_bits(encode_uint(4))  # n
    w.write_bits(encode_uint(2))  # k + 1 = 2
    w.write_bits(encode_uint(2))  # position 1
    w.write_fixed(0, 3)  # zero payload
    with pytest.raises(DecodeError):
        decode_any(CodedSignal("sparse", w.getvalue()), 4, 3)


def test_sparse_decode_rejects_unsorted_positions():
    w = BitWriter()
    w.write_bits("000")
    w.write_bits(encode_uint(4))
    w.write_bits(encode_uint(3))  # k = 2
    w.write_bits(encode_uint(3))  # position 2
    w.write_bits(encode_uint(2))  # position 1, out of order
    w.write_fixed(1, 3)
    w.write_fixed(1, 3)
    with pytest.raises(DecodeError):
        decode_any(CodedSignal("sparse", w.getvalue()), 4, 3)


# ---------------------------------------------------------------------------
# piecewise-polynomial codec


def pp_specs():
    @st.composite
    def build(draw):
        n = draw(st.integers(2, 24))
        m = draw(st.integers(1, 6))
        n_deg = draw(st.integers(0, 3))
        q_breaks = draw(st.integers(0, min(3, n - 1)))
        breaks = sorted(
            draw(
                st.lists(
                    st.integers(1, n - 1),
                    min_size=q_breaks,
                    max_size=q_breaks,
                    unique=True,
                )
            )
        )
        rows = []
        for _ in range(q_breaks + 1):
            raw = draw(
                st.lists(
                    st.floats(0.0, 1.0, allow_nan=False),
                    min_size=n_deg + 1,
                    max_size=n_deg + 1,
                )
            )
            total = sum(raw)
            if total >= 1.0:
                raw = [v / (total + 1e-9) * 0.98 for v in raw]
            rows.append(raw)
        return breaks, rows, n, m
    return build()


@given(spec=pp_specs())
@settings(max_examples=150, deadline=None)
def test_pp_roundtrip_matches_exact_sampler(spec):
    breaks, rows, n, m = spec
    coded = encode_piecewise_poly(breaks, rows, n, m)
    bks, nums, m_prime = quantize_pp_spec(breaks, rows, n, m)
    n_deg = len(rows[0]) - 1
    expected = pp_sample_numerators(bks, nums, n_deg, n, m)
    got = decode_any(coded, n, m)
    assert got == QuantizedVector(expected, m)
    assert coded.dl_bits <= pp_dl_bound(len(bks), n_deg, n, m)


@given(spec=pp_specs())
@settings(max_examples=150, deadline=None)
def test_pp_sampling_agrees_with_rational_oracle(spec):
    breaks, rows, n, m = spec
    bks, nums, m_prime = quantize_pp_spec(breaks, rows, n, m)
    n_deg = len(rows[0]) - 1
    sampled = pp_sample_numerators(bks, nums, n_deg, n, m)
    bounds = (0,) + bks + (n,)
    for piece, row in enumerate(nums):
        for i in range(bounds[piece], bounds[piece + 1]):
            t = Fraction(i, n)
            val = sum(Fraction(c, 1 << m_prime) * t**j for j, c in enumerate(row))
            assert sampled[i] == math.floor(val * (1 << m))


@given(spec=pp_specs())
@settings(max_examples=100, deadline=None)
def test_pp_coefficient_truncation_stays_under_one_step(spec):
    # decoded samples track the real-coefficient polynomial to within
    # one truncation step from the coefficients plus one from the samples
    breaks, rows, n, m = spec
    coded = encode_piecewise_poly(breaks, rows, n, m)
    got = np.array(decode_any(coded, n, m).to_floats())
    bounds = [0] + list(breaks) + [n]
    for piece, row in enumerate(rows):
        for i in range(bounds[piece], bounds[piece + 1]):
            t = i / n
            val = sum(c * t**j for j, c in enumerate(row))
            assert got[i] <= val + 1e-12
            assert val - got[i] < 2.0 ** (1 - m) + 1e-12


def test_pp_rejects_bad_specs():
    with pytest.raises(CodecError):
        encode_piecewise_poly([0], [[0.1], [0.2]], 8, 3)  # breakpoint at 0
    with pytest.raises(CodecError):
        encode_piecewise_poly([8], [[0.1], [0.2]], 8, 3)  # beyond n-1
    with pytest.raises(CodecError):
        encode_piecewise_poly([2.5], [[0.1], [0.2]], 8, 3)  # off the grid
    with pytest.raises(CodecError):
        encode_piecewise_poly([3, 2], [[0.1]] * 3, 8, 3)  # not ascending
    with pytest.raises(CodecError):
        encode_piecewise_poly([], [[0.7, 0.6]], 8, 3)  # sum >= 1
    with pytest.raises(CodecError):
        encode_piecewise_poly([], [[-0.1, 0.2]], 8, 3)
    with pytest.raises(CodecError):
        encode_piecewise_poly([2], [[0.1]], 8, 3)  # row count mismatch


def test_pp_decode_rejects_invalid_streams():
    coded = encode_piecewise_poly([4], [[0.25], [0.5]], 8, 3)
    with pytest.raises(DecodeError):
        decode_any(coded, 16, 3)  # context mismatch
    # coefficient row violating the sum constraint
    w = BitWriter()
    w.write_bits("001")
    w.write_bits(encode_uint(8))  # n
    w.write_bits(encode_uint(1))  # degree 0
    w.write_bits(encode_uint(1))  # no breakpoints
    w.write_fixed(7, 3)  # sum == 2^m - 1 is fine
    ok = decode_any(CodedSignal("piecewise_poly", w.getvalue()), 8, 3)
    assert ok.numerators == (7,) * 8
    w2 = BitWriter()
    w2.write_bits("001")
    w2.write_bits(encode_uint(8))
    w2.write_bits(encode_uint(2))  # degree 1, m' = 4
    w2.write_bits(encode_uint(1))
    w2.write_fixed(8, 4)
    w2.write_fixed(8, 4)  # sum 16 == 2^4, out of class
    with pytest.raises(DecodeError):
        decode_any(CodedSignal("piecewise_poly", w2.getvalue()), 8, 3)


def test_coeff_resolution():
    assert coeff_resolution(0, 8) == 8
    assert coeff_resolution(1, 8) == 9
    assert coeff_resolution(2, 8) == 10
    assert coeff_resolution(3, 8) == 10
    assert coeff_resolution(4, 8) == 11


# ---------------------------------------------------------------------------
# literal and proxy codecs


@given(
    nums=st.lists(st.integers(0, 255), min_size=1, max_size=60),
)
def test_literal_roundtrip(nums):
    q = QuantizedVector(tuple(nums), 8)
    c = encode_literal(q)
    assert c.dl_bits == CODEC_HEADER_BITS + q.n * 8
    assert decode_any(c, q.n, 8) == q


@given(
    nums=st.lists(st.integers(0, 31), min_size=1, max_size=80),
)
@settings(max_examples=100)
def test_proxy_roundtrip(nums):
    q = QuantizedVector(tuple(nums), 5)
    c = encode_compressor_proxy(q)
    assert decode_any(c, q.n, 5) == q


@pytest.mark.parametrize("n, m, reason", [
    (12, 4, "whole bytes"),
    (16, 3, "whole bytes"),
    (17, 4, "whole bytes"),
    (15, 4, "padding bits"),  # the last sample's 4 bits would be pad
])
def test_proxy_decode_rejects_other_contexts(n, m, reason):
    # the inflated payload must be n*m bits rounded up to whole bytes, with
    # zero pad bits: 16 samples at 4 bits are 8 bytes
    q = QuantizedVector(tuple(range(16)), 4)
    c = encode_compressor_proxy(q)
    assert decode_any(c, 16, 4) == q
    with pytest.raises(DecodeError, match=reason):
        decode_any(c, n, m)


def test_decode_any_dispatch():
    q = QuantizedVector((0, 9, 0, 0, 0, 0, 0, 2), 4)
    for enc in (encode_sparse, encode_literal, encode_compressor_proxy):
        c = enc(q)
        assert decode_any(c, 8, 4) == q
    with pytest.raises(DecodeError):
        decode_any(CodedSignal("sparse", "111" + "0" * 20), 8, 4)
    with pytest.raises(DecodeError):
        decode_any(CodedSignal("sparse", "01"), 8, 4)
    # decode_any and the byte framing share one tag parser
    with pytest.raises(DecodeError):
        coded_from_bytes(bits_to_bytes("01"))
    with pytest.raises(DecodeError):
        coded_from_bytes(bits_to_bytes("111" + "0" * 20))


def test_byte_framing_of_codewords():
    q = QuantizedVector((0, 9, 0, 0, 0, 0, 0, 2), 4)
    c = encode_sparse(q)
    back = coded_from_bytes(coded_to_bytes(c))
    assert back == c


def _stream(tag, *uints, values=(), width=0):
    """A hand-built stream: tag, universal-coded integers, fixed-width values."""
    return (
        tag
        + "".join(encode_uint(u) for u in uints)
        + "".join(format(v, f"0{width}b") for v in values)
    )


_SPARSE_Q = QuantizedVector((0, 5, 0, 3), 3)
_VALID = {
    "sparse": (encode_sparse(_SPARSE_Q).payload, 4, 3),
    "piecewise_poly": (encode_piecewise_poly([4], [[0.25], [0.5]], 8, 3).payload, 8, 3),
    "literal": (encode_literal(_SPARSE_Q).payload, 4, 3),
    "compressor_proxy": (
        encode_compressor_proxy(QuantizedVector(tuple(range(16)), 4)).payload, 16, 4),
}
_ASCENDING = "strictly ascending"
INVALID_STREAMS = {
    **{
        f"{codec}-trailing-bit": (bits + "0", n, m, "trailing bits")
        for codec, (bits, n, m) in _VALID.items()
    },
    **{
        f"{codec}-truncated": (bits[:-1], n, m, "bitstream exhausted")
        for codec, (bits, n, m) in _VALID.items()
    },
    "sparse-repeated-position": (
        _stream("000", 4, 3, 2, 2, values=(1, 1), width=3), 4, 3, _ASCENDING),
    "sparse-position-n": (_stream("000", 4, 2, 5, values=(1,), width=3), 4, 3, _ASCENDING),
    "sparse-k-over-n": (
        _stream("000", 4, 6, 1, 2, 3, 4, 5, values=(1,) * 5, width=3),
        4, 3, "support larger than vector"),
    "pp-repeated-breakpoint": (
        _stream("001", 8, 1, 3, 3, 3, values=(1, 2, 3), width=3), 8, 3, _ASCENDING),
    "pp-breakpoint-n": (_stream("001", 8, 1, 2, 8, values=(1, 2), width=3), 8, 3, _ASCENDING),
    "pp-more-pieces-than-samples": (
        _stream("001", 4, 1, 5, 1, 2, 3, 4, values=(1,) * 5, width=3),
        4, 3, "more pieces than samples"),
}


@pytest.mark.parametrize("bits, n, m, reason", INVALID_STREAMS.values(),
                         ids=INVALID_STREAMS.keys())
def test_invalid_streams_are_refused(bits, n, m, reason):
    # each stream is refused with DecodeError for its own reason, not for
    # whatever check it happens to reach next
    with pytest.raises(DecodeError, match=reason):
        decode_any(coded_from_bytes(bits_to_bytes(bits)), n, m)


def test_known_codewords():
    # stream bits are part of the interface: the solver's code lengths,
    # the golden keys and the bench's own header reader all read them
    assert encode_sparse(QuantizedVector((0, 5, 0, 0), 3)).payload == (
        "000" "01100" "0100" "0100" "101"
    )
    assert encode_piecewise_poly([2], [[0.25, 0.5], [0.5, 0.25]], 8, 3).payload == (
        "001001000000100010001000100100010000100"
    )
    assert encode_literal(QuantizedVector((1, 2, 3), 2)).payload == "010011011"
    # zlib builds differ in their output bytes, so the proxy pins its
    # layout around a blob recomputed here, not the blob itself
    q = QuantizedVector((1, 2, 3, 0, 1), 2)
    packed = bytes([0b01101100, 0b01000000])
    blob = zlib.compress(packed, 9)
    assert encode_compressor_proxy(q).payload == (
        "011" + encode_uint(len(blob) + 1) + "".join(format(b, "08b") for b in blob)
    )


# ---------------------------------------------------------------------------
# description-length surrogate


def test_surrogate_picks_literal_on_dense_random():
    rng = np.random.default_rng(7)
    q = quantize_vector(rng.random(64), 16)
    res = dl_surrogate(q)
    assert (res.dl_bits, res.codec_id) == (1027, "literal")


def test_surrogate_picks_sparse_on_sparse():
    q = QuantizedVector((0,) * 254 + (3, 200), 8)
    res = dl_surrogate(q)
    assert res.codec_id == "sparse"
    assert res.dl_bits <= sparse_dl_bound(2, 256, 8)


def test_surrogate_finds_constant_runs():
    q = QuantizedVector((5,) * 100 + (9,) * 156, 8)
    res = dl_surrogate(q)
    assert res.codec_id == "piecewise_poly"
    assert res.dl_bits == 50
    assert decode_any(res, 256, 8) == q


@given(q=sparse_vectors(max_n=24, max_m=6))
@settings(max_examples=150, deadline=None)
def test_surrogate_never_beaten_by_literal(q):
    res = dl_surrogate(q)
    assert res.dl_bits <= CODEC_HEADER_BITS + q.n * q.resolution_bits
    assert decode_any(res, q.n, q.resolution_bits) == q


# ---------------------------------------------------------------------------
# codebook enumeration: prefix-freeness and codeword counting


def test_codebooks_prefix_free_and_kraft():
    n, m, budget = 4, 2, 22
    scope = SolverConfig(
        max_sparse_k=None, pp_max_degree=n, pp_max_breaks=n, include_literal=True
    )
    words = []
    for coded, vec in iter_config_codebook(n, m, scope, budget):
        assert coded.dl_bits <= budget
        assert decode_any(coded, n, m) == vec
        words.append(coded.payload)
    assert len(set(words)) == len(words)
    by_len = sorted(words, key=len)
    for i, w in enumerate(by_len):
        for w2 in by_len[i + 1 :]:
            assert not w2.startswith(w) or w2 == w
    # Kraft mass of any prefix-free subset stays below 1,
    # so at most 2^budget codewords can fit under the budget
    kraft = sum(2.0 ** -len(w) for w in words)
    assert kraft < 1.0
    assert len(words) <= 2**budget


@pytest.mark.parametrize(
    "n, m, scope",
    [
        (4, 2, SolverConfig(pp_max_degree=1, pp_max_breaks=1, include_literal=True)),
        # from n=9 on, lexicographic supports and breakpoint patterns are no
        # longer in length order, so a cut that stops at the first long one
        # drops shorter ones after it
        (9, 1, SolverConfig(pp_max_degree=0, pp_max_breaks=2)),
    ],
)
def test_codebook_budget_cut_drops_nothing(n, m, scope):
    # every budget up to the longest codeword, so a cut that drops a
    # codeword of length exactly budget, or a stratum that still fits,
    # shows up as a missing word
    def words(budget=None):
        return sorted(
            (coded.payload, vec.numerators)
            for coded, vec in iter_config_codebook(n, m, scope, budget)
        )

    full = words()
    for budget in range(max(len(p) for p, _ in full) + 1):
        assert words(budget) == [w for w in full if len(w[0]) <= budget], budget


def test_proxy_codebook_not_enumerable():
    # the proxy has no codebook in the oracle, and its codewords cannot fit
    # small budgets anyway: zlib framing alone exceeds 20 bits on every input
    q = QuantizedVector((0, 0, 0, 0), 2)
    assert encode_compressor_proxy(q).dl_bits > 20


# ---------------------------------------------------------------------------
# pair-difference overhead


def pair_overhead_battery(seed: int = 20240117) -> list[tuple[QuantizedVector, QuantizedVector]]:
    """Declared battery of vector pairs over which the pair-difference
    overhead constant is measured.

    Scope: sparse pairs across scales, dense random pairs, mixed pairs,
    constant pairs, and small-size piecewise-affine pairs. The codec family
    is not closed under entrywise differences, so dense smooth pairs at
    large n*m are deliberately out of scope; see the repository notes.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    pairs: list[tuple[QuantizedVector, QuantizedVector]] = []

    def rand_sparse(n, m, k):
        nums = [0] * n
        for pos in rng.choice(n, size=k, replace=False):
            nums[pos] = int(rng.integers(1, 1 << m))
        return QuantizedVector(tuple(nums), m)

    def rand_dense(n, m):
        return QuantizedVector(
            tuple(int(v) for v in rng.integers(0, 1 << m, size=n)), m
        )

    for n, m in [(8, 2), (16, 3), (16, 4), (64, 8), (256, 8)]:
        zero = QuantizedVector((0,) * n, m)
        pairs.append((zero, zero))
        for k_x in (1, 2, 4):
            for k_y in (1, 2, 4):
                pairs.append((rand_sparse(n, m, k_x), rand_sparse(n, m, k_y)))
        pairs.append((zero, rand_sparse(n, m, 2)))
        pairs.append((rand_dense(n, m), rand_dense(n, m)))
        pairs.append((rand_sparse(n, m, 2), rand_dense(n, m)))
        const_a = QuantizedVector((int(rng.integers(0, 1 << m)),) * n, m)
        const_b = QuantizedVector((int(rng.integers(0, 1 << m)),) * n, m)
        pairs.append((const_a, const_b))
        # same-support sparse pairs, the difference domain the solver sees
        support = tuple(int(i) for i in rng.choice(n, size=2, replace=False))
        for _ in range(3):
            nums_x, nums_y = [0] * n, [0] * n
            for pos in support:
                nums_x[pos] = int(rng.integers(1, 1 << m))
                nums_y[pos] = int(rng.integers(1, 1 << m))
            pairs.append(
                (QuantizedVector(tuple(nums_x), m), QuantizedVector(tuple(nums_y), m))
            )
    # piecewise-affine pairs only at small n*m where the literal fallback
    # stays within the measured constant
    for n, m in [(8, 2), (16, 3)]:
        for _ in range(4):
            specs = []
            for _ in range(2):
                a1 = rng.random() * 0.5
                a0 = rng.random() * (1.0 - a1) * 0.999
                specs.append(encode_piecewise_poly((), [[a0, a1]], n, m))
            pairs.append(
                tuple(decode_any(s, n, m) for s in specs)  # type: ignore[arg-type]
            )
    return pairs


def measure_pair_overhead(
    pairs: list[tuple[QuantizedVector, QuantizedVector]],
) -> int:
    """Max of dl(x (-) y) - dl(x) - dl(y) over the given pairs."""
    worst = -(10**9)
    for x, y in pairs:
        d = dl_surrogate(subtract_mod(x, y)).dl_bits
        worst = max(worst, d - dl_surrogate(x).dl_bits - dl_surrogate(y).dl_bits)
    return worst


def test_pair_overhead_within_pinned_constant():
    assert measure_pair_overhead(pair_overhead_battery()) <= PAIR_OVERHEAD_BITS


def test_pair_overhead_alternate_seed():
    assert measure_pair_overhead(pair_overhead_battery(99)) <= PAIR_OVERHEAD_BITS
