"""Prefix-free codecs whose code lengths serve as a computable
description-length surrogate for the complexity of quantized vectors.

Every codeword has one layout: a fixed 3-bit codec tag, then integer
fields in a self-delimiting universal code, then values at one fixed
width (`_coded` writes it). Distinct codewords are therefore mutually
prefix-free both within a codec and across codecs. The context (n, m) is
carried out of band: m is never in a stream, and only sparse and
piecewise streams repeat n. decode_any is the one reader: it dispatches
on the tag, and refuses a stream that does not fit its context or has
bits past its end.

A codeword's length is fixed by its stratum: the support of a sparse
codeword, the degree and breakpoints of a piecewise-polynomial one, and n
for a literal one. Values only fill fixed-width fields. The codebook
enumerator in tests/oracle_enum.py relies on this to cut a length budget
one stratum at a time.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .bitio import BitReader, BitWriter, DecodeError, bits_to_bytes, bytes_to_bits
from .quantize import QuantizedVector, quantize_vector

__all__ = [
    "CodecError",
    "CodedSignal",
    "log_star",
    "encode_uint",
    "decode_uint",
    "uint_code_len",
    "UNIVERSAL_CODE_SLACK",
    "CODEC_HEADER_BITS",
    "CODEC_IDS",
    "PAIR_OVERHEAD_BITS",
    "coeff_resolution",
    "sparse_dl_bound",
    "pp_dl_bound",
    "encode_sparse",
    "encode_piecewise_poly",
    "quantize_pp_spec",
    "pp_sampler",
    "pp_sample_numerators",
    "encode_literal",
    "encode_compressor_proxy",
    "decode_any",
    "dl_surrogate",
    "coded_to_bytes",
    "coded_from_bytes",
]


class CodecError(ValueError):
    """Raised when an encoder is handed inputs outside its declared domain."""


# Fixed measured overheads. UNIVERSAL_CODE_SLACK is the additive constant of
# the universal integer code: its length never exceeds
# ceil(log_star(n)) + UNIVERSAL_CODE_SLACK, asserted exhaustively in tests.
UNIVERSAL_CODE_SLACK = 4
CODEC_HEADER_BITS = 3

CODEC_IDS = ("sparse", "piecewise_poly", "literal", "compressor_proxy")
_HEADERS = {name: format(i, "03b") for i, name in enumerate(CODEC_IDS)}
_HEADER_TO_ID = {v: k for k, v in _HEADERS.items()}

# Measured pair-difference overhead: max of
# dl(x (-) y) - dl(x) - dl(y) over the declared battery in
# tests/test_codecs.py::pair_overhead_battery. Measured at -12 across seeds
# (each codeword on the right double-pays tag and length fields), pinned at
# the conservative round-up 0. Solver budgets add this.
PAIR_OVERHEAD_BITS = 0


@dataclass(frozen=True)
class CodedSignal:
    """A finished codeword. payload includes the codec tag."""

    codec_id: str
    payload: str

    @property
    def dl_bits(self) -> int:
        return len(self.payload)


def log_star(n: int) -> float:
    """Iterated-log style bound ceil(log2 n) + 2 log2(max(ceil(log2 n), 1))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lg = (n - 1).bit_length()  # ceil(log2 n), exact
    return lg + 2.0 * math.log2(max(lg, 1))


def uint_code_len(n: int) -> int:
    """Length of encode_uint(n) without building the string."""
    if n < 1:
        raise ValueError("n must be >= 1")
    exp = n.bit_length() - 1
    exp_bits = (exp + 1).bit_length() - 1
    return exp + 2 * exp_bits + 1


def encode_uint(n: int) -> str:
    """Self-delimiting code for n >= 1 (Elias-delta layout).

    Codeword = unary-prefixed binary of (exp+1) followed by the exp low
    bits of n, where exp = floor(log2 n). Total length is
    exp + 2*floor(log2(exp+1)) + 1 <= ceil(log_star(n)) + 4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gamma = format(n.bit_length(), "b")  # exp + 1
    return "0" * (len(gamma) - 1) + gamma + format(n, "b")[1:]


def decode_uint(r: BitReader) -> int:
    zeros = 0
    while r.read_bit() == 0:
        zeros += 1
        if zeros > 64:
            raise DecodeError("unary prefix too long")
    gamma_arg = (1 << zeros) | r.read_fixed(zeros)
    exp = gamma_arg - 1
    return (1 << exp) | r.read_fixed(exp)


def coeff_resolution(n_deg: int, m: int) -> int:
    """Coefficient resolution m' = m + ceil(log2(N+1)) for degree N.

    Chosen so that the total coefficient-truncation error (N+1) * 2^-m'
    of a polynomial stays strictly below one sample quantization step.
    """
    if n_deg < 0:
        raise ValueError("degree must be >= 0")
    return m + n_deg.bit_length()  # ceil(log2(N+1)) == N.bit_length()


def sparse_dl_bound(k: int, n: int, m: int) -> int:
    """Upper bound on the sparse codeword length for support size k."""
    if not 0 <= k <= n or m < 1:
        raise ValueError("need 0 <= k <= n and m >= 1")
    c = UNIVERSAL_CODE_SLACK
    return (
        m * k
        + (k + 1) * (math.ceil(log_star(n)) + c)
        + math.ceil(log_star(k + 1))
        + c
    )


def pp_dl_bound(q_breaks: int, n_deg: int, n: int, m: int) -> int:
    """Upper bound on the piecewise-polynomial codeword length for
    q_breaks breakpoints and per-piece degree n_deg."""
    if q_breaks < 0 or n_deg < 0 or n < 1 or m < 1:
        raise ValueError("invalid piecewise-poly shape")
    c = UNIVERSAL_CODE_SLACK
    m_prime = coeff_resolution(n_deg, m)
    return (
        (q_breaks + 1) * (n_deg + 1) * m_prime
        + (q_breaks + 1) * (math.ceil(log_star(n)) + c)
        + math.ceil(log_star(n))
        + math.ceil(log_star(n_deg + 1))
        + math.ceil(log_star(q_breaks + 1))
        + c
        + c
    )


def _coded(codec_id: str, uints, values, width: int) -> CodedSignal:
    """The one codeword layout: tag, universal-coded integers, then values
    at width bits each."""
    w = BitWriter()
    w.write_bits(_HEADERS[codec_id])
    for u in uints:
        w.write_bits(encode_uint(u))
    for v in values:
        w.write_fixed(v, width)
    return CodedSignal(codec_id, w.getvalue())


def _read_n(r: BitReader, n: int) -> None:
    coded_n = decode_uint(r)
    if coded_n != n:
        raise DecodeError(f"stream is for n={coded_n}, context says n={n}")


def _read_ascending(r: BitReader, count: int, lo: int, hi: int) -> list[int]:
    """count universal-coded integers, strictly ascending in [lo, hi]."""
    out = []
    prev = lo - 1
    for _ in range(count):
        v = decode_uint(r)
        if v <= prev or v > hi:
            raise DecodeError(f"fields must be strictly ascending in [{lo}, {hi}]")
        out.append(v)
        prev = v
    return out


# ---------------------------------------------------------------------------
# sparse codec: [tag][uint n][uint k+1][uint pos_i+1 ascending][k * m bits]


def encode_sparse(q: QuantizedVector) -> CodedSignal:
    support = q.support()
    uints = (q.n, len(support) + 1, *(pos + 1 for pos in support))
    values = (q.numerators[pos] for pos in support)
    return _coded("sparse", uints, values, q.resolution_bits)


def _read_sparse(r: BitReader, n: int, m: int) -> QuantizedVector:
    _read_n(r, n)
    k = decode_uint(r) - 1
    if k > n:
        raise DecodeError("support larger than vector")
    nums = [0] * n
    for pos in _read_ascending(r, k, 1, n):
        v = r.read_fixed(m)
        if v == 0:
            raise DecodeError("zero payload at coded position is non-canonical")
        nums[pos - 1] = v
    return QuantizedVector(tuple(nums), m)


# ---------------------------------------------------------------------------
# piecewise-polynomial codec:
# [tag][uint n][uint N+1][uint Q+1][uint b_i ascending][(Q+1)(N+1) * m' bits]
#
# Pieces partition sample indices {0..n-1} at breakpoints 1 <= b_1 < ... <
# b_Q <= n-1; piece l covers [b_l, b_{l+1}). Each piece carries numerators
# of coefficients a_0..a_N at m' bits; the decoded samples are the m-bit
# truncations of sum_j a_j (i/n)^j, evaluated in exact integer arithmetic.
# One sampler, pp_sampler, computes them: decode_any calls it for one
# point, the solver's walk for a batch of points per breakpoint pattern,
# and the codebook enumerator of tests/oracle_enum.py for every point of
# a pattern at once.


def pp_sampler(breakpoints: tuple[int, ...], n_deg: int, n: int, m: int):
    """The exact sampler of one breakpoint pattern and degree: a function
    from an (L, D) array of coefficient numerators, D = (Q + 1)(N + 1) of
    them per point, piece by piece, to the (L, n) array of their m-bit
    sample numerators.

    Row p (N + 1) + j of the integer basis holds i^j n^(N - j) on piece
    p's samples i, so a point's samples are floor(2^m (u @ basis) /
    (2^m' n^N)). The basis is built once per pattern. The arithmetic is
    int64 while the bit bound of its intermediate values is at most 62,
    and Python integers (an object array) beyond it."""
    m_prime = coeff_resolution(n_deg, m)
    width = n_deg + 1
    bit_bound = m_prime + n_deg * max(n - 1, 1).bit_length() + width.bit_length() + m
    dtype = np.int64 if bit_bound <= 62 else object
    i = np.arange(n).astype(dtype)
    edges = (0, *breakpoints, n)
    basis = np.zeros((width * (len(edges) - 1), n), dtype=dtype)
    for p in range(len(edges) - 1):
        lo, hi = edges[p], edges[p + 1]
        for j in range(width):
            basis[p * width + j, lo:hi] = i[lo:hi] ** j * n ** (n_deg - j)
    denom = (1 << m_prime) * n**n_deg

    def sample(coeffs):
        return (np.asarray(coeffs, dtype=dtype) @ basis << m) // denom

    return sample


def pp_sample_numerators(
    breakpoints: tuple[int, ...],
    coeff_nums: tuple[tuple[int, ...], ...],
    n_deg: int,
    n: int,
    m: int,
) -> tuple[int, ...]:
    """Exact m-bit sample numerators of the quantized-coefficient
    polynomial: pp_sampler's call on one point."""
    point = [list(chain.from_iterable(coeff_nums))]
    return tuple(pp_sampler(breakpoints, n_deg, n, m)(point)[0].tolist())


def quantize_pp_spec(
    breakpoints, coefficients, n: int, m: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int]:
    """Validate a piecewise-polynomial spec and truncate its coefficients.

    Returns (breakpoints, coefficient numerators, m'). Raises CodecError on
    breakpoints off the sample grid or coefficients outside the class.
    """
    if n < 1 or m < 1:
        raise CodecError("need n >= 1 and m >= 1")
    breaks = []
    prev = 0
    for b in breakpoints:
        if not float(b).is_integer():
            raise CodecError(f"breakpoint {b!r} is not on the sample grid")
        b = int(b)
        if b <= prev or b > n - 1:
            raise CodecError("breakpoints must be strictly ascending in [1, n-1]")
        breaks.append(b)
        prev = b
    coeffs = np.atleast_2d(np.asarray(coefficients, dtype=np.float64))
    if coeffs.shape[0] != len(breaks) + 1:
        raise CodecError("need one coefficient row per piece")
    n_deg = coeffs.shape[1] - 1
    m_prime = coeff_resolution(n_deg, m)
    rows = []
    for row in coeffs:
        # NaN fails both comparisons, so it is refused here too
        if not (row.min() >= 0.0 and row.max() <= 1.0):
            raise CodecError("coefficients must lie in [0, 1]")
        if row.sum() >= 1.0:
            raise CodecError("per-piece coefficient sum must be < 1")
        rows.append(quantize_vector(row, m_prime).numerators)
    return tuple(breaks), tuple(rows), m_prime


def _encode_pp_numerators(
    breaks: tuple[int, ...],
    coeff_nums: tuple[tuple[int, ...], ...],
    n_deg: int,
    n: int,
    m: int,
) -> CodedSignal:
    uints = (n, n_deg + 1, len(breaks) + 1, *breaks)
    values = chain.from_iterable(coeff_nums)
    return _coded("piecewise_poly", uints, values, coeff_resolution(n_deg, m))


def encode_piecewise_poly(breakpoints, coefficients, n: int, m: int) -> CodedSignal:
    breaks, coeff_nums, _ = quantize_pp_spec(breakpoints, coefficients, n, m)
    n_deg = len(coeff_nums[0]) - 1
    return _encode_pp_numerators(breaks, coeff_nums, n_deg, n, m)


def _read_piecewise_poly(r: BitReader, n: int, m: int) -> QuantizedVector:
    _read_n(r, n)
    n_deg = decode_uint(r) - 1
    q_breaks = decode_uint(r) - 1
    if q_breaks > n - 1:
        raise DecodeError("more pieces than samples")
    breaks = tuple(_read_ascending(r, q_breaks, 1, n - 1))
    m_prime = coeff_resolution(n_deg, m)
    rows = []
    for _ in range(q_breaks + 1):
        row = tuple(r.read_fixed(m_prime) for _ in range(n_deg + 1))
        if sum(row) >= 1 << m_prime:
            raise DecodeError("per-piece coefficient sum must be < 1")
        rows.append(row)
    return QuantizedVector(pp_sample_numerators(breaks, tuple(rows), n_deg, n, m), m)


# ---------------------------------------------------------------------------
# literal codec: [tag][n * m bits], the incompressible fallback


def encode_literal(q: QuantizedVector) -> CodedSignal:
    return _coded("literal", (), q.numerators, q.resolution_bits)


def _read_literal(r: BitReader, n: int, m: int) -> QuantizedVector:
    return QuantizedVector(tuple(r.read_fixed(m) for _ in range(n)), m)


# ---------------------------------------------------------------------------
# compressor proxy: [tag][uint nbytes+1][compressed bytes]
#
# The compressed bytes inflate to the literal payload, zero-padded to whole
# bytes. Advisory codec: its length participates in dl_surrogate reporting
# but it is never part of solver codebooks.


def encode_compressor_proxy(q: QuantizedVector) -> CodedSignal:
    packed = bits_to_bytes(encode_literal(q).payload[CODEC_HEADER_BITS:])[:-1]
    blob = zlib.compress(packed, 9)
    return _coded("compressor_proxy", (len(blob) + 1,), blob, 8)


def _read_compressor_proxy(r: BitReader, n: int, m: int) -> QuantizedVector:
    blob = bytes(r.read_fixed(8) for _ in range(decode_uint(r) - 1))
    try:
        raw = zlib.decompress(blob)
    except zlib.error as exc:
        raise DecodeError(f"corrupt compressed payload: {exc}") from exc
    pad = 8 * len(raw) - n * m
    if not 0 <= pad < 8:
        raise DecodeError("compressed payload is not n*m bits in whole bytes")
    return _read_literal(BitReader(bytes_to_bits(raw + bytes([pad]))), n, m)


# ---------------------------------------------------------------------------


def _read_tag(bits: str) -> tuple[str, BitReader]:
    """The codec that a stream's tag names, and a reader past the tag.
    Raises DecodeError if the stream does not start with a codec tag."""
    tag = bits[:CODEC_HEADER_BITS]
    codec_id = _HEADER_TO_ID.get(tag)
    if codec_id is None:
        raise DecodeError(f"stream does not start with a codec tag: {tag!r}")
    r = BitReader(bits)
    r.read_fixed(CODEC_HEADER_BITS)
    return codec_id, r


_READERS = {
    "sparse": _read_sparse,
    "piecewise_poly": _read_piecewise_poly,
    "literal": _read_literal,
    "compressor_proxy": _read_compressor_proxy,
}


def decode_any(c: CodedSignal, n: int, m: int) -> QuantizedVector:
    """The vector that c's stream codes under context (n, m).

    Raises DecodeError if the stream is malformed, has bits past its
    codeword, or does not fit the context."""
    codec_id, r = _read_tag(c.payload)
    q = _READERS[codec_id](r, n, m)
    r.expect_end()
    return q


def _constant_runs(nums: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Run-length view: (breakpoints at run starts, run values)."""
    breaks = []
    values = [nums[0]]
    for i in range(1, len(nums)):
        if nums[i] != nums[i - 1]:
            breaks.append(i)
            values.append(nums[i])
    return tuple(breaks), tuple(values)


def dl_surrogate(q: QuantizedVector, include_proxy: bool = True) -> CodedSignal:
    """The shortest codeword of q over the registered codecs, ties going
    to the codec listed first in CODEC_IDS.

    The piecewise-polynomial entry is searched only over the exact
    constant runs of q, which provably reproduce it. Never longer than
    n*m + header, because the literal codec applies to everything.
    """
    candidates = [encode_sparse(q), encode_literal(q)]  # sparse refuses n = 0
    breaks, values = _constant_runs(q.numerators)
    runs = tuple((v,) for v in values)
    candidates.append(_encode_pp_numerators(breaks, runs, 0, q.n, q.resolution_bits))
    if include_proxy:
        candidates.append(encode_compressor_proxy(q))
    return min(candidates, key=lambda c: (c.dl_bits, CODEC_IDS.index(c.codec_id)))


def coded_to_bytes(c: CodedSignal) -> bytes:
    return bits_to_bytes(c.payload)


def coded_from_bytes(data: bytes) -> CodedSignal:
    bits = bytes_to_bits(data)
    return CodedSignal(_read_tag(bits)[0], bits)
