"""Prefix-free codecs whose code lengths serve as a computable
description-length surrogate for the complexity of quantized vectors.

Every codec emits a self-contained bitstring: a fixed 3-bit codec tag
followed by codec-specific fields. Integer fields use a self-delimiting
universal code, so distinct codewords are mutually prefix-free both within
a codec and across codecs. The resolution m is context carried out of band;
streams do not repeat it.

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

import numpy as np

from .bitio import BitReader, BitWriter, DecodeError, bits_to_bytes, bytes_to_bits
from .quantize import QuantizedVector, truncate_bits

__all__ = [
    "CodecError",
    "CodedSignal",
    "SurrogateResult",
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
    "decode_sparse",
    "encode_piecewise_poly",
    "decode_piecewise_poly",
    "quantize_pp_spec",
    "pp_sample_numerators",
    "encode_literal",
    "decode_literal",
    "encode_compressor_proxy",
    "decode_compressor_proxy",
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


@dataclass(frozen=True)
class SurrogateResult:
    dl_bits: int
    codec_id: str
    coded: CodedSignal


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


def encode_uint(n: int, out: BitWriter | None = None) -> str:
    """Self-delimiting code for n >= 1 (Elias-delta layout).

    Codeword = unary-prefixed binary of (exp+1) followed by the exp low
    bits of n, where exp = floor(log2 n). Total length is
    exp + 2*floor(log2(exp+1)) + 1 <= ceil(log_star(n)) + 4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    w = out if out is not None else BitWriter()
    exp = n.bit_length() - 1
    gamma_arg = exp + 1
    zeros = gamma_arg.bit_length() - 1
    w.write_bits("0" * zeros)
    w.write_fixed(gamma_arg, zeros + 1)
    if exp:
        w.write_fixed(n - (1 << exp), exp)
    return w.getvalue() if out is None else ""


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


# ---------------------------------------------------------------------------
# sparse codec: [tag][uint n][uint k+1][uint pos_i+1 ascending][k * m bits]


def encode_sparse(q: QuantizedVector) -> CodedSignal:
    w = BitWriter()
    w.write_bits(_HEADERS["sparse"])
    encode_uint(q.n, w)
    support = q.support()
    encode_uint(len(support) + 1, w)
    m = q.resolution_bits
    for pos in support:
        encode_uint(pos + 1, w)
    for pos in support:
        w.write_fixed(q.numerators[pos], m)
    return CodedSignal("sparse", w.getvalue())


def _decode_sparse_body(r: BitReader, n: int, m: int) -> QuantizedVector:
    coded_n = decode_uint(r)
    if coded_n != n:
        raise DecodeError(f"stream is for n={coded_n}, context says n={n}")
    k = decode_uint(r) - 1
    if k > n:
        raise DecodeError("support larger than vector")
    positions = []
    prev = -1
    for _ in range(k):
        pos = decode_uint(r) - 1
        if pos <= prev or pos >= n:
            raise DecodeError("positions must be strictly ascending in range")
        positions.append(pos)
        prev = pos
    nums = [0] * n
    for pos in positions:
        v = r.read_fixed(m)
        if v == 0:
            raise DecodeError("zero payload at coded position is non-canonical")
        nums[pos] = v
    return QuantizedVector(tuple(nums), m)


def decode_sparse(c: CodedSignal, n: int, m: int) -> QuantizedVector:
    r = _open_reader(c, "sparse")
    q = _decode_sparse_body(r, n, m)
    r.expect_end()
    return q


# ---------------------------------------------------------------------------
# piecewise-polynomial codec:
# [tag][uint n][uint N+1][uint Q+1][uint b_i ascending][(Q+1)(N+1) * m' bits]
#
# Pieces partition sample indices {0..n-1} at breakpoints 1 <= b_1 < ... <
# b_Q <= n-1; piece l covers [b_l, b_{l+1}). Each piece carries numerators
# of coefficients a_0..a_N at m' bits; the decoded samples are the m-bit
# truncations of sum_j a_j (i/n)^j, evaluated in exact integer arithmetic.


def pp_sample_numerators(
    breakpoints: tuple[int, ...],
    coeff_nums: tuple[tuple[int, ...], ...],
    n_deg: int,
    n: int,
    m: int,
) -> tuple[int, ...]:
    """Exact m-bit sample numerators of the quantized-coefficient polynomial."""
    m_prime = coeff_resolution(n_deg, m)
    bounds = (0,) + tuple(breakpoints) + (n,)
    out = [0] * n
    denom = (1 << m_prime) * n**n_deg
    for piece, coeffs in enumerate(coeff_nums):
        lo, hi = bounds[piece], bounds[piece + 1]
        for i in range(lo, hi):
            # numerator of p(i/n) over denom, kept as exact integers
            s = 0
            for j, cj in enumerate(coeffs):
                s += cj * i**j * n ** (n_deg - j)
            out[i] = (s << m) // denom
    return tuple(out)


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
        if row.min() < 0.0 or row.max() > 1.0:
            raise CodecError("coefficients must lie in [0, 1]")
        if row.sum() >= 1.0:
            raise CodecError("per-piece coefficient sum must be < 1")
        rows.append(tuple(truncate_bits(float(a), m_prime).numerator for a in row))
    return tuple(breaks), tuple(rows), m_prime


def _encode_pp_numerators(
    breaks: tuple[int, ...],
    coeff_nums: tuple[tuple[int, ...], ...],
    n_deg: int,
    n: int,
    m: int,
) -> CodedSignal:
    m_prime = coeff_resolution(n_deg, m)
    w = BitWriter()
    w.write_bits(_HEADERS["piecewise_poly"])
    encode_uint(n, w)
    encode_uint(n_deg + 1, w)
    encode_uint(len(breaks) + 1, w)
    for b in breaks:
        encode_uint(b, w)
    for row in coeff_nums:
        for c in row:
            w.write_fixed(c, m_prime)
    return CodedSignal("piecewise_poly", w.getvalue())


def encode_piecewise_poly(breakpoints, coefficients, n: int, m: int) -> CodedSignal:
    breaks, coeff_nums, _ = quantize_pp_spec(breakpoints, coefficients, n, m)
    n_deg = len(coeff_nums[0]) - 1
    return _encode_pp_numerators(breaks, coeff_nums, n_deg, n, m)


def decode_piecewise_poly(c: CodedSignal, n: int, m: int) -> QuantizedVector:
    r = _open_reader(c, "piecewise_poly")
    coded_n = decode_uint(r)
    if coded_n != n:
        raise DecodeError(f"stream is for n={coded_n}, context says n={n}")
    n_deg = decode_uint(r) - 1
    q_breaks = decode_uint(r) - 1
    if q_breaks > n - 1:
        raise DecodeError("more pieces than samples")
    m_prime = coeff_resolution(n_deg, m)
    breaks = []
    prev = 0
    for _ in range(q_breaks):
        b = decode_uint(r)
        if b <= prev or b > n - 1:
            raise DecodeError("breakpoints must be strictly ascending in [1, n-1]")
        breaks.append(b)
        prev = b
    top = 1 << m_prime
    rows = []
    for _ in range(q_breaks + 1):
        row = tuple(r.read_fixed(m_prime) for _ in range(n_deg + 1))
        if sum(row) >= top:
            raise DecodeError("per-piece coefficient sum must be < 1")
        rows.append(row)
    r.expect_end()
    nums = pp_sample_numerators(tuple(breaks), tuple(rows), n_deg, n, m)
    return QuantizedVector(nums, m)


# ---------------------------------------------------------------------------
# literal codec: [tag][n * m bits], the incompressible fallback


def encode_literal(q: QuantizedVector) -> CodedSignal:
    w = BitWriter()
    w.write_bits(_HEADERS["literal"])
    m = q.resolution_bits
    for v in q.numerators:
        w.write_fixed(v, m)
    return CodedSignal("literal", w.getvalue())


def decode_literal(c: CodedSignal, n: int, m: int) -> QuantizedVector:
    r = _open_reader(c, "literal")
    nums = tuple(r.read_fixed(m) for _ in range(n))
    r.expect_end()
    return QuantizedVector(nums, m)


# ---------------------------------------------------------------------------
# compressor proxy: [tag][uint nbytes+1][compressed bytes]
#
# Advisory codec: its length participates in dl_surrogate reporting but it
# is never part of solver codebooks.


def _pack_numerators(q: QuantizedVector) -> bytes:
    """The literal payload's bits, zero-padded to whole bytes."""
    return bits_to_bytes(encode_literal(q).payload[CODEC_HEADER_BITS:])[:-1]


def encode_compressor_proxy(q: QuantizedVector) -> CodedSignal:
    blob = zlib.compress(_pack_numerators(q), 9)
    w = BitWriter()
    w.write_bits(_HEADERS["compressor_proxy"])
    encode_uint(len(blob) + 1, w)
    for byte in blob:
        w.write_fixed(byte, 8)
    return CodedSignal("compressor_proxy", w.getvalue())


def decode_compressor_proxy(c: CodedSignal, n: int, m: int) -> QuantizedVector:
    r = _open_reader(c, "compressor_proxy")
    nbytes = decode_uint(r) - 1
    blob = bytes(r.read_fixed(8) for _ in range(nbytes))
    r.expect_end()
    try:
        raw = zlib.decompress(blob)
    except zlib.error as exc:
        raise DecodeError(f"corrupt compressed payload: {exc}") from exc
    if len(raw) * 8 < n * m:
        raise DecodeError("compressed payload shorter than n*m bits")
    bits = "".join(format(b, "08b") for b in raw)
    nums = tuple(int(bits[i * m : (i + 1) * m], 2) for i in range(n))
    return QuantizedVector(nums, m)


# ---------------------------------------------------------------------------


def _open_reader(c: CodedSignal, expect_id: str) -> BitReader:
    r = BitReader(c.payload)
    tag = "".join(str(r.read_bit()) for _ in range(CODEC_HEADER_BITS))
    if _HEADER_TO_ID.get(tag) != expect_id:
        raise DecodeError(f"stream tag {tag!r} does not match codec {expect_id!r}")
    return r


_DECODERS = {
    "sparse": decode_sparse,
    "piecewise_poly": decode_piecewise_poly,
    "literal": decode_literal,
    "compressor_proxy": decode_compressor_proxy,
}


def decode_any(c: CodedSignal, n: int, m: int) -> QuantizedVector:
    """Dispatch on the embedded codec tag."""
    if len(c.payload) < CODEC_HEADER_BITS:
        raise DecodeError("stream shorter than codec tag")
    tag = c.payload[:CODEC_HEADER_BITS]
    codec_id = _HEADER_TO_ID.get(tag)
    if codec_id is None:
        raise DecodeError(f"unknown codec tag {tag!r}")
    return _DECODERS[codec_id](CodedSignal(codec_id, c.payload), n, m)


def _constant_runs(nums: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Run-length view: (breakpoints at run starts, run values)."""
    breaks = []
    values = [nums[0]]
    for i in range(1, len(nums)):
        if nums[i] != nums[i - 1]:
            breaks.append(i)
            values.append(nums[i])
    return tuple(breaks), tuple(values)


def dl_surrogate(
    q: QuantizedVector,
    pp_hint: tuple | None = None,
    include_proxy: bool = True,
) -> SurrogateResult:
    """Minimum code length for q over the registered codecs.

    The piecewise-polynomial entry is searched only over structures that
    provably reproduce q: exact constant runs, plus an optional caller hint
    (breakpoints, coefficients) which is used when its decode matches q.
    Always <= n*m + header because the literal codec applies to everything.
    """
    candidates = [encode_sparse(q), encode_literal(q)]
    if q.n >= 1:
        breaks, values = _constant_runs(q.numerators)
        candidates.append(
            _encode_pp_numerators(
                breaks, tuple((v,) for v in values), 0, q.n, q.resolution_bits
            )
        )
    if pp_hint is not None:
        try:
            coded = encode_piecewise_poly(
                pp_hint[0], pp_hint[1], q.n, q.resolution_bits
            )
            if decode_piecewise_poly(coded, q.n, q.resolution_bits) == q:
                candidates.append(coded)
        except CodecError:
            pass
    if include_proxy:
        candidates.append(encode_compressor_proxy(q))
    best = min(candidates, key=lambda c: (c.dl_bits, CODEC_IDS.index(c.codec_id)))
    return SurrogateResult(best.dl_bits, best.codec_id, best)


def coded_to_bytes(c: CodedSignal) -> bytes:
    return bits_to_bytes(c.payload)


def coded_from_bytes(data: bytes) -> CodedSignal:
    bits = bytes_to_bits(data)
    if len(bits) < CODEC_HEADER_BITS:
        raise DecodeError("stream shorter than codec tag")
    codec_id = _HEADER_TO_ID.get(bits[:CODEC_HEADER_BITS])
    if codec_id is None:
        raise DecodeError("unknown codec tag")
    return CodedSignal(codec_id, bits)
