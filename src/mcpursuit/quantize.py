"""Fixed-point truncation of reals in [0, 1] to m-bit dyadic rationals.

quantize_vector is the package's one truncation: it keeps each integer
numerator floor(x * 2^m) exactly, clamping x = 1.0 to 1 - 2^-m, so all
downstream coding arithmetic is integer arithmetic; conversion back to
floating point happens only where a measurement operator needs a real
vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "QuantizedVector",
    "quantize_vector",
    "subtract_mod",
    "quantization_gap_bound",
]

# ldexp/floor on float64 is exact only while numerators fit comfortably in
# the int64 range; larger resolutions take the exact Fraction path.
_VECTOR_FAST_MAX_BITS = 62


@dataclass(frozen=True)
class QuantizedVector:
    """A vector of m-bit dyadic rationals, stored as integer numerators."""

    numerators: tuple[int, ...]
    resolution_bits: int

    def __post_init__(self) -> None:
        m = self.resolution_bits
        if m < 1:
            raise ValueError("resolution_bits must be >= 1")
        top = 1 << m
        for v in self.numerators:
            if not 0 <= v < top:
                raise ValueError("numerator out of range for resolution")

    @property
    def n(self) -> int:
        return len(self.numerators)

    def to_floats(self) -> np.ndarray:
        return np.ldexp(
            np.asarray(self.numerators, dtype=np.float64), -self.resolution_bits
        )

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.numerators) if v != 0)


def quantize_vector(x: np.ndarray, m: int) -> QuantizedVector:
    """Entrywise truncation of a vector with entries in [0, 1] to m bits:
    numerators floor(x * 2^m), with x = 1.0 clamped to 2^m - 1 so every
    value stays in [0, 1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("x must be one-dimensional")
    if arr.size and (np.isnan(arr).any() or arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("entries must lie in [0, 1]")
    top = 1 << m
    if m > _VECTOR_FAST_MAX_BITS:
        # Fraction(v) is the exact binary value of the float, so the floor
        # is exact for every m.
        nums = [math.floor(Fraction(v) * top) for v in arr.tolist()]
    else:
        # Scaling a float by 2^m and flooring are both exact float64
        # operations, so this is the same floor.
        nums = np.floor(np.ldexp(arr, m)).astype(np.int64).tolist()
    return QuantizedVector(tuple(min(v, top - 1) for v in nums), m)


def subtract_mod(a: QuantizedVector, b: QuantizedVector) -> QuantizedVector:
    """Entrywise numerator difference modulo 2^m.

    The wraparound keeps differences of quantized vectors inside the codec
    domain [0, 1), which is how coded differences are fed back through the
    description-length surrogate.
    """
    if a.resolution_bits != b.resolution_bits:
        raise ValueError("resolution mismatch")
    if a.n != b.n:
        raise ValueError("length mismatch")
    mod = 1 << a.resolution_bits
    nums = tuple((x - y) % mod for x, y in zip(a.numerators, b.numerators))
    return QuantizedVector(nums, a.resolution_bits)


def quantization_gap_bound(n: int, m: int) -> float:
    """Worst-case l2 distance sqrt(n * 2^(1-2m)) between two vectors that
    agree after m-bit truncation.

    Decreasing in m, so refining the quantizer tightens every error chain
    built on top of it.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    return math.sqrt(n * math.ldexp(1.0, 1 - 2 * m))
