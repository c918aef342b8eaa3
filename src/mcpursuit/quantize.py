"""Fixed-point truncation of reals in [0, 1] to m-bit dyadic rationals.

Truncation keeps the integer numerator floor(x * 2^m) exactly, so all
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
    "DyadicValue",
    "QuantizedVector",
    "truncate_bits",
    "quantize_vector",
    "subtract_mod",
    "quantization_gap_bound",
]

# ldexp/floor on float64 is exact only while numerators fit comfortably in
# the int64 range; larger resolutions take the exact Fraction path.
_VECTOR_FAST_MAX_BITS = 62


@dataclass(frozen=True)
class DyadicValue:
    """An exact dyadic rational numerator / 2^resolution_bits in [0, 1)."""

    numerator: int
    resolution_bits: int

    def __post_init__(self) -> None:
        if self.resolution_bits < 1:
            raise ValueError("resolution_bits must be >= 1")
        if not 0 <= self.numerator < (1 << self.resolution_bits):
            raise ValueError("numerator out of range for resolution")

    @property
    def value(self) -> float:
        return math.ldexp(self.numerator, -self.resolution_bits)


def truncate_bits(x: float, m: int) -> DyadicValue:
    """Truncate x in [0, 1] to m fractional bits.

    Returns floor(x * 2^m) / 2^m held exactly. x = 1.0 is clamped to the
    largest representable value 1 - 2^-m so the result stays in [0, 1).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not isinstance(x, (int, float)):
        raise TypeError("x must be a real scalar")
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 1.0:
        return DyadicValue((1 << m) - 1, m)
    # Fraction(x) is the exact binary value of the float, so the floor is
    # exact for every m.
    numerator = math.floor(Fraction(x) * (1 << m))
    return DyadicValue(numerator, m)


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
    """Entrywise truncation of a vector with entries in [0, 1]."""
    if m < 1:
        raise ValueError("m must be >= 1")
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("x must be one-dimensional")
    if arr.size and (np.isnan(arr).any() or arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("entries must lie in [0, 1]")
    if m > _VECTOR_FAST_MAX_BITS:
        nums = tuple(truncate_bits(float(v), m).numerator for v in arr)
        return QuantizedVector(nums, m)
    # Scaling a float by 2^m and flooring are both exact float64 operations,
    # so this matches the Fraction path bit for bit.
    scaled = np.floor(np.ldexp(arr, m)).astype(np.int64)
    top = np.int64(1) << m
    scaled[scaled == top] = top - 1  # x == 1.0 clamps to 1 - 2^-m
    return QuantizedVector(tuple(int(v) for v in scaled), m)


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
