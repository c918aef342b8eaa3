import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcpursuit.codecs import encode_piecewise_poly
from mcpursuit.quantize import (
    QuantizedVector,
    quantization_gap_bound,
    quantize_vector,
    subtract_mod,
)

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _num(x: float, m: int) -> int:
    return quantize_vector(np.array([x]), m).numerators[0]


def _floor_ref(x: float, m: int) -> int:
    """floor(x * 2^m) on the float's exact value, 1.0 clamped to 2^m - 1."""
    return min(math.floor(Fraction(x) * 2**m), 2**m - 1)


def test_truncate_known_values():
    assert _num(0.5, 3) == 4
    assert _num(0.0, 8) == 0
    assert _num(1.0, 8) == 255  # top clamp
    assert _num(1.0, 1) == 1
    assert _num(1.0, 70) == 2**70 - 1  # top clamp past 62 bits
    # 0.3 in binary is 0.0100110011..., so 4 bits keep 0100
    assert _num(0.3, 4) == 4


def test_truncate_is_exact_on_grid_points():
    for m in (1, 3, 8, 17):
        for k in (0, 1, (1 << m) // 3, (1 << m) - 1):
            assert _num(k / (1 << m), m) == k


@given(x=unit_floats, m=st.integers(min_value=1, max_value=60))
def test_truncate_error_window(x, m):
    err = Fraction(x) - Fraction(_num(x, m), 1 << m)
    assert 0 <= err
    if x < 1.0:
        assert err < Fraction(1, 1 << m)
    else:
        assert err <= Fraction(1, 1 << m)  # clamp at the top cell


@given(
    x=unit_floats,
    y=unit_floats,
    m=st.integers(min_value=1, max_value=40),
)
def test_truncate_monotone(x, y, m):
    if x > y:
        x, y = y, x
    assert _num(x, m) <= _num(y, m)


def test_truncate_rejects_out_of_range():
    for m in (4, 70):
        for bad in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError):
                quantize_vector(np.array([0.5, bad]), m)
    with pytest.raises(ValueError):
        quantize_vector(np.array([0.5]), 0)


@given(
    xs=st.lists(unit_floats, min_size=1, max_size=50),
    m=st.integers(min_value=1, max_value=62),
)
@settings(max_examples=200)
def test_vector_matches_scalar_path(xs, m):
    # the float64 path against the exact floor, entry by entry
    q = quantize_vector(np.array(xs), m)
    assert q.numerators == tuple(_floor_ref(x, m) for x in xs)


def test_vector_fraction_fallback_agrees():
    # above 62 bits the numerators are floored as Fractions
    xs = np.array([0.0, 1.0, 0.3, 1 / 3, 0.9999999999999999, 2.0**-1074, 0.5])
    for m in (62, 63, 70, 200):
        q = quantize_vector(xs, m)
        assert q.numerators == tuple(_floor_ref(float(x), m) for x in xs)
    # degree-1 coefficients at m = 62 are truncated to m' = 63 bits, the
    # last bits of the codeword
    coeffs = (1 / 3, 0.3)
    payload = encode_piecewise_poly([], [coeffs], 8, 62).payload
    assert payload[-126:] == "".join(f"{_floor_ref(c, 63):063b}" for c in coeffs)


@given(
    xs=st.lists(unit_floats, min_size=1, max_size=64),
    m=st.integers(min_value=1, max_value=52),
)
@settings(max_examples=200)
def test_quantization_l2_error_within_gap_bound(xs, m):
    x = np.array(xs)
    err = np.linalg.norm(x - quantize_vector(x, m).to_floats())
    assert err <= quantization_gap_bound(len(xs), m)


def test_gap_bound_values():
    assert quantization_gap_bound(256, 8) == pytest.approx(
        0.08838834764831845, abs=0, rel=1e-15
    )
    assert quantization_gap_bound(1, 1) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert quantization_gap_bound(8, 2) == pytest.approx(1.0, rel=1e-15)


def test_dequantize_roundtrip():
    q = QuantizedVector((0, 3, 255, 17), 8)
    assert quantize_vector(q.to_floats(), 8) == q


def test_subtract_mod_wraps():
    a = QuantizedVector((3, 200, 0), 8)
    b = QuantizedVector((200, 3, 0), 8)
    d = subtract_mod(a, b)
    assert d.numerators == (59, 197, 0)
    assert subtract_mod(a, a).support() == ()


def test_subtract_mod_rejects_mismatch():
    with pytest.raises(ValueError):
        subtract_mod(QuantizedVector((1,), 3), QuantizedVector((1,), 4))
    with pytest.raises(ValueError):
        subtract_mod(QuantizedVector((1,), 3), QuantizedVector((1, 2), 3))


def test_quantized_vector_validation():
    with pytest.raises(ValueError):
        QuantizedVector((4,), 2)  # numerator out of range
    with pytest.raises(ValueError):
        QuantizedVector((-1,), 2)
    assert QuantizedVector((0, 1, 0), 2).support() == (1,)
    assert QuantizedVector((0, 0), 2).support() == ()
