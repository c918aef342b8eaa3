import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcpursuit.quantize import (
    DyadicValue,
    QuantizedVector,
    quantization_gap_bound,
    quantize_vector,
    subtract_mod,
    truncate_bits,
)

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_truncate_known_values():
    assert truncate_bits(0.5, 3).numerator == 4
    assert truncate_bits(0.0, 8).numerator == 0
    assert truncate_bits(1.0, 8).numerator == 255  # top clamp
    assert truncate_bits(1.0, 1).numerator == 1
    # 0.3 in binary is 0.0100110011..., so 4 bits keep 0100
    assert truncate_bits(0.3, 4).numerator == 4


def test_truncate_is_exact_on_grid_points():
    for m in (1, 3, 8, 17):
        for k in (0, 1, (1 << m) // 3, (1 << m) - 1):
            assert truncate_bits(k / (1 << m), m).numerator == k


@given(x=unit_floats, m=st.integers(min_value=1, max_value=60))
def test_truncate_error_window(x, m):
    v = truncate_bits(x, m)
    err = Fraction(x) - Fraction(v.numerator, 1 << m)
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
    assert truncate_bits(x, m).numerator <= truncate_bits(y, m).numerator


def test_truncate_rejects_out_of_range():
    with pytest.raises(ValueError):
        truncate_bits(-0.01, 4)
    with pytest.raises(ValueError):
        truncate_bits(1.01, 4)
    with pytest.raises(ValueError):
        truncate_bits(float("nan"), 4)
    with pytest.raises(ValueError):
        truncate_bits(0.5, 0)


@given(
    xs=st.lists(unit_floats, min_size=1, max_size=50),
    m=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=200)
def test_vector_matches_scalar_path(xs, m):
    q = quantize_vector(np.array(xs), m)
    assert q.numerators == tuple(truncate_bits(x, m).numerator for x in xs)


def test_vector_fraction_fallback_agrees():
    # above the float64-exact window the Fraction path takes over
    xs = np.array([0.0, 1.0, 0.3, 1 / 3, 0.9999999999999999])
    for m in (62, 63, 70):
        q = quantize_vector(xs, m)
        assert q.numerators == tuple(truncate_bits(float(x), m).numerator for x in xs)


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
    with pytest.raises(ValueError):
        DyadicValue(1, 0)
    assert QuantizedVector((0, 1, 0), 2).support() == (1,)
    assert QuantizedVector((0, 0), 2).support() == ()
