import math

import numpy as np
import pytest

from mcpursuit.measure import (
    MeasurementEnsemble,
    chi_square_lower_tail_bound,
    mc_check_chi_lower_tail,
    mc_check_sigma_tail,
    sample_ensemble,
    sigma_max_expectation_bound,
    sigma_max_tail_bound,
    TailCheckResult,
    top_singular_value,
)
from mcpursuit.rng import derive_seed, make_generator


def test_sample_ensemble_shape_and_determinism():
    key = derive_seed(11, "ens", 0)
    a = sample_ensemble(64, 16, key)
    b = sample_ensemble(64, 16, key)
    assert a.matrix.shape == (16, 64)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.d == 16 and a.n == 64
    # entries scale like 1/sqrt(d)
    assert a.matrix.std() == pytest.approx(1 / 4, rel=0.15)


def test_top_singular_value_matches_svd():
    rng = make_generator(5, "sigma")
    for _ in range(40):
        d = int(rng.integers(1, 30))
        n = int(rng.integers(1, 30))
        a = rng.normal(size=(d, n))
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert top_singular_value(a) == pytest.approx(top, rel=1e-12)
    assert top_singular_value(np.zeros((3, 5))) == 0.0
    with pytest.raises(ValueError):
        top_singular_value(np.zeros(4))


@pytest.mark.parametrize("n, d", [(1024, 182), (128, 30), (16, 40), (24, 16)])
def test_ensemble_sigma_max_is_the_svd_value(n, d):
    # eta and the piecewise slack are built from sigma_max, so it may not
    # fall short of the top singular value by more than rounding
    ens = sample_ensemble(n, d, derive_seed(11, "sigma-exact", n, d))
    top = float(np.linalg.svd(ens.matrix, compute_uv=False)[0])
    assert ens.sigma_max == pytest.approx(top, rel=1e-12)
    assert MeasurementEnsemble(np.zeros((d, n)), 0).sigma_max == 0.0


@pytest.mark.parametrize("shape", [(20, 10, 30), (20, 30, 10), (3, 4, 7, 5)])
def test_stacked_top_singular_value_matches_each_svd(shape):
    a = make_generator(5, "sigma-stack", *shape).normal(size=shape)
    tops = top_singular_value(a)
    assert tops.shape == shape[:-2]
    for idx in np.ndindex(*shape[:-2]):
        top = np.linalg.svd(a[idx], compute_uv=False)[0]
        assert tops[idx] == pytest.approx(top, rel=1e-12)


def test_sigma_max_cached_on_ensemble():
    ens = sample_ensemble(32, 8, derive_seed(11, "ens", 1))
    top = np.linalg.svd(ens.matrix, compute_uv=False)[0]
    assert ens.sigma_max == pytest.approx(top, rel=1e-12)
    assert ens.sigma_max is ens.sigma_max  # cached float, one computation
    assert ens.expectation_bound(1.0) == pytest.approx(4.0)
    assert sigma_max_expectation_bound(32, 8) == 3.0


def test_chi_square_bound_values():
    assert chi_square_lower_tail_bound(10, 0.5) == pytest.approx(
        0.3807029362719836, rel=1e-14
    )
    assert chi_square_lower_tail_bound(50, 0.2) == pytest.approx(
        0.5606890625302462, rel=1e-14
    )
    assert chi_square_lower_tail_bound(100, 0.8) == pytest.approx(
        2.6502025000392577e-18, rel=1e-12
    )
    with pytest.raises(ValueError):
        chi_square_lower_tail_bound(10, 0.0)
    with pytest.raises(ValueError):
        chi_square_lower_tail_bound(10, 1.0)


def test_sigma_tail_bound_values():
    assert sigma_max_tail_bound(16, 0.5) == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert sigma_max_tail_bound(16, 0.0) == 1.0


def test_tail_check_pass_logic():
    r = TailCheckResult(empirical=0.10, bound=0.12, trials=1000)
    assert r.passed
    r2 = TailCheckResult(empirical=0.50, bound=0.12, trials=1000)
    assert not r2.passed


def test_mc_chi_lower_tail_smoke():
    rng = make_generator(17, "chi-smoke")
    res = mc_check_chi_lower_tail(10, 0.5, 4000, rng)
    assert res.passed
    # the bound is real: the empirical rate is within an order of magnitude
    assert res.empirical > res.bound / 50


def test_mc_sigma_tail_smoke():
    rng = make_generator(17, "sigma-smoke")
    res = mc_check_sigma_tail(64, 16, 0.25, 3000, rng)
    assert res.passed
