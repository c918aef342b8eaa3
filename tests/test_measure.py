import math

import numpy as np
import pytest

from mcpursuit.measure import (
    MeasurementEnsemble,
    chi_square_lower_tail_bound,
    mc_check_chi_lower_tail,
    mc_check_sigma_tail,
    power_iteration_sigma_max,
    sample_ensemble,
    sigma_max_expectation_bound,
    sigma_max_tail_bound,
    TailCheckResult,
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


def test_power_iteration_matches_svd():
    rng = make_generator(5, "sigma")
    for _ in range(40):
        d = int(rng.integers(1, 30))
        n = int(rng.integers(1, 30))
        a = rng.normal(size=(d, n))
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert power_iteration_sigma_max(a) == pytest.approx(top, rel=1e-6)
    assert power_iteration_sigma_max(np.zeros((3, 5))) == 0.0


def _two_matvec_sigma_max(a, rel_tol=1e-8, max_iter=50_000):
    """Reference: the power iteration with a second Gram matvec for each
    Rayleigh quotient, and the norm from np.linalg.norm."""
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    v = 1.0 + 0.01 * np.arange(gram.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        new_lam = float(v @ (gram @ v))
        if abs(new_lam - lam) <= rel_tol * new_lam:
            return math.sqrt(new_lam)
        lam = new_lam
    return math.sqrt(lam)


@pytest.mark.parametrize("shape", [(16, 24), (30, 128), (182, 1024), (104, 16), (10, 10)])
def test_power_iteration_is_bit_identical_to_two_matvecs(shape):
    # Reusing the quotient's matvec as the next iterate must not move a
    # single bit: the solver's eta and pp_slack are built from sigma_max.
    rng = make_generator(5, "sigma-bits", *shape)
    for _ in range(3):
        a = rng.normal(0.0, 1.0 / math.sqrt(shape[0]), size=shape)
        assert power_iteration_sigma_max(a) == _two_matvec_sigma_max(a)


def test_sigma_max_cached_on_ensemble():
    ens = sample_ensemble(32, 8, derive_seed(11, "ens", 1))
    top = np.linalg.svd(ens.matrix, compute_uv=False)[0]
    assert ens.sigma_max == pytest.approx(top, rel=1e-6)
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
