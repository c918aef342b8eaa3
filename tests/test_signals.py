import math

import numpy as np
import pytest

from mcpursuit.codecs import decode_any, encode_piecewise_poly
from mcpursuit.rng import make_generator
from mcpursuit.signals import (
    SMOOTH_BATTERY,
    gen_lp_ball,
    gen_piecewise_poly,
    gen_sparse,
    load_signal,
    lp_sparsity_level,
    lp_tail_bound,
    piecewise_poly_fit,
    save_signal,
    smooth_fit_bound,
    top_k_approx,
)


def test_gen_sparse_support_and_range():
    rng = make_generator(1, "sparse")
    x = gen_sparse(100, 7, rng)
    assert np.count_nonzero(x) == 7
    assert x.min() >= 0.0 and x.max() <= 1.0
    assert np.count_nonzero(gen_sparse(10, 0, rng)) == 0
    with pytest.raises(ValueError):
        gen_sparse(10, 11, rng)


def test_gen_piecewise_poly_matches_spec():
    rng = make_generator(2, "pp")
    x, (breaks, coeffs) = gen_piecewise_poly(64, 3, 2, rng)
    assert len(breaks) == 3 and coeffs.shape == (4, 3)
    assert x.min() >= 0.0 and x.max() < 1.0
    # the returned spec is valid codec input and its decode tracks x
    coded = encode_piecewise_poly(breaks, coeffs, 64, 8)
    dec = np.array(decode_any(coded, 64, 8).to_floats())
    assert np.max(np.abs(dec - x)) < 2.0 ** (1 - 8) + 1e-12
    # samples follow the stated polynomial on each piece
    t = np.arange(64) / 64
    bounds = [0] + breaks + [64]
    for piece, row in enumerate(coeffs):
        sl = slice(bounds[piece], bounds[piece + 1])
        assert np.allclose(x[sl], np.polynomial.polynomial.polyval(t[sl], row))


def test_gen_lp_ball_membership_and_range():
    for seed in range(10):
        rng = make_generator(seed, "lp")
        for n in (64, 256):
            x = gen_lp_ball(n, 0.5, rng)
            assert x.min() >= 0.0 and x.max() <= 1.0
            assert np.sum(x**0.5) <= 1.0 + 1e-12
            xr = gen_lp_ball(n, 0.5, rng, radius=0.3)
            assert np.sum(xr**0.5) <= 0.3**0.5 + 1e-12


def test_lp_levels_and_tail_bound_values():
    assert [lp_sparsity_level(n, 0.5) for n in (64, 128, 256)] == [3, 4, 4]
    assert lp_tail_bound(4, 0.5) == pytest.approx(0.07216878364870322, rel=1e-14)
    with pytest.raises(ValueError):
        lp_tail_bound(0, 0.5)


def test_top_k_approx_drops_smallest():
    x = np.array([0.5, 0.01, 0.3, 0.0, 0.2])
    res = top_k_approx(x, 2)
    assert np.array_equal(res.approx, np.array([0.5, 0.0, 0.3, 0.0, 0.0]))
    assert res.error == pytest.approx(math.sqrt(0.01**2 + 0.2**2), rel=1e-12)
    assert top_k_approx(x, 0).error == pytest.approx(np.linalg.norm(x))


def test_lp_draws_obey_tail_bound():
    # every draw in the ball beats the class-level approximation bound
    for seed in range(25):
        rng = make_generator(seed, "lp-tail")
        for n in (64, 128, 256):
            k = lp_sparsity_level(n, 0.5)
            x = gen_lp_ball(n, 0.5, rng)
            assert top_k_approx(x, k).error <= lp_tail_bound(k, 0.5)


def test_fit_recovers_exact_polynomial_targets():
    t = np.arange(128) / 128
    for target in SMOOTH_BATTERY:
        if target.gamma == 0.0:  # targets inside the representable class
            x = target.fn(t)
            fit = piecewise_poly_fit(x, 4, target.beta)
            assert fit.error < 1e-9
            assert smooth_fit_bound(128, 4, target.beta, target.gamma) == 0.0


def test_fit_specs_are_codec_valid():
    t = np.arange(96) / 96
    for target in SMOOTH_BATTERY:
        x = target.fn(t)
        for r in (1, 3, 8):
            fit = piecewise_poly_fit(x, r, target.beta)
            coded = encode_piecewise_poly(fit.breakpoints, fit.coefficients, 96, 8)
            decode_any(coded, 96, 8)
            assert fit.error == pytest.approx(
                float(np.linalg.norm(x - fit.approx)), rel=1e-12
            )


def test_fit_error_shrinks_with_more_pieces():
    # report-quality sanity: nonneg-coefficient fits of increasing smooth
    # targets improve with refinement even without a guarantee
    t = np.arange(256) / 256
    x = np.exp(t - 1.0)
    errs = [piecewise_poly_fit(x, r, 1).error for r in (1, 4, 16)]
    assert errs[0] > errs[1] > errs[2]


def test_signal_file_roundtrip(tmp_path):
    rng = make_generator(3, "io")
    x = rng.uniform(0.0, 1.0, size=33)
    path = tmp_path / "sig.txt"
    save_signal(path, x)
    assert np.array_equal(load_signal(path), x)
