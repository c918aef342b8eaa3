"""Structured signal families and their approximation helpers.

All signals live in [0, 1]^n. Generators take a numpy Generator so callers
control seeding; each returns the real-valued signal, plus any side
information a codec can use (the piecewise-polynomial spec, for instance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .codecs import CodecError, quantize_pp_spec

__all__ = [
    "gen_sparse",
    "gen_piecewise_poly",
    "gen_lp_ball",
    "lp_sparsity_level",
    "lp_tail_bound",
    "top_k_approx",
    "ApproxResult",
    "PPFitResult",
    "piecewise_poly_fit",
    "smooth_fit_bound",
    "SmoothTarget",
    "SMOOTH_BATTERY",
    "save_signal",
    "load_signal",
]


def gen_sparse(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-sparse signal with uniform values on a uniform random support."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    x = np.zeros(n)
    if k:
        support = rng.choice(n, size=k, replace=False)
        x[support] = rng.uniform(0.0, 1.0, size=k)
    return x


def gen_piecewise_poly(
    n: int,
    q_breaks: int,
    degree: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, tuple[list[int], np.ndarray]]:
    """Piecewise polynomial on the sample grid: q_breaks breakpoints,
    per-piece degree `degree`, nonnegative coefficients summing below 1.

    Returns (samples, (breakpoints, coefficient rows)); the spec feeds
    straight into the piecewise-polynomial codec.
    """
    if q_breaks > n - 1:
        raise ValueError("more breakpoints than interior grid points")
    breaks = sorted(
        int(b) for b in rng.choice(np.arange(1, n), size=q_breaks, replace=False)
    )
    rows = []
    for _ in range(q_breaks + 1):
        raw = rng.uniform(0.0, 1.0, size=degree + 1)
        rows.append(raw / raw.sum() * rng.uniform(0.3, 0.95))
    coeffs = np.array(rows)
    t = np.arange(n) / n
    x = np.empty(n)
    bounds = [0] + breaks + [n]
    for piece, row in enumerate(coeffs):
        sl = slice(bounds[piece], bounds[piece + 1])
        x[sl] = np.polynomial.polynomial.polyval(t[sl], row)
    return x, (breaks, coeffs)


def lp_sparsity_level(n: int, p: float) -> int:
    """Effective sparsity ceil(n^(p/2)) used when treating an lp-ball
    signal as approximately sparse."""
    return math.ceil(n ** (p / 2.0))


def gen_lp_ball(
    n: int, p: float, rng: np.random.Generator, radius: float = 1.0
) -> np.ndarray:
    """Compressible signal inside the lp ball of the given radius, 0 < p < 2.

    Magnitudes follow c * u_i * i^(-1/p) with u_i uniform on [1/2, 1] and
    c = radius / H_n^(1/p); since sum_i (i^(-1/p))^p = H_n, membership
    ||x||_p <= radius holds surely, and every draw obeys the tail bound
    of lp_tail_bound against its top-k approximation.
    """
    if not 0.0 < p < 2.0:
        raise ValueError("need 0 < p < 2")
    harmonic = np.sum(1.0 / np.arange(1, n + 1))
    c = radius / harmonic ** (1.0 / p)
    mags = c * rng.uniform(0.5, 1.0, size=n) * np.arange(1, n + 1) ** (-1.0 / p)
    x = np.zeros(n)
    x[rng.permutation(n)] = mags
    return x


def lp_tail_bound(k: int, p: float, radius: float = 1.0) -> float:
    """Upper bound on the l2 error of the best k-term approximation of any
    point in the lp ball: radius * sqrt(p/(2-p)) * k^(1/2 - 1/p)."""
    if k < 1 or not 0.0 < p < 2.0:
        raise ValueError("need k >= 1 and 0 < p < 2")
    return radius * math.sqrt(p / (2.0 - p)) * k ** (0.5 - 1.0 / p)


@dataclass(frozen=True)
class ApproxResult:
    approx: np.ndarray
    error: float  # l2 distance to the input


def top_k_approx(x: np.ndarray, k: int) -> ApproxResult:
    """Keep the k largest-magnitude entries, zero the rest."""
    x = np.asarray(x, dtype=np.float64)
    approx = np.zeros_like(x)
    if k > 0:
        keep = np.argsort(np.abs(x))[-k:]
        approx[keep] = x[keep]
    return ApproxResult(approx, float(np.linalg.norm(x - approx)))


# ---------------------------------------------------------------------------
# smooth targets and piecewise fits


@dataclass(frozen=True)
class SmoothTarget:
    """A target function with a certified derivative bound.

    gamma bounds sup |f^(beta+1)| / (beta+1)! over [0, 1], so the best
    degree-beta polynomial on a subinterval of length h tracks f within
    gamma * h^(beta+1) in sup norm.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    beta: int
    gamma: float


SMOOTH_BATTERY = (
    SmoothTarget("exp", lambda t: np.exp(t - 1.0), 1, 0.5),
    SmoothTarget("exp", lambda t: np.exp(t - 1.0), 2, 1.0 / 6.0),
    SmoothTarget("raised_cosine", lambda t: 0.5 * (1.0 - np.cos(2 * np.pi * t)), 1, np.pi**2),
    SmoothTarget("ramp", lambda t: 0.05 + 0.7 * t, 1, 0.0),
    SmoothTarget("quadratic", lambda t: 0.9 * t * t, 2, 0.0),
)


def smooth_fit_bound(n: int, r: int, beta: int, gamma: float) -> float:
    """l2 budget gamma * sqrt(n) * r^-(beta+1) for an r-piece degree-beta fit."""
    return gamma * math.sqrt(n) * r ** (-(beta + 1.0))


@dataclass(frozen=True)
class PPFitResult:
    breakpoints: tuple[int, ...]
    coefficients: np.ndarray  # (pieces, degree+1), valid codec input
    approx: np.ndarray
    error: float


def piecewise_poly_fit(x: np.ndarray, r: int, degree: int) -> PPFitResult:
    """Fit r equal pieces of degree-`degree` polynomials to samples x.

    Coefficients are constrained to the codec's class: nonnegative in the
    global monomial basis t^j with per-piece sums below 1. The fit is
    nonnegative least squares per piece followed by a scale-back when the
    sum constraint binds; targets that need negative coefficients (any
    decreasing stretch) fit poorly on purpose, and callers report rather
    than assume the unconstrained approximation rate.
    """
    # imported here, by its one user, so that importing the package, the
    # solver and the CLI does not load scipy
    from scipy.optimize import nnls

    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    edges = [round(piece * n / r) for piece in range(r + 1)]
    edges = sorted(set(edges))  # tiny n can collapse pieces
    breaks = tuple(e for e in edges[1:-1])
    t = np.arange(n) / n
    coeffs = []
    approx = np.empty(n)
    for lo, hi in zip(edges[:-1], edges[1:]):
        v = np.vander(t[lo:hi], degree + 1, increasing=True)
        a, _ = nnls(v, x[lo:hi])
        total = a.sum()
        if total >= 1.0:
            a *= 0.999 / total
        a = np.minimum(a, 1.0)
        coeffs.append(a)
        approx[lo:hi] = v @ a
    coeffs = np.array(coeffs)
    try:
        quantize_pp_spec(breaks, coeffs, n, 1)
    except CodecError as exc:  # pragma: no cover - guards the contract
        raise AssertionError(f"fit produced an out-of-class spec: {exc}") from exc
    return PPFitResult(breaks, coeffs, approx, float(np.linalg.norm(x - approx)))


# ---------------------------------------------------------------------------
# plain-text signal files: one repr() float per line


def save_signal(path, x: np.ndarray) -> None:
    with open(path, "w") as fh:
        for v in np.asarray(x, dtype=np.float64):
            fh.write(repr(float(v)))
            fh.write("\n")


def load_signal(path) -> np.ndarray:
    with open(path) as fh:
        return np.array([float(line) for line in fh if line.strip()])
