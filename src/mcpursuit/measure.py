"""Gaussian measurement ensembles and their spectral diagnostics.

An ensemble is a d x n matrix with iid N(0, 1/d) entries, regenerable
from a 128-bit key. Its largest singular value, which sets the solver's
default tolerance, and the Monte-Carlo check of its upper tail both come
from top_singular_value: the square root of the top eigenvalue of the
smaller Gram matrix. The checks in this module validate the two
concentration facts the recovery analysis leans on: the lower tail of
|Az|^2 / |z|^2 for a fixed direction z, and the upper tail of the largest
singular value. Both run one batched Monte Carlo loop, _tail_rate, each
with its own draw of a batch; the sigma_max threshold 1 + sqrt(n/d) + t
is read from sigma_max_expectation_bound alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MeasurementEnsemble",
    "sample_ensemble",
    "top_singular_value",
    "sigma_max_expectation_bound",
    "sigma_max_tail_bound",
    "chi_square_lower_tail_bound",
    "TailCheckResult",
    "mc_check_chi_lower_tail",
    "mc_check_sigma_tail",
]

@dataclass(frozen=True)
class MeasurementEnsemble:
    """A measurement matrix and the key that regenerates it. sigma_max is
    its largest singular value, exact to rounding, computed on first use."""

    matrix: np.ndarray  # (d, n), iid N(0, 1/d)
    key: int  # 128-bit regeneration key

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def sigma_max(self) -> float:
        return float(top_singular_value(self.matrix))


def sigma_max_expectation_bound(n: int, d: int) -> float:
    """1 + sqrt(n/d): sigma_max exceeds it by more than t with probability
    at most sigma_max_tail_bound(d, t)."""
    return 1.0 + math.sqrt(n / d)


def sample_ensemble(n: int, d: int, key: int) -> MeasurementEnsemble:
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if not 0 <= key < 1 << 128:
        raise ValueError("key must fit in 128 bits")
    gen = np.random.Generator(np.random.Philox(key=key))
    matrix = gen.normal(0.0, 1.0 / math.sqrt(d), size=(d, n))
    return MeasurementEnsemble(matrix, key)


def top_singular_value(a: np.ndarray) -> np.ndarray:
    """Largest singular value of a matrix, or of each matrix of a stack
    (..., d, n); the result has shape a.shape[:-2].

    The square root of the top eigenvalue of the smaller Gram matrix,
    a a^T or a^T a. It is exact to rounding, which matters because the
    solver's eta and piecewise slack are built from it and must not fall
    short of the true value. The max with 0 absorbs a rounded negative
    top eigenvalue of a zero matrix.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.size == 0:
        raise ValueError("need a nonempty matrix or stack of matrices")
    at = np.swapaxes(a, -1, -2)
    gram = a @ at if a.shape[-2] <= a.shape[-1] else at @ a
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


# ---------------------------------------------------------------------------
# concentration bounds and their Monte-Carlo checks


def chi_square_lower_tail_bound(d: int, tau: float) -> float:
    """P( |Az|^2 <= (1 - tau) |z|^2 ) <= exp( d/2 * (tau + ln(1 - tau)) )
    for a fixed z and iid N(0, 1/d) rows; tau in (0, 1)."""
    if not 0.0 < tau < 1.0:
        raise ValueError("need 0 < tau < 1")
    if d < 1:
        raise ValueError("need d >= 1")
    return math.exp(0.5 * d * (tau + math.log1p(-tau)))


def sigma_max_tail_bound(d: int, t: float) -> float:
    """P( sigma_max > 1 + sqrt(n/d) + t ) <= exp(-d t^2 / 2)."""
    if t < 0:
        raise ValueError("need t >= 0")
    return math.exp(-0.5 * d * t * t)


@dataclass(frozen=True)
class TailCheckResult:
    empirical: float
    bound: float
    trials: int

    @property
    def sigma(self) -> float:
        # binomial deviation scale at the bound itself
        return math.sqrt(max(self.bound * (1.0 - self.bound), 1e-300) / self.trials)

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound + 3.0 * self.sigma


_CHI_AMBIENT_N = 8  # columns of each drawn ensemble in the chi-square check
_CHI_BATCH = 2000  # chi-square trials drawn at once
_SIGMA_BATCH = 500  # sigma_max trials drawn at once


def _tail_rate(trials: int, batch: int, hits) -> float:
    """The share of trials that hit a tail event, drawn batch trials at a
    time: hits(b) draws b fresh trials and returns how many hit."""
    count = 0
    for done in range(0, trials, batch):
        count += hits(min(batch, trials - done))
    return count / trials


def mc_check_chi_lower_tail(
    d: int, tau: float, trials: int, rng: np.random.Generator
) -> TailCheckResult:
    """Empirical rate of |Az|^2 <= (1 - tau) for unit z over fresh ensembles.

    Draws the full d x n matrix and an independent random direction per
    trial, exactly the objects the recovery run uses.
    """
    scale = 1.0 / math.sqrt(d)

    def hits(b: int) -> int:
        mats = rng.normal(0.0, scale, size=(b, d, _CHI_AMBIENT_N))
        z = rng.normal(size=(b, _CHI_AMBIENT_N))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        r = np.einsum("bdn,bn->bd", mats, z)
        return int(np.count_nonzero(np.sum(r * r, axis=1) <= 1.0 - tau))

    bound = chi_square_lower_tail_bound(d, tau)
    return TailCheckResult(_tail_rate(trials, _CHI_BATCH, hits), bound, trials)


def mc_check_sigma_tail(
    n: int, d: int, t: float, trials: int, rng: np.random.Generator
) -> TailCheckResult:
    """Empirical rate of sigma_max > 1 + sqrt(n/d) + t over fresh ensembles."""
    scale = 1.0 / math.sqrt(d)
    threshold = sigma_max_expectation_bound(n, d) + t

    def hits(b: int) -> int:
        tops = top_singular_value(rng.normal(0.0, scale, size=(b, d, n)))
        return int(np.count_nonzero(tops > threshold))

    bound = sigma_max_tail_bound(d, t)
    return TailCheckResult(_tail_rate(trials, _SIGMA_BATCH, hits), bound, trials)
