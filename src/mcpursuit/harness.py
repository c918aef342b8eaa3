"""Experiment drivers behind the command line interface.

Each driver consumes a frozen config, splits its master seed per trial,
and writes CSV output plus a JSON manifest. A CSV row is a dict from
column name to value, and a table's header is its rows' names, so each
column is named once, where its value is computed. The CSV bytes are a
pure function of the config, so a rerun reproduces them exactly;
anything that varies between runs (wall time, digests) lives in the
manifest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .codecs import sparse_dl_bound
from .measure import (
    mc_check_chi_lower_tail,
    mc_check_sigma_tail,
    sample_ensemble,
    sigma_max_expectation_bound,
)
from .quantize import quantization_gap_bound, quantize_vector
from .rng import derive_seed, make_generator
from .signals import (
    SMOOTH_BATTERY,
    gen_lp_ball,
    gen_sparse,
    lp_sparsity_level,
    lp_tail_bound,
    piecewise_poly_fit,
    smooth_fit_bound,
    top_k_approx,
)
from .solver import (
    SolverConfig,
    corollary_error_bound,
    corollary_failure_prob,
    dl_budget_bits,
    mcp_exact,
    mcp_tolerant,
    predicted_error_bound,
)

__all__ = [
    "PhaseScanConfig",
    "CorollaryConfig",
    "LemmaConfig",
    "MismatchConfig",
    "ExperimentResult",
    "run_phase_scan",
    "run_corollary_check",
    "run_lemma_suite",
    "run_mismatch_scan",
]


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _git_blob_sha1(data: bytes) -> str:
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    summary: dict
    outputs: tuple[str, ...]


def _write_outputs(out_dir, name: str, config, tables: dict, summary: dict,
                   passed: bool, t0: float) -> ExperimentResult:
    """Write each {csv name: rows} table, then the manifest: the config,
    each CSV's digest, the summary and the wall time since t0. Each row is
    a dict from column name to value; the first row's names are the
    header, and a row with other names, or in another order, is a
    RuntimeError raised before its table is written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for fname, rows in tables.items():
        header = list(rows[0])
        for row in rows:
            if list(row) != header:
                raise RuntimeError(f"{fname}: row columns {list(row)} are not {header}")
        with open(out_dir / fname, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows([_fmt(v) for v in row.values()] for row in rows)
        data = (out_dir / fname).read_bytes()
        outputs[fname] = {
            "sha1": _git_blob_sha1(data),
            "bytes": len(data),
            "rows": data.count(b"\n") - 1,
        }
    manifest = {
        "experiment": name,
        "config": asdict(config),
        "outputs": outputs,
        "summary": summary,
        "wall_time_s": time.monotonic() - t0,
    }
    manifest_name = f"{name}_manifest.json"
    with open(out_dir / manifest_name, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return ExperimentResult(name, passed, summary, (*tables, manifest_name))


def _recovery_error(res, x: np.ndarray) -> float:
    """l2 distance of the recovered vector to x; inf if nothing was feasible."""
    if res.status != "ok":
        return math.inf
    return float(np.linalg.norm(res.x_hat.to_floats() - x))


def _check_config(cfg, **lows) -> None:
    """ValueError unless each named field of cfg is at least its low: a
    tuple field must not be empty or repeat an entry, and each of its
    entries must be at least low, unless low is None. A run with no
    trials, no cells or nothing to recover has nothing to pass, and a
    repeated entry is one cell run twice."""
    for name, low in lows.items():
        value = getattr(cfg, name)
        values = value if isinstance(value, tuple) else (value,)
        if not values:
            raise ValueError(f"{name} must not be empty")
        if len(set(values)) < len(values):
            raise ValueError(f"{name} must not repeat an entry, got {value}")
        if low is not None and min(values) < low:
            raise ValueError(f"{name} must be at least {low}, got {min(values)}")


def _sparse_scale(n: int, k: int, alpha: float) -> tuple[int, float, int]:
    """(m, kappa, d) for k-sparse signals of length n at rate alpha:
    m = ceil(alpha log2 n) bits, kappa = sparse_dl_bound(k, n, m) / m and
    d = ceil(2 alpha kappa log2 n) measurements."""
    m = math.ceil(alpha * math.log2(n))
    kappa = sparse_dl_bound(k, n, m) / m
    return m, kappa, math.ceil(2.0 * alpha * kappa * math.log2(n))


# ---------------------------------------------------------------------------
# sparse phase scan


@dataclass(frozen=True)
class PhaseScanConfig:
    n: int = 256
    m: int = 8
    k: int = 2
    d_values: tuple[int, ...] = (5, 10, 15, 20, 25, 30, 35, 40)
    trials: int = 200
    tau: float = 0.04
    t: float = 1.0
    master_seed: int = 20240801
    node_cap: int = SolverConfig.node_cap

    def __post_init__(self) -> None:
        _check_config(self, k=1, m=1, trials=1, d_values=1, t=0)
        if self.k > self.n:
            raise ValueError(f"k must be at most n = {self.n}, got {self.k}")
        if not 0 < self.tau <= 1:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")


def run_phase_scan(cfg: PhaseScanConfig, out_dir) -> ExperimentResult:
    """Recovery of exactly k-sparse signals across measurement counts.

    Per trial: a fresh ensemble, a fresh signal, recovery at the default
    eta, error against the continuous truth. Success is scored two ways:
    against the a priori error bound at (tau, t), and against the fixed
    recovery threshold 4 * quantization gap. The probe records the
    smallest measured gain |Az| / |z| over candidates the search accepted,
    which is the empirical content of the tau-incoherence event.
    """
    t0 = time.monotonic()
    threshold = 4.0 * quantization_gap_bound(cfg.n, cfg.m)
    scope = SolverConfig(max_sparse_k=cfg.k, include_pp=False, node_cap=cfg.node_cap)
    rows = []
    summary: dict = {"threshold": threshold, "per_d": {}}
    for d in cfg.d_values:
        bound = predicted_error_bound(cfg.n, d, cfg.m, cfg.tau, cfg.t)
        bound_hits = recovery_hits = e2_hits = 0
        e1_worst = None
        for trial in range(cfg.trials):
            ens = sample_ensemble(
                cfg.n, d, derive_seed(cfg.master_seed, "scan-ens", d, trial)
            )
            rng = make_generator(cfg.master_seed, "scan-sig", d, trial)
            x = gen_sparse(cfg.n, cfg.k, rng)
            xq = quantize_vector(x, cfg.m)
            res = mcp_exact(ens, ens.matrix @ x, cfg.m, config=scope, probe_ref=xq)
            err = _recovery_error(res, x)
            e2_ok = ens.sigma_max <= sigma_max_expectation_bound(cfg.n, d) + cfg.t
            gain = res.probe.min_gain if res.probe is not None else None
            bound_hits += err <= bound
            recovery_hits += err <= threshold
            e2_hits += e2_ok
            if gain is not None and (e1_worst is None or gain < e1_worst):
                e1_worst = gain
            rows.append(dict(
                d=d, trial=trial, n=cfg.n, m=cfg.m, k=cfg.k, status=res.status,
                err=err, err_bound=bound, within_bound=err <= bound,
                recovery_threshold=threshold, recovered=err <= threshold,
                dl_bits=res.dl_bits, codec_id=res.codec_id,
                residual=res.residual, eta=res.eta,
                sigma_max=ens.sigma_max, e2_ok=e2_ok, min_gain=gain,
                probe_candidates=res.probe.candidates if res.probe else None,
                probe_zero_diffs=res.probe.zero_diffs if res.probe else None,
                strata=res.strata_examined, points=res.points_tested,
            ))
        summary["per_d"][d] = {
            "bound": bound,
            "bound_rate": bound_hits / cfg.trials,
            "recovery_rate": recovery_hits / cfg.trials,
            "e2_rate": e2_hits / cfg.trials,
            "e1_min_gain": e1_worst,
        }
    d_hi, d_lo = max(cfg.d_values), min(cfg.d_values)
    rate_hi = summary["per_d"][d_hi]["recovery_rate"]
    rate_lo = summary["per_d"][d_lo]["recovery_rate"]
    summary["bound_rate_at_max_d"] = summary["per_d"][d_hi]["bound_rate"]
    summary["recovery_gap"] = rate_hi - rate_lo
    passed = summary["bound_rate_at_max_d"] >= 0.95 and summary["recovery_gap"] >= 0.3
    return _write_outputs(out_dir, "scan", cfg, {"scan.csv": rows},
                          summary, passed, t0)


# ---------------------------------------------------------------------------
# exact-recovery corollary at grid-valued signals


@dataclass(frozen=True)
class CorollaryConfig:
    n: int = 1024
    alpha: float = 1.0
    k: int = 2
    trials: int = 500
    eta: float = 1e-6
    master_seed: int = 20240802
    node_cap: int = SolverConfig.node_cap

    def __post_init__(self) -> None:
        _check_config(self, n=2, k=1, trials=1)
        if self.k > self.n:
            raise ValueError(f"k must be at most n = {self.n}, got {self.k}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def run_corollary_check(cfg: CorollaryConfig, out_dir) -> ExperimentResult:
    """Exact recovery of grid-valued k-sparse signals at d measurements.

    Signals are drawn on the m-bit grid so the measurement equation has an
    exact in-class solution and the constraint can be pinned near zero.
    The run fails if the error exceeds the stated bound more often than
    the failure probability n^(-alpha*kappa) allows (with 3-sigma slop,
    which at these parameters means: never).
    """
    t0 = time.monotonic()
    m, kappa, d = _sparse_scale(cfg.n, cfg.k, cfg.alpha)
    err_bound = corollary_error_bound(cfg.n, cfg.alpha, kappa)
    budget = dl_budget_bits(kappa, 1.0, m)
    scope = SolverConfig(max_sparse_k=cfg.k, include_pp=False, node_cap=cfg.node_cap)
    rows = []
    failures = 0
    for trial in range(cfg.trials):
        ens = sample_ensemble(
            cfg.n, d, derive_seed(cfg.master_seed, "cor-ens", trial)
        )
        rng = make_generator(cfg.master_seed, "cor-sig", trial)
        xq = quantize_vector(gen_sparse(cfg.n, cfg.k, rng), m)
        x = np.array(xq.to_floats())
        res = mcp_exact(ens, ens.matrix @ x, m, eta=cfg.eta, config=scope)
        err = _recovery_error(res, x)
        success = err <= err_bound
        failures += not success
        rows.append(dict(
            trial=trial, status=res.status, err=err, err_bound=err_bound,
            success=success, dl_bits=res.dl_bits, budget_bits=budget,
            within_budget=res.dl_bits <= budget, residual=res.residual,
            strata=res.strata_examined, points=res.points_tested,
        ))
    p_fail = corollary_failure_prob(cfg.n, cfg.alpha, kappa)
    allowed = cfg.trials * p_fail + 3.0 * math.sqrt(cfg.trials * p_fail)
    summary = {
        "n": cfg.n, "m": m, "d": d, "kappa": kappa,
        "err_bound": err_bound, "budget_bits": budget,
        "trials": cfg.trials, "failures": failures,
        "failure_prob_bound": p_fail, "allowed_failures": allowed,
    }
    passed = failures <= allowed
    return _write_outputs(out_dir, "corollary", cfg,
                          {"corollary.csv": rows}, summary, passed, t0)


# ---------------------------------------------------------------------------
# concentration lemma suite


# (d, n, t) per sigma_max cell: d rows, n columns, slack t above 1 + sqrt(n/d)
SIGMA_CELLS = ((10, 10, 0.5), (40, 256, 1.0))


@dataclass(frozen=True)
class LemmaConfig:
    chi_d_values: tuple[int, ...] = (10, 50, 100)
    chi_tau_values: tuple[float, ...] = (0.2, 0.5, 0.8)
    chi_trials: int = 100_000
    sigma_trials: int = 10_000
    master_seed: int = 20240803

    def __post_init__(self) -> None:
        _check_config(self, chi_trials=1, sigma_trials=1, chi_d_values=1,
                      chi_tau_values=None)
        taus = self.chi_tau_values
        if not all(0 < tau < 1 for tau in taus):
            raise ValueError(f"chi_tau_values must lie in (0, 1), got {taus}")


def run_lemma_suite(cfg: LemmaConfig, out_dir) -> ExperimentResult:
    """Monte Carlo checks of the two concentration bounds the analysis
    leans on: the chi-square lower tail of |Az| for a fixed direction,
    and the sigma_max upper tail of the whole ensemble."""
    t0 = time.monotonic()
    cells = []
    for d in cfg.chi_d_values:
        for tau in cfg.chi_tau_values:
            rng = make_generator(cfg.master_seed, "chi", d, repr(tau))
            cells.append(("chi_lower", d, None, tau,
                          mc_check_chi_lower_tail(d, tau, cfg.chi_trials, rng)))
    for d, n, t in SIGMA_CELLS:
        rng = make_generator(cfg.master_seed, "sigma", d, n, repr(t))
        cells.append(("sigma_tail", d, n, t,
                      mc_check_sigma_tail(n, d, t, cfg.sigma_trials, rng)))
    rows = [dict(family=family, d=d, n=n, param=param, trials=r.trials,
                 empirical=r.empirical, bound=r.bound, binomial_sigma=r.sigma,
                 ok=r.passed) for family, d, n, param, r in cells]
    all_ok = all(row["ok"] for row in rows)
    summary = {"cells": len(rows), "all_within_3_sigma": all_ok}
    return _write_outputs(out_dir, "lemmas", cfg, {"lemmas.csv": rows},
                          summary, all_ok, t0)


# ---------------------------------------------------------------------------
# model mismatch: lp balls and smooth targets


# the report-only smooth battery: each target sampled at SMOOTH_N points and
# fitted with each piece count of SMOOTH_R_VALUES at degree SMOOTH_DEGREE
SMOOTH_N = 256
SMOOTH_R_VALUES = (1, 2, 4, 8, 16)
SMOOTH_DEGREE = 2


@dataclass(frozen=True)
class MismatchConfig:
    p: float = 0.5
    n_values: tuple[int, ...] = (16, 32, 64)
    trials: int = 25
    alpha: float = 1.0
    master_seed: int = 20240804
    node_cap: int = SolverConfig.node_cap

    def __post_init__(self) -> None:
        _check_config(self, trials=1, n_values=2)
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0 < self.p < 2:
            raise ValueError(f"p must lie in (0, 2), got {self.p}")


def run_mismatch_scan(cfg: MismatchConfig, out_dir) -> ExperimentResult:
    """Recovery of signals outside the coded class.

    lp-ball part (asserted): draws from the unit lp ball, recovery with
    the tolerance widened by the top-k tail bound; checks every draw's
    actual tail against the bound and that the median error falls as n
    grows, judged in increasing n whatever the order of n_values. Smooth
    part (report only): least-squares piecewise fits of the smooth
    battery against the r^-(beta+1) fit bound.
    """
    t0 = time.monotonic()
    rows = []
    medians = {}
    for n in cfg.n_values:
        k = lp_sparsity_level(n, cfg.p)
        m, kappa, d = _sparse_scale(n, k, cfg.alpha)
        eps_n = lp_tail_bound(k, cfg.p)
        scope = SolverConfig(max_sparse_k=k, include_pp=False, node_cap=cfg.node_cap)
        errs = []
        for trial in range(cfg.trials):
            ens = sample_ensemble(
                n, d, derive_seed(cfg.master_seed, "mm-ens", n, trial)
            )
            rng = make_generator(cfg.master_seed, "mm-sig", n, trial)
            x = gen_lp_ball(n, cfg.p, rng)
            tail = top_k_approx(x, k).error
            res = mcp_tolerant(ens, ens.matrix @ x, m, eps_n, config=scope)
            err = _recovery_error(res, x)
            errs.append(err)
            rows.append(dict(
                n=n, trial=trial, k=k, m=m, d=d, eps_n=eps_n, tail=tail,
                tail_ok=tail <= eps_n + 1e-12, status=res.status, err=err,
                dl_bits=res.dl_bits, residual=res.residual, eta=res.eta,
            ))
        medians[n] = float(np.median(errs))
    tails_ok = all(row["tail_ok"] for row in rows)
    by_n = [medians[n] for n in sorted(medians)]
    decreasing = all(b < a for a, b in zip(by_n, by_n[1:]))
    smooth_rows = []
    for target in SMOOTH_BATTERY:
        x = target.fn(np.arange(SMOOTH_N) / SMOOTH_N)
        for r in SMOOTH_R_VALUES:
            fit = piecewise_poly_fit(x, r, SMOOTH_DEGREE)
            bound = smooth_fit_bound(SMOOTH_N, r, target.beta, target.gamma)
            smooth_rows.append(dict(
                target=target.name, beta=target.beta, gamma=target.gamma,
                pieces=r, degree=SMOOTH_DEGREE, fit_err=fit.error, fit_bound=bound,
            ))
    summary = {
        "medians_by_n": {str(n): med for n, med in medians.items()},
        "tails_all_within_bound": tails_ok,
        "median_err_decreasing": decreasing,
    }
    return _write_outputs(
        out_dir, "mismatch", cfg, {"mismatch.csv": rows, "smooth.csv": smooth_rows},
        summary, tails_ok and decreasing, t0,
    )
