"""Acceptance suite: the quantitative claims the package stands behind.

Each test prints one verdict line (visible with -s or on failure) and
asserts it. Tolerances are pinned here, not derived at runtime, so a
regression cannot quietly relax them. The heavy Monte Carlo fixtures are
module-scoped and shared between criteria.
"""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest

from mcpursuit.codecs import decode_any, encode_compressor_proxy
from mcpursuit.harness import (
    CorollaryConfig,
    LemmaConfig,
    MismatchConfig,
    PhaseScanConfig,
    run_corollary_check,
    run_lemma_suite,
    run_mismatch_scan,
    run_phase_scan,
)
from mcpursuit.measure import MeasurementEnsemble, sample_ensemble
from mcpursuit.quantize import QuantizedVector, quantize_vector
from mcpursuit.rng import derive_seed, make_generator
from mcpursuit.signals import gen_sparse
from mcpursuit.solver import SolverConfig, mcp_exact
from oracle_enum import (
    assert_matches_oracle,
    brute_force_argmin,
    iter_config_codebook,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _read_rows(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def lemmas(workdir):
    out = workdir / "lemmas"
    return run_lemma_suite(LemmaConfig(), out), out


@pytest.fixture(scope="module")
def scan(workdir):
    out = workdir / "scan"
    return run_phase_scan(PhaseScanConfig(d_values=(5, 40), trials=200), out), out


# ---------------------------------------------------------------------------
# 1 + 2: concentration bounds behind the recovery guarantee


def test_c1_chi_square_lower_tail(lemmas):
    result, out = lemmas
    rows = [r for r in _read_rows(out / "lemmas.csv") if r["family"] == "chi_lower"]
    ok = (
        len(rows) == 9
        and all(r["trials"] == "100000" for r in rows)
        and all(r["ok"] == "1" for r in rows)
    )
    _verdict(1, "chi-square lower tail", ok,
             f"{len(rows)} cells at 1e5 trials, all within bound + 3 sigma")


def test_c2_sigma_max_upper_tail(lemmas):
    result, out = lemmas
    rows = [r for r in _read_rows(out / "lemmas.csv") if r["family"] == "sigma_tail"]
    cells = {(r["d"], r["n"], r["param"]) for r in rows}
    ok = (
        cells == {("10", "10", "0.5"), ("40", "256", "1.0")}
        and all(r["trials"] == "10000" for r in rows)
        and all(r["ok"] == "1" for r in rows)
    )
    _verdict(2, "sigma_max upper tail", ok,
             f"{len(rows)} cells at 1e4 trials, all within bound + 3 sigma")


# ---------------------------------------------------------------------------
# 3: every enumerable codeword decodes back, and the code behaves like a
#    prefix code should (Kraft mass <= 1, < 2^(B+1) words of length <= B)


def test_c3_codec_soundness():
    budget = 20
    checked = 0
    for n in range(1, 9):
        for m in range(1, 4):
            scope = SolverConfig(
                max_sparse_k=None, pp_max_degree=n, pp_max_breaks=n,
                include_literal=True,
            )
            streams = []
            for coded, vec in iter_config_codebook(n, m, scope, budget):
                assert coded.dl_bits <= budget
                assert decode_any(coded, n, m) == vec
                streams.append(coded.payload)
                checked += 1
            assert len(set(streams)) == len(streams), (n, m)
            if n * m <= 12:  # proxy roundtrip where exhaustion is affordable
                from itertools import product

                for nums in product(range(1 << m), repeat=n):
                    q = QuantizedVector(nums, m)
                    c = encode_compressor_proxy(q)
                    assert decode_any(c, n, m) == q
                    streams.append(c.payload)
                    checked += 1
            streams.sort()
            for a, b in zip(streams, streams[1:]):
                assert not b.startswith(a), (n, m, a, b)
            kraft = sum(Fraction(1, 2 ** len(s)) for s in streams)
            assert kraft <= 1, (n, m, float(kraft))
            assert len(streams) < 2 ** (budget + 1)
    _verdict(3, "codec soundness", True,
             f"{checked} codewords over n<=8, m<=3, B<={budget}; "
             "roundtrip, prefix-free, Kraft, cardinality all clean")


# ---------------------------------------------------------------------------
# 4: the search returns the same description length as brute force


_SPARSE_SCOPE = SolverConfig(max_sparse_k=3, pp_max_degree=0, pp_max_breaks=2)
_PP_SCOPE = SolverConfig(max_sparse_k=2, pp_max_degree=1, pp_max_breaks=1)
_LIT_SCOPE = SolverConfig(max_sparse_k=4, include_pp=False, include_literal=True)


def _oracle_instance(idx: int):
    if idx < 60:
        n, m, scope = 5 + idx % 4, 2 + idx % 2, _SPARSE_SCOPE
    elif idx < 96:
        n, m, scope = 5 + idx % 3, 2, _PP_SCOPE
    elif idx < 104:
        n, m, scope = 4 + idx % 2, 2, _LIT_SCOPE
    else:
        n, m, scope = 5, 4, _SPARSE_SCOPE
    d = max(3, n // 2 + 1)
    ens = sample_ensemble(n, d, derive_seed(20240805, "acc-ens", idx))
    rng = make_generator(20240805, "acc-sig", idx)
    a = ens.matrix
    kind = idx % 4
    if kind == 0:
        x = np.array(quantize_vector(gen_sparse(n, 2, rng), m).to_floats())
        y, eta = a @ x, 1e-6
    elif kind == 1:
        x = np.where(np.arange(n) < n // 2, 0.25, 0.75)
        y, eta = a @ x, 1e-6
    elif kind == 2:
        y = a @ gen_sparse(n, 2, rng) + 0.05 * rng.standard_normal(d)
        eta = 0.4 * float(np.linalg.norm(y))
    else:
        y = rng.standard_normal(d)
        eta = 0.6 * float(np.linalg.norm(y))
    return ens, np.asarray(y, dtype=float), eta, m, scope


def test_c4_solver_matches_brute_force():
    total = 112
    for idx in range(total):
        ens, y, eta, m, scope = _oracle_instance(idx)
        res = mcp_exact(ens, y, m, eta=eta, config=scope)
        oracle = brute_force_argmin(ens, y, m, eta, scope)
        assert_matches_oracle(res, oracle)
    _verdict(4, "solver equals brute force", True,
             f"{total} seeded instances, identical codeword and residual")


def _scaled(idx: int, c: float):
    """c4 instance idx with A, y and eta all scaled by c."""
    ens, y, eta, m, scope = _oracle_instance(idx)
    return MeasurementEnsemble(c * ens.matrix, ens.key), c * y, c * eta, m, scope


def test_c4_answers_do_not_depend_on_the_scale():
    # Scaling A, y and eta by one c scales every residual by c and leaves
    # the program as it was, up to the rounding of c A and c y. Instance 32
    # ties a sparse and a piecewise-constant codeword of 24 bits at one
    # residual; a residual taken from each stratum's own QR broke the tie
    # by its rounding, which moves with c.
    def answer(ens, y, eta, m, scope):
        res = mcp_exact(ens, y, m, eta=eta, config=scope)
        return res.status, res.dl_bits, res.stream

    for idx in range(112):
        want = answer(*_scaled(idx, 1.0))
        for c in (3.0, 1e3, 1e-3):
            assert answer(*_scaled(idx, c)) == want, (idx, c)
    ens, y, eta, m, scope = _scaled(32, 3.0)
    res = mcp_exact(ens, y, m, eta=eta, config=scope)
    assert_matches_oracle(res, brute_force_argmin(ens, y, m, eta, scope))


# ---------------------------------------------------------------------------
# 5 + 7: sparse phase scan at n=256


def test_c5_sparse_phase_transition(scan):
    result, out = scan
    per_d = result.summary["per_d"]
    rate_hi = per_d[40]["bound_rate"]
    gap = per_d[40]["recovery_rate"] - per_d[5]["recovery_rate"]
    ok = rate_hi >= 0.95 and gap >= 0.3
    _verdict(5, "sparse sample complexity", ok,
             f"bound rate at d=40: {rate_hi:.3f} (need >= 0.95); "
             f"recovery gap d=40 vs d=5: {gap:.2f} (need >= 0.3)")


def test_c7_conditional_error_bound(scan):
    result, out = scan
    tau = 0.04
    conditioned = violations = 0
    for r in _read_rows(out / "scan.csv"):
        e1 = r["min_gain"] == "" or float(r["min_gain"]) >= tau
        e2 = r["e2_ok"] == "1"
        if e1 and e2:
            conditioned += 1
            if not (r["status"] == "ok" and float(r["err"]) <= float(r["err_bound"])):
                violations += 1
    ok = conditioned > 0 and violations == 0
    _verdict(7, "conditional error bound", ok,
             f"{conditioned} trials with both events, {violations} violations")


# ---------------------------------------------------------------------------
# 6: finite-n exact recovery on the grid


def test_c6_grid_sparse_exact_recovery(workdir):
    result = run_corollary_check(CorollaryConfig(), workdir / "corollary")
    s = result.summary
    ok = result.passed and s["trials"] >= 500
    _verdict(6, "grid sparse recovery", ok,
             f"{s['failures']} failures in {s['trials']} trials "
             f"(allowed {s['allowed_failures']:.2e}); "
             f"n={s['n']}, d={s['d']}, kappa={s['kappa']}")


# ---------------------------------------------------------------------------
# 8: recovery degrades gracefully off the coded class


def test_c8_lp_mismatch_recovery(workdir):
    result = run_mismatch_scan(MismatchConfig(), workdir / "mismatch")
    s = result.summary
    ok = s["tails_all_within_bound"] and s["median_err_decreasing"]
    meds = ", ".join(f"n={n}: {v:.3f}" for n, v in s["medians_by_n"].items())
    _verdict(8, "lp-ball mismatch", ok, f"medians {meds}; tails within bound")


# ---------------------------------------------------------------------------
# 9: reruns are byte-identical


def _rerun_identical(runner, cfg, root, name) -> bool:
    ra = runner(cfg, root / f"{name}-a")
    runner(cfg, root / f"{name}-b")
    return all(
        (root / f"{name}-a" / f).read_bytes() == (root / f"{name}-b" / f).read_bytes()
        for f in ra.outputs
        if f.endswith(".csv")
    )


def test_c9_deterministic_reruns(workdir):
    root = workdir / "rerun"
    same = [
        _rerun_identical(run_phase_scan,
                         PhaseScanConfig(trials=3, d_values=(8, 30),
                                         master_seed=11), root, "scan"),
        _rerun_identical(run_corollary_check,
                         CorollaryConfig(trials=3, master_seed=12),
                         root, "corollary"),
        _rerun_identical(run_lemma_suite,
                         LemmaConfig(chi_trials=2000, sigma_trials=300,
                                     master_seed=13), root, "lemmas"),
        _rerun_identical(run_mismatch_scan,
                         MismatchConfig(trials=3, master_seed=14),
                         root, "mismatch"),
    ]
    _verdict(9, "deterministic reruns", all(same),
             "scan, corollary, lemmas, mismatch CSVs byte-identical")
