"""The benchmark's own checks must be able to fail.

Run with: python3 -m pytest bench/test_bench.py
"""

import dataclasses
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads as W  # noqa: E402
from mcpursuit.codecs import encode_sparse  # noqa: E402
from mcpursuit.measure import TailCheckResult  # noqa: E402
from mcpursuit.quantize import QuantizedVector  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

SEED = 7
NULL = NullTracer()
CELLS = len(W.CHI_CELLS)


@pytest.fixture(scope="module")
def corollary():
    wl = W.SOLVER_WORKLOADS["corollary_n1024"]
    inst = W.make_inputs(wl.name, SEED, NULL)[0]
    return wl, inst, W.solve(wl, inst, NULL)


@pytest.fixture(scope="module")
def linear():
    wl = W.SOLVER_WORKLOADS["pp_linear_n24"]
    inst = W.make_inputs(wl.name, SEED, NULL)[0]
    return wl, inst, W.solve(wl, inst, NULL)


def _replaced(out, **changes):
    return W.SolveOutcome(dataclasses.replace(out.result, **changes), out.sigma_max)


def _moved(q: QuantizedVector) -> QuantizedVector:
    """The same vector with its first nonzero entry one grid step lower."""
    nums = list(q.numerators)
    pos = next(i for i, v in enumerate(nums) if v)
    nums[pos] -= 1
    return QuantizedVector(tuple(nums), q.resolution_bits)


def test_true_outputs_pass(corollary, linear):
    for wl, inst, out in (corollary, linear):
        assert not out.failed
        assert W.solve_problems(wl, inst, out, NULL) == []


def test_rejects_answer_moved_one_grid_step(corollary, linear):
    for wl, inst, out in (corollary, linear):
        bad = _replaced(out, x_hat=_moved(out.result.x_hat))
        assert W.solve_problems(wl, inst, bad, NULL)


@pytest.mark.parametrize("delta", (-1, 1))
def test_rejects_dl_bits_off_by_one(corollary, delta):
    wl, inst, out = corollary
    bad = _replaced(out, dl_bits=out.result.dl_bits + delta)
    assert any("dl_bits" in p for p in W.solve_problems(wl, inst, bad, NULL))


def test_rejects_stream_decoding_to_another_vector(corollary):
    wl, inst, out = corollary
    other = encode_sparse(_moved(out.result.x_hat)).payload
    bad = _replaced(out, stream=other, dl_bits=len(other))
    problems = W.solve_problems(wl, inst, bad, NULL)
    assert problems == ["stream decodes to another vector"]


def test_rejects_shifted_chi_rate():
    d, tau, trials = 50, 0.5, 100_000
    exact = float(checks.chi2.cdf(d * (1 - tau), d))
    sd = (exact * (1 - exact) / trials) ** 0.5
    assert checks.chi_cell_problems(d, tau, trials, exact, CELLS) == []
    assert checks.chi_cell_problems(d, tau, trials, exact + 5 * sd, CELLS)
    assert checks.chi_cell_problems(d, tau, trials, exact - 5 * sd, CELLS)


def test_rare_chi_cell_uses_exact_tails():
    # 0.7 hits expected: five hits happen on about 1 in 1300 seeds, so they
    # must pass, while twenty cannot come from the exact rate
    d, tau, trials = 100, 0.5, 100_000
    assert checks.chi_cell_problems(d, tau, trials, 5 / trials, CELLS) == []
    assert checks.chi_cell_problems(d, tau, trials, 20 / trials, CELLS)


def test_pooled_cell_rejects_one_shifted_chunk():
    chunks = [c for c in W.lemma_inputs(SEED, NULL)
              if c.cell.family == "chi" and c.cell.d == 50 and c.cell.param == 0.5]
    exact = float(checks.chi2.cdf(25, 50))
    hits = round(exact * chunks[0].trials)
    results = [TailCheckResult(hits / c.trials, 0.0, c.trials) for c in chunks]
    assert W.cell_problems(chunks, results) == []
    results[3] = TailCheckResult((hits + 80) / chunks[3].trials, 0.0,
                                 chunks[3].trials)
    assert W.cell_problems(chunks, results)


def test_rejects_rate_above_bound():
    bound = checks.sigma_bound(40, 1.0)
    assert checks.bound_problems(bound, bound, 10_000) == []
    assert checks.bound_problems(bound + 0.01, bound, 10_000)


def test_rejects_codeword_outside_scope(linear):
    wl, inst, out = linear
    narrow = dataclasses.replace(wl.config, pp_max_degree=0, max_sparse_k=0)
    assert checks.scope_problems(out.result.stream, out.result.codec_id,
                                 wl.n, narrow)


def test_capped_solve_counts_as_failed(linear):
    wl, inst, _ = linear
    tiny = dataclasses.replace(
        wl, config=dataclasses.replace(wl.config, node_cap=50))
    plan = W.Plan(wl.name, [inst], [lambda tr: W.solve(tiny, inst, tr)],
                  lambda i, o, tr: W.solve_problems(tiny, i, o, tr),
                  W.SolveOutcome.key)
    rounds = W.run_rounds(plan.ops, NULL, rounds=2)
    assert W.attempted_failed(rounds) == (2, 2)
    assert W.check_outputs(plan, NULL, rounds) == []


def test_self_time_excludes_children():
    tr = Tracer("t")
    with tr.span("outer"):
        time.sleep(0.02)
        with tr.span("inner"):
            time.sleep(0.02)
    own = tr.self_times()
    outer = tr.spans[0].end - tr.spans[0].start
    inner = tr.spans[1].end - tr.spans[1].start
    assert own["inner"] == inner
    assert own["outer"] == pytest.approx(outer - inner)
