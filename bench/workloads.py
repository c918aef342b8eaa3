"""The benchmark's workloads: inputs made from a seed, the operations
timed on them, and the checks of every output.

A run sets up the inputs, repeats whole rounds of the same operations
until the requested time has passed, then checks each operation's
output. Rounds repeat identical operations, so every round must give
identical outputs, and counts per round repeat exactly.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from mcpursuit.codecs import CodedSignal, decode_any, encode_piecewise_poly, encode_sparse
from mcpursuit.measure import (
    MeasurementEnsemble,
    mc_check_chi_lower_tail,
    mc_check_sigma_tail,
    sample_ensemble,
)
from mcpursuit.quantize import quantize_vector
from mcpursuit.rng import derive_seed, make_generator
from mcpursuit.signals import gen_piecewise_poly, gen_sparse
from mcpursuit.solver import SolverConfig, SolverResourceError, mcp_exact

import checks
from spans import NullTracer

# ---------------------------------------------------------------------------
# solver workloads


@dataclass(frozen=True)
class Instance:
    trial: int
    ens: MeasurementEnsemble
    y: np.ndarray
    truth: Any  # QuantizedVector (sparse) or (breaks, coeffs) (piecewise)


@dataclass(frozen=True)
class SolverWorkload:
    name: str
    n: int
    d: int
    m: int
    eta: float | None  # None: the solver's default, sigma_max * gap
    config: SolverConfig
    make_inputs: Callable  # (workload, seed, tracer) -> list[Instance]
    exact: bool = False  # the answer must equal the grid-valued truth


def _draw(wl, tracer, trial, master, *path, signal):
    """One instance: an ensemble and a signal from keys under `path`."""
    with tracer.span("measure.sample_ensemble", trial):
        ens = sample_ensemble(wl.n, wl.d, derive_seed(master, *path, "ens"))
    with tracer.span("signals.generate", trial):
        x, truth = signal(make_generator(master, *path, "sig"))
        y = ens.matrix @ x
    return Instance(trial, ens, y, truth)


def _corollary_inputs(wl, seed, tracer):
    def signal(rng):
        # an entry below 2^-m truncates to zero and leaves a 1-sparse signal,
        # which the k=1 scan settles 20x faster; redraw it, so every run
        # does the same work
        while True:
            xq = quantize_vector(gen_sparse(wl.n, 2, rng), wl.m)
            if sum(1 for v in xq.numerators if v) == 2:
                return xq.to_floats(), xq

    return [_draw(wl, tracer, i, seed, wl.name, i, signal=signal)
            for i in range(4)]


# breakpoints per piecewise-constant instance in one round: the median
# solve of a round is then always a two-break one
PP_CONST_BREAKS = (1, 2, 2, 2, 2, 2, 2, 3)


# Pieces this long with jumps this tall cannot be merged within the
# default eta, so every instance's shortest codeword keeps all its breaks
# and each round does the same amount of work.
PP_CONST_MIN_PIECE = 12
PP_CONST_MIN_JUMP = 0.25


def _pp_const_inputs(wl, seed, tracer):
    def signal_with(q):
        def draw(rng):
            while True:
                x, (breaks, coeffs) = gen_piecewise_poly(wl.n, q, 0, rng)
                edges = np.diff([0, *breaks, wl.n])
                jumps = np.abs(np.diff(coeffs[:, 0]))
                if edges.min() >= PP_CONST_MIN_PIECE and jumps.min() >= PP_CONST_MIN_JUMP:
                    return x, (breaks, coeffs)

        return draw

    return [_draw(wl, tracer, i, seed, wl.name, i, signal=signal_with(q))
            for i, q in enumerate(PP_CONST_BREAKS)]


PP_LINEAR_SEEDED = 60
PP_LINEAR_MIN_SLOPE = 0.5
# Fixed one-break instances that exhaust the node cap on every run (the
# widened walk radius of degree >= 1 strata); they do not depend on the seed.
PP_LINEAR_CAPPED = (4, 8)
PP_LINEAR_CAPPED_MASTER = 0


def _pp_linear_inputs(wl, seed, tracer):
    def line(rng):
        # lines this steep admit no constant codeword, so each solve
        # walks the degree-1 stratum
        while True:
            x, spec = gen_piecewise_poly(wl.n, 0, 1, rng)
            if spec[1][0, 1] >= PP_LINEAR_MIN_SLOPE:
                return x, spec

    def one_break(rng):
        return gen_piecewise_poly(wl.n, 1, 1, rng)

    out = [_draw(wl, tracer, i, seed, wl.name, i, signal=line)
           for i in range(PP_LINEAR_SEEDED)]
    for j, idx in enumerate(PP_LINEAR_CAPPED):
        out.append(_draw(wl, tracer, PP_LINEAR_SEEDED + j,
                         PP_LINEAR_CAPPED_MASTER, wl.name, "capped", idx,
                         signal=one_break))
    return out


PP_LINEAR_NODE_CAP = 1 << 16

SOLVER_WORKLOADS = {
    wl.name: wl
    for wl in (
        SolverWorkload(
            "corollary_n1024", 1024, 182, 10, 1e-6,
            SolverConfig(max_sparse_k=2, include_pp=False),
            _corollary_inputs, exact=True,
        ),
        SolverWorkload(
            "pp_const_n128", 128, 30, 8, None,
            SolverConfig(max_sparse_k=2, pp_max_degree=0, pp_max_breaks=3),
            _pp_const_inputs,
        ),
        SolverWorkload(
            "pp_linear_n24", 24, 16, 6, None,
            SolverConfig(max_sparse_k=2, pp_max_degree=1, pp_max_breaks=1,
                         node_cap=PP_LINEAR_NODE_CAP),
            _pp_linear_inputs,
        ),
    )
}


@dataclass
class SolveOutcome:
    result: Any  # RecoveryResult, or None when the node cap was hit
    sigma_max: float

    @property
    def failed(self) -> bool:
        return self.result is None

    def key(self):
        r = self.result
        if r is None:
            return None
        nums = r.x_hat.numerators if r.x_hat is not None else None
        return (r.status, r.dl_bits, r.stream, nums, r.strata_examined,
                r.points_tested)


def solve(wl: SolverWorkload, inst: Instance, tracer) -> SolveOutcome:
    # a fresh ensemble object, so sigma_max is computed on every solve as
    # it is for every new ensemble in an experiment
    ens = MeasurementEnsemble(inst.ens.matrix, inst.ens.key)
    with tracer.span("op", inst.trial):
        with tracer.span("measure.sigma_max", inst.trial):
            sigma = ens.sigma_max
        with tracer.span("solver.mcp_exact", inst.trial):
            try:
                res = mcp_exact(ens, inst.y, wl.m, wl.eta, wl.config)
            except SolverResourceError:
                res = None
    return SolveOutcome(res, sigma)


def truth_codeword(wl: SolverWorkload, inst: Instance) -> CodedSignal:
    if wl.exact:
        return encode_sparse(inst.truth)
    breaks, coeffs = inst.truth
    return encode_piecewise_poly(breaks, coeffs, wl.n, wl.m)


def solve_problems(wl: SolverWorkload, inst: Instance, out: SolveOutcome,
                   tracer) -> list[str]:
    """Every check of one solve that returned; [] when it passes."""
    a, res = inst.ens.matrix, out.result
    problems = []
    if wl.eta is None:
        sigma_ref = float(np.linalg.svd(a, compute_uv=False)[0])
        problems += checks.sigma_problems(out.sigma_max, sigma_ref)
        problems += checks.eta_problems(res.eta, sigma_ref, wl.n, wl.m)
    elif res.eta != wl.eta:
        problems.append(f"eta {res.eta!r} is not {wl.eta!r}")
    truth = truth_codeword(wl, inst)
    truth_nums = decode_any(truth, wl.n, wl.m).numerators
    feasible = checks.within_eta(
        checks.residual(a, inst.y, truth_nums, wl.m), res.eta)
    problems += checks.minimality_problems(res, truth.dl_bits, feasible)
    if res.status != "ok":
        return problems
    with tracer.span("codecs.decode_any", inst.trial):
        try:
            decoded = decode_any(CodedSignal(res.codec_id, res.stream), wl.n, wl.m)
        except ValueError:
            decoded = None
    problems += checks.answer_problems(a, inst.y, wl.m, res.eta, wl.config,
                                       res, decoded)
    if wl.exact and tuple(res.x_hat.numerators) != tuple(inst.truth.numerators):
        problems.append("answer is not the grid-valued signal")
    return problems


# ---------------------------------------------------------------------------
# Monte Carlo workload: the lemma suite's cells


@dataclass(frozen=True)
class Cell:
    family: str  # "chi" or "sigma"
    d: int
    param: float  # tau for chi cells, t for sigma cells
    n: int  # ambient n of sigma cells
    trials: int


@dataclass(frozen=True)
class Chunk:
    """One operation: a share of a cell's trials, drawn from a key of its
    own. A cell's checks pool the hits of all its chunks."""

    trial: int
    cell: Cell
    trials: int
    key: int


CHI_CELLS = [(d, tau) for d in (10, 50, 100) for tau in (0.2, 0.5, 0.8)]
CHI_TRIALS = 100_000
SIGMA_CELLS = [(10, 10, 0.5), (40, 256, 1.0)]  # (d, n, t)
SIGMA_TRIALS = 10_000
# Chunks keep each timed operation under a second, so a run times many
# short operations rather than a few long ones.
CHUNKS_PER_CELL = 10


def lemma_inputs(seed: int, tracer) -> list[Chunk]:
    cells = [Cell("chi", d, tau, 0, CHI_TRIALS) for d, tau in CHI_CELLS]
    cells += [Cell("sigma", d, t, n, SIGMA_TRIALS) for d, n, t in SIGMA_CELLS]
    chunks = []
    with tracer.span("signals.generate"):
        for c in cells:
            shape = (c.d, repr(c.param)) if c.family == "chi" else (c.d, c.n, repr(c.param))
            for j in range(CHUNKS_PER_CELL):
                key = derive_seed(seed, "lemmas_mc", c.family, *shape, j)
                chunks.append(Chunk(len(chunks), c, c.trials // CHUNKS_PER_CELL, key))
    return chunks


def run_chunk(chunk: Chunk, tracer):
    # the generator is rebuilt from its key, so each round repeats the
    # same draws
    c = chunk.cell
    rng = np.random.Generator(np.random.Philox(key=chunk.key))
    with tracer.span("op", chunk.trial):
        if c.family == "chi":
            with tracer.span("measure.mc_check_chi_lower_tail", chunk.trial):
                return mc_check_chi_lower_tail(c.d, c.param, chunk.trials, rng)
        with tracer.span("measure.mc_check_sigma_tail", chunk.trial):
            return mc_check_sigma_tail(c.n, c.d, c.param, chunk.trials, rng)


def chunk_problems(chunk: Chunk, r) -> list[str]:
    if r.trials != chunk.trials:
        return [f"ran {r.trials} trials, asked for {chunk.trials}"]
    return []


def cell_problems(chunks: list[Chunk], results: list) -> list[str]:
    """The checks of each cell, on the hits pooled over its chunks."""
    hits, trials = {}, {}
    for chunk, r in zip(chunks, results):
        hits[chunk.cell] = hits.get(chunk.cell, 0) + round(r.empirical * r.trials)
        trials[chunk.cell] = trials.get(chunk.cell, 0) + r.trials
    out = []
    for c, h in hits.items():
        rate = h / trials[c]
        if c.family == "chi":
            found = checks.chi_cell_problems(c.d, c.param, trials[c], rate,
                                             len(CHI_CELLS))
        else:
            found = checks.bound_problems(
                rate, checks.sigma_bound(c.d, c.param), trials[c])
        out += [f"{c.family} cell d={c.d} param={c.param}: {m}" for m in found]
    return out


# ---------------------------------------------------------------------------
# rounds


# On a shared virtual machine the CPU speed can swing by up to 2x over
# tens of seconds, and every workload slows with it. A fixed mix of
# interpreter and BLAS work, timed between operations, tracks that speed;
# timings are scaled to a host on which it takes REFERENCE_KERNEL_S.
REFERENCE_KERNEL_S = 0.005
KERNEL_WINDOW = 5  # kernel runs per speed estimate
_KERNEL_MATRIX = np.random.default_rng(0).random((96, 96))


def reference_kernel() -> float:
    """Seconds taken by the fixed reference work, which calls no mcpursuit
    code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i
    for _ in range(20):
        _KERNEL_MATRIX @ _KERNEL_MATRIX
    return time.perf_counter() - t0


def kernel_runs() -> list[float]:
    return [reference_kernel() for _ in range(KERNEL_WINDOW)]


@dataclass
class Rounds:
    outcomes: list = field(default_factory=list)  # one list per round
    op_seconds: list = field(default_factory=list)
    kernel_seconds: list = field(default_factory=list)  # one run after each op
    wall: float = 0.0
    first_round_rss_mb: float = 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(ops, tracer, seconds: float | None = None,
               rounds: int | None = None) -> Rounds:
    """Whole rounds of ops, until `seconds` have passed or `rounds` ran."""
    out = Rounds()
    start = time.perf_counter()
    while True:
        done = []
        for op in ops:
            t0 = time.perf_counter()
            done.append(op(tracer))
            out.op_seconds.append(time.perf_counter() - t0)
            out.kernel_seconds.append(reference_kernel())
        out.outcomes.append(done)
        if len(out.outcomes) == 1:
            out.first_round_rss_mb = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if rounds is not None and len(out.outcomes) >= rounds:
            break
        if seconds is not None and elapsed >= seconds:
            break
    out.wall = time.perf_counter() - start
    return out


def paired_rounds(ops, tracer, seconds: float) -> tuple[Rounds, Rounds]:
    """A discarded warm-up round, then pairs of an untraced and a traced
    round until `seconds` have passed; the traced minus the untraced wall
    time is the tracing overhead."""
    run_rounds(ops, NullTracer(), rounds=1)
    plain, traced = Rounds(), Rounds()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not plain.outcomes:
        pair = [(NullTracer(), plain), (tracer, traced)]
        if len(plain.outcomes) % 2:
            pair.reverse()  # alternate which side runs first
        for tr, acc in pair:
            one = run_rounds(ops, tr, rounds=1)
            acc.outcomes += one.outcomes
            acc.wall += one.wall
    return plain, traced


def round_mismatches(key: Callable, *runs: Rounds) -> list[str]:
    """Every round of every run must repeat the first round's outputs."""
    first = [key(o) for o in runs[0].outcomes[0]]
    return [
        f"run {j} round {r} op {i} differs from the first round"
        for j, run in enumerate(runs)
        for r, outs in enumerate(run.outcomes)
        for i, o in enumerate(outs)
        if key(o) != first[i]
    ]


def is_lemma_workload(name: str) -> bool:
    return name == "lemmas_mc"


@dataclass
class Plan:
    """What one workload runs: its inputs, its operations, and how to
    check and summarise their outcomes."""

    name: str
    inputs: list
    ops: list
    problems: Callable  # (input, outcome, tracer) -> list[str]
    key: Callable  # outcome -> comparable value
    # (inputs, outcomes of one round) -> list[str], for checks that pool
    # several operations
    pooled_problems: Callable = lambda inputs, outcomes: []


def make_inputs(name: str, seed: int, tracer) -> list:
    if is_lemma_workload(name):
        return lemma_inputs(seed, tracer)
    wl = SOLVER_WORKLOADS[name]
    return wl.make_inputs(wl, seed, tracer)


def plan(name: str, inputs: list) -> Plan:
    if is_lemma_workload(name):
        return Plan(
            name, inputs,
            [lambda tr, c=c: run_chunk(c, tr) for c in inputs],
            lambda c, r, tr: chunk_problems(c, r),
            lambda r: r.empirical,
            cell_problems,
        )
    wl = SOLVER_WORKLOADS[name]
    return Plan(
        name, inputs,
        [lambda tr, i=i: solve(wl, i, tr) for i in inputs],
        lambda i, o, tr: solve_problems(wl, i, o, tr),
        SolveOutcome.key,
    )


def failed(outcome) -> bool:
    return isinstance(outcome, SolveOutcome) and outcome.failed


def check_outputs(p: Plan, tracer, *runs: Rounds) -> list[str]:
    """Checks each operation's output once (rounds repeat the same
    operations) and that every round gave the same outputs."""
    problems = round_mismatches(p.key, *runs)
    for inp, outcome in zip(p.inputs, runs[0].outcomes[0]):
        if failed(outcome):
            continue
        problems += [f"{p.name} op {inp.trial}: {msg}"
                     for msg in p.problems(inp, outcome, tracer)]
    return problems + p.pooled_problems(p.inputs, runs[0].outcomes[0])


# ---------------------------------------------------------------------------
# per-layer figures of one traced round


def round_counts(p: Plan, rounds: Rounds) -> dict[str, int]:
    """Work counts of one round. A capped solve adds its node cap to the
    points, since it is the walk that spends the budget."""
    outs = rounds.outcomes[0]
    if is_lemma_workload(p.name):
        return {
            family + "_trials": sum(r.trials for c, r in zip(p.inputs, outs)
                                    if c.cell.family == family)
            for family in ("chi", "sigma")
        }
    cap = SOLVER_WORKLOADS[p.name].config.node_cap
    ok = [o.result for o in outs if not o.failed]
    errors = len(outs) - len(ok)
    return {
        "strata": sum(r.strata_examined for r in ok),
        "points": sum(r.points_tested for r in ok) + errors * cap,
        "resource_errors": errors,
        "answers": sum(r.status == "ok" for r in ok),
    }


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(name: str, setup_self: dict, run_self: dict, n_rounds: int,
                  counts: dict, check_self: dict, overhead: float) -> dict:
    """Per-layer metrics: times are self times per round (per input set
    for set-up layers), counts are per round."""
    per_round = {k: v / n_rounds for k, v in run_self.items()}
    solve_s = per_round.get("solver.mcp_exact", 0.0)
    chi_s = per_round.get("measure.mc_check_chi_lower_tail", 0.0)
    sig_s = per_round.get("measure.mc_check_sigma_tail", 0.0)
    strata = counts.get("strata", 0)
    points = counts.get("points", 0)
    return {
        "measure.sample_ensemble_s": (setup_self.get("measure.sample_ensemble", 0.0), "s"),
        "signals.generate_s": (setup_self.get("signals.generate", 0.0), "s"),
        "measure.sigma_max_s": (per_round.get("measure.sigma_max", 0.0), "s"),
        "measure.chi_trials_per_s": (_rate(counts.get("chi_trials", 0), chi_s), "1/s"),
        "measure.sigma_trials_per_s": (_rate(counts.get("sigma_trials", 0), sig_s), "1/s"),
        "solver.solve_s": (solve_s, "s"),
        "solver.strata": (strata, "count"),
        "solver.strata_per_s": (_rate(strata, solve_s), "1/s"),
        "solver.points": (points, "count"),
        "solver.points_per_s": (_rate(points, solve_s), "1/s"),
        "solver.points_per_solve": (_rate(points, counts.get("answers", 0)), "count"),
        "solver.resource_errors": (counts.get("resource_errors", 0), "count"),
        "codecs.decode_s": (check_self.get("codecs.decode_any", 0.0), "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def scaled(seconds: float, kernel_seconds: list[float]) -> float:
    """A time scaled to the reference host speed, which is estimated by the
    median of a few kernel runs made around it."""
    return seconds * REFERENCE_KERNEL_S / statistics.median(kernel_seconds)


def op_times(rounds: Rounds) -> list[float]:
    """Each operation's scaled time, as its median over the run's rounds.
    An operation is scaled by the kernel runs that followed it and its
    neighbours."""
    ks = rounds.kernel_seconds
    half = KERNEL_WINDOW // 2
    scaled_all = [
        scaled(t, ks[max(0, j - half):j + half + 1])
        for j, t in enumerate(rounds.op_seconds)
    ]
    k = len(rounds.outcomes[0])
    return [statistics.median(scaled_all[i::k]) for i in range(k)]


def e2e_metrics(setup_s: float, rounds: Rounds) -> dict:
    times = op_times(rounds)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "peak_rss_mb": (rounds.first_round_rss_mb, "MB"),
    }


def attempted_failed(rounds: Rounds) -> tuple[int, int]:
    attempted = sum(len(r) for r in rounds.outcomes)
    return attempted, sum(failed(o) for r in rounds.outcomes for o in r)

