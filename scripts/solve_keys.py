"""Write SolveOutcome.key() of every solver-workload instance of the
benchmark at one seed, of a fixed list of off-bench pattern solves drawn
from the seed, and the hit count of every lemmas_mc chunk, as JSON.

    python3 scripts/solve_keys.py --seed 20261017 --out keys.json

A key holds the status, code length, stream, numerators and both counters
of one solve; a solve that hits the node cap is keyed by its budget
counters at the cap, the message of its SolverResourceError, so a change
in the node at which the cap fires shows too. The off-bench solves
(OFF_BENCH) reach the degree >= 1 multi-break levels of breakpoint
patterns, which no bench workload does: a y off every pattern's span,
for which every level in scope is bounded and none passes, and
piecewise-linear and -quadratic signals whose walks mostly end at the
node cap. Two more (LITERAL) put the literal block in scope, which no
bench workload does: a dense grid signal at eta 1e-9, whose answer is the
literal codeword, and the same instance at the default eta, where a
shorter codeword wins and the literal level is never charged. Each is
keyed with its name. A chunk's entry is
its family, d, n, parameter (tau or t) and the number of its trials that
hit the tail event, round(empirical * trials). The script imports
the package from the src/ directory of its own checkout and the workloads
from its bench/ directory, with one BLAS thread as the benchmark uses, so
two checkouts are compared with

    cmp parent/keys.json change/keys.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# before numpy is imported: BLAS products, and so the bits of the bound,
# can depend on the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads as W  # noqa: E402
from mcpursuit.measure import MeasurementEnsemble, sample_ensemble  # noqa: E402
from mcpursuit.rng import derive_seed, make_generator  # noqa: E402
from mcpursuit.signals import gen_piecewise_poly  # noqa: E402
from mcpursuit.solver import SolverConfig, SolverResourceError, mcp_exact  # noqa: E402
from spans import NullTracer  # noqa: E402

# name: (n, d, m, eta, degree, breaks); eta None is the solver's default,
# and breaks None draws y ~ N(0, I) instead of a signal of that degree.
# The scope is sparse supports of up to two indices and breakpoint
# patterns of up to the given degree and two breaks, and the node cap
# keeps the walks of degree >= 1 patterns short.
OFF_BENCH = {
    "infeasible_n64": (64, 24, 6, 0.05, 3, None),
    "linear_1break_n48": (48, 24, 8, None, 1, 1),
    "linear_2break_n64": (64, 24, 8, None, 1, 2),
    "quadratic_1break_n64": (64, 24, 8, None, 2, 1),
    "quadratic_2break_n48": (48, 24, 8, None, 2, 2),
}
OFF_BENCH_NODE_CAP = 1 << 15
# One instance (n, d, m) drawn under LITERAL_DRAW, a dense grid signal,
# keyed at each eta of LITERAL (None is the solver's default), with the
# literal block in scope besides sparse supports of up to two indices and
# degree-0 patterns of up to two breaks.
LITERAL_DRAW, LITERAL_SHAPE = "literal_n6", (6, 4, 2)
LITERAL = {"literal_n6_eta1e-9": 1e-9, "literal_n6_default_eta": None}


def solve_key(ens, y, m, eta, config):
    """The key of one solve: the result's fields, or the budget counters
    of a solve that hits the node cap."""
    # a fresh ensemble, as the benchmark solves with
    ens = MeasurementEnsemble(ens.matrix, ens.key)
    try:
        r = mcp_exact(ens, y, m, eta, config)
    except SolverResourceError as exc:
        return ["capped", str(exc)]
    nums = r.x_hat.numerators if r.x_hat is not None else None
    return [r.status, r.dl_bits, r.stream, nums, r.strata_examined, r.points_tested]


def off_bench_key(seed: int, name: str):
    """The key of one OFF_BENCH solve, drawn from keys under its name."""
    n, d, m, eta, degree, breaks = OFF_BENCH[name]
    ens = sample_ensemble(n, d, derive_seed(seed, "solve_keys", name, "ens"))
    rng = make_generator(seed, "solve_keys", name, "sig")
    if breaks is None:
        y = rng.normal(size=d)
    else:
        y = ens.matrix @ gen_piecewise_poly(n, breaks, degree, rng)[0]
    config = SolverConfig(max_sparse_k=2, pp_max_degree=degree, pp_max_breaks=2,
                          node_cap=OFF_BENCH_NODE_CAP)
    return [name, *solve_key(ens, y, m, eta, config)]


def literal_key(seed: int, name: str):
    """The key of one LITERAL solve."""
    n, d, m = LITERAL_SHAPE
    ens = sample_ensemble(n, d, derive_seed(seed, "solve_keys", LITERAL_DRAW, "ens"))
    nums = make_generator(seed, "solve_keys", LITERAL_DRAW, "sig").integers(0, 1 << m, size=n)
    y = ens.matrix @ (nums / (1 << m))
    config = SolverConfig(max_sparse_k=2, pp_max_degree=0, pp_max_breaks=2,
                          include_literal=True, node_cap=OFF_BENCH_NODE_CAP)
    return [name, *solve_key(ens, y, m, LITERAL[name], config)]


def solver_keys(seed: int) -> dict[str, list]:
    """The keys of every solver-workload instance, then of the OFF_BENCH
    and LITERAL solves under "off_bench". tests/golden_solve_keys.json
    holds them at seed 20261017, as format_keys writes them."""
    tracer = NullTracer()
    keys = {}
    for name, wl in W.SOLVER_WORKLOADS.items():
        keys[name] = [solve_key(inst.ens, inst.y, wl.m, wl.eta, wl.config)
                      for inst in W.make_inputs(name, seed, tracer)]
    keys["off_bench"] = [off_bench_key(seed, name) for name in OFF_BENCH]
    keys["off_bench"] += [literal_key(seed, name) for name in LITERAL]
    return keys


def lemma_counts(seed: int) -> list[list]:
    """Each lemmas_mc chunk's family, d, n, parameter and hit count."""
    tracer = NullTracer()
    counts = []
    for chunk in W.make_inputs("lemmas_mc", seed, tracer):
        r, c = W.run_chunk(chunk, tracer), chunk.cell
        counts.append([c.family, c.d, c.n, c.param, round(r.empirical * r.trials)])
    return counts


def format_keys(seed: int, keys: dict[str, list]) -> str:
    """The JSON text of keys, one instance per line, so a diff of two
    files points at the solve."""
    groups = [
        f"  {json.dumps(name)}: [\n" + ",\n".join(f"   {json.dumps(k)}" for k in ks) + "\n  ]"
        for name, ks in keys.items()
    ]
    return f'{{"seed": {seed}, "keys": {{\n' + ",\n".join(groups) + "\n}}\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    keys = solver_keys(args.seed)
    keys["lemmas_mc"] = lemma_counts(args.seed)
    args.out.write_text(format_keys(args.seed, keys))
    print(f"{sum(map(len, keys.values()))} keys and chunk counts written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
