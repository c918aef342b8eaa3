"""Benchmark of mcpursuit's solver and Monte Carlo checks.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 bench/run.py --workload corollary_n1024 --seed 20261017 \
        --seconds 16 --trace 0

Every workload, each in its own process:

    python3 bench/run.py --seed 20261017

The package is imported from the checkout's own src/ directory; the run
stops with an error when it is not there. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
BLAS_THREADS = 1
SETUP_REPS = 5
DEFAULT_SEED = 20261017
WORKLOADS = ("corollary_n1024", "pp_const_n128", "pp_linear_n24", "lemmas_mc")

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import mcpursuit, mcpursuit.measure, mcpursuit.rng, mcpursuit.signals, "
    "mcpursuit.solver; "
    "print(time.perf_counter() - t); print(mcpursuit.__file__)"
)


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=_env(), capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout.split("\n")
    if not Path(out[1]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported mcpursuit from {out[1]}, not {SRC}")
    return float(out[0])


def _metrics_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import mcpursuit

    if not Path(mcpursuit.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported mcpursuit from {mcpursuit.__file__}")
    import workloads as W
    from spans import NullTracer, Tracer

    null = NullTracer()
    if not trace:
        imports, gens = [], []
        for _ in range(SETUP_REPS):
            imports.append(W.scaled(import_seconds(), W.kernel_runs()))
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            inputs = W.make_inputs(name, seed, null)
            gens.append(W.scaled(time.perf_counter() - t0, W.kernel_runs()))
        setup_s = statistics.median(imports) + statistics.median(gens)
        plan = W.plan(name, inputs)
        rounds = W.run_rounds(plan.ops, null, seconds=seconds)
        problems = W.check_outputs(plan, null, rounds)
        metrics = W.e2e_metrics(setup_s, rounds)
        attempted, failed = W.attempted_failed(rounds)
    else:
        W.make_inputs(name, seed, null)  # warm lazy imports and caches
        tracer = Tracer(name)
        inputs = W.make_inputs(name, seed, tracer)
        setup_end = len(tracer.spans)
        plan = W.plan(name, inputs)
        plain, traced = W.paired_rounds(plan.ops, tracer, seconds)
        n_rounds = len(traced.outcomes)
        run_end = len(tracer.spans)
        problems = W.check_outputs(plan, tracer, traced, plain)
        metrics = W.layer_metrics(
            name,
            tracer.self_times(0, setup_end),
            tracer.self_times(setup_end, run_end),
            n_rounds,
            W.round_counts(plan, traced),
            tracer.self_times(run_end, len(tracer.spans)),
            (traced.wall - plain.wall) / n_rounds,
        )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}-{seed}.json")
        a1, f1 = W.attempted_failed(plain)
        a2, f2 = W.attempted_failed(traced)
        attempted, failed = a1 + a2, f1 + f2
    for msg in problems[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"{name}  {k} = {v:.6g} {u}")
    kernel_ms = statistics.median(W.kernel_runs()) * 1e3
    print(f"{name}  reference kernel now takes {kernel_ms:.3f} ms "
          f"(times are scaled to {W.REFERENCE_KERNEL_S * 1e3:g} ms)")
    print(f"{name}  attempted = {attempted}, failed = {failed}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics_json(metrics),
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; prints one summary per workload."""
    status = 0
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            continue
        summary[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mcpursuit" / "__init__.py").is_file():
        print(f"error: no mcpursuit package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({k: v for k, v in _env().items() if k != "PYTHONPATH"})
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
