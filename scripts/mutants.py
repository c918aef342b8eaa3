"""Apply each source mutant of MUTANTS to a temporary copy of this
checkout, run the tests named for it, and print which test killed it.

    python3 scripts/mutants.py              # every mutant
    python3 scripts/mutants.py NAME ...     # the named ones

A mutant replaces one exact piece of text, found once in one source file,
with another. Each prints one line: `killed    NAME  by TEST`, with the
first of its tests that failed, or `SURVIVED  NAME`. The unmutated copy
must pass every named test first, so that a kill is the mutation's doing.
The checkout is only read: its src/, tests/, bench/, scripts/, configs/
and pyproject.toml are copied into a temporary directory, removed at the
end. tests/test_golden.py reads bench/, scripts/ and configs/, so its
golden pins can kill a mutant too. Exit status 0 when every mutant is
killed, 1 when one survives, 2 when a mutant's text is not in its file
exactly once or the unmutated copy fails its tests.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout


_CODECS = "src/mcpursuit/codecs.py"
_QUANTIZE = "src/mcpursuit/quantize.py"
_MEASURE = "src/mcpursuit/measure.py"
_SOLVER = "src/mcpursuit/solver.py"
_HARNESS = "src/mcpursuit/harness.py"
_INVALID = "tests/test_codecs.py::test_invalid_streams_are_refused"
_CUT_FEASIBLE = (
    "tests/test_solver.py::test_cut_drops_only_supports_without_a_feasible_point",
    "tests/test_solver.py::test_matches_brute_force_where_only_the_cut_prunes",
)
_HUB_CELLS = (
    "tests/test_solver.py::test_hub_cut_keeps_exactly_the_cells_whose_float_sum_reaches_need",
)
_WALK = "tests/test_solver.py::test_batched_walk_matches_one_leaf_at_a_time"

MUTANTS = (
    Mutant("codecs: end-of-stream check dropped", _CODECS,
           "    r.expect_end()\n    return q\n", "    return q\n", (_INVALID,)),
    Mutant("codecs: repeated position or breakpoint accepted", _CODECS,
           "if v <= prev or v > hi:", "if v < prev or v > hi:", (_INVALID,)),
    Mutant("codecs: k > n dropped", _CODECS,
           '    if k > n:\n        raise DecodeError("support larger than vector")\n',
           "", (_INVALID,)),
    Mutant("codecs: more pieces than samples dropped", _CODECS,
           '    if q_breaks > n - 1:\n        raise DecodeError("more pieces than samples")\n',
           "", (_INVALID,)),
    Mutant("codecs: index one past hi accepted", _CODECS,
           "if v <= prev or v > hi:", "if v <= prev or v > hi + 1:", (_INVALID,)),
    Mutant("codecs: proxy size check dropped", _CODECS,
           "    if not 0 <= pad < 8:\n", "    if False:\n",
           ("tests/test_codecs.py::test_proxy_decode_rejects_other_contexts",
            "tests/test_harness.py::test_cli_decode_context_mismatch_exits_2")),
    Mutant("codecs: zero-payload check dropped", _CODECS,
           "        if v == 0:\n", "        if False:\n",
           ("tests/test_codecs.py::test_sparse_decode_rejects_noncanonical_zero",)),
    Mutant("codecs: NaN coefficients reach the truncation", _CODECS,
           "if not (row.min() >= 0.0 and row.max() <= 1.0):",
           "if row.min() < 0.0 or row.max() > 1.0:",
           ("tests/test_codecs.py::test_pp_rejects_bad_specs",)),
    Mutant("quantize: top clamp dropped", _QUANTIZE,
           "tuple(min(v, top - 1) for v in nums)", "tuple(nums)",
           ("tests/test_quantize.py::test_truncate_known_values",)),
    Mutant("measure: tail loop draws one trial too many", _MEASURE,
           "hits(min(batch, trials - done))", "hits(min(batch, trials - done + 1))",
           ("tests/test_measure.py::test_mc_checks_draw_exactly_their_trials",)),
    Mutant("cut: eta dropped from need", _SOLVER,
           "norm_y - self.limit - delta", "norm_y - math.sqrt(_LS_MARGIN) - delta",
           _CUT_FEASIBLE),
    Mutant("cut: hi c for the max", _SOLVER,
           "np.maximum(box[0] * c, box[1] * c)", "box[1] * c", _CUT_FEASIBLE),
    Mutant("cut: delta dropped", _SOLVER,
           "self.limit - delta - float(", "self.limit - float(",
           ("tests/test_solver.py::test_cut_keeps_supports_on_its_exact_boundary",)),
    Mutant("cut: 2 s > need for a hub", _SOLVER,
           "hub = 2 * sc >= need", "hub = 2 * sc > need", _HUB_CELLS),
    Mutant("cut: hub-as-second pass dropped", _SOLVER,
           "lo + np.concatenate((tops[at_top], t)),\n"
           "                     lo + np.concatenate((v, hubs[at_hub])))",
           "lo + tops[at_top], lo + v)", _HUB_CELLS),
    Mutant("cut: need < 0.0 at size 0", _SOLVER,
           "int(need <= 0.0)", "int(need < 0.0)", _HUB_CELLS),
    Mutant("cut: > for >= at size 1", _SOLVER,
           "self.scores[firsts] >= need", "self.scores[firsts] > need", _HUB_CELLS),
    Mutant("walk: a first leaf ends a visit with two values left", _SOLVER,
           "if counts[h] <= 1 and", "if counts[h] <= 2 and", (_WALK,)),
    Mutant("walk: the first leaf's row not entered again", _SOLVER,
           "enter(h, radius_sq)", "enter(h + 1, radius_sq)",
           (_WALK,
            "tests/test_solver.py::test_visit_ended_by_its_first_leaf_lays_out_no_batch")),
    Mutant("codecs: int64 sampling past its bit bound", _CODECS,
           "bit_bound <= 62", "bit_bound <= 70",
           ("tests/test_solver.py::test_batched_pp_decoder_is_exact",)),
    Mutant("run_level: one extra stratum charged per block", _SOLVER,
           "self.budget.add_strata(_block_size(block))",
           "self.budget.add_strata(_block_size(block) + 1)",
           ("tests/test_golden.py::test_golden_solve_counters",)),
    Mutant("harness: corollary CSV's strata and points swapped", _HARNESS,
           "residual=res.residual,\n            strata=res.strata_examined, "
           "points=res.points_tested,",
           "residual=res.residual,\n            strata=res.points_tested, "
           "points=res.strata_examined,",
           ("tests/test_golden.py::test_golden_csv_column_digests",)),
)


def failed_test(copy: Path, tests: tuple[str, ...]) -> str | None:
    """The first of tests that fails in copy, or None if all pass."""
    env = {
        **os.environ,
        "PYTHONPATH": str(copy / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    if proc.returncode == 0:
        return None
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.partition(" ")[2].split(" - ")[0]
    return f"pytest exit status {proc.returncode}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutant names (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    rows = [m for m in MUTANTS if not args.names or m.name in args.names]
    for m in rows:
        if (ROOT / m.path).read_text().count(m.old) != 1:
            print(f"mutants: the text of {m.name!r} is not in {m.path} exactly once",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests", "bench", "scripts", "configs"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        base = failed_test(copy, tuple(sorted({t for m in rows for t in m.tests})))
        if base is not None:
            print(f"mutants: {base} fails without any mutant", file=sys.stderr)
            return 2
        survived = 0
        for m in rows:
            target = copy / m.path
            source = target.read_text()
            target.write_text(source.replace(m.old, m.new))
            killer = failed_test(copy, m.tests)
            target.write_text(source)
            if killer is None:
                survived += 1
                print(f"SURVIVED  {m.name}", flush=True)
            else:
                print(f"killed    {m.name}  by {killer}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
