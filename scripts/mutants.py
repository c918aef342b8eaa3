"""Apply each source mutant of MUTANTS to a temporary copy of this
checkout, run the tests named for it, and print which test killed it.

    python3 scripts/mutants.py              # every mutant
    python3 scripts/mutants.py NAME ...     # the named ones

A mutant replaces one exact piece of text, found once in one source file,
with another. Each prints one line: `killed    NAME  by TEST`, with the
first of its tests that failed, or `SURVIVED  NAME`. The unmutated copy
must pass every named test first, so that a kill is the mutation's doing.
The checkout is only read: its src/, tests/ and pyproject.toml are copied
into a temporary directory, removed at the end. Exit status 0 when every
mutant is killed, 1 when one survives, 2 when a mutant's text is not in
its file exactly once or the unmutated copy fails its tests.
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
_INVALID = "tests/test_codecs.py::test_invalid_streams_are_refused"

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
        for part in ("src", "tests"):
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
