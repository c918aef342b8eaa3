"""Write the CSV digests of four pinned experiment runs, one per line.

    python3 scripts/csv_digests.py --out digests.txt

Each run gives a line with its exit status, then one line per CSV with
the sha1 its manifest records, each followed by one line per column with
the sha1 of that column's values, one a line, so a changed digest names
its column. The runs are `scan --config
configs/scan-quick.cfg`, `corollary --trials 20`, `lemmas --chi-trials
2000 --sigma-trials 200` and `mismatch --config
configs/mismatch-default.cfg`, each in its own temporary
directory, with one BLAS thread as the benchmark uses. The script imports
the package from the src/ directory of its own checkout, so two checkouts
are compared with

    cmp parent/digests.txt change/digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# before numpy is imported: BLAS products, and so the bits of the bound,
# can depend on the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mcpursuit.cli import main as cli_main  # noqa: E402

RUNS = (
    ("scan", "--config", str(ROOT / "configs" / "scan-quick.cfg")),
    ("corollary", "--trials", "20"),
    ("lemmas", "--chi-trials", "2000", "--sigma-trials", "200"),
    ("mismatch", "--config", str(ROOT / "configs" / "mismatch-default.cfg")),
)


def csv_digests() -> list[str]:
    return [line for run in RUNS for line in run_digests(run)]


def run_digests(run: tuple[str, ...]) -> list[str]:
    """The lines of one run of RUNS: its exit status, then each CSV's
    sha1 and column digests. tests/golden_csv_digests.txt holds them for
    every run."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli_main([*run, "--out", out])
        lines = [f"{run[0]} exit {status}"]
        for manifest in sorted(Path(out).glob("*_manifest.json")):
            outputs = json.loads(manifest.read_text())["outputs"]
            for name in sorted(outputs):
                lines.append(f"{run[0]} {name} {outputs[name]['sha1']}")
                lines += column_digests(f"{run[0]} {name}", Path(out) / name)
    return lines


def column_digests(label: str, path: Path) -> list[str]:
    """One line per column of a CSV: label:column and the sha1 of the
    column's values, one a line."""
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return [
        f"{label}:{column} "
        + hashlib.sha1("\n".join(row[i] for row in rows).encode()).hexdigest()
        for i, column in enumerate(header)
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    lines = csv_digests()
    args.out.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} lines written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
