"""Write the CSV digests of four pinned experiment runs, one per line.

    python3 scripts/csv_digests.py --out digests.txt

Each run gives a line with its exit status, then one line per CSV with
the sha1 its manifest records. The runs are `scan --config
configs/scan-quick.cfg`, `corollary --trials 20`, `lemmas` and `mismatch
--config configs/mismatch-default.cfg`, each in its own temporary
directory, with one BLAS thread as the benchmark uses. The script imports
the package from the src/ directory of its own checkout, so two checkouts
are compared with

    cmp parent/digests.txt change/digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
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
    ("lemmas",),
    ("mismatch", "--config", str(ROOT / "configs" / "mismatch-default.cfg")),
)


def csv_digests() -> list[str]:
    lines = []
    for run in RUNS:
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli_main([*run, "--out", out])
            lines.append(f"{run[0]} exit {status}")
            for manifest in sorted(Path(out).glob("*_manifest.json")):
                outputs = json.loads(manifest.read_text())["outputs"]
                lines += [f"{run[0]} {name} {outputs[name]['sha1']}"
                          for name in sorted(outputs)]
    return lines


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
