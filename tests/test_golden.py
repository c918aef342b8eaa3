"""Golden answers: the solver keys of scripts/solve_keys.py and the CSV
column digests of scripts/csv_digests.py, recomputed and compared with
the checked-in files they were written from.

Both are computed once, in one subprocess with one BLAS thread, as the
scripts compute them: BLAS products, and so the bits of a bound, can
depend on the thread count. The lemmas_mc chunk counts stay with the
scripts, because their Monte Carlo draws take seconds; the lemmas run
here draws 2,000 chi-square and 200 sigma_max trials a cell, so it takes
well under a second.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_KEYS = Path(__file__).with_name("golden_solve_keys.json")
GOLDEN_DIGESTS = Path(__file__).with_name("golden_csv_digests.txt")

_COMPUTE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import csv_digests, solve_keys
keys = solve_keys.solver_keys(int(sys.argv[2]))
digests = csv_digests.csv_digests()
print(json.dumps({"keys": keys, "digests": digests}))
"""


@pytest.fixture(scope="module")
def computed():
    seed = json.loads(GOLDEN_KEYS.read_text())["seed"]
    one_thread = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", _COMPUTE, str(ROOT / "scripts"), str(seed)],
        capture_output=True, text=True, env={**os.environ, **one_thread},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _split(group, key):
    """(label, answer, counters) of one key. The answer is status,
    dl_bits, stream and numerators, or "capped"; the counters are both
    budget counters, or the cap's message, which holds them at the cap."""
    label = key[0] if group == "off_bench" else None
    key = key[1:] if group == "off_bench" else key
    if key[0] == "capped":
        return label, "capped", key[1]
    return label, key[:4], key[4:]


def _mismatches(computed, part):
    golden = json.loads(GOLDEN_KEYS.read_text())["keys"]
    got = computed["keys"]
    assert list(got) == list(golden)
    out = []
    for group, keys in golden.items():
        assert len(got[group]) == len(keys), group
        for i, (want, have) in enumerate(zip(keys, got[group])):
            want, have = _split(group, want), _split(group, have)
            if (want[0], want[part]) != (have[0], have[part]):
                out.append(f"{group}[{i}] {want[0] or ''}: "
                           f"{str(want[part])[:80]} -> {str(have[part])[:80]}")
    return out


def test_golden_solve_answers(computed):
    # status, code length, stream and numerators of every keyed solve,
    # and whether it hits the node cap
    bad = _mismatches(computed, 1)
    assert not bad, "answers moved:\n" + "\n".join(bad)


def test_golden_solve_counters(computed):
    # strata and points charged, or the node at which the cap fires: a
    # change to a prune may move these while every answer holds
    bad = _mismatches(computed, 2)
    assert not bad, "counters moved:\n" + "\n".join(bad)


def test_golden_csv_column_digests(computed):
    golden = GOLDEN_DIGESTS.read_text().splitlines()
    got = computed["digests"]
    moved = [f"{w} -> {g.rsplit(' ', 1)[-1]}" for w, g in zip(golden, got) if w != g]
    assert len(got) == len(golden) and not moved, "digests moved:\n" + "\n".join(moved)
