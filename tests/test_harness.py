"""Experiment drivers: deterministic outputs, file formats, CLI contract."""

import csv
import json
import os
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mcpursuit import cli, harness
from mcpursuit.harness import (
    CorollaryConfig,
    ExperimentResult,
    LemmaConfig,
    MismatchConfig,
    PhaseScanConfig,
    run_corollary_check,
    run_lemma_suite,
    run_mismatch_scan,
    run_phase_scan,
)
from mcpursuit.solver import SolverConfig, SolverResourceError

TINY_SCAN = PhaseScanConfig(trials=3, d_values=(8, 30), master_seed=4242)


def test_scan_rerun_is_byte_identical(tmp_path):
    run_phase_scan(TINY_SCAN, tmp_path / "a")
    run_phase_scan(TINY_SCAN, tmp_path / "b")
    a = (tmp_path / "a" / "scan.csv").read_bytes()
    b = (tmp_path / "b" / "scan.csv").read_bytes()
    assert a == b
    ma = json.loads((tmp_path / "a" / "scan_manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "scan_manifest.json").read_text())
    ma.pop("wall_time_s"), mb.pop("wall_time_s")
    assert ma == mb  # only wall time may differ between reruns


def test_scan_csv_shape_and_types(tmp_path):
    res = run_phase_scan(TINY_SCAN, tmp_path)
    with open(tmp_path / "scan.csv", newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    assert header[:6] == ["d", "trial", "n", "m", "k", "status"]
    assert len(body) == TINY_SCAN.trials * len(TINY_SCAN.d_values)
    for row in body:
        rec = dict(zip(header, row))
        assert rec["status"] in ("ok", "infeasible")
        float(rec["err"])  # repr floats parse back
        assert rec["within_bound"] in ("0", "1")
    assert set(res.outputs) == {"scan.csv", "scan_manifest.json"}


def test_scan_manifest_digests_match_files(tmp_path):
    run_phase_scan(TINY_SCAN, tmp_path)
    manifest = json.loads((tmp_path / "scan_manifest.json").read_text())
    import hashlib

    data = (tmp_path / "scan.csv").read_bytes()
    h = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
    assert manifest["outputs"]["scan.csv"]["sha1"] == h
    assert manifest["outputs"]["scan.csv"]["bytes"] == len(data)
    assert manifest["config"]["trials"] == TINY_SCAN.trials


def test_corollary_tiny_run(tmp_path):
    cfg = CorollaryConfig(trials=3, master_seed=99)
    res = run_corollary_check(cfg, tmp_path)
    assert res.passed
    assert res.summary["failures"] == 0
    assert res.summary["d"] == 182 and res.summary["m"] == 10
    assert res.summary["kappa"] == pytest.approx(9.1)
    with open(tmp_path / "corollary.csv", newline="") as f:
        body = list(csv.reader(f))[1:]
    assert len(body) == 3
    assert all(row[4] == "1" for row in body)  # success column


def test_lemma_tiny_run(tmp_path):
    cfg = LemmaConfig(chi_trials=4000, sigma_trials=500, master_seed=7)
    res = run_lemma_suite(cfg, tmp_path)
    assert res.passed
    with open(tmp_path / "lemmas.csv", newline="") as f:
        body = list(csv.reader(f))[1:]
    # 3 d values x 3 tau values + 2 sigma cells
    assert len(body) == 11
    families = {row[0] for row in body}
    assert families == {"chi_lower", "sigma_tail"}


def test_mismatch_tiny_run(tmp_path):
    cfg = MismatchConfig(trials=5, master_seed=13)
    res = run_mismatch_scan(cfg, tmp_path)
    assert res.summary["tails_all_within_bound"]
    with open(tmp_path / "mismatch.csv", newline="") as f:
        body = list(csv.reader(f))[1:]
    assert len(body) == 5 * len(cfg.n_values)
    with open(tmp_path / "smooth.csv", newline="") as f:
        smooth = list(csv.reader(f))[1:]
    assert len(smooth) == 5 * len(harness.SMOOTH_R_VALUES)


def test_mismatch_verdict_is_judged_in_increasing_n(tmp_path):
    # the median error must fall as n grows, whatever the order in which
    # n_values lists the sizes
    up = run_mismatch_scan(MismatchConfig(trials=5, n_values=(16, 32, 64)), tmp_path / "up")
    down = run_mismatch_scan(MismatchConfig(trials=5, n_values=(64, 32, 16)), tmp_path / "down")
    assert up.summary["medians_by_n"] == down.summary["medians_by_n"]
    assert up.passed and down.passed


@pytest.mark.parametrize("second", [
    {"a": 1},  # missing a column
    {"a": 1, "b": 2, "c": 3},  # an extra column
    {"b": 2, "a": 1},  # the same columns in another order
])
def test_write_outputs_rejects_rows_with_other_columns(second, tmp_path):
    # a table's header is its first row's names, so every row must carry
    # exactly those names, in that order
    rows = [{"a": 0, "b": 0}, second]
    with pytest.raises(RuntimeError, match="t.csv"):
        harness._write_outputs(tmp_path, "t", TINY_SCAN, {"t.csv": rows}, {}, True, 0.0)
    assert not (tmp_path / "t.csv").exists()


# ---------------------------------------------------------------------------
# command line


SRC = Path(__file__).resolve().parents[1] / "src"


def _cli(*argv, cwd=None):
    # run the checkout's package whether or not it is installed
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mcpursuit.cli", *argv],
        capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_scan_with_config_file(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("trials = 2\nd_values = 8,30\nmaster-seed = 4242\n")
    out = tmp_path / "results"
    proc = _cli("scan", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    assert (out / "scan.csv").exists()
    assert (out / "scan_manifest.json").exists()


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("trials = 2\nd_values = 8,30\n")
    out = tmp_path / "results"
    proc = _cli("scan", "--config", str(cfg), "--trials", "1",
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "scan_manifest.json").read_text())
    assert manifest["config"]["trials"] == 1


def test_cli_encode_decode_roundtrip(tmp_path):
    x = np.zeros(24)
    x[3], x[17] = 0.6875, 0.25  # exactly on the 5-bit grid
    sig = tmp_path / "sig.txt"
    sig.write_text("".join(f"{float(v)!r}\n" for v in x))
    bits = tmp_path / "sig.bits"
    back = tmp_path / "back.txt"
    enc = _cli("encode", str(sig), "-m", "5", "-o", str(bits))
    assert enc.returncode == 0, enc.stderr
    assert "sparse" in enc.stdout
    dec = _cli("decode", str(bits), "-n", "24", "-m", "5", "-o", str(back))
    assert dec.returncode == 0, dec.stderr
    got = np.array([float(s) for s in back.read_text().split()])
    assert np.array_equal(got, x)


def test_cli_decode_context_mismatch_exits_2(tmp_path):
    sig = tmp_path / "sig.txt"
    sig.write_text("0.5\n" + "0.0\n" * 15)  # sparse stream, carries its own n
    bits = tmp_path / "sig.bits"
    assert _cli("encode", str(sig), "-m", "4", "-o", str(bits)).returncode == 0
    proc = _cli("decode", str(bits), "-n", "20", "-m", "4",
                "-o", str(tmp_path / "x.txt"))
    assert proc.returncode == 2
    assert "n=" in proc.stderr
    # a proxy stream carries only its n*m bits, which must fit the context
    sig.write_text("0.1\n0.5\n0.9\n0.3\n" * 64)
    proc = _cli("encode", str(sig), "-m", "8", "-o", str(bits))
    assert proc.stdout.startswith("compressor_proxy:")
    out = tmp_path / "y.txt"
    proc = _cli("decode", str(bits), "-n", "100", "-m", "8", "-o", str(out))
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_cli_bad_inputs_exit_2(tmp_path):
    assert _cli("scan", "--bogus").returncode == 2
    assert _cli().returncode == 2
    # a config file sets --out and the config fields, and nothing else:
    # not argparse's own dests, and no nested config file
    for key in ("not_a_real_key = 5", "help = 1", "config = other.cfg"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(key + "\n")
        proc = _cli("scan", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, key
        assert proc.stderr == f"mcpursuit: unknown config key {key.split()[0]!r}\n"
    assert not (tmp_path / "out").exists()
    sig = tmp_path / "oob.txt"
    sig.write_text("0.5\n1.5\n")  # out of range sample
    assert _cli("encode", str(sig), "-m", "3",
                "-o", str(tmp_path / "o.bits")).returncode == 2


@pytest.mark.parametrize("argv", [
    ["scan", "--trials", "0"],
    ["scan", "--d-values", ""],
    ["scan", "--d-values", "8,0"],
    ["scan", "--node-cap", "0"],
    ["corollary", "--trials", "0"],
    ["corollary", "--node-cap", "0"],
    ["corollary", "--node-cap", "-1"],
    ["lemmas", "--chi-trials", "0"],
    ["lemmas", "--sigma-trials", "0"],
    ["lemmas", "--chi-d-values", ""],
    ["lemmas", "--chi-tau-values", ""],
    ["mismatch", "--trials", "0"],
    ["mismatch", "--n-values", ""],
    ["mismatch", "--node-cap", "0"],
    # nothing to recover, or a k, n, alpha or p that no signal or bit
    # depth has: each names its field
    ["scan", "--k", "0"],
    ["scan", "--k", "99", "--n", "64"],
    ["corollary", "--k", "0", "--n", "64", "--trials", "1"],
    ["corollary", "--k", "99", "--n", "64"],
    ["corollary", "--n", "1"],
    ["corollary", "--alpha", "-1"],
    ["mismatch", "--p", "2.5"],
    ["mismatch", "--alpha", "0"],
    ["mismatch", "--n-values", "1"],
    # a repeated entry is one cell run twice, and one n twice has no
    # falling median
    ["scan", "--d-values", "8,8"],
    ["mismatch", "--n-values", "16,16"],
    ["lemmas", "--chi-d-values", "10,10"],
    ["lemmas", "--chi-tau-values", "0.5,0.5"],
    # a t, tau or m for which the bounds do not hold, or no grid exists
    ["scan", "--t", "-1"],
    ["scan", "--tau", "0"],
    ["scan", "--tau", "1.5"],
    ["scan", "--m", "0"],
    ["lemmas", "--chi-d-values", "10,50,0"],
    ["lemmas", "--chi-tau-values", "0.2,0.5,1.5"],
    # grids past the walk's int64 arithmetic: m = 64 bits, and m = 66
    # from --alpha
    ["scan", "--n", "8", "--m", "64", "--k", "1", "--trials", "1", "--d-values", "6"],
    ["corollary", "--n", "64", "--alpha", "11", "--trials", "1"],
], ids=lambda argv: "_".join(a.lstrip("-") or "empty" for a in argv))
def test_cli_usage_errors_exit_2(argv, tmp_path, capsys):
    # A run with no trials, no cells or no node budget has nothing to
    # check, and a grid past int64 cannot be walked: each is a one-line
    # usage error, with nothing written.
    code = cli.main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.USAGE_ERROR == 2, err
    assert err.count("\n") == 1, err
    # the message names the field of the first flag, or m, which --alpha
    # sets and which a grid past int64 is too wide in
    field = argv[1][2:].replace("-", "_")
    assert err.startswith((f"mcpursuit: {field} ", "mcpursuit: m = ")), err
    assert not (tmp_path / "out").exists()


def _other_value(default):
    """A value unlike default that its config still accepts."""
    if isinstance(default, tuple):
        return default[:-1]
    return default + 1 if isinstance(default, int) else default * 0.5


@pytest.mark.parametrize("name", list(cli.EXPERIMENTS))
def test_cli_flags_and_config_lines_are_the_table_fields(name, tmp_path, monkeypatch):
    # Every field of an experiment's config class is exactly one flag and
    # one config line, and both set that field of the config the driver
    # gets.
    exp = cli.EXPERIMENTS[name]
    config_fields = [f.name for f in fields(exp.config)]
    _, registry = cli.build_parser()
    dests = [a.dest for a in registry[name]._actions if a.dest not in ("help", "config", "out")]
    assert sorted(dests) == sorted(config_fields)
    seen = []
    monkeypatch.setitem(cli.EXPERIMENTS, name, replace(
        exp, run=lambda cfg, out: seen.append(cfg) or ExperimentResult(name, True, {}, ()),
        report=lambda summary: []))
    cfg_file = tmp_path / "one.cfg"
    for field in config_fields:
        value = _other_value(getattr(exp.config(), field))
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        cfg_file.write_text(f"{field} = {text}\n")
        flag = "--" + field.replace("_", "-")
        assert cli.main([name, flag, text, "--out", str(tmp_path)]) == 0
        assert cli.main([name, "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
        from_flag, from_file = seen[-2:]
        assert from_flag == from_file == replace(exp.config(), **{field: value}), field


def test_cli_node_budget_exhausted_exits_3(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise SolverResourceError("node budget 10 exhausted")

    monkeypatch.setattr(harness, "mcp_exact", exhausted)
    code = cli.main(["corollary", "--trials", "1", "--n", "64",
                     "--out", str(tmp_path)])
    assert code == cli.RESOURCE_ERROR == 3
    err = capsys.readouterr().err
    assert err == "mcpursuit: node budget 10 exhausted\n"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_small_node_cap_stops_corollary_with_exit_3(tmp_path, capsys, source):
    # The k=1 level at n=1024 is one block of 1024 strata, charged before
    # any of it is bounded, so a 1000-node cap stops the first solve right
    # after its ensemble is drawn.
    if source == "flag":
        argv = ["--node-cap", "1000"]
    else:
        cfg = tmp_path / "cor.cfg"
        cfg.write_text("node-cap = 1000\n")
        argv = ["--config", str(cfg)]
    t0 = time.perf_counter()
    code = cli.main(["corollary", "--trials", "2", *argv, "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert code == cli.RESOURCE_ERROR == 3
    err = capsys.readouterr().err
    assert err.startswith("mcpursuit: node budget 1000 exhausted")
    assert "Traceback" not in err
    assert elapsed < 1.0


def test_node_cap_defaults_to_the_solver_default():
    for cfg in (PhaseScanConfig(), CorollaryConfig(), MismatchConfig()):
        assert cfg.node_cap == SolverConfig().node_cap == 1 << 24
