"""Command line front end.

Subcommands: the four experiment drivers (scan, corollary, lemmas,
mismatch) plus single-signal encode/decode. EXPERIMENTS is the one
definition of an experiment subcommand: its config class and driver,
its help line and its report lines. Every field of the config class,
master_seed first, is one flag, `--` plus the field name with `_` turned
into `-`, typed by the field's default (int, float, or a comma list of
either), and one `key = value` line of the file that --config names;
that file may also set --out and nothing else. Flags given on the
command line win over the file. A config checks its own values, so a
value out of range is a usage error that names its field.

Exit status: 0 when the run completes and its pass condition holds,
1 when it completes but the condition fails, 2 for usage, config, or
input errors, 3 when a solve exhausts its node budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .codecs import (
    CodecError,
    coded_from_bytes,
    coded_to_bytes,
    decode_any,
    dl_surrogate,
)
from .bitio import DecodeError
from .harness import (
    CorollaryConfig,
    LemmaConfig,
    MismatchConfig,
    PhaseScanConfig,
    run_corollary_check,
    run_lemma_suite,
    run_mismatch_scan,
    run_phase_scan,
)
from .quantize import quantize_vector
from .signals import load_signal, save_signal
from .solver import SolverResourceError

USAGE_ERROR = 2
RESOURCE_ERROR = 3


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


@dataclass(frozen=True)
class Experiment:
    """One experiment subcommand: its config class and driver, its help
    line, and the lines it prints from a result's summary."""
    config: type
    run: Callable
    help: str
    report: Callable[[dict], list[str]]

    def flags(self) -> tuple[str, ...]:
        """The config fields a flag or a config file line sets: all of
        them, master_seed first."""
        names = [f.name for f in fields(self.config)]
        return ("master_seed", *(name for name in names if name != "master_seed"))


EXPERIMENTS = {
    "scan": Experiment(
        PhaseScanConfig, run_phase_scan,
        "sparse recovery across measurement counts",
        lambda s: [
            *(f"d={d}: within-bound {cell['bound_rate']:.3f}, "
              f"recovered {cell['recovery_rate']:.3f}, "
              f"e2 {cell['e2_rate']:.3f}" for d, cell in s["per_d"].items()),
            f"recovery gap {s['recovery_gap']:.3f}, "
            f"bound rate at max d {s['bound_rate_at_max_d']:.3f}",
        ]),
    "corollary": Experiment(
        CorollaryConfig, run_corollary_check,
        "exact recovery at grid-valued draws",
        lambda s: [
            f"n={s['n']} m={s['m']} d={s['d']} kappa={s['kappa']}",
            f"failures {s['failures']}/{s['trials']} "
            f"(allowed {s['allowed_failures']:.3g})",
        ]),
    "lemmas": Experiment(
        LemmaConfig, run_lemma_suite,
        "Monte Carlo concentration checks",
        lambda s: [f"{s['cells']} cells, "
                   f"all within 3 sigma: {s['all_within_3_sigma']}"]),
    "mismatch": Experiment(
        MismatchConfig, run_mismatch_scan,
        "recovery outside the coded class",
        lambda s: [
            "median error by n: " + json.dumps(s["medians_by_n"]),
            f"tails within bound: {s['tails_all_within_bound']}, "
            f"decreasing: {s['median_err_decreasing']}",
        ]),
}

# metavar and help of the flags that have them; the rest show only their name
_FLAG_TEXT = {
    "master_seed": {"help": "root seed; every trial derives from it"},
    "d_values": {"metavar": "D1,D2,..."},
    "node_cap": {"metavar": "NODES",
                 "help": "strata, points and walk steps one solve may charge "
                         "before it stops with exit status 3 (default: 2^24)"},
}


def _flag_type(default) -> Callable[[str], object]:
    """The parser of a flag whose config field defaults to default: int,
    float, or a comma list of the type of its first entry."""
    if not isinstance(default, tuple):
        return type(default)
    item = type(default[0])

    def comma_list(text: str) -> tuple:
        return tuple(item(part) for part in text.split(",") if part.strip())
    return comma_list


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="mcpursuit",
        description="minimum description length recovery experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    for name, exp in EXPERIMENTS.items():
        sub = registry[name] = subs.add_parser(name, help=exp.help)
        sub.add_argument("--config", metavar="FILE",
                         help="read option defaults from a key = value file")
        sub.add_argument("--out", default=".", metavar="DIR",
                         help="output directory (default: current directory)")
        for field in exp.flags():
            sub.add_argument("--" + field.replace("_", "-"), dest=field,
                             type=_flag_type(getattr(exp.config, field)),
                             **_FLAG_TEXT.get(field, {}))

    enc = subs.add_parser("encode", help="encode a signal file to a bitstream")
    enc.add_argument("signal", help="text file, one sample per line in [0, 1]")
    enc.add_argument("-m", "--m", type=int, required=True,
                     help="resolution bits")
    enc.add_argument("-o", "--out", required=True, help="output stream file")
    enc.add_argument("--no-proxy", action="store_true",
                     help="restrict to the structured codecs")

    dec = subs.add_parser("decode", help="decode a bitstream back to samples")
    dec.add_argument("stream", help="stream file written by encode")
    dec.add_argument("-n", "--n", type=int, required=True,
                     help="sample count context")
    dec.add_argument("-m", "--m", type=int, required=True,
                     help="resolution bits context")
    dec.add_argument("-o", "--out", required=True, help="output signal file")

    return parser, registry


def _parse_args(argv) -> argparse.Namespace:
    """The parsed argv. An experiment's --config file sets the defaults of
    --out and of its config fields, and the flags given win; any other key
    in the file is a ValueError."""
    parser, registry = build_parser()
    probe, _ = parser.parse_known_args(argv)
    if getattr(probe, "config", None):
        sub = registry[probe.command]
        known = ("out", *EXPERIMENTS[probe.command].flags())
        types = {a.dest: a.type or str for a in sub._actions if a.dest in known}
        defaults = {}
        for key, raw in _read_config_file(probe.config).items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            defaults[key] = types[key](raw)
        sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _cmd_experiment(args) -> int:
    exp = EXPERIMENTS[args.command]
    given = {name: getattr(args, name) for name in exp.flags()}
    cfg = exp.config(**{k: v for k, v in given.items() if v is not None})
    result = exp.run(cfg, args.out)
    for line in exp.report(result.summary):
        print(line)
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_encode(args) -> int:
    x = load_signal(args.signal)
    if np.any(x < 0.0) or np.any(x > 1.0):
        print("encode: samples must lie in [0, 1]", file=sys.stderr)
        return USAGE_ERROR
    q = quantize_vector(x, args.m)
    pick = dl_surrogate(q, include_proxy=not args.no_proxy)
    Path(args.out).write_bytes(coded_to_bytes(pick))
    print(f"{pick.codec_id}: {pick.dl_bits} bits for {q.n} samples "
          f"at {args.m} bits each")
    return 0


def _cmd_decode(args) -> int:
    data = Path(args.stream).read_bytes()
    coded = coded_from_bytes(data)
    q = decode_any(coded, args.n, args.m)
    save_signal(args.out, np.array(q.to_floats()))
    print(f"{coded.codec_id}: {q.n} samples restored")
    return 0


_DISPATCH = {"encode": _cmd_encode, "decode": _cmd_decode}


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return _DISPATCH.get(args.command, _cmd_experiment)(args)
    except SolverResourceError as exc:
        print(f"mcpursuit: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except (OSError, CodecError, DecodeError, ValueError) as exc:
        print(f"mcpursuit: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
