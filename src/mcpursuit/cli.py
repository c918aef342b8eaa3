"""Command line front end.

Subcommands: the four experiment drivers (scan, corollary, lemmas,
mismatch) plus single-signal encode/decode. Every option can be
pre-seeded from a config file of `key = value` lines via --config;
flags given on the command line win.

Exit status: 0 when the run completes and its pass condition holds,
1 when it completes but the condition fails, 2 for usage, config, or
input errors, 3 when a solve exhausts its node budget.
"""

from __future__ import annotations

import argparse
import json
import sys
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


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


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


def _apply_config(sub: argparse.ArgumentParser, overrides: dict[str, str]) -> None:
    actions = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, raw in overrides.items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        if action.type is not None:
            defaults[key] = action.type(raw)
        else:
            defaults[key] = raw
    sub.set_defaults(**defaults)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE",
                     help="read option defaults from a key = value file")
    sub.add_argument("--out", default=".", metavar="DIR",
                     help="output directory (default: current directory)")
    sub.add_argument("--master-seed", type=int, dest="master_seed",
                     help="root seed; every trial derives from it")


def _add_node_cap(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--node-cap", type=int, dest="node_cap", metavar="NODES",
                     help="strata, points and walk steps one solve may charge "
                          "before it stops with exit status 3 (default: 2^24)")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="mcpursuit",
        description="minimum description length recovery experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    scan = subs.add_parser("scan", help="sparse recovery across measurement counts")
    _add_common(scan)
    scan.add_argument("--n", type=int)
    scan.add_argument("--m", type=int)
    scan.add_argument("--k", type=int)
    scan.add_argument("--d-values", type=_int_tuple, dest="d_values",
                      metavar="D1,D2,...")
    scan.add_argument("--trials", type=int)
    scan.add_argument("--tau", type=float)
    scan.add_argument("--t", type=float)
    _add_node_cap(scan)
    registry["scan"] = scan

    cor = subs.add_parser("corollary", help="exact recovery at grid-valued draws")
    _add_common(cor)
    cor.add_argument("--n", type=int)
    cor.add_argument("--alpha", type=float)
    cor.add_argument("--k", type=int)
    cor.add_argument("--trials", type=int)
    cor.add_argument("--eta", type=float)
    _add_node_cap(cor)
    registry["corollary"] = cor

    lem = subs.add_parser("lemmas", help="Monte Carlo concentration checks")
    _add_common(lem)
    lem.add_argument("--chi-d-values", type=_int_tuple, dest="chi_d_values")
    lem.add_argument("--chi-tau-values", type=_float_tuple, dest="chi_tau_values")
    lem.add_argument("--chi-trials", type=int, dest="chi_trials")
    lem.add_argument("--sigma-trials", type=int, dest="sigma_trials")
    registry["lemmas"] = lem

    mis = subs.add_parser("mismatch", help="recovery outside the coded class")
    _add_common(mis)
    mis.add_argument("--p", type=float)
    mis.add_argument("--n-values", type=_int_tuple, dest="n_values")
    mis.add_argument("--trials", type=int)
    mis.add_argument("--alpha", type=float)
    _add_node_cap(mis)
    registry["mismatch"] = mis

    enc = subs.add_parser("encode", help="encode a signal file to a bitstream")
    enc.add_argument("signal", help="text file, one sample per line in [0, 1]")
    enc.add_argument("-m", "--m", type=int, required=True,
                     help="resolution bits")
    enc.add_argument("-o", "--out", required=True, help="output stream file")
    enc.add_argument("--no-proxy", action="store_true",
                     help="restrict to the structured codecs")
    registry["encode"] = enc

    dec = subs.add_parser("decode", help="decode a bitstream back to samples")
    dec.add_argument("stream", help="stream file written by encode")
    dec.add_argument("-n", "--n", type=int, required=True,
                     help="sample count context")
    dec.add_argument("-m", "--m", type=int, required=True,
                     help="resolution bits context")
    dec.add_argument("-o", "--out", required=True, help="output signal file")
    registry["decode"] = dec

    return parser, registry


def _config_from_args(cls, args) -> object:
    fields = cls.__dataclass_fields__
    kwargs = {
        name: getattr(args, name)
        for name in fields
        if getattr(args, name, None) is not None
    }
    return cls(**kwargs)


def _cmd_scan(args) -> int:
    cfg = _config_from_args(PhaseScanConfig, args)
    result = run_phase_scan(cfg, args.out)
    for d, cell in result.summary["per_d"].items():
        print(f"d={d}: within-bound {cell['bound_rate']:.3f}, "
              f"recovered {cell['recovery_rate']:.3f}, "
              f"e2 {cell['e2_rate']:.3f}")
    print(f"recovery gap {result.summary['recovery_gap']:.3f}, "
          f"bound rate at max d {result.summary['bound_rate_at_max_d']:.3f}")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_corollary(args) -> int:
    cfg = _config_from_args(CorollaryConfig, args)
    result = run_corollary_check(cfg, args.out)
    s = result.summary
    print(f"n={s['n']} m={s['m']} d={s['d']} kappa={s['kappa']}")
    print(f"failures {s['failures']}/{s['trials']} "
          f"(allowed {s['allowed_failures']:.3g})")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_lemmas(args) -> int:
    cfg = _config_from_args(LemmaConfig, args)
    result = run_lemma_suite(cfg, args.out)
    print(f"{result.summary['cells']} cells, "
          f"all within 3 sigma: {result.summary['all_within_3_sigma']}")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_mismatch(args) -> int:
    cfg = _config_from_args(MismatchConfig, args)
    result = run_mismatch_scan(cfg, args.out)
    print("median error by n:",
          json.dumps(result.summary["medians_by_n"]))
    print(f"tails within bound: {result.summary['tails_all_within_bound']}, "
          f"decreasing: {result.summary['median_err_decreasing']}")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_encode(args) -> int:
    x = load_signal(args.signal)
    if np.any(x < 0.0) or np.any(x > 1.0):
        print("encode: samples must lie in [0, 1]", file=sys.stderr)
        return USAGE_ERROR
    q = quantize_vector(x, args.m)
    pick = dl_surrogate(q, include_proxy=not args.no_proxy)
    Path(args.out).write_bytes(coded_to_bytes(pick.coded))
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


_DISPATCH = {
    "scan": _cmd_scan,
    "corollary": _cmd_corollary,
    "lemmas": _cmd_lemmas,
    "mismatch": _cmd_mismatch,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, registry = build_parser()
    probe, _ = parser.parse_known_args(argv)
    if getattr(probe, "config", None):
        try:
            overrides = _read_config_file(probe.config)
            _apply_config(registry[probe.command], overrides)
        except (OSError, ValueError) as exc:
            print(f"mcpursuit: {exc}", file=sys.stderr)
            return USAGE_ERROR
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except SolverResourceError as exc:
        print(f"mcpursuit: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except (OSError, CodecError, DecodeError, ValueError) as exc:
        print(f"mcpursuit: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
