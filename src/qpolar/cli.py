"""Command line front end.

Subcommands: construct, encode, decode, exact-ser, mc-ser, simulate,
verify.  Configs are JSON (rationals as "num/den" strings), tabular output
is CSV, and every output file embeds the resolved configuration including
the seed, so identical invocations reproduce byte-identical files.

Exit codes: 0 success, 1 validation failure (witness printed), 2 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .channel import channel_from_json, channel_to_json
from .code import PolarCode
from .construct import ErasureExact, GenieMC, Manual, construct_info_set
from .gf import FieldElement
from .oracle import exact_average_ser, exact_ser
from .sc import TieRule, sc_decode, sc_decode_distribution
from .sim import ExperimentConfig, export_report, plot_script, run_experiment
from .symmetry import (
    check_coset_invariance,
    check_equal_ser,
    check_message_invariance,
    check_ser_bit_flip_symmetry,
    check_xi_invariance,
)


class _Parser(argparse.ArgumentParser):
    # usage problems are validation failures, not internal errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jsonify(value):
    if isinstance(value, FieldElement):
        return list(value.coeffs)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_json(obj, path):
    text = json.dumps(_jsonify(obj), indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_seed(seed):
    if seed is not None:
        return int(seed), False
    return int.from_bytes(os.urandom(4), "big"), True


def _load_code_and_channel(code_path, channel_path):
    code_obj = _load_json(code_path)
    code = PolarCode.from_json(code_obj)
    ch = channel_from_json(_load_json(channel_path), field=code.field)
    return code, ch


def _parse_message(field, items, n):
    if len(items) != n:
        raise ValueError(f"message needs {n} symbols, got {len(items)}")
    return [field.element(v) for v in items]


# -- subcommand handlers ------------------------------------------------------


def _cmd_construct(args):
    ch = channel_from_json(_load_json(args.channel))
    field = ch.field
    seed, generated = _resolve_seed(args.seed)
    if args.method == "erasure":
        method = ErasureExact()
    elif args.method == "genie":
        method = GenieMC(trials=args.trials, seed=seed)
    else:
        method = Manual(tuple(args.info))
    info = construct_info_set(field, args.m, args.k, ch, method)
    code = PolarCode(field, args.m, info)
    out = code.to_json()
    out["meta"] = {
        "method": args.method,
        "seed": seed if args.method == "genie" else None,
        "seed_generated": generated if args.method == "genie" else None,
        "trials": args.trials if args.method == "genie" else None,
        "channel": channel_to_json(ch),
    }
    _write_json(out, args.out)
    return 0


def _cmd_encode(args):
    code = PolarCode.from_json(_load_json(args.code))
    u = _parse_message(code.field, _load_json(args.u), code.n)
    x = code.encode(u)
    _write_json({"x": list(x), "code": code.to_json()}, args.out)
    return 0


def _cmd_decode(args):
    code, ch = _load_code_and_channel(args.code, args.channel)
    y_raw = _load_json(args.y)
    if len(y_raw) != code.n:
        raise ValueError(f"received block has {len(y_raw)} symbols, expected {code.n}")
    y = tuple(float(v) if not ch.is_finite else int(v) for v in y_raw)
    out = {"code": code.to_json(), "channel": channel_to_json(ch), "y": y_raw}
    if args.exact:
        dist = sc_decode_distribution(code, ch, y)
        out["distribution"] = [{"x": list(x), "p": p} for x, p in sorted(
            dist.items(), key=lambda kv: tuple(e.index for e in kv[0]))]
    else:
        seed = None
        if args.tie == "random":
            seed, generated = _resolve_seed(args.seed)
            tie = TieRule("random", np.random.Generator(np.random.Philox(seed)))
            out["tie"] = {"mode": "random", "seed": seed, "seed_generated": generated}
        else:
            tie = TieRule("lex")
            out["tie"] = {"mode": "lex"}
        u_hat, x_hat = sc_decode(code, ch, y, tie=tie)
        out["u_hat"] = list(u_hat)
        out["x_hat"] = list(x_hat)
    _write_json(out, args.out)
    return 0


def _cmd_exact_ser(args):
    code, ch = _load_code_and_channel(args.code, args.channel)
    if args.message:
        u = _parse_message(code.field, _load_json(args.message), code.n)
        report = exact_ser(code, ch, u)
        label = "message"
    else:
        report = exact_average_ser(code, ch)
        label = "average"
    out = report.to_json()
    out["kind"] = label
    out["config"] = {"code": code.to_json(), "channel": channel_to_json(ch)}
    _write_json(out, args.out)
    return 0


def _cmd_mc_ser(args):
    code, ch = _load_code_and_channel(args.code, args.channel)
    seed, generated = _resolve_seed(args.seed)
    cfg = ExperimentConfig(code=code, channel=ch, trials=args.trials, seed=seed,
                           shards=args.shards)
    report = run_experiment(cfg)
    report.config["seed_generated"] = generated
    export_report(report, args.out, fmt=args.format)
    return 0


def _cmd_simulate(args):
    cfg_obj = _load_json(args.config)
    code_obj = cfg_obj["code"]
    code = PolarCode.from_json(_load_json(code_obj) if isinstance(code_obj, str)
                               else code_obj)
    ch_obj = cfg_obj["channel"]
    ch = channel_from_json(_load_json(ch_obj) if isinstance(ch_obj, str) else ch_obj,
                           field=code.field)
    seed = cfg_obj.get("seed", args.seed)
    seed, generated = _resolve_seed(seed)
    cfg = ExperimentConfig(
        code=code, channel=ch,
        trials=int(cfg_obj["trials"]),
        seed=seed,
        shards=int(cfg_obj.get("shards", 1)),
        random_message=bool(cfg_obj.get("random_message", False)),
    )
    report = run_experiment(cfg, threads=args.threads)
    report.config["seed_generated"] = generated
    export_report(report, args.out, fmt=args.format)
    if args.plot:
        with open(args.plot, "w") as fh:
            fh.write(plot_script(args.out))
    summary = report.summary()
    print(f"codeword ber mean {summary['codeword']['mean']:.4e} "
          f"(max {summary['codeword']['max']:.4e}, min {summary['codeword']['min']:.4e})")
    return 0


_LEMMA_CHOICES = ("2", "3", "4", "5", "6", "7", "thm1")


def _random_outputs(ch, n, samples, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return [tuple(int(v) for v in rng.integers(0, ch.num_outputs, size=n))
            for _ in range(samples)]


def _random_messages(field, n, samples, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return [[field.from_index(int(v)) for v in rng.integers(0, field.q, size=n)]
            for _ in range(samples)]


def _run_lemma(lemma, code, ch, samples, seed):
    field = code.field
    if lemma == "2":
        if samples is None and field.q ** code.n <= 256:
            messages = [list(u) for u in
                        itertools.product(field.elements, repeat=code.n)]
        else:
            messages = _random_messages(field, code.n, samples or 20, seed)
        return check_message_invariance(code, ch, messages)
    ys = None if samples is None else _random_outputs(ch, code.n, samples, seed)
    if lemma in ("3", "4"):
        return check_coset_invariance(code, ch, ys=ys)
    if lemma == "5":
        return check_xi_invariance(code, ch, code.m - 1, ys=ys)
    if lemma == "6":
        for r in range(code.m):
            ok, witness = check_xi_invariance(code, ch, r, ys=ys)
            if not ok:
                return ok, witness
        return True, None
    if lemma == "7":
        return check_ser_bit_flip_symmetry(code, ch)
    if lemma == "thm1":
        if not code.is_decreasing:
            per = exact_average_ser(code, ch).per_index
            return False, {"reason": "information set is not decreasing",
                           "witness_pair": code.condition_witness, "per_index": per}
        return check_equal_ser(code, ch)
    raise ValueError(f"unknown lemma {lemma!r}")


def _cmd_verify(args):
    code, ch = _load_code_and_channel(args.code, args.channel)
    lemmas = [s.strip() for s in args.lemmas.split(",") if s.strip()]
    for lemma in lemmas:
        if lemma not in _LEMMA_CHOICES:
            raise ValueError(f"unknown lemma {lemma!r}; choose from {_LEMMA_CHOICES}")
    samples = None if args.exhaustive else args.samples
    results = {}
    failed = False
    for lemma in lemmas:
        ok, witness = _run_lemma(lemma, code, ch, samples, args.seed)
        results[lemma] = {"ok": ok, "witness": witness}
        status = "pass" if ok else "FAIL"
        print(f"{lemma}: {status}" + ("" if ok else f" witness={_jsonify(witness)}"))
        failed = failed or not ok
    out = {"results": results,
           "config": {"code": code.to_json(), "channel": channel_to_json(ch),
                      "samples": samples, "seed": args.seed}}
    if args.out:
        _write_json(out, args.out)
    return 1 if failed else 0


def build_parser():
    parser = _Parser(prog="qpolar",
                     description="polar codes over F_q: constructions, SC decoding, "
                                 "exact SER oracle, Monte Carlo harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an information set")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--method", choices=("erasure", "genie", "manual"),
                   default="erasure")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--info", type=int, nargs="*", default=[],
                   help="indices for --method manual")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("encode", help="encode a full message vector")
    p.add_argument("--code", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="SC-decode one received block")
    p.add_argument("--code", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--exact", action="store_true",
                   help="emit the exact decode distribution")
    p.add_argument("--tie", choices=("lex", "random"), default="lex")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("exact-ser", help="exact per-index SER by enumeration")
    p.add_argument("--code", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--message", help="full message JSON; default averages")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact_ser)

    p = sub.add_parser("mc-ser", help="Monte Carlo per-index SER")
    p.add_argument("--code", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mc_ser)

    p = sub.add_parser("simulate", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--plot", help="also write a gnuplot script here")
    p.add_argument("--seed", type=int, help="fallback when the config has no seed")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="check the symmetry lemmas and the theorem")
    p.add_argument("--code", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--lemmas", default="thm1",
                   help="comma list from 2,3,4,5,6,7,thm1")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
