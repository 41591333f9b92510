"""Command line front end.

Subcommands: construct, encode, decode, exact-ser, simulate, verify.
Configs are JSON (rationals as "num/den" strings), the Monte Carlo report
of ``simulate`` is CSV or JSON, and every output file embeds the resolved
configuration including the seed, so identical invocations reproduce
byte-identical files.  The writers live here; the harness they report on
is ``sim.run_experiment``.

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

from . import rng
from .channel import channel_from_json, channel_to_json
from .code import PolarCode
from .construct import GenieMC, Manual, construct_info_set
from .gf import FieldElement, _count, _object
from .oracle import exact_average_ser, exact_ser
from .sc import sc_decode, sc_decode_distribution
from .sim import ExperimentConfig, run_experiment
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


def _json_value(value):
    """A field element as its coordinates and a Fraction as "num/den"."""
    if isinstance(value, FieldElement):
        return list(value.coeffs)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write(text, path):
    """Write text to the file at path, or to stdout when path is None."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(obj, path):
    _write(json.dumps(obj, indent=2, sort_keys=True, default=_json_value) + "\n", path)


def _write_report(report, path, fmt):
    """Write a BerReport as CSV or JSON; both embed the resolved config."""
    if fmt == "json":
        _write_json(report.to_json(), path)
        return
    info = set(report.info_set)
    mber = report.message_ber
    cber = report.codeword_ber
    mse = report.stderr(mber)
    cse = report.stderr(cber)
    lines = [
        "# qpolar-report " + json.dumps(report.config, sort_keys=True),
        "index,is_info,message_errors,message_ber,message_stderr,"
        "codeword_errors,codeword_ber,codeword_stderr",
    ]
    for i in range(report.n):
        lines.append(
            f"{i},{int(i in info)},{report.message_errors[i]},{mber[i]:.10e},"
            f"{mse[i]:.10e},{report.codeword_errors[i]},{cber[i]:.10e},{cse[i]:.10e}")
    _write("\n".join(lines) + "\n", path)


def _plot_script(csv_path):
    """gnuplot script drawing the two per-index panels of a CSV report into
    ber_panels.png."""
    return "\n".join([
        "set datafile separator ','",
        "set output 'ber_panels.png'",
        "set terminal pngcairo size 1200,480",
        "set multiplot layout 1,2",
        "set logscale y",
        "set xlabel 'index'",
        "set title 'message symbol error rate'",
        f"plot '{csv_path}' using (column(2) == 1 ? column(1) : 1/0):4 "
        "with points pt 7 ps 0.4 notitle",
        "set title 'codeword symbol error rate'",
        f"plot '{csv_path}' using 1:7 with points pt 7 ps 0.4 notitle",
        "unset multiplot",
    ]) + "\n"


def _resolve_seed(seed):
    if seed is not None:
        return seed, False
    return int.from_bytes(os.urandom(4), "big"), True


def _load_code_and_channel(code_path, channel_path):
    code_obj = _load_json(code_path)
    code = PolarCode.from_json(code_obj)
    ch = channel_from_json(_load_json(channel_path), field=code.field)
    return code, ch


def _parse_message(field, items):
    if not isinstance(items, list):
        raise ValueError(f"a message must be a JSON list, got {items!r}")
    return [field.element(v) for v in items]


def _refuse(args, options, path):
    """Raise if any of these options was given: the chosen path ignores them."""
    for option in options:
        if getattr(args, option) is not None:
            raise ValueError(f"--{option} is not read {path}")


# -- subcommand handlers ------------------------------------------------------


def _cmd_construct(args):
    if args.method != "manual":
        _refuse(args, ("info",), "without --method manual")
    if args.method != "genie":
        _refuse(args, ("trials", "seed"), "without --method genie")
    ch = channel_from_json(_load_json(args.channel))
    field = ch.field
    seed = generated = trials = method = None
    if args.method == "genie":
        seed, generated = _resolve_seed(args.seed)
        trials = 100_000 if args.trials is None else args.trials
        method = GenieMC(trials=trials, seed=seed)
    elif args.method == "manual":
        method = Manual(tuple(args.info or ()))
    info = construct_info_set(field, args.m, args.k, ch, method)
    code = PolarCode(field, args.m, info)
    out = code.to_json()
    out["meta"] = {
        "method": args.method,
        "seed": seed,
        "seed_generated": generated,
        "trials": trials,
        "channel": channel_to_json(ch),
    }
    _write_json(out, args.out)
    return 0


def _cmd_encode(args):
    code = PolarCode.from_json(_load_json(args.code))
    u = _parse_message(code.field, _load_json(args.u))
    x = code.encode(u)
    _write_json({"x": list(x), "code": code.to_json()}, args.out)
    return 0


def _cmd_decode(args):
    if args.exact:
        _refuse(args, ("tie", "seed"), "with --exact")
    elif args.tie != "random":
        _refuse(args, ("seed",), "with lex ties")
    code, ch = _load_code_and_channel(args.code, args.channel)
    y_raw = _load_json(args.y)
    if not isinstance(y_raw, list):
        raise ValueError(f"a received block must be a JSON list, got {y_raw!r}")
    out = {"code": code.to_json(), "channel": channel_to_json(ch), "y": y_raw}
    if args.exact:
        dist = sc_decode_distribution(code, ch, y_raw)
        out["distribution"] = [{"x": list(x), "p": p} for x, p in sorted(
            dist.items(), key=lambda kv: tuple(e.index for e in kv[0]))]
    else:
        tie_uniforms = None
        if args.tie == "random":
            seed, generated = _resolve_seed(args.seed)
            tie_uniforms = rng.uniforms(seed, [0], range(code.n, 2 * code.n))[:, 0]
            out["tie"] = {"mode": "random", "seed": seed, "seed_generated": generated}
        else:
            out["tie"] = {"mode": "lex"}
        u_hat, x_hat = sc_decode(code, ch, y_raw, tie_uniforms)
        out["u_hat"] = list(u_hat)
        out["x_hat"] = list(x_hat)
    _write_json(out, args.out)
    return 0


def _cmd_exact_ser(args):
    code, ch = _load_code_and_channel(args.code, args.channel)
    if args.message:
        u = _parse_message(code.field, _load_json(args.message))
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


def _cmd_simulate(args):
    if args.plot and args.format != "csv":
        raise ValueError("--plot draws from the CSV report; it needs --format csv")
    cfg_obj = _object(_load_json(args.config), "a simulate config",
                      ("code", "channel", "trials"), ("seed", "random_message"))
    code_obj = cfg_obj["code"]
    code = PolarCode.from_json(_load_json(code_obj) if isinstance(code_obj, str)
                               else code_obj)
    ch_obj = cfg_obj["channel"]
    ch = channel_from_json(_load_json(ch_obj) if isinstance(ch_obj, str) else ch_obj,
                           field=code.field)
    seed, generated = _resolve_seed(cfg_obj.get("seed"))
    cfg = ExperimentConfig(
        code=code, channel=ch,
        trials=cfg_obj["trials"],
        seed=seed,
        random_message=cfg_obj.get("random_message", False),
    )
    report = run_experiment(cfg)
    report.config["seed_generated"] = generated
    _write_report(report, args.out, args.format)
    if args.plot:
        _write(_plot_script(args.out), args.plot)
    summary = report.summary()
    print(f"codeword ber mean {summary['codeword']['mean']:.4e} "
          f"(max {summary['codeword']['max']:.4e}, min {summary['codeword']['min']:.4e})")
    return 0


_LEMMA_CHOICES = ("2", "3", "4", "5", "6", "7", "thm1")


def _uniform_symbols(alphabet, n, samples, seed, first_slot):
    """For each trial in [0, samples), n symbols uniform over the alphabet, drawn
    from slots [first_slot, first_slot + n) of the harness's streams."""
    u = rng.uniforms(seed, range(samples), range(first_slot, first_slot + n))
    return [[alphabet[v] for v in row] for row in rng._pick(u, len(alphabet)).T]


def _run_lemma(lemma, code, ch, samples, seed):
    field, n = code.field, code.n
    if lemma == "2":
        messages = (itertools.product(field.elements, repeat=n) if samples is None
                    else _uniform_symbols(field.elements, n, samples, seed, 2 * n))
        return check_message_invariance(code, ch, messages)
    ys = None if samples is None else _uniform_symbols(range(ch.num_outputs), n, samples, seed, 0)
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
    if args.samples is not None:
        _count(args.samples, "--samples")
    code, ch = _load_code_and_channel(args.code, args.channel)
    lemmas = [s.strip() for s in args.lemmas.split(",") if s.strip()]
    if not lemmas:
        raise ValueError(f"--lemmas {args.lemmas!r} names no lemma")
    for lemma in lemmas:
        if lemma not in _LEMMA_CHOICES:
            raise ValueError(f"unknown lemma {lemma!r}; choose from {_LEMMA_CHOICES}")
        if lemma in ("7", "thm1"):
            _refuse(args, ("samples",), f"by lemma {lemma}, which checks every output")
    if args.samples is None:
        _refuse(args, ("seed",), "without --samples")
    seed = None if args.samples is None else args.seed or 0
    q, n = code.field.q, code.n
    if "2" in lemmas and args.samples is None and q ** n > 256:
        raise ValueError(f"lemma 2 checks every message only up to 256 of them, "
                         f"and this code has {q}^{n}; give --samples")
    results = {}
    failed = False
    for lemma in lemmas:
        ok, witness = _run_lemma(lemma, code, ch, args.samples, seed)
        results[lemma] = {"ok": ok, "witness": witness}
        print(f"{lemma}: pass" if ok
              else f"{lemma}: FAIL witness={json.dumps(witness, default=_json_value)}")
        failed = failed or not ok
    out = {"results": results,
           "config": {"code": code.to_json(), "channel": channel_to_json(ch),
                      "samples": args.samples, "seed": seed}}
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
    p.add_argument("--trials", type=int, help="for --method genie; default 100000")
    p.add_argument("--seed", type=int, help="for --method genie")
    p.add_argument("--info", type=int, nargs="*", help="indices for --method manual")
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
    p.add_argument("--tie", choices=("lex", "random"), help="default lex")
    p.add_argument("--seed", type=int, help="for --tie random")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("exact-ser", help="exact per-index SER by enumeration")
    p.add_argument("--code", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--message", help="full message JSON; default averages")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact_ser)

    p = sub.add_parser("simulate", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--plot", help="also write a gnuplot script here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="check the symmetry lemmas and the theorem")
    p.add_argument("--code", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--lemmas", default="thm1",
                   help="comma list from 2,3,4,5,6,7,thm1")
    p.add_argument("--samples", type=int, default=None,
                   help="random samples per lemma; default every message or "
                        "output, an error where there are too many")
    p.add_argument("--seed", type=int, help="for --samples; default 0")
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
