"""Steadiness check: run every workload repeatedly and report the spreads.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--sets 1]
                                [--workloads NAME,NAME] [--seconds S]

Each run is ``run.py --trace 0`` with its own seed.  For every workload and
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` against the metric's bound in BENCHMARK.json.
A set is steady when every spread except that of ``setup_s`` stays within
its bound and the failed share is the same in every run.  With ``--sets 2``
the whole set runs twice, on fresh seeds, and the second median may not be
worse than the first by more than the bound (``setup_s`` included).
All results go to ``perfbench/out/steady.json``; the exit code is 0 when
everything held.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

from bench_env import OUT, ROOT

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, RUN, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def worse_by(first, second, better):
    """Share by which the second median is worse than the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    results = {}      # (set, workload) -> list of run results
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for name in names:
                res = run_once(name, seed, args.seconds)
                res["seed"] = seed
                results.setdefault((s, name), []).append(res)
                print(f"set {s} {name} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
                    + f" failed {res['failed']}/{res['attempted']}"
                    + ("" if res["correct"] else " INCORRECT"), flush=True)
            seed += 1

    steady = True
    report = {}
    for name in names:
        per_set = [results[(s, name)] for s in range(args.sets)]
        shares = {Fraction(r["failed"], r["attempted"]) for runs in per_set for r in runs}
        correct = all(r["correct"] for runs in per_set for r in runs)
        steady &= len(shares) == 1 and correct
        print(f"\n{name}: failed share {sorted(str(v) for v in shares)}, "
              f"all correct: {correct}")
        for metric, m in metrics.items():
            sums = [summarize([r["metrics"][metric]["value"] for r in runs])
                    for runs in per_set]
            line = []
            for s, sm in enumerate(sums):
                ok = metric == "setup_s" or sm["spread"] <= m["bound"]
                steady &= ok
                line.append(f"set {s}: median {sm['median']:.5g} q1 {sm['q1']:.5g} "
                            f"q3 {sm['q3']:.5g} spread {sm['spread']:.4f} "
                            f"({sm['spread'] / m['bound']:.2f} of bound)"
                            + ("" if ok else " TOO WIDE"))
            for s in range(1, len(sums)):
                drift = worse_by(sums[0]["median"], sums[s]["median"], m["better"])
                ok = drift <= m["bound"]
                steady &= ok
                line.append(f"set {s} worse than set 0 by {drift:+.4f}"
                            + ("" if ok else " BEYOND BOUND"))
            print(f"  {metric} [{m['unit']}, bound {m['bound']}]: " + "; ".join(line))
            report.setdefault(name, {})[metric] = sums
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "steady.json"), "w") as fh:
        json.dump({"summary": report, "runs": {f"{s}/{n}": r for (s, n), r in results.items()}},
                  fh, indent=1)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
