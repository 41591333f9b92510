"""Run one benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run first times several set-ups,
each in a fresh interpreter (``probe.py``), then builds the workload once
in this process and runs whole rounds of its operations until
``--seconds`` have passed.  With ``--trace 1`` it then repeats the same
rounds with every layer boundary wrapped (``tracing.py``).  Last it runs
the workload's fixed certification sample and checks all outputs.  The
traced run reports the per-layer metrics and the tracing overhead against
the untraced rounds, and writes the spans to ``perfbench/out/``.

Failures and a summary go to stderr; the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import bench_env

HERE = os.path.dirname(os.path.abspath(__file__))
END_TO_END = {"blocks_per_s": "blocks/s", "certify_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}
# median of this many fresh-interpreter set-ups; one cold import alone
# varies by several percent from run to run
SETUP_PROBES = 3


def probe(workload, seed):
    """Seconds from starting a fresh interpreter to a built workload, and its phases."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)]
    t = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t
        proc.stdout.read()
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed with exit code {proc.returncode}")
    return ready, json.loads(line)["phases"]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(w, state, seed, seconds=None, count=None, tracer=None):
    """Whole rounds until ``seconds`` have passed, or exactly ``count`` rounds.

    Also returns the peak resident memory right after the first round.
    """
    rounds, walls, peak = [], [], None
    start = time.perf_counter()
    while (len(rounds) < count if count is not None
           else not rounds or time.perf_counter() - start < seconds):
        r = len(rounds)
        t = time.perf_counter()
        if tracer is None:
            rounds.append(w.round(state, seed, r))
        else:
            with tracer.region("round", r):
                rounds.append(w.round(state, seed, r))
        walls.append(time.perf_counter() - t)
        peak = peak or peak_rss_mb()
    return rounds, walls, peak


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench_env.use_checkout_source()
    import tracing
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    probes = [probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    state = w.setup(args.seed, workloads.Phases())
    # sc_decode_batch leaves each batch's arrays to the cyclic GC, whose
    # timing differs between processes.  Collecting once here and reading
    # the peak right after the first round makes peak_rss_mb the memory of
    # one default-size round instead of a count of uncollected batches.
    gc.collect()
    rounds, walls, peak_mb = run_rounds(w, state, args.seed, seconds=args.seconds)
    ops = [op for r in rounds for op in r.ops]

    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced, traced_walls, _ = run_rounds(w, state, args.seed, count=len(rounds),
                                                 tracer=tracer)
        finally:
            tracer.restore()
        for plain, rec in zip(rounds, traced):
            ops += rec.ops
            if rec.outputs != plain.outputs:
                ops.append(workloads.Op("traced round reproduces the untraced one", False,
                                        "outputs differ under tracing"))

    t = time.perf_counter()
    ops += w.prepare(state, args.seed)
    prepare_wall = time.perf_counter() - t
    ops += w.certify(state, args.seed, rounds)

    failed = [op for op in ops if not op.ok]
    correct = all(op.name in w.known_faults for op in failed)
    for op in failed:
        tag = "known fault" if op.name in w.known_faults else "FAILED"
        print(f"{tag}: {op.name}: {op.detail}", file=sys.stderr)

    if args.trace:
        untraced_s, traced_s = sum(walls), sum(traced_walls)
        values = {name: statistics.median(p[1].get(name, 0.0) for p in probes)
                  for name in tracing.SETUP_PHASES}
        values.update(tracing.layer_metrics(tracer.spans, tracer.counts, traced_s))
        values["trace.overhead_s"] = traced_s - untraced_s
        values["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
        units = tracing.PER_LAYER
        os.makedirs(bench_env.OUT, exist_ok=True)
        path = os.path.join(bench_env.OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "untraced_seconds": untraced_s, "traced_seconds": traced_s,
                       "setup_probes": [{"ready_s": r, "phases": p} for r, p in probes],
                       "metrics": values, "counts": tracer.counts,
                       "span_fields": ["name", "start", "end", "parent", "note"],
                       "spans": tracer.spans}, fh)
        print(f"spans written to {os.path.relpath(path, bench_env.ROOT)}", file=sys.stderr)
    else:
        values = {
            "blocks_per_s": statistics.median(r.blocks / r.mc_seconds for r in rounds),
            "certify_s": statistics.median(walls) if w.certifies_in_rounds else prepare_wall,
            "setup_s": statistics.median(r for r, _ in probes),
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload} rounds={len(rounds)} attempted={len(ops)} "
          f"failed={len(failed)} correct={correct}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
