"""One set-up from a fresh interpreter: ``probe.py <workload> <seed>``.

Imports qpolar, builds the workload's fields, channels, code and
information set, then prints one JSON line with the time of each phase.
The parent (``run.py``) times the whole from process start to that line.
"""

import json
import sys
import time

import bench_env


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    bench_env.use_checkout_source()
    t = time.perf_counter()
    import qpolar  # noqa: F401  (this import is the phase being timed)
    import_s = time.perf_counter() - t
    import workloads

    clock = workloads.Phases()
    workloads.WORKLOADS[workload].setup(seed, clock)
    clock.seconds["setup.import_s"] = import_s
    print(json.dumps({"phases": clock.seconds}), flush=True)


if __name__ == "__main__":
    main()
