"""Point the benchmark at the qpolar sources of its checkout, one thread.

Every benchmark process imports this module first.  It refuses to run when
the checkout holds no ``src/qpolar`` (so the benchmark never measures an
installed copy by accident) and pins numeric libraries to a single compute
thread: the reference machine has two shared cores, and one thread per
workload keeps the figures comparable from run to run.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def use_checkout_source():
    """Put the checkout's ``src`` first on the path; exit 1 if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "qpolar", "__init__.py")):
        sys.exit(f"perfbench: no qpolar sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
