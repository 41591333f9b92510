import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import bench_env  # noqa: E402

bench_env.use_checkout_source()
