"""Time one benchmark set-up in a fresh interpreter.

Usage, from the root of a checkout: ``python3 perfbench/setup_probe.py
<workload>``. Prints ``{"setup_s": ...}``: the time from before ``import
trajloc`` until the workload's config and cell are materialized and the grid
table caches its scans use are filled.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS, setup  # noqa: E402

if __name__ == "__main__":
    setup(WORKLOADS[sys.argv[1]], os.getcwd())
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
