"""Timed set-up in a fresh interpreter: import the package, then write the inputs.

Usage: python3 bench/setup_child.py SRC_DIR WORKLOAD SEED WORK_DIR

Prints one JSON line: ``setup_s`` (interpreter start of this script to the
last input file written) and ``import_s`` (the ``wstategen`` and
``wstategen.cli`` imports alone).
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

src, workload, seed, work_dir = sys.argv[1:5]
sys.path.insert(0, src)
import wstategen  # noqa: E402,F401
import wstategen.cli  # noqa: E402,F401

T_IMPORT = time.perf_counter()
import workloads  # noqa: E402  (this script's own directory is on sys.path)

workloads.write_inputs(workload, int(seed), work_dir)
T_END = time.perf_counter()
print(json.dumps({"setup_s": T_END - T0, "import_s": T_IMPORT - T0}))
