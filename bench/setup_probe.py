"""Set-up as a fresh process pays it: import, build the workload, one warm-up call.

Usage: python3 bench/setup_probe.py WORKLOAD SEED SCRATCH_DIR

run.py times this whole process from spawn to exit and reports the median of
several as ``setup_s``.  PYTHONPATH must point at the checkout's ``src``.
"""

import sys

from workloads import make

if __name__ == "__main__":
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    with make(name, seed, scratch) as workload:
        workload.warm()
