"""A fixed kernel that measures how fast the host runs at the moment.

On a shared host the speed of identical work drifts: the same sweep ran 1.5x
slower for minutes at a time, and even its fastest repeats slowed with it, so
no statistic of raw run times stays within a bound across runs made minutes
apart.  run.py times this kernel before the first timed workload repeat and
after every repeat, and reports each repeat in reference seconds:

    repeat wall time / mean of the kernel times around it * REFERENCE_S

The kernel uses none of spintransfer's code, only the kind of work the
workloads spend their time in: tridiagonal eigensolves at N=201 and N=51,
small complex SVDs, phase sums over a time grid (the shape of the first-peak
search), and interpreted Python.  A change to the package moves the
repeat's time and not the kernel's.
"""

import time

import numpy as np
from scipy.linalg import eigh_tridiagonal

# A round figure near the kernel's time on a 2-vCPU shared VM (Xeon, OpenBLAS
# on one thread, 0.08 to 0.12 s), so that reference seconds read close to wall
# seconds there.  It only scales the reported times; it never changes.
REFERENCE_S = 0.1


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.tridiagonals = [(rng.uniform(-0.1, 0.1, n), 1.0 + rng.uniform(-0.1, 0.1, n - 1))
                             for n in (201, 51)]
        self.block = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        self.grid = np.outer(np.linspace(0.0, 60.0, 1000), rng.uniform(-2.0, 2.0, 51))
        self.weights = rng.uniform(0.0, 1.0, 51)

    def work(self) -> float:
        (d201, e201), (d51, e51) = self.tridiagonals
        total = 0.0
        for _ in range(20):
            total += eigh_tridiagonal(d201, e201)[0][0]
        for _ in range(100):
            total += eigh_tridiagonal(d51, e51)[0][0]
        for _ in range(400):
            total += np.linalg.svd(self.block, compute_uv=False)[0]
        for _ in range(10):
            total += np.abs(np.exp(1j * self.grid) @ self.weights).max()
        for i in range(60000):
            total += (i % 7) * 1e-9
        return total

    def time(self) -> float:
        """Seconds one pass of the kernel takes now."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start
