"""Reference kernel that measures the machine's current speed.

The kernel does a fixed amount of the kinds of work the workloads do: small
banded solves and elementwise numpy operations on a few hundred nodes, a
Python-level loop, and 17-digit float formatting.  It does not touch
``irrev``, so a change to the program leaves it alone.  The benchmark runs
it next to every timed repetition and divides the repetition's time by it;
see the README for why.
"""

from __future__ import annotations

import io
import time

import numpy as np
from scipy.linalg import solve_banded

#: the kernel's median time on the machine the benchmark was tuned on
#: (2-vCPU KVM guest, Xeon with AVX-512, Python 3.11, numpy 2.4, scipy 1.17);
#: normalized times are reported in seconds at that speed
NOMINAL_S = 0.1


def kernel() -> float:
    """Run the fixed workload once; return a value that depends on all of it."""
    n = 301
    x = np.linspace(0.0, 1.0, n)
    ab = np.empty((3, n))
    ab[0], ab[1], ab[2] = -1.0, 2.5, -1.0
    u = np.sin(3.0 * np.pi * x)
    acc = 0.0
    for _ in range(1400):
        v = solve_banded((1, 1), ab, u)
        w = 2.0 * v
        w[:-1] -= v[1:]
        w[1:] -= v[:-1]
        u = np.tanh(w) + np.exp(-((x - 0.3) / 0.2) ** 2)
        acc += float(np.abs(w).max())
    buf = io.StringIO()
    for i in range(10000):
        buf.write(f"{x[i % n]:.17g},{u[i % n]:.17g},{acc:.17g}\n")
    return acc + len(buf.getvalue())


def timed() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
