"""Calibration kernel: a fixed mix of interpreter and NumPy work.

On a shared machine the speed of one CPU changes by a third or more within
seconds, as neighbours come and go, and a 10 s run does not average that
out.  The closed loop therefore runs this kernel between jobs, at most
0.05 s apart, and reports each operation's time as a multiple of the mean
of the kernel runs just before and after it (unit ``ref``).  Measured on a
shared 2-CPU Intel Xeon VM (Python 3.11.7, NumPy 2.4.6) over 150 s of cargo
solves, each between two kernel runs: the medians of 10 s windows spread by
27 % (quartile distance over median) in seconds and by 0.6 % in ``ref``.

The kernel uses only the standard library and NumPy, never the engine, and
must not change: every ``ref`` figure compared across commits depends on it.
"""

from __future__ import annotations

import random

import numpy as np

# Seconds from spawning an interpreter until `import numpy` returns, on the
# VM above; setup_s is the CLI's spawn-to-import time in these units.
REF_IMPORT_S = 0.2


def kernel() -> int:
    """About 9 ms on that VM: sorting, hashing, dict and frozenset
    work, string splitting and broadcast bit operations on int64 arrays."""
    rng = random.Random(5)
    items = [(rng.randrange(1000), rng.randrange(1000)) for _ in range(3000)]
    acc = 0
    seen: dict[frozenset, int] = {}
    for a, b in sorted(items):
        key = frozenset((a % 37, b % 41))
        seen[key] = seen.get(key, 0) + a * b
        acc ^= hash(key) & 0xFFFF
    arr = np.arange(1 << 15, dtype=np.int64)
    for i in range(20):
        arr = (arr[:, None] | np.int64(i)).ravel() & 0xFFFF
    words = " ".join(str(x) for x in range(2000)).split()
    return acc + len(seen) + int(arr.sum()) + len(words)
