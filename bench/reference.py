"""Fixed reference computations, timed next to every op to gauge host speed.

On a shared host the speed available to one core changes by up to 1.6x
for seconds to minutes at a time, as other tenants come and go.  Wall
time alone then moves a run's median by 15-40% between runs of the same
code.  The benchmark therefore times a reference computation on the same
core right before each op, and reports throughput per unit of its
duration: both slow down together when the host does, so their ratio
holds still.

The references run no gwalsh code, so no change to gwalsh can move them.
Neighbours slow interpreter-bound and memory-bound work by different
amounts, so there are two, and each workload names the one that matches
where its time goes (``REFERENCE`` in ``workloads.py``).  ``NOMINAL_S``
is each one's median time on the sizing host, a shared 2-core Intel Xeon
VM; it only scales set-up time back to seconds.
"""

from __future__ import annotations

import numpy as np

_SEED = 20130729


class MixedReference:
    """Interpreter-bound, in roughly equal time: Python-level float text
    round trip (the CSV codec, argparse, JSON), small NumPy calls from a
    Python loop (the verify checks), and a 4 MiB gather and 4x4 product."""

    NOMINAL_S = 0.017
    FLOATS = 3000
    LOOP = 1500
    ARRAY = 1 << 18  # complex128: 4 MiB

    def __init__(self):
        rng = np.random.default_rng(_SEED)
        self.floats = rng.standard_normal(self.FLOATS).tolist()
        self.small = rng.standard_normal(64)
        self.array = rng.standard_normal(self.ARRAY) + 1j * rng.standard_normal(self.ARRAY)
        self.perm = rng.permutation(self.ARRAY)
        self.m4 = rng.standard_normal((4, 4))

    def __call__(self) -> float:
        text = ",".join(repr(x) for x in self.floats)
        total = sum(float(s) for s in text.split(","))
        for i in range(self.LOOP):
            total += float(np.exp(self.small * (i / self.LOOP)).sum())
        gathered = self.array[self.perm]
        mixed = (gathered.reshape(-1, 4) @ self.m4).reshape(-1)
        return total + abs(mixed[self.perm][0])


class MemoryReference:
    """Memory-bound, like the transform on 1M cells: two gathers and a 4x4
    product over 16 MiB arrays, far larger than a core's L2."""

    NOMINAL_S = 0.037
    ARRAY = 1 << 20  # complex128: 16 MiB

    def __init__(self):
        rng = np.random.default_rng(_SEED)
        self.array = rng.standard_normal(self.ARRAY) + 1j * rng.standard_normal(self.ARRAY)
        self.perm = rng.permutation(self.ARRAY)
        self.m4 = rng.standard_normal((4, 4))

    def __call__(self) -> float:
        gathered = self.array[self.perm]
        mixed = (gathered.reshape(-1, 4) @ self.m4).reshape(-1)
        return abs(mixed[self.perm][0])
