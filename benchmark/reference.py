"""Times at idle-machine speed, from a reference kernel timed around each unit.

On a shared machine other tenants slow a process down by up to about 2x, for
seconds to minutes at a time, in CPU time as much as in wall time.
``Reference.bracket`` times a fixed kernel right before and right after a
unit of work, outside the unit's own time. The unit's time, multiplied by
``REF_NOMINAL_S`` over the mean of the two probes, is its time at
idle-machine speed.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

clock = time.perf_counter

# The unit of scaled times: a round figure near the kernel's fastest time
# (5.1 ms over 400 calls) on the 2-core VM the benchmark was written on, so
# scaled times read roughly as that machine's idle times.
REF_NOMINAL_S = 0.0050
_REF_A = np.linspace(0.0, 1.0, 50 * 59).reshape(50, 59)
_REF_B = np.linspace(1.0, 2.0, 59 * 64).reshape(59, 64)
_REF_V = np.arange(50.0)
_REF_ROWS = (np.linspace(0.0, 1.0, 1500) ** 3).tolist()


def reference_kernel() -> float:
    """Fixed work in the program's mix: interpreted loops over small numpy
    operations (featurization), small matrix products (the network) and
    JSON encoding and decoding of floats (the artifacts)."""
    acc, counts = 0.0, {}
    for i in range(1000):
        counts[i % 37] = counts.get(i % 37, 0) + 1
        acc += float(np.abs(_REF_V[i % 50] - _REF_V).max())
    for _ in range(16):
        acc += float((_REF_A @ _REF_B).sum())
    for _ in range(2):
        acc += sum(json.loads(json.dumps(_REF_ROWS)))
    return acc + len(counts)


class Reference:
    """Reference probes of one run, and the speed factor they give."""

    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> float:
        start = clock()
        reference_kernel()
        elapsed = clock() - start
        self.probes.append(elapsed)
        return elapsed

    def bracket(self, fn, *args):
        """Run ``fn`` between two probes; return (result, raw seconds,
        seconds at idle-machine speed)."""
        before = self.probe()
        start = clock()
        result = fn(*args)
        raw = clock() - start
        after = self.probe()
        return result, raw, raw * REF_NOMINAL_S / (0.5 * (before + after))

    def slowdown(self) -> float:
        """The run's median probe over the idle-machine probe time."""
        return statistics.median(self.probes) / REF_NOMINAL_S
