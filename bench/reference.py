"""Machine-speed reference: host times scaled to a nominal machine speed.

The benchmark shares its machine with other work, and the machine's speed
drifts: a fixed slice of CPU work takes 10-70% longer for minutes at a
time.  That drift moves every host time of a run together, so it is
measured and taken out.  A fixed kernel — interpreter dict/float work plus
small NumPy array passes, the two kinds of work the workloads do — is
timed about once a second, between ops, over the whole run.  Every host
time of the run is then scaled by ``NOMINAL_MS / median kernel time``: it
reads the time the run would have taken on a machine where the kernel
takes :data:`NOMINAL_MS`.  The median over the run ignores the short
spikes a single kernel timing can catch.  The kernel is part of the
benchmark, never of the program, so a change to the program cannot move
it; the unscaled figures are reported beside the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Kernel time of the nominal machine: a quiet 2.1 GHz x86 server core,
#: where scaled and measured times agree.
NOMINAL_MS = 2.5


def kernel() -> float:
    # NumPy is imported here, after set-up, so the runner's own imports
    # stay out of the set-up time it measures.
    import numpy as np

    table: dict[int, float] = {}
    acc = 0.0
    for i in range(12_000):
        key = i & 127
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key] / (1 + key)
    values = np.linspace(1.0, 2.0, 2048)
    for _ in range(120):
        values = np.sqrt(values * 1.0001 + 0.5)
        acc += float(values[np.argmin(values)])
    return acc


class Speedometer:
    """Kernel timings taken at most every ``every_s`` over a run."""

    def __init__(self, every_s: float = 1.0) -> None:
        kernel()  # the first run pays one-time costs; keep it out
        self.every_s = every_s
        self.samples_ms: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        """Time the kernel once."""
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.samples_ms.append((end - start) * 1e3)
        self._due = end + self.every_s

    def tick(self) -> None:
        """Time the kernel if the last timing is ``every_s`` old."""
        if perf_counter() >= self._due:
            self.sample()

    @property
    def reference_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get the nominal-speed time."""
        return NOMINAL_MS / self.reference_ms
