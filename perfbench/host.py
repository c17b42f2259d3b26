"""Host-speed correction for the benchmark's timings.

The shared virtual machines the benchmark was defined on change speed
by up to 40% from one minute to the next: a neighbour's load slows
every instruction, so process CPU time moves with wall time and longer
runs do not average it away.  Two runs of identical work then differ
more than any bound worth enforcing.

So each pass also times a fixed *reference kernel* many times: between
plays, between repeats of a short step, between record batches.  Every step
time is divided by its *slowdown*, the kernel's mean time over
:data:`REFERENCE_S` across the samples taken during and right after
that step.  A corrected time reads as seconds at the host's reference
speed.  The
kernel is pure standard-library Python shaped like the simulator's
hot loop (attribute access on scattered objects, dict lookups, a heap
of list entries) and imports nothing from ``repro``, so no change to
the program can move it.  Uncorrected values are kept in each result record.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter

#: The kernel's time on a quiet core of the defining host (x86-64 VM,
#: 2 vCPUs, CPython 3.11), so corrected times stay near wall seconds.
REFERENCE_S = 0.003

#: Fewest samples behind one slowdown.
MIN_SAMPLES = 5


class _Cell:
    __slots__ = ("key", "value", "mark")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = float(key)
        self.mark = None


class _Kernel:
    """The reference workload: attribute reads and writes on objects
    scattered over ~15 MB, dict lookups and a small heap of list
    entries.  A working set far beyond the core's own caches makes it
    slow down with the simulator when a neighbour thrashes them, which
    an in-cache loop does not."""

    CELLS = 100_000
    STEPS = 3_000

    def __init__(self) -> None:
        self.cells = [_Cell(i) for i in range(self.CELLS)]
        self.table = {i: _Cell(i) for i in range(self.CELLS // 2)}
        # A fixed LCG walk: the same addresses every run.
        walk, x = [], 12345
        for _ in range(self.STEPS):
            x = (1103515245 * x + 12345) % (1 << 31)
            walk.append(x % self.CELLS)
        self.walk = walk

    def __call__(self) -> float:
        start = perf_counter()
        heap: list[list] = []
        push, pop = heapq.heappush, heapq.heappop
        cells, table = self.cells, self.table
        for step, i in enumerate(self.walk):
            cell = cells[i]
            cell.mark = step
            push(heap, [cell.value, step, table.get(i >> 1)])
            if len(heap) > 64:
                pop(heap)
        return perf_counter() - start


class HostSpeed:
    """Reference-kernel probes taken during one pass."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._kernel = _Kernel()

    def probe(self) -> float:
        """Run the kernel once; its slowdown (1.0 = reference speed)."""
        seconds = self._kernel()
        self.samples.append(seconds)
        return seconds / REFERENCE_S

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.probe()

    def take(self) -> float:
        """The mean slowdown over the probes since the last call,
        topped up to :data:`MIN_SAMPLES` here; starts a new window."""
        self.sample(MIN_SAMPLES - len(self.samples))
        slowdown = statistics.fmean(self.samples) / REFERENCE_S
        self.samples = []
        return slowdown

    def local(self, window: int) -> list[float]:
        """Per-probe slowdowns smoothed over ``window`` neighbouring
        probes (for work probed after each unit, such as a play);
        starts a new window."""
        samples, self.samples = self.samples, []
        half = window // 2
        return [
            statistics.fmean(samples[max(0, i - half): i + half + 1])
            / REFERENCE_S
            for i in range(len(samples))
        ]

