"""Host-speed calibration for timings taken on a shared, noisy machine.

On a small cloud VM whose cores are shared with other tenants, the same
Python work can take up to ~1.8x longer from one second to the next, and
process CPU time slows down with it. So the harness runs a small fixed
kernel of pure-Python work (benchmark code; it calls nothing in the
library) between calls into the library, at most every `SAMPLE_EVERY_S`,
and reports each time at reference speed:

    reported = measured x REFERENCE_KERNEL_S / (kernel time measured next to it)

The kernel's own runs, and any other benchmark-only work that falls inside
a timed interval, are cut out of the interval before it is scaled. The
kernel is a miniature greedy placement (least-loaded core by ``min`` with
a key, conflict lookups, list updates); its time tracks schedule()'s within
a few per cent as the host's speed changes. A call that outlasts a change of
speed (load_workload on 2 000 processes takes ~0.3 s) is scaled by the
speed measured around it, which is coarser; medians over many calls absorb
the rest.
"""

from __future__ import annotations

from bisect import bisect_left
from statistics import median
from time import perf_counter

SAMPLE_EVERY_S = 0.01
# the kernel's time on a quiet host (2 vCPU cloud VM, Python 3.11), so
# reported times stay close to the host's fast-state milliseconds
REFERENCE_KERNEL_S = 0.25e-3
NEIGHBOURS = 2  # kernel samples taken on each side of an instant

_N = 48
_ADJ = tuple(tuple(sorted({(i * 7 + k * 13) % _N for k in range(1, 4)} - {i})) for i in range(_N))
_TIMES = tuple(1 + (i * 5) % 15 for i in range(_N))


def kernel(rounds: int = 5) -> int:
    """Fixed interpreter work: greedy placement of 48 tasks on 8 cores."""
    ends = [0] * 8
    finish = [0] * _N
    cores = range(8)
    for _ in range(rounds):
        for pid in range(_N):
            core = min(cores, key=ends.__getitem__)
            start = ends[core]
            for q in _ADJ[pid]:
                if finish[q] > start:
                    start = finish[q]
            finish[pid] = start + _TIMES[pid]
            ends[core] = finish[pid]
    return max(ends)


class Speed:
    """Kernel samples over time, and the intervals cut out of timings."""

    def __init__(self) -> None:
        self.sample_at: list[float] = []  # kernel midpoints, increasing
        self.sample_s: list[float] = []
        self.cut_starts: list[float] = []  # disjoint, increasing
        self.cut_ends: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.sample_at.append((t0 + t1) / 2)
        self.sample_s.append(t1 - t0)
        self.cut(t0, t1)
        self._last = t1

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def cut(self, t0: float, t1: float) -> None:
        """Exclude [t0, t1) from every timed interval; may enclose earlier cuts."""
        while self.cut_starts and self.cut_starts[-1] >= t0:
            self.cut_starts.pop()
            self.cut_ends.pop()
        self.cut_starts.append(t0)
        self.cut_ends.append(t1)

    def factor(self, t: float) -> float:
        """Reference kernel time over the median kernel time around instant t."""
        i = bisect_left(self.sample_at, t)
        near = self.sample_s[max(0, i - NEIGHBOURS): i + NEIGHBOURS]
        if not near:
            raise RuntimeError("no speed sample taken yet")
        return REFERENCE_KERNEL_S / median(near)

    def scale(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of [t0, t1), less the cuts that lie inside it.

        A cut that encloses the interval is not subtracted: a span measured
        inside benchmark-only work still has its own length.
        """
        total = 0.0
        start = t0
        k = bisect_left(self.cut_starts, t0)
        while k < len(self.cut_starts) and self.cut_ends[k] <= t1:
            if self.cut_starts[k] > start:
                total += (self.cut_starts[k] - start) * self.factor((start + self.cut_starts[k]) / 2)
            start = self.cut_ends[k]
            k += 1
        if t1 > start:
            total += (t1 - start) * self.factor((start + t1) / 2)
        return total
