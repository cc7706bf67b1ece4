"""Host-speed calibration: a fixed kernel timed every 100 ms during the run.

On a shared 2-vCPU host the machine itself speeds up and slows down by up
to 1.6x within seconds, and every operation moves with it.  Measured in
one process, two-second medians of a uniform 4096-pair batch ran
1.6-2.5 ms and of a scalar query 5.7-9.0 us, while each one's ratio to
a pure-Python kernel timed in the same windows stayed within about 5%.  A
metric that follows the host cannot tell a parent commit from its child.

So while a run measures, an interval timer fires every
:data:`PERIOD_S` and the signal handler times :func:`kernel`.  The kernel
uses nothing from ``repro``.  Each timed operation is then corrected in
two steps:

* the kernel time that fell inside the operation is taken out;
* the result is scaled by ``REFERENCE_S / local``.  ``local`` is the
  median kernel time within :data:`WINDOW_S` of the operation.

The metrics therefore read as seconds on a host where the kernel takes
:data:`REFERENCE_S`.  The raw medians and the run's median kernel time
are in the run record.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
from time import perf_counter
from typing import List, Tuple

#: the kernel time the normalised metrics are expressed against (about its
#: median on a quiet 2-vCPU 2.1 GHz Xeon; any constant keeps runs comparable)
REFERENCE_S = 0.0007
#: interval between kernel slices
PERIOD_S = 0.1
#: half-width of the window whose slices calibrate one operation
WINDOW_S = 1.0


def _graph(n: int = 400) -> List[List[Tuple[int, float]]]:
    rng = random.Random(20231)
    adjacency: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for v in range(1, n):  # a random spanning tree keeps it connected
        u = rng.randrange(v)
        w = rng.uniform(1.0, 10.0)
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        w = rng.uniform(1.0, 10.0)
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    return adjacency


_GRAPH = _graph()


def kernel() -> float:
    """A heap Dijkstra over a fixed 400-vertex graph (0.4-1 ms)."""
    dist = [float("inf")] * len(_GRAPH)
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _GRAPH[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist[-1]


class Calibrator:
    """Collects ``(start, duration)`` kernel slices while it is running."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    # ------------------------------------------------------------------ #
    def stolen(self, start: float, end: float) -> float:
        """Kernel time that ran inside ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.durations[lo:hi])

    def local(self, start: float, end: float) -> float:
        """Median kernel time around ``[start, end]`` (widened until 5 slices)."""
        window = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.starts, start - window)
            hi = bisect.bisect_right(self.starts, end + window)
            if hi - lo >= 5 or (lo == 0 and hi == len(self.starts)):
                return statistics.median(self.durations[lo:hi])
            window *= 2

    def correct(self, start: float, elapsed: float) -> Tuple[float, float]:
        """``(raw seconds without kernel time, normalised seconds)``."""
        end = start + elapsed
        raw = elapsed - self.stolen(start, end)
        return raw, raw * REFERENCE_S / self.local(start, end)
