"""Host-speed probe: a fixed pure-Python kernel timed between ops.

On a shared host the CPU this process gets runs at two speeds that differ by
up to 1.9x, switching every fraction of a second to every minute, and the
operating system shows none of it: process CPU time grows as fast as wall
time.  A run on a slow minute then reads as a slower program.  The probe
times a kernel that never changes and never calls chordel (adjacency sets, a
graph search, dict updates: the same interpreter work the solvers do) right
before and right after each timed region.  The region's wall time is scaled
by ``NOMINAL_S`` over the mean of the two probe times, so it reads as the
time the region would take on a host that runs the kernel in ``NOMINAL_S``.
Scaled times of one op stay within about 5% over minutes where its raw wall
time moves by 30%.
"""

from __future__ import annotations

import gc
import statistics
import time

# The kernel's typical time on the 2-core Xeon host this benchmark was tuned
# on, in its slower and more frequent state, so scaled times read close to
# the wall times seen there.  It is a unit, not a measurement: changing it
# rescales every scaled time by the same factor.
NOMINAL_S = 0.0004


def _kernel() -> int:
    adj = {i: {(i * 7 + j) % 200 for j in range(1, 6)} for i in range(200)}
    seen = {0}
    todo = [0]
    while todo:
        v = todo.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return sum(len(s) for s in adj.values())


def probe(repeats: int = 1) -> float:
    """Seconds the kernel takes now (the median of `repeats` runs), with the
    garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time between two probes into a scaled time."""
    return NOMINAL_S / ((before + after) / 2)
