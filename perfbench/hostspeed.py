"""The host's current speed, from a fixed reference computation.

The benchmark runs on a few vCPUs of a shared host whose speed wanders
by up to a factor of two over minutes, as other tenants come and go.
Every run therefore also times ``reference_work``, a fixed mix of the
operations metricmesh spends its time in (Python loops that index numpy
arrays, a heap-ordered graph search, small vectorised numpy calls, text
formatting and parsing), between its timed units. It imports nothing
from metricmesh, so no change to the library changes its cost; only the
host does.

``REFERENCE_S`` is the median time of one call on the reference host
when it is not contended (a 2-vCPU virtual machine, Python 3.11.7,
numpy 2.4.6, one BLAS thread). A run scales its wall times by
``REFERENCE_S`` / (its own median reference time), which gives the time
the same work takes on the reference host at that speed. Changing this
module changes every reported time, like any other benchmark change.
"""

from __future__ import annotations

import gc
import heapq

import numpy as np

REFERENCE_S = 0.0144


def reference_work() -> float:
    """One fixed unit of reference work (about 15 ms); returns a checksum.

    The garbage collector is off meanwhile: a collection would walk every
    object the program keeps alive, and the reference must not cost more
    when the program holds more.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _reference_work()
    finally:
        if enabled:
            gc.enable()


def _reference_work() -> float:
    rng = np.random.default_rng(12345)
    n = 1500
    lengths = rng.uniform(0.5, 1.5, size=3 * n)
    faces = rng.integers(0, 3 * n, size=(n, 3))
    for f in range(n):
        e0, e1, e2 = faces[f, 0], faces[f, 1], faces[f, 2]
        x0, x1, x2 = lengths[e0], lengths[e1], lengths[e2]
        if x0 + x1 - x2 < 0.6:
            lengths[e2] = max(lengths[e2] - 0.01, 0.1)
    adj: dict[int, list[tuple[int, float]]] = {}
    for f in range(n):
        a, b, c = (int(v) for v in faces[f])
        w = float(lengths[f])
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((c, w))
        adj.setdefault(c, []).append((a, w))
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, w in adj.get(v, ()):
            nd = d + w
            if nd < dist.get(u, np.inf):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    for _ in range(30):
        a = lengths[faces].sum(axis=1)
        np.sqrt(np.abs(a), out=a)
    text = "".join(f"{x!r}\n" for x in lengths.tolist())
    return sum(float(t) for t in text.split()) + sum(dist.values())
