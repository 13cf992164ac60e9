"""Geodesic distances under an intrinsic metric via fast marching.

The solver propagates a front from a source vertex in Dijkstra order but
sharpens each relaxation with a two-point planar update: the face is
unfolded into the plane from its edge lengths and the front is treated
as locally linear across the supporting edge. A vertex keeps the least
of its one-point (edge-sum) and two-point candidates, so computed
distances never exceed plain Dijkstra distances on the edge graph; on
meshes with reasonably shaped triangles they are much closer to the true
geodesics.

Both solvers reject a metric that is not strictly feasible with the
error :func:`~metricmesh.geometry.curvature_report` raises. Fast
marching unfolds at unit scale, so any length scale gives the same bits.
A distance past the float range raises ValueError; a vertex that no
edge path reaches from the source holds inf.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import MetricField, _require_feasible, face_slacks
from .projection import _unit_scaled


@dataclass(frozen=True)
class DistanceField:
    """Geodesic distances from one source; unreachable vertices hold inf."""

    source: int
    distances: np.ndarray

    def reached(self) -> np.ndarray:
        return np.isfinite(self.distances)


def _validated(mesh, metric: MetricField, source) -> int:
    """``source`` as an int once it names a vertex and the metric is feasible."""
    if not isinstance(source, numbers.Integral) or isinstance(source, bool):
        raise ValueError(f"source vertex must be an integer, got {source!r}")
    source = int(source)
    if not 0 <= source < mesh.vertex_count:
        raise ValueError(
            f"source vertex {source} out of range for {mesh.vertex_count} vertices"
        )
    _require_feasible(mesh, metric, face_slacks(mesh, metric))
    return source


def _shared(values: np.ndarray, index: np.ndarray) -> list:
    """``values[index].tolist()`` with one Python object per value, not per entry.

    The heap loops read these lists entry by entry. Entries that share an
    edge length or a vertex id share its object, so the loops touch a few
    thousand objects rather than tens of thousands, which keeps them in
    cache: fast marching on icosphere(4) runs about a quarter faster on a
    2-CPU x86 host.
    """
    return values.astype(object)[index].tolist()


def _checked(mesh, source: int, distances: np.ndarray) -> DistanceField:
    """The field of a finished solve, once no distance in it has overflowed.

    When a solve ends, every vertex with a finite distance has relaxed
    each edge neighbour by at most the edge's length, so an edge with
    exactly one finite end can only come from a sum past the float range.
    Vertices that no edge path reaches, isolated ones among them, keep inf.
    """
    finite = np.isfinite(distances)
    if not finite.all():
        ends = finite[mesh.edges]
        cut = ends[:, 0] != ends[:, 1]
        if cut.any():
            v = int(mesh.edges[cut][~ends[cut]].min())
            raise ValueError(f"the distance of vertex {v} from source {source} overflows")
    return DistanceField(source=source, distances=distances)


@np.errstate(over="ignore")  # a distance past the float range is raised by _checked
def fast_marching(mesh, metric: MetricField, source: int) -> DistanceField:
    """Single-source geodesic distances by fast marching.

    Heap keys are (distance, vertex), so ties resolve by vertex index and
    runs are deterministic. When a vertex u is accepted, every incident
    face relaxes its other corners c1 and c2, in corner order: a
    one-point update from u always, and the two-point update whenever
    the face's third corner is already accepted. The faces come from the
    mesh's per-vertex fan table (``Mesh._vertex_fans``), built once per
    mesh; each call gathers its lengths once, and the loop runs on
    Python lists and floats, which give the same IEEE results as numpy
    scalars at a fraction of the cost.

    The two-point update is written out in the loop, not called. It takes
    A = u and B = the accepted corner, with finite distances, and unfolds
    the face with A at the origin and B at (|AB|, 0). A planar front with
    unit normal n matching both distances is extended to the corner C
    being relaxed, and is used only when |n_x| < 1, the unfold has a
    height, and the characteristic through C crosses the open interior
    of AB (causality). It is not clamped by d_B + |BC|: when B was
    accepted it relaxed C through this face, so dist[C] <= d_B + |BC|
    holds already and the clamp could never change a write.

    Raises ValueError naming the first vertex whose distance leaves the
    float range. On icosphere(4) a call takes about 8-9 ms on a 2-CPU x86
    host, once the fan table is built.
    """
    source = _validated(mesh, metric, source)
    others, opposite = mesh._vertex_fans
    lengths, k = _unit_scaled(metric.lengths)  # the unfold squares lengths
    # Entry j is a vertex u and one of its faces: the sides opposite u, c1
    # and c2, and the corners c1 and c2.
    v = mesh.vertex_count
    l_u, l_1, l_2 = _shared(lengths, opposite)
    c_1, c_2 = _shared(np.arange(v), others)
    starts = mesh.vertex_face_csr[0].tolist()
    dist = [math.inf] * v
    accepted = [False] * v
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    push, pop, sqrt = heapq.heappush, heapq.heappop, math.sqrt

    while heap:
        d, u = pop(heap)
        if accepted[u] or d > dist[u]:
            continue
        accepted[u] = True
        for j in range(starts[u], starts[u + 1]):
            c1 = c_1[j]
            c2 = c_2[j]
            if not accepted[c1]:
                lb = l_2[j]  # edge (u, c1) is the side opposite c2
                cand = d + lb
                if accepted[c2]:  # A = u, B = c2, C = c1
                    lc = l_1[j]
                    n_x = (dist[c2] - d) / lc
                    if -1.0 < n_x < 1.0:
                        la = l_u[j]
                        c_x = (lb * lb + lc * lc - la * la) / (2.0 * lc)
                        cy2 = lb * lb - c_x * c_x
                        if cy2 > 0.0:
                            n_y = sqrt(1.0 - n_x * n_x)
                            c_y = sqrt(cy2)
                            if 0.0 < c_x - (c_y / n_y) * n_x < lc:
                                two_point = d + n_x * c_x + n_y * c_y
                                if two_point < cand:
                                    cand = two_point
                if cand < dist[c1]:
                    dist[c1] = cand
                    push(heap, (cand, c1))
            if not accepted[c2]:
                lb = l_1[j]
                cand = d + lb
                if accepted[c1]:  # A = u, B = c1, C = c2
                    lc = l_2[j]
                    n_x = (dist[c1] - d) / lc
                    if -1.0 < n_x < 1.0:
                        la = l_u[j]
                        c_x = (lb * lb + lc * lc - la * la) / (2.0 * lc)
                        cy2 = lb * lb - c_x * c_x
                        if cy2 > 0.0:
                            n_y = sqrt(1.0 - n_x * n_x)
                            c_y = sqrt(cy2)
                            if 0.0 < c_x - (c_y / n_y) * n_x < lc:
                                two_point = d + n_x * c_x + n_y * c_y
                                if two_point < cand:
                                    cand = two_point
                if cand < dist[c2]:
                    dist[c2] = cand
                    push(heap, (cand, c2))
    return _checked(mesh, source, np.ldexp(np.array(dist), k))


def dijkstra_distances(mesh, metric: MetricField, source: int) -> DistanceField:
    """Edge-graph shortest paths; the upper-bound reference for fast marching.

    Each vertex's edges come from ``Mesh.vertex_edge_csr`` and their far
    ends from the table ``Mesh._far_ends`` keeps, built once per mesh;
    each call gathers its lengths once. Raises ValueError naming the
    first vertex whose distance leaves the float range. On icosphere(4) a
    call takes about 3.5-4 ms on a 2-CPU x86 host.
    """
    source = _validated(mesh, metric, source)
    v = mesh.vertex_count
    offsets, rows = mesh.vertex_edge_csr
    tails = _shared(np.arange(v), mesh._far_ends)
    wts = _shared(metric.lengths, rows)
    starts = offsets.tolist()

    dist = [math.inf] * v
    done = [False] * v
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = True
        for k in range(starts[u], starts[u + 1]):
            c = tails[k]
            cand = d + wts[k]
            if cand < dist[c]:
                dist[c] = cand
                push(heap, (cand, c))
    return _checked(mesh, source, np.array(dist))
