"""Geodesic distances under an intrinsic metric via fast marching.

The solver propagates a front from a source vertex in Dijkstra order but
sharpens each relaxation with a two-point planar update: the face is
unfolded into the plane from its edge lengths and the front is treated
as locally linear across the supporting edge. Every two-point update is
clamped by the one-point (edge-sum) fallback, so computed distances
never exceed plain Dijkstra distances on the edge graph; on meshes with
reasonably shaped triangles they are much closer to the true geodesics.

Both solvers reject a metric that is not strictly feasible with the
error :func:`~metricmesh.geometry.curvature_report` raises. Fast
marching unfolds at unit scale, so any length scale gives the same bits.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import MetricField, _require_feasible, face_slacks
from .projection import _unit_scaled


def _triangle_update(d_a: float, d_b: float, la: float, lb: float, lc: float) -> float:
    """Distance candidate at C of a triangle with known values at A and B.

    Side convention: la = |BC|, lb = |AC|, lc = |AB| (each side named for
    the opposite corner). The triangle is unfolded with A at the origin
    and B at (lc, 0); a planar front with unit normal n matching d_a and
    d_b is extended to C. The update is used only when the characteristic
    through C enters the triangle through the open interior of AB
    (causality); otherwise, and always as a floor, the edge-sum fallback
    min(d_a + lb, d_b + la) applies.

    The unfold squares the sides, so the arguments must be near unit
    scale; :func:`fast_marching` scales its lengths there once per metric.
    """
    fallback = min(d_a + lb, d_b + la)
    if not (math.isfinite(d_a) and math.isfinite(d_b)):
        return fallback
    n_x = (d_b - d_a) / lc
    if abs(n_x) >= 1.0:
        # Front would be steeper along AB than unit speed allows.
        return fallback
    n_y = math.sqrt(1.0 - n_x * n_x)
    c_x = (lb * lb + lc * lc - la * la) / (2.0 * lc)
    cy2 = lb * lb - c_x * c_x
    if cy2 <= 0.0:
        # Degenerate unfold, the triangle is at or past collapse.
        return fallback
    c_y = math.sqrt(cy2)
    # Foot of the characteristic through C on the line AB.
    foot = c_x - (c_y / n_y) * n_x
    if not (0.0 < foot < lc):
        return fallback
    cand = d_a + n_x * c_x + n_y * c_y
    return min(cand, fallback)


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


@np.errstate(over="ignore")  # a distance past the float range comes out as inf
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
    """
    source = _validated(mesh, metric, source)
    others, opposite = mesh._vertex_fans()
    lengths, k = _unit_scaled(metric.lengths)  # the unfold squares lengths
    # Entry j is a vertex u and one of its faces: the sides opposite u, c1
    # and c2, and the corners c1 and c2.
    l_u, l_1, l_2 = lengths[opposite].tolist()
    c_1, c_2 = others.tolist()
    starts = mesh.vertex_face_csr[0].tolist()
    v = mesh.vertex_count
    dist = [math.inf] * v
    accepted = [False] * v
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    push, pop = heapq.heappush, heapq.heappop

    while heap:
        d, u = pop(heap)
        if accepted[u] or d > dist[u]:
            continue
        accepted[u] = True
        du = dist[u]
        for j in range(starts[u], starts[u + 1]):
            c1 = c_1[j]
            c2 = c_2[j]
            if not accepted[c1]:
                cand = du + l_2[j]  # edge (u, c1) is the side opposite c2
                if accepted[c2]:
                    two_point = _triangle_update(du, dist[c2], l_u[j], l_2[j], l_1[j])
                    if two_point < cand:
                        cand = two_point
                if cand < dist[c1]:
                    dist[c1] = cand
                    push(heap, (cand, c1))
            if not accepted[c2]:
                cand = du + l_1[j]
                if accepted[c1]:
                    two_point = _triangle_update(du, dist[c1], l_u[j], l_1[j], l_2[j])
                    if two_point < cand:
                        cand = two_point
                if cand < dist[c2]:
                    dist[c2] = cand
                    push(heap, (cand, c2))
    return DistanceField(source=source, distances=np.ldexp(np.array(dist), k))


def dijkstra_distances(mesh, metric: MetricField, source: int) -> DistanceField:
    """Edge-graph shortest paths; the upper-bound reference for fast marching."""
    source = _validated(mesh, metric, source)
    v = mesh.vertex_count
    offsets, rows = mesh.vertex_edge_csr
    # Entry k of the CSR pair is edge rows[k] at vertex `at[k]`; its far
    # end is the other endpoint.
    at = np.repeat(np.arange(v), np.diff(offsets))
    ends = mesh.edges[rows]
    tails = (ends[:, 0] + ends[:, 1] - at).tolist()
    wts = metric.lengths[rows].tolist()
    starts = offsets.tolist()

    dist = [math.inf] * v
    done = [False] * v
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = True
        for k in range(starts[u], starts[u + 1]):
            c = tails[k]
            cand = d + wts[k]
            if cand < dist[c]:
                dist[c] = cand
                heapq.heappush(heap, (cand, c))
    return DistanceField(source=source, distances=np.array(dist))
