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


def _validated(mesh, metric: MetricField, source: int) -> None:
    if not 0 <= source < mesh.vertex_count:
        raise ValueError(
            f"source vertex {source} out of range for {mesh.vertex_count} vertices"
        )
    _require_feasible(mesh, metric, face_slacks(mesh, metric))


@np.errstate(over="ignore")  # a distance past the float range comes out as inf
def fast_marching(mesh, metric: MetricField, source: int) -> DistanceField:
    """Single-source geodesic distances by fast marching.

    Heap keys are (distance, vertex), so ties resolve by vertex index and
    runs are deterministic. When a vertex u is accepted, every incident
    face relaxes its remaining corners: a one-point update from u always,
    and the two-point update whenever the face's third corner is already
    accepted. The loop runs on Python lists and floats, which give the
    same IEEE results as numpy scalars at a fraction of the cost.
    """
    _validated(mesh, metric, source)
    v = mesh.vertex_count
    dist = [math.inf] * v
    accepted = [False] * v
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    faces = mesh.faces.tolist()
    lengths, k = _unit_scaled(metric.lengths)  # the unfold squares lengths
    # Sides opposite each corner: corner 0 faces edge (j,k) etc.
    opposite = lengths[mesh.face_edges[:, (1, 2, 0)]].tolist()
    offsets, rows = (a.tolist() for a in mesh.vertex_face_csr)

    while heap:
        d, u = heapq.heappop(heap)
        if accepted[u] or d > dist[u]:
            continue
        accepted[u] = True
        du = dist[u]
        for fi in rows[offsets[u] : offsets[u + 1]]:
            corners = faces[fi]
            opp = opposite[fi]
            pos_u = corners.index(u)
            for pos_c in range(3):
                c = corners[pos_c]
                if pos_c == pos_u or accepted[c]:
                    continue
                pos_w = 3 - pos_u - pos_c
                w = corners[pos_w]
                # Edge (u, c) is the side opposite w.
                cand = du + opp[pos_w]
                if accepted[w]:
                    two_point = _triangle_update(
                        du, dist[w],
                        la=opp[pos_u],   # |w c|, opposite u
                        lb=opp[pos_w],   # |u c|, opposite w
                        lc=opp[pos_c],   # |u w|, opposite c
                    )
                    if two_point < cand:
                        cand = two_point
                if cand < dist[c]:
                    dist[c] = cand
                    heapq.heappush(heap, (cand, c))
    return DistanceField(source=source, distances=np.ldexp(np.array(dist), k))


def dijkstra_distances(mesh, metric: MetricField, source: int) -> DistanceField:
    """Edge-graph shortest paths; the upper-bound reference for fast marching."""
    _validated(mesh, metric, source)
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
