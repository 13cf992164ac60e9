"""Piecewise-linear embeddings and closest-point data projection.

The generator map sends a mesh point, written in barycentric coordinates
on a face, to data space by linear interpolation of per-vertex
coordinates. Projecting a data point back onto the embedded surface is
an exact closest-point computation per face (a two-variable quadratic
over the barycentric simplex, solved in closed form by region
decomposition) minimized over the faces; ties go to the lowest face
index.

One array kernel computes the closest point on a triangle.
:func:`project_points` runs it only on the faces that a vertex-distance
bound cannot rule out. The bound is evaluated in expanded form, one matrix
product per block of points, with a margin above its rounding error, so
the result is the same, bit for bit, as a scan over all faces;
:func:`closest_point_on_face` is its one-face case.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, read_text


def _unit_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(``values * 2**-k``, k) with the largest magnitude in [0.5, 1).

    The scaling is exact, so a formula of degree d run on the scaled
    values and scaled back by ``np.ldexp(result, d * k)`` gives the bits
    it gives at the original scale, without overflow or underflow between.
    """
    # math.frexp: np.frexp on a numpy scalar costs more than the rest together
    _, k = math.frexp(float(np.abs(values).max(initial=0.0)))
    return np.ldexp(values, -k), k


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class Embedding:
    """Per-vertex coordinates in data space, shape (V, n).

    ``coords`` is a read-only copy of the given array, so the extrinsic
    edge lengths are computed once per embedding and mesh: a descent with
    a frozen embedding computes them once per run.
    """

    coords: np.ndarray
    # (mesh.edges, the read-only lengths) of the last edge_lengths call:
    # keyed on the edge array, all the lengths depend on besides coords,
    # so a kept embedding does not keep its whole mesh alive
    _edge_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        coords = np.array(self.coords, dtype=np.float64, order="C")
        if coords.ndim != 2 or coords.shape[0] == 0 or coords.shape[1] == 0:
            raise ValueError(f"embedding coords must have shape (V, n), got {coords.shape}")
        if not np.isfinite(coords).all():
            raise ValueError("embedding coords must be finite")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def vertex_count(self) -> int:
        return int(self.coords.shape[0])

    @property
    def ambient_dim(self) -> int:
        return int(self.coords.shape[1])

    @np.errstate(over="ignore")  # a length past the float range comes out as inf
    def edge_lengths(self, mesh) -> np.ndarray:
        """Extrinsic length of every mesh edge under this embedding (read-only)."""
        if self._edge_memo is not None and self._edge_memo[0] is mesh.edges:
            return self._edge_memo[1]
        coords, k = _unit_scaled(self.coords)
        d = coords[mesh.edges[:, 0]] - coords[mesh.edges[:, 1]]
        lengths = np.ldexp(np.sqrt(np.einsum("ek,ek->e", d, d)), k)
        lengths.setflags(write=False)
        object.__setattr__(self, "_edge_memo", (mesh.edges, lengths))
        return lengths

    def with_coords(self, coords: np.ndarray) -> "Embedding":
        return Embedding(coords)


@dataclass(frozen=True)
class Dataset:
    """Point cloud in data space; ids are the row order of the source."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise DatasetError(f"dataset must have shape (N, n), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise DatasetError("dataset contains non-finite values")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @classmethod
    def from_csv(cls, source) -> "Dataset":
        """Read one point per row; a first row without a numeric cell is a header.

        A first row with both numeric and non-numeric cells is a mistyped
        point and raises :class:`DatasetError` naming row 1.
        """
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = read_text(source, lambda line, why: DatasetError(f"line {line}: {why}"))
        rows = [r for r in csv.reader(io.StringIO(text)) if r and any(c.strip() for c in r)]
        if not rows:
            raise DatasetError("empty dataset file")
        start = 0 if any(map(_is_number, rows[0])) else 1
        if start >= len(rows):
            raise DatasetError("dataset file holds only a header")
        width = len(rows[start])
        data = np.empty((len(rows) - start, width), dtype=np.float64)
        for i, row in enumerate(rows[start:], start=start):
            if len(row) != width:
                raise DatasetError(f"row {i + 1}: expected {width} columns, got {len(row)}")
            try:
                data[i - start] = [float(c) for c in row]
            except ValueError as exc:
                raise DatasetError(f"row {i + 1}: non-numeric value ({exc})") from exc
        return cls(data)


# --------------------------------------------------------------------------
# Closest point on a triangle, batched over (point, face) pairs.
#
# Region decomposition on the barycentric-coordinate plane (Ericson,
# Real-Time Collision Detection, 2005, 5.1.5). Works in any ambient
# dimension since only dot products of edge vectors enter. Degenerate
# (collinear) triangles and slivers fall back to the best edge projection.

# The interior denominator va + vb + vc is |ab x ac|^2, formed by
# cancellation from six products of two dot products; its rounding is a
# small multiple of eps times the sum of their magnitudes. A row is thin
# when the denominator is not _THIN times that sum: elsewhere the
# barycentrics, divided by it, are good to about 2**16 eps.
_THIN = 2.0**-16


def _best_edge_points(p, a, b, c):
    """Barycentrics of the best of the clamped projections onto ab, bc, ca.

    The fallback for thin interior rows. Sums run coordinate by
    coordinate and the first minimum wins in edge order ab, bc, ca; a row
    whose three distances are all NaN or infinite keeps vertex a.
    """
    m = len(p)
    best = np.full(m, np.inf)
    b0, b1, b2 = np.ones(m), np.zeros(m), np.zeros(m)
    for e, (u0, u1) in enumerate(((a, b), (b, c), (c, a))):
        ev = u1 - u0
        dd = dn = sq = 0.0
        for k in range(p.shape[1]):
            dd = dd + ev[:, k] * ev[:, k]
            dn = dn + ev[:, k] * (p[:, k] - u0[:, k])
        t = np.divide(dn, dd, out=np.zeros(m), where=dd > 0.0)
        t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
        for k in range(p.shape[1]):
            r = p[:, k] - (u0[:, k] + t * ev[:, k])
            sq = sq + r * r
        take = sq < best
        best = np.where(take, sq, best)
        # (b0, b1, b2) of the point u0 + t (u1 - u0) on edge e
        on_edge = [(1.0 - t, t, 0.0), (0.0, 1.0 - t, t), (t, 0.0, 1.0 - t)][e]
        b0, b1, b2 = (np.where(take, new, old) for new, old in zip(on_edge, (b0, b1, b2)))
    return b0, b1, b2


def _closest_points(p, a, b, c):
    """Closest point on triangle (a_i, b_i, c_i) to p_i for every row i.

    Takes (M, n) arrays and returns (barycentric (M, 3), squared distance
    (M,)). The six vertex and edge regions are tested in a fixed order and
    the first that holds wins. An interior row whose denominator is thin
    (see ``_THIN``; zero and non-finite included) may divide rounding noise
    by rounding noise, so its interior point can lie far from the
    triangle; it is kept only where it is nearer than the best edge
    projection.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    bp = p - b
    cp = p - c
    d1 = _dot(ab, ap)
    d2 = _dot(ac, ap)
    d3 = _dot(ab, bp)
    d4 = _dot(ac, bp)
    d5 = _dot(ab, cp)
    d6 = _dot(ac, cp)
    terms = (d1 * d4, d3 * d2, d5 * d2, d1 * d6, d3 * d6, d4 * d5)
    vc = terms[0] - terms[1]
    vb = terms[2] - terms[3]
    va = terms[4] - terms[5]
    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = np.where(d1 != d3, d1 / (d1 - d3), 0.0)
        w_ac = np.where(d2 != d6, d2 / (d2 - d6), 0.0)
        den_bc = (d4 - d3) + (d5 - d6)
        w_bc = np.where(den_bc != 0.0, (d4 - d3) / den_bc, 0.0)
        denom = va + vb + vc
        v_in = np.where(denom != 0.0, vb / denom, 0.0)
        w_in = np.where(denom != 0.0, vc / denom, 0.0)
    conds = [
        (d1 <= 0.0) & (d2 <= 0.0),
        (d3 >= 0.0) & (d4 <= d3),
        (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0),
        (d6 >= 0.0) & (d5 <= d6),
        (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0),
        (va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0),
    ]
    ones = np.ones(len(p))
    zeros = np.zeros(len(p))
    b0 = np.select(conds, [ones, zeros, 1.0 - v_ab, zeros, 1.0 - w_ac, zeros], 1.0 - v_in - w_in)
    b1 = np.select(conds, [zeros, ones, v_ab, zeros, zeros, 1.0 - w_bc], v_in)
    b2 = np.select(conds, [zeros, zeros, zeros, ones, w_ac, w_bc], w_in)
    interior = ~(conds[0] | conds[1] | conds[2] | conds[3] | conds[4] | conds[5])
    noise = sum(np.abs(t) for t in terms)
    thin = np.flatnonzero(interior & ~((denom > _THIN * noise) & np.isfinite(denom)))
    if thin.size:
        p_, a_, b_, c_ = p[thin], a[thin], b[thin], c[thin]
        edge = _best_edge_points(p_, a_, b_, c_)
        inner = b0[thin], b1[thin], b2[thin]
        nearer = _sq_at(p_, a_, b_, c_, *inner) < _sq_at(p_, a_, b_, c_, *edge)
        b0[thin], b1[thin], b2[thin] = (np.where(nearer, x, y) for x, y in zip(inner, edge))
    return np.stack((b0, b1, b2), axis=1), _sq_at(p, a, b, c, b0, b1, b2)


def _dot(x, y):
    return np.einsum("ik,ik->i", x, y)


def _sq_at(p, a, b, c, b0, b1, b2):
    """Squared distance from p to the point with barycentrics (b0, b1, b2), row by row."""
    r = p - (b0[:, None] * a + b1[:, None] * b + b2[:, None] * c)
    return _dot(r, r)


def _sq_distances(x, y):
    """Squared distances between the broadcast rows of x and y.

    Summed coordinate by coordinate, so a point that equals a corner gets
    exactly that corner's distance to the centroid.
    """
    total = 0.0
    for k in range(x.shape[-1]):
        d = x[..., k] - y[..., k]
        total = total + d * d
    return total


# Points go through the bound stage in blocks of about _BLOCK_PAIRS point
# x face (or point x vertex) entries, which keeps the temporaries small; the
# pairs that pass go to the kernel once whole blocks hold _KERNEL_PAIRS.
_BLOCK_PAIRS = 1 << 14
_KERNEL_PAIRS = 1 << 11


# Overflow shows up as a non-finite squared distance, which is reported.
@np.errstate(over="ignore", invalid="ignore")
def project_points(points, coords, faces):
    """Closest point on the triangle mesh ``coords[faces]`` for every point.

    Returns (face index (N,), barycentric (N, 3), squared distance (N,)),
    the same arrays, bit for bit, as running ``_closest_points`` over every
    face and taking the first minimum (ties go to the lowest face index).

    Exact pruning: the distance ``reach`` from a point to any vertex that
    some face uses bounds its distance to the closest face, so a face can
    win only if its bounding sphere (centroid ``c``, farthest corner ``r``)
    comes within ``reach`` of the point, ``|p - c| <= reach + r``. Per block
    of points the vertex is the argmin of ``|v|^2 - 2 p.v``, and the test,
    squared and expanded, is one matrix product against a row term plus a
    column term:

        2 (p.c + reach r) >= [(1-d) |p|^2 - reach^2] + [(1-d) |c|^2 - r^2]

    The margin ``d = 8 (n + 5) eps`` in ambient dimension n covers all the
    rounding. With ``s = |p|^2 + |c|^2``, to first order in eps: only a
    face near the boundary ``|p - c| = reach + r`` can be misjudged, and
    there ``(reach + r)^2 <= 2 s`` and ``|p| + |c| + reach + r <= 3 sqrt(s)``.
    At such a face the expanded form, n + 2 terms a side of total size at
    most ``4 s``, is rounded by at most ``2 (n + 2) eps s``. ``reach``,
    ``r`` and the kernel's distance, roots of sums of n squares, are each
    within ``(n + 4) eps / 4`` relative, which moves ``(reach + r)^2`` by at
    most ``3 (n + 4) eps s``. The kernel's point and the centroid, rounded
    by at most ``3 eps`` times the coordinates they combine, add at most
    ``26 eps s``. The sum, ``(5 n + 42) eps s``, stays below ``d s``. A
    point whose row term is not finite keeps every face, so its overflow
    is reported.

    The bound rests on the kernel: up to rounding, its point lies in the
    triangle and is no farther from p than the triangle's nearest corner.
    A sliver whose interior denominator is rounding noise would break
    that, so such a row keeps its interior point only where it is nearer
    than the best edge projection.

    The kernel's products are of fourth degree in the coordinates, so at
    large or small scale they overflow or underflow long before the
    coordinates do. Points and coordinates are therefore scaled by the
    power of two that brings the mesh to unit magnitude, which is exact,
    and the squared distances are scaled back.

    Raises ValueError unless every point and coordinate is finite, and
    when a squared distance is too large for a float.
    """
    if not (np.isfinite(points).all() and np.isfinite(coords).all()):
        raise ValueError("points and mesh coordinates must be finite")
    coords, k = _unit_scaled(coords)
    points = np.ldexp(points, -k)
    a = coords[faces[:, 0]]
    b = coords[faces[:, 1]]
    c = coords[faces[:, 2]]
    # an isolated vertex is on no face, so it bounds nothing
    used = coords[np.bincount(faces.ravel(), minlength=coords.shape[0]) > 0]
    centroid = (a + b + c) / 3.0
    radius_sq = np.maximum.reduce([_sq_distances(x, centroid) for x in (a, b, c)])
    npts, dim = points.shape
    shrink = 1.0 - 8 * (dim + 5) * np.finfo(np.float64).eps
    to_vertex = np.vstack((-2.0 * used.T, np.einsum("vk,vk->v", used, used)))
    to_face = 2.0 * np.vstack((centroid.T, np.sqrt(radius_sq)))
    col = shrink * np.einsum("fk,fk->f", centroid, centroid) - radius_sq
    out_face = np.empty(npts, dtype=np.int64)
    out_bary = np.empty((npts, 3), dtype=np.float64)
    out_sq = np.empty(npts, dtype=np.float64)
    step = max(1, _BLOCK_PAIRS // max(faces.shape[0], used.shape[0]))
    pending, first = [], 0
    for start in range(0, npts, step):
        block = points[start : start + step]
        lifted = np.hstack((block, np.ones((len(block), 1))))
        reach_sq = _sq_distances(block, used[np.argmin(lifted @ to_vertex, axis=1)])
        lifted[:, dim] = np.sqrt(reach_sq)
        row = shrink * np.einsum("ik,ik->i", block, block) - reach_sq
        keep = lifted @ to_face >= row[:, None] + col
        keep[~np.isfinite(row)] = True
        pi, fi = np.nonzero(keep)
        pending.append((pi + start, fi))
        stop = start + len(block)
        if sum(x.size for x, _ in pending) < _KERNEL_PAIRS and stop < npts:
            continue
        pi, fi = map(np.concatenate, zip(*pending))
        bary, sq = _closest_points(points[pi], a[fi], b[fi], c[fi])
        order = np.lexsort((fi, sq, pi))
        best = order[np.flatnonzero(np.diff(pi[order], prepend=-1))]
        rows = slice(first, stop)
        out_face[rows] = fi[best]
        out_bary[rows] = bary[best]
        out_sq[rows] = sq[best]
        pending, first = [], stop
    out_sq = np.ldexp(out_sq, 2 * k)
    bad = np.flatnonzero(~np.isfinite(out_sq))
    if bad.size:
        raise ValueError(f"the squared distance of point {int(bad[0])} to the mesh overflows")
    return out_face, out_bary, out_sq


def decode(mesh, embedding: Embedding, face: int, barycentric) -> np.ndarray:
    """Map a mesh point (face, barycentric) into data space.

    Barycentric coordinates must be non-negative and sum to 1 within
    1e-12; vertex picks like (1, 0, 0) return that vertex exactly.
    """
    b = np.asarray(barycentric, dtype=np.float64)
    if b.shape != (3,):
        raise ValueError(f"barycentric coordinates must be 3 numbers, got shape {b.shape}")
    if (b < 0.0).any() or abs(float(b.sum()) - 1.0) > 1e-12:
        raise ValueError(f"invalid barycentric coordinates {b.tolist()}")
    if not 0 <= face < mesh.face_count:
        raise ValueError(f"face index {face} outside [0, {mesh.face_count})")
    tri = embedding.coords[mesh.faces[face]]
    return b @ tri


def closest_point_on_face(point, triangle) -> tuple[np.ndarray, float]:
    """Exact closest point on one triangle, any ambient dimension.

    The one-face case of :func:`project_points`, so it gets the same
    power-of-two rescale and the same degenerate-triangle fallback.

    Args:
        point: (n,) query.
        triangle: (3, n) vertex coordinates.

    Returns:
        (barycentric (3,), squared distance). Degenerate triangles fall
        back to the best edge or vertex projection.
    """
    p = np.asarray(point, dtype=np.float64)
    tri = np.asarray(triangle, dtype=np.float64)
    if p.ndim != 1 or tri.shape != (3, p.shape[0]):
        raise ValueError(
            f"expected a point (n,) and a triangle (3, n), got {p.shape} and {tri.shape}"
        )
    _, bary, sq = project_points(p[None], tri, np.array([[0, 1, 2]]))
    return bary[0], float(sq[0])


def project_dataset_arrays(
    dataset_points: np.ndarray, embedding: Embedding, mesh
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closest point on the embedded mesh for every point, as arrays.

    Returns (face index, barycentric, squared distance) arrays. Ties in
    squared distance keep the lowest face index. Raises DatasetError for a
    non-finite point or a dimension mismatch, and ValueError when a
    squared distance overflows.
    """
    pts = np.ascontiguousarray(dataset_points, dtype=np.float64)
    if not np.isfinite(pts).all():
        raise DatasetError("dataset contains non-finite values")
    if pts.shape[1] != embedding.ambient_dim:
        raise DatasetError(
            f"dataset dimension {pts.shape[1]} != embedding dimension {embedding.ambient_dim}"
        )
    return project_points(pts, embedding.coords, mesh.faces)


def isometry_coupling(mesh, metric, embedding: Embedding) -> float:
    """Sum over edges of (extrinsic length - intrinsic length)^2.

    This is the only term tying the edge-length variables to the
    embedding: with a piecewise-linear generator the data term alone
    never sees the metric.
    """
    ext = embedding.edge_lengths(mesh)
    d = ext - metric.lengths
    return float(d @ d)
