"""Piecewise-linear embeddings and closest-point data projection.

The generator map sends a mesh point, written in barycentric coordinates
on a face, to data space by linear interpolation of per-vertex
coordinates. Projecting a data point back onto the embedded surface is
an exact closest-point computation per face (a two-variable quadratic
over the barycentric simplex, solved in closed form by region
decomposition) minimized over the faces; ties go to the lowest face
index. The batch projection, :func:`project_points`, evaluates only the
faces that a nearest-vertex bound cannot rule out, so its result is the
same, bit for bit, as a scan over all faces.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError


@dataclass(frozen=True)
class Embedding:
    """Per-vertex coordinates in data space, shape (V, n)."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[0] == 0 or coords.shape[1] == 0:
            raise ValueError(f"embedding coords must have shape (V, n), got {coords.shape}")
        if not np.isfinite(coords).all():
            raise ValueError("embedding coords must be finite")
        object.__setattr__(self, "coords", coords)

    @property
    def vertex_count(self) -> int:
        return int(self.coords.shape[0])

    @property
    def ambient_dim(self) -> int:
        return int(self.coords.shape[1])

    def edge_lengths(self, mesh) -> np.ndarray:
        """Extrinsic length of every mesh edge under this embedding."""
        d = self.coords[mesh.edges[:, 0]] - self.coords[mesh.edges[:, 1]]
        return np.sqrt(np.einsum("ek,ek->e", d, d))

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
        """Read one point per row; a non-numeric first row is a header."""
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        rows = [r for r in csv.reader(io.StringIO(text)) if r and any(c.strip() for c in r)]
        if not rows:
            raise DatasetError("empty dataset file")
        start = 0
        try:
            [float(c) for c in rows[0]]
        except ValueError:
            start = 1
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


@dataclass(frozen=True)
class ProjectionResult:
    """Closest point on the embedded surface for one data point."""

    point_id: int
    face: int
    barycentric: tuple[float, float, float]
    sq_distance: float


# --------------------------------------------------------------------------
# Closest point on a triangle, single and batched over (point, face) pairs.
#
# Classic region decomposition on the barycentric-coordinate plane. Works
# in any ambient dimension since only dot products of edge vectors enter.
# Degenerate (collinear) triangles fall back to the best edge projection.


def _closest_point_single(p, a, b, c):
    """Barycentric coordinates of the point on triangle abc closest to p."""
    n = p.shape[0]
    d1 = 0.0
    d2 = 0.0
    d3 = 0.0
    d4 = 0.0
    d5 = 0.0
    d6 = 0.0
    for k in range(n):
        ab = b[k] - a[k]
        ac = c[k] - a[k]
        ap = p[k] - a[k]
        bp = p[k] - b[k]
        cp = p[k] - c[k]
        d1 += ab * ap
        d2 += ac * ap
        d3 += ab * bp
        d4 += ac * bp
        d5 += ab * cp
        d6 += ac * cp
    if d1 <= 0.0 and d2 <= 0.0:
        return 1.0, 0.0, 0.0
    if d3 >= 0.0 and d4 <= d3:
        return 0.0, 1.0, 0.0
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        v = d1 / (d1 - d3)
        return 1.0 - v, v, 0.0
    if d6 >= 0.0 and d5 <= d6:
        return 0.0, 0.0, 1.0
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        w = d2 / (d2 - d6)
        return 1.0 - w, 0.0, w
    va = d3 * d6 - d4 * d5
    if va <= 0.0 and d4 - d3 >= 0.0 and d5 - d6 >= 0.0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return 0.0, 1.0 - w, w
    denom = va + vb + vc
    if denom > 0.0 and math.isfinite(denom):
        v = vb / denom
        w = vc / denom
        return 1.0 - v - w, v, w
    # Degenerate triangle: best of the three edge projections.
    best_sq = math.inf
    b0 = 1.0
    b1 = 0.0
    b2 = 0.0
    for e in range(3):
        if e == 0:
            u0, u1 = a, b
        elif e == 1:
            u0, u1 = b, c
        else:
            u0, u1 = c, a
        dd = 0.0
        dn = 0.0
        for k in range(n):
            ev = u1[k] - u0[k]
            dd += ev * ev
            dn += ev * (p[k] - u0[k])
        t = 0.0
        if dd > 0.0:
            t = dn / dd
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
        sq = 0.0
        for k in range(n):
            q = u0[k] + t * (u1[k] - u0[k])
            r = p[k] - q
            sq += r * r
        if sq < best_sq:
            best_sq = sq
            if e == 0:
                b0, b1, b2 = 1.0 - t, t, 0.0
            elif e == 1:
                b0, b1, b2 = 0.0, 1.0 - t, t
            else:
                b0, b1, b2 = t, 0.0, 1.0 - t
    return b0, b1, b2


def _closest_points(p, a, b, c):
    """Closest point on triangle (a_i, b_i, c_i) to p_i for every row i.

    Takes (M, n) arrays and returns (barycentric (M, 3), squared distance
    (M,)). Mirrors the branch order of ``_closest_point_single`` through a
    first-true-wins select, and hands interior rows with a degenerate
    denominator to it.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    bp = p - b
    cp = p - c
    d1 = np.einsum("ik,ik->i", ab, ap)
    d2 = np.einsum("ik,ik->i", ac, ap)
    d3 = np.einsum("ik,ik->i", ab, bp)
    d4 = np.einsum("ik,ik->i", ac, bp)
    d5 = np.einsum("ik,ik->i", ab, cp)
    d6 = np.einsum("ik,ik->i", ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d4 * d5
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
    bad = interior & ~((denom > 0.0) & np.isfinite(denom))
    for i in np.flatnonzero(bad):
        b0[i], b1[i], b2[i] = _closest_point_single(p[i], a[i], b[i], c[i])
    r = p - (b0[:, None] * a + b1[:, None] * b + b2[:, None] * c)
    return np.stack((b0, b1, b2), axis=1), np.einsum("ik,ik->i", r, r)


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


# Points go through the bound stage in blocks of about this many point x
# face (or point x vertex) distances, which keeps the temporaries small.
_BLOCK_PAIRS = 1 << 14

# Relative slack on the pruning bound. It is far above the rounding in
# the distances that enter the bound, so a face that can win (or tie) is
# never dropped; the extra faces it admits cost next to nothing.
_PRUNE_SLACK = 1e-6


def project_points(points, coords, faces):
    """Closest point on the triangle mesh ``coords[faces]`` for every point.

    Returns (face index (N,), barycentric (N, 3), squared distance (N,)),
    the same arrays, bit for bit, as running ``_closest_points`` over every
    face and taking the first minimum: ties go to the lowest face index.

    Exact pruning: the distance ``reach`` from a point to the nearest
    vertex that some face uses bounds its distance to the closest face, so
    a face can win only if its bounding sphere (centroid, farthest corner
    ``r``) comes within ``reach`` of the point, ``|p - c| <= reach + r``.
    The kernel runs only on the (point, face) pairs that pass.

    The kernel's products are of fourth degree in the coordinates, so at
    large or small scale they overflow or underflow long before the
    coordinates do. Points and coordinates are therefore scaled by the
    power of two that brings the mesh to unit magnitude, which is exact,
    and the squared distances are scaled back.
    """
    _, k = np.frexp(np.abs(coords).max(initial=0.0))
    points = np.ldexp(points, -k)
    coords = np.ldexp(coords, -k)
    a = coords[faces[:, 0]]
    b = coords[faces[:, 1]]
    c = coords[faces[:, 2]]
    # an isolated vertex is on no face, so it bounds nothing
    used = coords[np.bincount(faces.ravel(), minlength=coords.shape[0]) > 0]
    centroid = (a + b + c) / 3.0
    radius = np.sqrt(np.maximum.reduce([_sq_distances(x, centroid) for x in (a, b, c)]))
    npts = points.shape[0]
    out_face = np.empty(npts, dtype=np.int64)
    out_bary = np.empty((npts, 3), dtype=np.float64)
    out_sq = np.empty(npts, dtype=np.float64)
    step = max(1, _BLOCK_PAIRS // max(faces.shape[0], used.shape[0]))
    for start in range(0, npts, step):
        block = points[start : start + step]
        reach = np.sqrt(_sq_distances(block[:, None], used).min(axis=1))
        bound = (reach[:, None] + radius[None, :]) * (1.0 + _PRUNE_SLACK)
        pi, fi = np.nonzero(np.sqrt(_sq_distances(block[:, None], centroid)) <= bound)
        bary, sq = _closest_points(block[pi], a[fi], b[fi], c[fi])
        order = np.lexsort((fi, sq, pi))
        best = order[np.flatnonzero(np.diff(pi[order], prepend=-1))]
        rows = slice(start, start + block.shape[0])
        out_face[rows] = fi[best]
        out_bary[rows] = bary[best]
        out_sq[rows] = sq[best]
    return out_face, out_bary, np.ldexp(out_sq, 2 * k)


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

    Args:
        point: (n,) query.
        triangle: (3, n) vertex coordinates.

    Returns:
        (barycentric (3,), squared distance). Degenerate triangles fall
        back to the best edge or vertex projection.
    """
    p = np.ascontiguousarray(point, dtype=np.float64)
    tri = np.ascontiguousarray(triangle, dtype=np.float64)
    b0, b1, b2 = _closest_point_single(p, tri[0], tri[1], tri[2])
    q = b0 * tri[0] + b1 * tri[1] + b2 * tri[2]
    r = p - q
    return np.array([b0, b1, b2]), float(r @ r)


def project_dataset_arrays(
    dataset_points: np.ndarray, embedding: Embedding, mesh
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closest point on the embedded mesh for every point, as arrays.

    Returns (face index, barycentric, squared distance) arrays. Ties in
    squared distance keep the lowest face index.
    """
    pts = np.ascontiguousarray(dataset_points, dtype=np.float64)
    if pts.shape[1] != embedding.ambient_dim:
        raise DatasetError(
            f"dataset dimension {pts.shape[1]} != embedding dimension {embedding.ambient_dim}"
        )
    return project_points(pts, embedding.coords, mesh.faces)


def project_dataset(dataset: Dataset, embedding: Embedding, mesh) -> list[ProjectionResult]:
    """Closest point on the embedded mesh for every dataset point."""
    faces, bary, sq = project_dataset_arrays(dataset.points, embedding, mesh)
    return [
        ProjectionResult(
            point_id=i,
            face=int(faces[i]),
            barycentric=(float(bary[i, 0]), float(bary[i, 1]), float(bary[i, 2])),
            sq_distance=float(sq[i]),
        )
        for i in range(dataset.size)
    ]


def data_fidelity(projections) -> float:
    """Sum of squared point-to-surface distances.

    Accepts a list of :class:`ProjectionResult` or a raw squared-distance
    array. Empty input gives 0.
    """
    if isinstance(projections, np.ndarray):
        return float(np.sum(projections))
    return float(sum(p.sq_distance for p in projections))


def isometry_coupling(mesh, metric, embedding: Embedding) -> float:
    """Sum over edges of (extrinsic length - intrinsic length)^2.

    This is the only term tying the edge-length variables to the
    embedding: with a piecewise-linear generator the data term alone
    never sees the metric.
    """
    ext = embedding.edge_lengths(mesh)
    d = ext - metric.lengths
    return float(d @ d)
