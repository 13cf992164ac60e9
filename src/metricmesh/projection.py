"""Piecewise-linear embeddings and closest-point data projection.

The generator map sends a mesh point, written in barycentric coordinates
on a face, to data space by linear interpolation of per-vertex
coordinates. Projecting a data point back onto the embedded surface is
an exact closest-point computation per face (a two-variable quadratic
over the barycentric simplex, solved in closed form by region
decomposition) minimized over the faces; ties go to the lowest face
index. The batch projection, :func:`.kernels.project_points`, skips the
faces that a nearest-vertex bound rules out, so its result is the same
as a scan over all faces.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import kernels
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
    b0, b1, b2 = kernels._closest_point_single(p, tri[0], tri[1], tri[2])
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
    return kernels.project_points(pts, embedding.coords, mesh.faces)


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
