"""Intrinsic geometry of a metric (per-edge lengths) on a triangle mesh.

Angles come from the cosine rule with the arccos argument clamped to
[-1, 1]; areas use Heron's formula in Kahan's numerically stable
ordering (largest side first). Curvature is the angle defect: 2*pi minus
the incident angle sum at interior vertices, pi minus the sum on the
boundary, which makes the total defect a topological invariant
(Gauss-Bonnet) regardless of the metric.

Every quantity has one implementation, vectorized over the faces:
:func:`face_corner_angles`, :func:`face_areas`, :func:`face_slacks` and
:func:`curvature_report`. The optimizer differentiates them in closed
form; a single triangle is the one-face case. They work on whole rows
of one gather of the face lengths (:func:`_face_rows`), laid out (3, F)
with row r holding edge r of every face; the public (F, 3) results are
transposes. Each public function gathers afresh and keeps nothing; the
loss hands its one gather to private cores (:func:`_report`,
:func:`_dirichlet`) and returns it for the gradient.

Angles, areas and slacks run on lengths scaled to unit magnitude, so no
square or sum in them overflows or underflows at any length scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleMetricError, IsolatedVertexError
from .projection import Embedding

TWO_PI = 2.0 * math.pi
# Row r of ``rows[_NEXT]`` is row r + 1 (mod 3), of ``rows[_PREV]`` row r - 1.
# Corner c is opposite edge c + 1, so ``corner_rows[_PREV]`` is in edge order.
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


@dataclass(frozen=True)
class MetricField:
    """Positive per-edge lengths in the mesh's lexicographic edge order (read-only copy)."""

    lengths: np.ndarray

    def __post_init__(self):
        lengths = np.array(self.lengths, dtype=np.float64)
        if lengths.ndim != 1 or lengths.shape[0] == 0:
            raise ValueError(f"lengths must be a 1-D array, got shape {lengths.shape}")
        if not np.isfinite(lengths).all() or (lengths <= 0.0).any():
            raise ValueError("edge lengths must be finite and positive")
        lengths.setflags(write=False)
        object.__setattr__(self, "lengths", lengths)

    @property
    def edge_count(self) -> int:
        return int(self.lengths.shape[0])

    @classmethod
    def uniform(cls, mesh, value: float) -> "MetricField":
        return cls(np.full(mesh.edge_count, float(value)))

    @classmethod
    def from_embedding(cls, mesh, embedding: Embedding) -> "MetricField":
        """Extrinsic edge lengths of an embedded mesh."""
        return cls(embedding.edge_lengths(mesh))

    def with_jitter(self, rng: np.random.Generator, amount: float) -> "MetricField":
        """Multiplicative jitter, factors uniform in [1-amount, 1+amount].

        The result may violate the triangle inequality on skinny faces;
        run it through the feasibility projection before use.
        """
        if not 0.0 <= amount < 1.0:
            raise ValueError(f"jitter amount must be in [0, 1), got {amount}")
        factors = rng.uniform(1.0 - amount, 1.0 + amount, size=self.lengths.shape)
        return MetricField(self.lengths * factors)


class _FaceRows(NamedTuple):
    """One gather of a metric's face lengths, as (3, F) rows: see _face_rows."""

    unit: np.ndarray    # rows * 2**-k, largest magnitude in [0.5, 1)
    k: int
    slacks: np.ndarray  # (F,) as face_slacks
    rows: np.ndarray    # row r holds edge r, face_edges[:, r], of every face


def _require_edge_count(mesh, metric: MetricField) -> None:
    if metric.edge_count != mesh.edge_count:
        raise ValueError(
            f"metric has {metric.edge_count} lengths, mesh has {mesh.edge_count} edges"
        )


def _face_rows(mesh, metric: MetricField) -> _FaceRows:
    """The face lengths of ``metric`` gathered once, as C-contiguous rows.

    k comes from the longest edge, which is the rows' own scale because
    every edge lies on a face.
    """
    _require_edge_count(mesh, metric)
    rows = metric.lengths[mesh.face_edges.T]
    # math.frexp: np.frexp on a numpy scalar costs more than the rest together
    _, k = math.frexp(float(metric.lengths.max()))
    unit = np.ldexp(rows, -k)
    return _FaceRows(unit, k, _slacks(unit, k), rows)


# The per-face formulas below take the unit rows (and k) of one
# ``_face_rows`` gather.


def _corner_angles(unit: np.ndarray) -> np.ndarray:
    """(3, F) angles; row c holds the angle at corner c, between edges c - 1 and c."""
    sq = unit**2
    # (sq[_PREV] + sq - sq[_NEXT]) / (2.0 * unit[_PREV] * unit), in place;
    # minimum(maximum(.)) is np.clip's result without its Python-level wrapper
    cos = sq[_PREV]
    cos += sq
    cos -= sq[_NEXT]
    den = unit[_PREV]
    den *= 2.0
    den *= unit
    with np.errstate(invalid="ignore"):
        cos /= den
        np.maximum(cos, -1.0, out=cos)
        np.minimum(cos, 1.0, out=cos)
        return np.arccos(cos, out=cos)


@np.errstate(over="ignore")  # an area past the float range comes out as inf
def _areas(unit: np.ndarray, k: int) -> np.ndarray:
    # a >= b >= c picked out by min and max: the values of a descending
    # sort of each face, without sorting along a length-3 axis
    x, y, z = unit
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    a, b, c = np.maximum(hi, z), np.maximum(lo, np.minimum(hi, z)), np.minimum(lo, z)
    prod = (a + (b + c)) * (c - (a - b)) * ((c + (a - b)) * (a + (b - c)))
    return np.ldexp(0.25 * np.sqrt(np.maximum(prod, 0.0)), 2 * k)


def _sums(rows: np.ndarray) -> np.ndarray:
    """(3, F) triangle-inequality sums; row r is edge r + edge r+1 - edge r-1."""
    sums = rows[_NEXT]  # rows + rows[_NEXT] - rows[_PREV], in place
    sums += rows
    sums -= rows[_PREV]
    return sums


def _slacks(unit: np.ndarray, k: int) -> np.ndarray:
    sums = _sums(unit)
    return np.ldexp(np.minimum(np.minimum(sums[0], sums[1]), sums[2]), k)


def face_corner_angles(mesh, metric: MetricField) -> np.ndarray:
    """Angles of shape (F, 3); column j is the angle at vertex faces[f, j].

    Face edges are ordered (i,j), (j,k), (k,i), so the corner at i is
    opposite edge (j,k), at j opposite (k,i), at k opposite (i,j).
    """
    return np.ascontiguousarray(_corner_angles(_face_rows(mesh, metric).unit).T)


def face_areas(mesh, metric: MetricField) -> np.ndarray:
    """Per-face Heron areas, Kahan ordering applied rowwise."""
    rows = _face_rows(mesh, metric)
    return _areas(rows.unit, rows.k)


def face_slacks(mesh, metric: MetricField) -> np.ndarray:
    """Per-face minimum triangle-inequality slack min(a+b-c, b+c-a, c+a-b)."""
    return _face_rows(mesh, metric).slacks


def _require_feasible(mesh, metric: MetricField, slacks: np.ndarray) -> None:
    """Raise unless every face slack of ``metric`` is positive."""
    bad = np.flatnonzero(slacks <= 0.0)
    if bad.size:
        f = int(bad[0])
        raise InfeasibleMetricError(
            f"{bad.size} faces violate the strict triangle inequality, first is face "
            f"{f} with lengths {metric.lengths[mesh.face_edges[f]].tolist()}",
            faces=tuple(int(x) for x in bad[:16]),
        )


@dataclass(frozen=True)
class CurvatureReport:
    """Angle-defect curvature and the area weights that normalize it."""

    defect: np.ndarray       # (V,) 2*pi (interior) or pi (boundary) minus angle sum
    vertex_area: np.ndarray  # (V,) one third of the incident face areas
    face_area: np.ndarray    # (F,)
    total_volume: float      # sum of face areas
    corner_angle: np.ndarray  # (F, 3) as face_corner_angles
    face_slack: np.ndarray    # (F,) as face_slacks

    @property
    def defect_density(self) -> np.ndarray:
        return self.defect / self.vertex_area

    def total_defect(self) -> float:
        return float(np.sum(self.defect))


def curvature_report(mesh, metric: MetricField) -> CurvatureReport:
    """Angle defects, vertex areas, face areas, total volume, corner angles and slacks.

    The slacks (the feasibility check), corner angles and face areas come
    from one gather of the face lengths, bit for bit what
    :func:`face_slacks`, :func:`face_corner_angles` and :func:`face_areas`
    return. Requires an empty ``mesh.isolated_vertices``
    (:class:`IsolatedVertexError` otherwise: an isolated vertex has no
    area, so its density is undefined), a strictly feasible metric and
    areas in float range (``ValueError`` otherwise). Reductions run in
    fixed index order (bincount), so results are deterministic.
    """
    return _report(mesh, metric, _face_rows(mesh, metric))


def _report(mesh, metric: MetricField, rows: _FaceRows) -> CurvatureReport:
    """:func:`curvature_report` from ``rows``, the metric's :func:`_face_rows`."""
    isolated = mesh.isolated_vertices
    if isolated.size:
        raise IsolatedVertexError(
            f"vertex {int(isolated[0])} belongs to no face, so its curvature density "
            f"is undefined ({isolated.size} isolated vertices in the mesh)"
        )
    slacks = rows.slacks
    _require_feasible(mesh, metric, slacks)
    angles = np.ascontiguousarray(_corner_angles(rows.unit).T)
    areas = _areas(rows.unit, rows.k)
    total = float(np.sum(areas))
    if not (math.isfinite(total) and areas.min() > 0.0):
        raise ValueError(
            "face areas are out of float range at this length scale, longest edge "
            f"{float(metric.lengths.max())!r}"
        )
    v = mesh.vertex_count
    angle_sum = np.bincount(mesh.faces.ravel(), weights=angles.ravel(), minlength=v)
    base = np.where(mesh.boundary_vertex, math.pi, TWO_PI)
    defect = base - angle_sum
    vertex_area = np.bincount(
        mesh.faces.ravel(), weights=np.repeat(areas / 3.0, 3), minlength=v
    )
    return CurvatureReport(
        defect=defect,
        vertex_area=vertex_area,
        face_area=areas,
        total_volume=total,
        corner_angle=angles,
        face_slack=slacks,
    )


def curvature_energy(report: CurvatureReport, p: float) -> float:
    """Integrated curvature density: sum_i |R_i|^p * A_i^(1-p).

    p = 1 recovers the total absolute defect (a topological quantity on
    closed meshes, hence useless as a driving term); p = 2 is the
    default quadratic density.
    """
    if p < 1.0:
        raise ValueError(f"curvature exponent p must be >= 1, got {p}")
    return float(np.sum(np.abs(report.defect) ** p * report.vertex_area ** (1.0 - p)))


def dirichlet_energy(mesh, metric: MetricField) -> float:
    """Sum over faces of squared log-length differences of the 3 edge pairs.

    Scale-invariant by construction: multiplying every length by s shifts
    all logs equally.
    """
    _require_edge_count(mesh, metric)
    return _dirichlet(np.log(metric.lengths)[mesh.face_edges.T])


def _dirichlet(logs: np.ndarray) -> float:
    """:func:`dirichlet_energy` from the logs of the (3, F) face rows."""
    d = logs - logs[_NEXT]  # log(l0 / l1), log(l1 / l2), log(l2 / l0)
    sq = d * d
    return float(np.sum(sq[0] + sq[1] + sq[2]))


def volume_penalty(report: CurvatureReport, v_target: float) -> float:
    """Relative quadratic volume penalty ((V - V_t) / V_t)^2."""
    if v_target <= 0.0:
        raise ValueError(f"v_target must be positive, got {v_target}")
    r = (report.total_volume - v_target) / v_target
    return r * r


def check_feasible(mesh, metric: MetricField, margin: float = 0.0) -> list[tuple[int, float]]:
    """Faces whose worst triangle inequality falls short of ``margin``.

    Returns (face index, deficit) pairs with strictly positive deficit
    ``margin - slack``; an empty list means the metric is feasible at the
    given margin.
    """
    deficit = margin - face_slacks(mesh, metric)
    bad = np.flatnonzero(deficit > 0.0)
    return [(int(f), float(deficit[f])) for f in bad]
