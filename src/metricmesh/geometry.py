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
form; a single triangle is the one-face case. The report computes an
iterate's slacks, angles and areas from one gather of its face lengths
and carries them, so the optimizer computes an iterate's geometry once:
its loss, gradient and trace row all read the same report.

Angles, areas and slacks run on lengths scaled to unit magnitude, so no
square or sum in them overflows or underflows at any length scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleMetricError, IsolatedVertexError
from .projection import Embedding, _unit_scaled

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MetricField:
    """Positive per-edge lengths in the mesh's lexicographic edge order."""

    lengths: np.ndarray

    def __post_init__(self):
        lengths = np.ascontiguousarray(self.lengths, dtype=np.float64)
        if lengths.ndim != 1 or lengths.shape[0] == 0:
            raise ValueError(f"lengths must be a 1-D array, got shape {lengths.shape}")
        if not np.isfinite(lengths).all() or (lengths <= 0.0).any():
            raise ValueError("edge lengths must be finite and positive")
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


def _face_lengths(mesh, metric: MetricField) -> np.ndarray:
    if metric.edge_count != mesh.edge_count:
        raise ValueError(
            f"metric has {metric.edge_count} lengths, mesh has {mesh.edge_count} edges"
        )
    return metric.lengths[mesh.face_edges]


# The per-face formulas below take the face lengths scaled to unit
# magnitude, (fl, k) from one ``_unit_scaled`` gather, so that
# :func:`curvature_report` can feed all three from a single gather.


def _corner_angles(fl: np.ndarray) -> np.ndarray:
    l_ij, l_jk, l_ki = fl[:, 0], fl[:, 1], fl[:, 2]
    sq_ij, sq_jk, sq_ki = l_ij**2, l_jk**2, l_ki**2
    angles = np.empty_like(fl)
    with np.errstate(invalid="ignore"):
        angles[:, 0] = np.arccos(np.clip((sq_ki + sq_ij - sq_jk) / (2.0 * l_ki * l_ij), -1.0, 1.0))
        angles[:, 1] = np.arccos(np.clip((sq_ij + sq_jk - sq_ki) / (2.0 * l_ij * l_jk), -1.0, 1.0))
        angles[:, 2] = np.arccos(np.clip((sq_jk + sq_ki - sq_ij) / (2.0 * l_jk * l_ki), -1.0, 1.0))
    return angles


@np.errstate(over="ignore")  # an area past the float range comes out as inf
def _areas(fl: np.ndarray, k: int) -> np.ndarray:
    s = -np.sort(-fl, axis=1)
    a, b, c = s[:, 0], s[:, 1], s[:, 2]
    prod = (a + (b + c)) * (c - (a - b)) * ((c + (a - b)) * (a + (b - c)))
    return np.ldexp(0.25 * np.sqrt(np.maximum(prod, 0.0)), 2 * k)


def _slacks(fl: np.ndarray, k: int) -> np.ndarray:
    slack = np.minimum(
        np.minimum(fl[:, 0] + fl[:, 1] - fl[:, 2], fl[:, 1] + fl[:, 2] - fl[:, 0]),
        fl[:, 2] + fl[:, 0] - fl[:, 1],
    )
    return np.ldexp(slack, k)


def face_corner_angles(mesh, metric: MetricField) -> np.ndarray:
    """Angles of shape (F, 3); column j is the angle at vertex faces[f, j].

    Face edges are ordered (i,j), (j,k), (k,i), so the corner at i is
    opposite edge (j,k), at j opposite (k,i), at k opposite (i,j).
    """
    fl, _ = _unit_scaled(_face_lengths(mesh, metric))
    return _corner_angles(fl)


def face_areas(mesh, metric: MetricField) -> np.ndarray:
    """Per-face Heron areas, Kahan ordering applied rowwise."""
    return _areas(*_unit_scaled(_face_lengths(mesh, metric)))


def face_slacks(mesh, metric: MetricField) -> np.ndarray:
    """Per-face minimum triangle-inequality slack min(a+b-c, b+c-a, c+a-b)."""
    return _slacks(*_unit_scaled(_face_lengths(mesh, metric)))


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
    isolated = mesh.isolated_vertices
    if isolated.size:
        raise IsolatedVertexError(
            f"vertex {int(isolated[0])} belongs to no face, so its curvature density "
            f"is undefined ({isolated.size} isolated vertices in the mesh)"
        )
    fl, k = _unit_scaled(_face_lengths(mesh, metric))
    slacks = _slacks(fl, k)
    _require_feasible(mesh, metric, slacks)
    angles = _corner_angles(fl)
    areas = _areas(fl, k)
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
    logs = np.log(_face_lengths(mesh, metric))
    d01 = logs[:, 0] - logs[:, 1]
    d12 = logs[:, 1] - logs[:, 2]
    d20 = logs[:, 2] - logs[:, 0]
    return float(np.sum(d01 * d01 + d12 * d12 + d20 * d20))


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


def _max_deficit(slacks: np.ndarray, margin: float) -> float:
    return float(np.max(margin - slacks))


def max_feasibility_deficit(mesh, metric: MetricField, margin: float) -> float:
    """Largest deficit at ``margin`` over all faces; negative means slack."""
    return _max_deficit(face_slacks(mesh, metric), margin)
