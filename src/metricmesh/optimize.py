"""Descent over edge lengths (and optionally vertex positions).

The objective combines data fidelity, curvature, edge-length smoothness,
total-area control, and the isometry coupling:

    total = data + mu_iso * iso
          + lambda * (curvature + mu_dirichlet * dirichlet + mu_volume * volume)

The line search compares the numeric loss, which reprojects the data
onto every candidate embedding: accepted iterates are monotone in the
true loss. The gradient is closed-form array code over the same arrays
(angles, areas, defects, edge lengths) and holds the current projection's
faces and barycentric coordinates fixed, the envelope treatment of the
inner closest-point minimization. A consequence worth testing: the data
term contributes exactly zero gradient to the edge lengths.

Every candidate step is pushed back into the feasible set (triangle
inequality with margin, length floor) before it is evaluated, so every
accepted iterate is strictly feasible. The start metric is repaired by
cyclic projection onto the margin; candidates by an over-relaxed sweep,
which converges in a few sweeps where cyclic projection may run out.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import geometry
from .errors import (
    FeasibilityProjectionError,
    InfeasibleMetricError,
    IsolatedVertexError,
    TapeError,
    TapeNonFiniteError,
)
from .geometry import MetricField
from .projection import (
    Dataset,
    Embedding,
    _unit_scaled,
    isometry_coupling,
    project_dataset_arrays,
)

Projections = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class LossConfig:
    """Weights and feasibility parameters of the objective.

    ``feas_margin``, ``min_length`` and ``v_target`` default to None,
    meaning "derive from the start metric": :func:`run_optimization`
    sets the margin and floor to 1e-4 and 1e-6 times its mean edge length
    and, when ``mu_volume`` is positive, the volume target to its repaired
    total area. :func:`total_loss` needs ``v_target`` when ``mu_volume``
    is positive; when present, the volume column is reported even at
    zero weight.
    """

    lambda_: float = 1.0
    p: float = 2.0
    mu_dirichlet: float = 0.0
    mu_volume: float = 0.0
    mu_iso: float = 0.0
    v_target: float | None = None
    feas_margin: float | None = None
    min_length: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.lambda_) and self.lambda_ >= 0.0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lambda_}")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ValueError(f"p must be finite and >= 1, got {self.p}")
        for name in ("mu_dirichlet", "mu_volume", "mu_iso"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        for name in ("v_target", "feas_margin", "min_length"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive when given, got {v}")


@dataclass(frozen=True)
class LossBreakdown:
    """Unweighted term values plus the weighted total."""

    data: float
    curvature: float
    dirichlet: float
    volume: float
    iso: float
    total: float


def total_loss(
    mesh,
    metric: MetricField,
    embedding: Embedding,
    dataset: Dataset | None,
    config: LossConfig,
    projections: Projections | None = None,
) -> LossBreakdown:
    """Numeric objective at one point; raises on an infeasible metric.

    ``projections`` takes the (faces, barycentric, squared distance)
    tuple of :func:`project_dataset_arrays` to reuse a projection pass;
    when omitted and a dataset is present, points are reprojected, which
    is what makes the reported loss the true one. A positive
    ``mu_volume`` without a ``v_target`` raises ``ValueError``.
    """
    if config.mu_volume > 0.0 and config.v_target is None:
        raise ValueError("mu_volume > 0 requires v_target")
    report = geometry.curvature_report(mesh, metric)
    curv = geometry.curvature_energy(report, config.p)
    diri = geometry.dirichlet_energy(mesh, metric)
    vol = (
        geometry.volume_penalty(report, config.v_target)
        if config.v_target is not None
        else 0.0
    )
    iso = isometry_coupling(mesh, metric, embedding)
    if dataset is None:
        data = 0.0
    else:
        if projections is None:
            projections = project_dataset_arrays(dataset.points, embedding, mesh)
        data = float(np.sum(projections[2]))
    total = data + config.mu_iso * iso + config.lambda_ * (
        curv + config.mu_dirichlet * diri + config.mu_volume * vol
    )
    return LossBreakdown(
        data=data, curvature=curv, dirichlet=diri, volume=vol, iso=iso, total=total
    )


# --------------------------------------------------------------------------
# Gradient


def _gradient(
    mesh,
    metric: MetricField,
    embedding: Embedding,
    dataset: Dataset | None,
    config: LossConfig,
    projections: Projections | None,
    freeze_embedding: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """(length gradient, flattened coordinate gradient or None if frozen).

    Closed form of the gradient of :func:`total_loss` with the faces and
    barycentric coordinates of ``projections`` held fixed. Corner angles
    and face areas are differentiated with the edge-length identities
    d(theta_i)/d(l_i) = l_i / (2A), d(theta_i)/d(l_j) = -l_i cos(theta_k) / (2A)
    and dA/d(l_i) = l_i cot(theta_i) / 2 (Springborn, Schroeder & Pinkall,
    "Conformal equivalence of triangle meshes", 2008).

    Terms with zero weight are skipped, not multiplied by zero: with
    lambda = mu_iso = 0 the length gradient is exactly zero. At a zero
    defect the subgradient of |defect| is taken to be +1.
    """
    coords = embedding.coords
    ndim = coords.shape[1]
    g_len = np.zeros(metric.edge_count)
    g_coord = None if freeze_embedding else np.zeros(coords.size)

    def scatter(vertices, rows):
        """Sum (..., ndim) rows into the flat coordinate gradient by vertex."""
        idx = vertices[..., None] * ndim + np.arange(ndim)
        return np.bincount(idx.ravel(), weights=rows.ravel(), minlength=coords.size)

    if dataset is not None and g_coord is not None:
        corners = mesh.faces[projections[0]]
        bary = projections[1]
        resid = np.einsum("nk,nkd->nd", bary, coords[corners]) - dataset.points
        g_coord += scatter(corners, 2.0 * bary[:, :, None] * resid[:, None, :])

    if config.mu_iso > 0.0:
        ext = embedding.edge_lengths(mesh)
        gap = 2.0 * config.mu_iso * (ext - metric.lengths)
        g_len -= gap
        if g_coord is not None:
            edges = mesh.edges
            # a zero-length edge makes this non-finite, reported below
            with np.errstate(divide="ignore", invalid="ignore"):
                pull = (gap / ext)[:, None] * (coords[edges[:, 0]] - coords[edges[:, 1]])
            g_coord += scatter(edges, np.stack((pull, -pull), axis=1))

    if config.lambda_ > 0.0:
        report = geometry.curvature_report(mesh, metric)
        p = config.p
        mag = np.abs(report.defect)
        sign = np.where(report.defect >= 0.0, 1.0, -1.0)
        d_defect = p * mag ** (p - 1.0) * sign * report.vertex_area ** (1.0 - p)
        d_vertex_area = (1.0 - p) * mag**p * report.vertex_area ** (-p)
        # Column c of ``opp`` is the edge opposite the corner at faces[f, c].
        opp = mesh.face_edges[:, [1, 2, 0]]
        sides = metric.lengths[opp]
        cos = np.cos(geometry.face_corner_angles(mesh, metric))
        w_angle = -d_defect[mesh.faces] * sides
        w_area = d_vertex_area[mesh.faces].sum(axis=1) / 3.0
        if config.mu_volume > 0.0:
            # formed at unit scale like the side product below: v_t * v_t
            # leaves the float range long before v_t does
            (vol, v_t), j = _unit_scaled(np.array([report.total_volume, config.v_target]))
            w_area += np.ldexp(config.mu_volume * 2.0 * (vol - v_t) / (v_t * v_t), -j)
        # The side product is formed at unit scale, the numerator and the
        # area are divided by 2**(2k) to match. Power-of-two scaling is
        # exact: the bits are the raw formula's wherever that one neither
        # overflows nor underflows.
        unit_sides, k = _unit_scaled(sides)
        g_face = (
            np.ldexp(
                w_angle
                - np.roll(w_angle, -1, axis=1) * np.roll(cos, -2, axis=1)
                - np.roll(w_angle, -2, axis=1) * np.roll(cos, -1, axis=1),
                -2 * k,
            )
            + 0.5 * (w_area * np.ldexp(unit_sides.prod(axis=1), k))[:, None] * cos
        ) / (2.0 * np.ldexp(report.face_area, -2 * k))[:, None]
        if config.mu_dirichlet > 0.0:
            logs = np.log(sides)
            spread = 3.0 * logs - logs.sum(axis=1, keepdims=True)
            g_face += config.mu_dirichlet * 2.0 * spread / sides
        g_len += config.lambda_ * np.bincount(
            opp.ravel(), weights=g_face.ravel(), minlength=metric.edge_count
        )

    if not np.isfinite(g_len).all() or (g_coord is not None and not np.isfinite(g_coord).all()):
        raise TapeNonFiniteError("the loss gradient is non-finite")
    return g_len, g_coord


def loss_gradient(
    mesh,
    metric: MetricField,
    embedding: Embedding,
    dataset: Dataset | None,
    config: LossConfig,
    freeze_embedding: bool = False,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """One-shot (value, length gradient, coordinate gradient).

    The value is the true numeric loss; the gradients are its closed form
    with the closest-point faces and barycentric coordinates held fixed.
    """
    proj = None
    if dataset is not None:
        proj = project_dataset_arrays(dataset.points, embedding, mesh)
    value = total_loss(mesh, metric, embedding, dataset, config, projections=proj).total
    g_len, g_coord = _gradient(mesh, metric, embedding, dataset, config, proj, freeze_embedding)
    return value, g_len, g_coord


# --------------------------------------------------------------------------
# Feasibility projection


def feasibility_projection(
    mesh,
    metric: MetricField,
    feas_margin: float,
    min_length: float,
    max_sweeps: int = 50,
    *,
    relaxation: float = 1.0,
) -> MetricField:
    """Push a metric into the feasible set by local triangle repairs.

    Sweeps faces in index order; a face whose worst triangle inequality
    falls short of the margin has its two short sides raised and its long
    side lowered by a third of ``relaxation`` times the deficit each,
    slightly overshot so repeated visits cannot ping-pong below the margin,
    plus an absolute floor of a few ulps so that even deficits too small to
    register in one addition still make progress. Each repair sees the
    lengths the faces before it left, so the order is part of the result;
    an oracle test pins it bit for bit. Lengths never drop below
    ``min_length``. Already feasible input is returned unchanged (the same
    object). A margin or floor that is not finite and positive, or a
    relaxation outside [1, 2), raises ``ValueError``.

    ``relaxation`` = 1 is cyclic projection: each face step lands exactly
    on the margin, so a neighbour's next step can push it back below, and
    the sweep count grows with the starting deficit (convergence is only
    linear). Over-relaxing (1 < relaxation < 2) carries each face past the
    margin into the interior, which converges in far fewer sweeps but moves
    the lengths further than needed. :func:`run_optimization` repairs its
    start metric at 1, which moves it least, and its line-search candidates
    at 1.5, where a cheap repair matters more than a minimal one.
    """
    # plain floats: a numpy-scalar argument would slow the sweep or round in float32
    feas_margin, min_length = float(feas_margin), float(min_length)
    relaxation = float(relaxation)
    for name, value in (("feas_margin", feas_margin), ("min_length", min_length)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if not 1.0 <= relaxation < 2.0:
        raise ValueError(f"relaxation must be in [1, 2), got {relaxation}")
    slacks = geometry.face_slacks(mesh, metric)
    if (slacks >= feas_margin).all() and (metric.lengths >= min_length).all():
        return metric

    lengths = np.maximum(metric.lengths, min_length).tolist()
    face_edges = mesh.face_edges.tolist()
    overshoot = relaxation * (1.0 + 1e-9)  # one multiply per repair, as at relaxation 1
    for _ in range(max_sweeps):
        changed = False
        for e0, e1, e2 in face_edges:
            x0, x1, x2 = lengths[e0], lengths[e1], lengths[e2]
            s0 = x0 + x1 - x2
            s1 = x1 + x2 - x0
            s2 = x2 + x0 - x1
            if s0 <= s1 and s0 <= s2:
                smin, lo_a, lo_b, hi = s0, e0, e1, e2
            elif s1 <= s2:
                smin, lo_a, lo_b, hi = s1, e1, e2, e0
            else:
                smin, lo_a, lo_b, hi = s2, e2, e0, e1
            deficit = feas_margin - smin
            if deficit <= 0.0:
                continue
            step = max(deficit * overshoot, 8.0 * math.ulp(max(x0, x1, x2))) / 3.0
            lengths[lo_a] += step
            lengths[lo_b] += step
            lengths[hi] = max(lengths[hi] - step, min_length)
            changed = True
        if not changed:
            break
    result = MetricField(np.array(lengths))
    bad = geometry.check_feasible(mesh, result, feas_margin)
    if bad:
        raise FeasibilityProjectionError(
            f"{len(bad)} faces still below margin {feas_margin} after "
            f"{max_sweeps} sweeps, worst deficit {max(d for _, d in bad)}",
            faces=tuple(f for f, _ in bad[:16]),
        )
    return result


# --------------------------------------------------------------------------
# Descent loop


@dataclass(frozen=True)
class StopRule:
    """Termination thresholds; ``loss_tol`` of 0 disables that check."""

    max_iters: int = 5000
    grad_tol: float = 1e-6
    loss_tol: float = 0.0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        for name in ("grad_tol", "loss_tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class TraceRow:
    """One accepted iterate; row 0 is the projected initial state."""

    iteration: int
    eta: float
    l_data: float
    l_curv: float
    l_dirichlet: float
    l_vol: float
    l_iso: float
    l_total: float
    max_deficit: float
    grad_norm: float

    @classmethod
    def fields(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))


@dataclass(frozen=True)
class IterationState:
    """Snapshot handed to the per-iteration callback."""

    row: TraceRow
    metric: MetricField
    embedding: Embedding
    grad_lengths: np.ndarray
    grad_coords: np.ndarray | None


@dataclass(frozen=True)
class OptimizationResult:
    rows: list[TraceRow]
    stop_reason: str
    metric: MetricField
    embedding: Embedding
    config: LossConfig

    @property
    def iterations(self) -> int:
        return len(self.rows) - 1

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]


def _start(mesh, metric: MetricField, config: LossConfig) -> tuple[MetricField, LossConfig]:
    """The descent's start: ``metric`` repaired, every unset setting resolved.

    An unset margin and floor are 1e-4 and 1e-6 times ``metric``'s mean
    edge length. The metric is repaired at relaxation 1; an unset volume
    target with a positive ``mu_volume`` is the repaired metric's total area.
    """
    if config.feas_margin is None or config.min_length is None:
        mean = float(np.mean(metric.lengths))
        config = dataclasses.replace(
            config,
            feas_margin=config.feas_margin if config.feas_margin is not None else 1e-4 * mean,
            min_length=config.min_length if config.min_length is not None else 1e-6 * mean,
        )
    metric = feasibility_projection(mesh, metric, config.feas_margin, config.min_length)
    if config.mu_volume > 0.0 and config.v_target is None:
        volume = geometry.curvature_report(mesh, metric).total_volume
        config = dataclasses.replace(config, v_target=volume)
    return metric, config


# Backtracking halves the step this many times before giving up, which
# spans about six orders of magnitude from the warm-started step.
_MAX_BACKTRACKS = 20

# Over-relaxation of the line-search candidates' repair. At 1 (cyclic
# projection) a candidate far outside the feasible set often runs out of
# sweeps; at 1.5 it is repaired in a few.
_CANDIDATE_RELAXATION = 1.5


def run_optimization(
    mesh,
    metric: MetricField,
    embedding: Embedding,
    dataset: Dataset | None,
    config: LossConfig,
    stop: StopRule | None = None,
    eta_init: float = 1e-2,
    freeze_embedding: bool = False,
    on_iteration: Callable[[IterationState], None] | None = None,
) -> OptimizationResult:
    """Projected gradient descent with backtracking line search.

    An unset margin and floor in ``config`` are derived from the initial
    metric's mean edge length (1e-4 and 1e-6 times it). The initial
    metric is then projected to feasibility, so row 0 of the trace is
    already a feasible point, and an unset volume target with a positive
    ``mu_volume`` becomes its total area; ``result.config`` holds the
    values used. Each iteration takes one gradient, then tries steps eta,
    eta/2, ... until the candidate (after its own feasibility projection)
    does not increase the true loss; the accepted step is doubled as the
    next iteration's first try. The start metric is
    repaired at relaxation 1 and candidates at 1.5 (see
    :func:`feasibility_projection`); a candidate whose repair fails is one
    more halving of the step. Stop reasons:
    ``grad_tol``, ``loss_tol``, ``max_iters``, ``stalled``. A mesh with a
    vertex that belongs to no face raises :class:`IsolatedVertexError`.
    """
    if eta_init <= 0.0 or not math.isfinite(eta_init):
        raise ValueError(f"eta_init must be positive and finite, got {eta_init}")
    stop = stop if stop is not None else StopRule()
    isolated = np.flatnonzero(np.bincount(mesh.faces.ravel(), minlength=mesh.vertex_count) == 0)
    if isolated.size:
        raise IsolatedVertexError(
            f"vertex {int(isolated[0])} belongs to no face, so its curvature density "
            f"is undefined ({isolated.size} isolated vertices in the mesh)"
        )
    metric, config = _start(mesh, metric, config)

    proj = None
    if dataset is not None:
        proj = project_dataset_arrays(dataset.points, embedding, mesh)
    losses = total_loss(mesh, metric, embedding, dataset, config, projections=proj)

    rows: list[TraceRow] = []
    eta_used = 0.0
    eta_next = eta_init
    k = 0
    while True:
        g_len, g_coord = _gradient(
            mesh, metric, embedding, dataset, config, proj, freeze_embedding
        )
        sq = float(g_len @ g_len)
        if g_coord is not None:
            sq += float(g_coord @ g_coord)
        grad_norm = math.sqrt(sq)
        row = TraceRow(
            iteration=k,
            eta=eta_used,
            l_data=losses.data,
            l_curv=losses.curvature,
            l_dirichlet=losses.dirichlet,
            l_vol=losses.volume,
            l_iso=losses.iso,
            l_total=losses.total,
            max_deficit=geometry.max_feasibility_deficit(mesh, metric, config.feas_margin),
            grad_norm=grad_norm,
        )
        rows.append(row)
        if on_iteration is not None:
            on_iteration(IterationState(row, metric, embedding, g_len, g_coord))
        if grad_norm <= stop.grad_tol:
            reason = "grad_tol"
            break
        if stop.loss_tol > 0.0 and k > 0 and abs(rows[-2].l_total - row.l_total) <= stop.loss_tol:
            reason = "loss_tol"
            break
        if k >= stop.max_iters:
            reason = "max_iters"
            break

        accepted = None
        eta = eta_next
        for _ in range(_MAX_BACKTRACKS + 1):
            cand_lengths = np.maximum(metric.lengths - eta * g_len, config.min_length)
            try:
                cand_metric = feasibility_projection(
                    mesh, MetricField(cand_lengths), config.feas_margin, config.min_length,
                    relaxation=_CANDIDATE_RELAXATION,
                )
            except (ValueError, FeasibilityProjectionError):
                eta *= 0.5
                continue
            if g_coord is not None:
                new_coords = embedding.coords - eta * g_coord.reshape(embedding.coords.shape)
                try:
                    cand_emb = embedding.with_coords(new_coords)
                except ValueError:
                    eta *= 0.5
                    continue
            else:
                cand_emb = embedding
            cand_proj = proj
            if dataset is not None and g_coord is not None:
                try:
                    cand_proj = project_dataset_arrays(dataset.points, cand_emb, mesh)
                except ValueError:  # a squared distance overflows
                    eta *= 0.5
                    continue
            # cannot raise InfeasibleMetricError: every slack is >= feas_margin > 0
            cand_losses = total_loss(
                mesh, cand_metric, cand_emb, dataset, config, projections=cand_proj
            )
            if cand_losses.total <= losses.total:
                accepted = (cand_metric, cand_emb, cand_proj, cand_losses)
                break
            eta *= 0.5
        if accepted is None:
            reason = "stalled"
            break
        metric, embedding, proj, losses = accepted
        eta_used = eta
        eta_next = eta * 2.0
        k += 1

    return OptimizationResult(
        rows=rows,
        stop_reason=reason,
        metric=metric,
        embedding=embedding,
        config=config,
    )


# --------------------------------------------------------------------------
# Regularization sweep


@dataclass(frozen=True)
class SweepRecord:
    """Outcome at one regularization weight; ``result`` is None on failure."""

    lambda_: float
    status: str  # "ok" or "failed"
    detail: str  # stop reason, or the error for failed entries
    result: OptimizationResult | None


def sweep_weights(lambdas: Iterable) -> list[float]:
    """The weights as floats; ValueError unless non-empty, finite, >= 0, ascending."""
    lam = [float(x) for x in lambdas]
    if not lam or not all(math.isfinite(x) and x >= 0.0 for x in lam) or lam != sorted(lam):
        raise ValueError(f"sweep weights must be finite, >= 0 and ascending, got {lam}")
    return lam


def lambda_sweep(
    mesh,
    metric: MetricField,
    embedding: Embedding,
    dataset: Dataset | None,
    config: LossConfig,
    lambdas: Sequence[float],
    stop: StopRule | None = None,
    eta_init: float = 1e-2,
    freeze_embedding: bool = False,
) -> list[SweepRecord]:
    """Optimize at each weight, warm-starting from the previous optimum.

    The weights are checked by :func:`sweep_weights`. The start is
    prepared once, as :func:`run_optimization` prepares it: the unset
    margin, floor and volume target are derived from the starting metric
    and shared by every run, and a starting metric that cannot be repaired
    raises :class:`FeasibilityProjectionError` before the first weight. A
    failed run is recorded and the sweep continues from the last
    successful state, so one bad weight does not void the rest.
    """
    lam = sweep_weights(lambdas)
    metric, config = _start(mesh, metric, config)
    records: list[SweepRecord] = []
    cur_metric, cur_emb = metric, embedding
    for lv in lam:
        cfg = dataclasses.replace(config, lambda_=lv)
        try:
            res = run_optimization(
                mesh,
                cur_metric,
                cur_emb,
                dataset,
                cfg,
                stop=stop,
                eta_init=eta_init,
                freeze_embedding=freeze_embedding,
            )
        except (InfeasibleMetricError, FeasibilityProjectionError, TapeError) as exc:
            records.append(
                SweepRecord(lv, "failed", f"{type(exc).__name__}: {exc}", None)
            )
            continue
        records.append(SweepRecord(lv, "ok", res.stop_reason, res))
        cur_metric, cur_emb = res.metric, res.embedding
    return records
