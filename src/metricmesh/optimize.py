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

The step is scale-free: the first trial step moves the largest gradient
component by one mean edge length, and each later one is the
Barzilai-Borwein step of the last accepted move, capped at 4 times that
move. Backtracking halves a trial step until the loss does not rise.

The start metric and every candidate step are pushed into the feasible
set (triangle inequality with margin, length floor) by one over-relaxed
repair sweep before they are evaluated, so every accepted iterate is
strictly feasible.

Each iterate's geometry is computed once and carried: the loss that
evaluates a candidate returns its curvature report (angles, areas,
defects, slacks), and once the candidate is accepted its gradient and
trace row read it instead of recomputing. The extrinsic edge lengths
need no carrier: the candidate's embedding memoizes them.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import geometry
from .errors import (
    FeasibilityProjectionError,
    InfeasibleMetricError,
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
    """Unweighted term values plus the weighted total.

    ``report`` is the curvature report the terms were computed from; it
    takes no part in equality or ``repr``. The descent carries it to the
    gradient and trace row of the iterate it accepts.
    """

    data: float
    curvature: float
    dirichlet: float
    volume: float
    iso: float
    total: float
    report: geometry.CurvatureReport | None = field(default=None, compare=False, repr=False)


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
        data=data,
        curvature=curv,
        dirichlet=diri,
        volume=vol,
        iso=iso,
        total=total,
        report=report,
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
    report: geometry.CurvatureReport,
    freeze_embedding: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """(length gradient, flattened coordinate gradient or None if frozen).

    Closed form of the gradient of :func:`total_loss` with the faces and
    barycentric coordinates of ``projections`` held fixed. ``report`` is
    the curvature report of :func:`total_loss` at the same point, and the
    extrinsic lengths are the ones :func:`isometry_coupling` memoized on
    the embedding there: neither is computed again. Corner angles and face
    areas are differentiated with the edge-length identities
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
        p = config.p
        mag = np.abs(report.defect)
        sign = np.where(report.defect >= 0.0, 1.0, -1.0)
        d_defect = p * mag ** (p - 1.0) * sign * report.vertex_area ** (1.0 - p)
        d_vertex_area = (1.0 - p) * mag**p * report.vertex_area ** (-p)
        # Column c of ``opp`` is the edge opposite the corner at faces[f, c].
        opp = mesh.face_edges[:, [1, 2, 0]]
        sides = metric.lengths[opp]
        cos = np.cos(report.corner_angle)
        w_angle = -d_defect[mesh.faces] * sides
        corner_area = d_vertex_area[mesh.faces]
        # Row sums and products are written out, in the order numpy's axis-1
        # reductions use but without their cost. numpy's sum starts from +0.0,
        # so a row of three -0.0 gives -0.0 here: a zero whose sign the
        # bincount into g_len below drops.
        w_area = (corner_area[:, 0] + corner_area[:, 1] + corner_area[:, 2]) / 3.0
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
        side_product = unit_sides[:, 0] * unit_sides[:, 1] * unit_sides[:, 2]
        # Columns (1, 2, 0) and (2, 0, 1) hold the next and the previous corner.
        g_face = (
            np.ldexp(
                w_angle
                - w_angle[:, (1, 2, 0)] * cos[:, (2, 0, 1)]
                - w_angle[:, (2, 0, 1)] * cos[:, (1, 2, 0)],
                -2 * k,
            )
            + 0.5 * (w_area * np.ldexp(side_product, k))[:, None] * cos
        ) / (2.0 * np.ldexp(report.face_area, -2 * k))[:, None]
        if config.mu_dirichlet > 0.0:
            logs = np.log(sides)
            spread = 3.0 * logs - (logs[:, 0] + logs[:, 1] + logs[:, 2])[:, None]
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
    losses = total_loss(mesh, metric, embedding, dataset, config, projections=proj)
    g_len, g_coord = _gradient(
        mesh, metric, embedding, dataset, config, proj, losses.report, freeze_embedding
    )
    return losses.total, g_len, g_coord


# --------------------------------------------------------------------------
# Feasibility projection


# Every face repair over-relaxes its step by 1.5. Relaxed projection onto
# linear inequalities converges for any factor in (0, 2) (Agmon 1954;
# Motzkin & Schoenberg 1954); at 1 each face lands exactly on the margin,
# where a neighbour's step can push it back below, and a metric far from
# the feasible set can run out of sweeps. The factor 1 + 1e-9 keeps
# repeated visits from ping-ponging below the margin; the product is
# formed once, so every repair multiplies by the same bits.
_OVERSHOOT = 1.5 * (1.0 + 1e-9)
_MAX_SWEEPS = 50


def feasibility_projection(
    mesh,
    metric: MetricField,
    feas_margin: float,
    min_length: float,
) -> MetricField:
    """Push a metric into the feasible set by local triangle repairs.

    Sweeps faces in index order, at most ``_MAX_SWEEPS`` times; a face
    whose worst triangle inequality falls short of the margin has its two
    short sides raised and its long side lowered by a third of 1.5 times
    the deficit each, plus an absolute floor of a few ulps so that even
    deficits too small to register in one addition still make progress.
    Each repair sees the lengths the faces before it left, so the order is
    part of the result; an oracle test pins it bit for bit. Lengths never
    drop below ``min_length``. Already feasible input is returned unchanged
    (the same object). A sweep that repairs no face certifies its result;
    only when the sweeps run out does :func:`geometry.check_feasible` run,
    and the faces it finds raise :class:`FeasibilityProjectionError`. A
    margin or floor that is not finite and positive raises ``ValueError``.
    """
    # plain floats: a numpy-scalar argument would slow the sweep or round in float32
    feas_margin, min_length = float(feas_margin), float(min_length)
    for name, value in (("feas_margin", feas_margin), ("min_length", min_length)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    slacks = geometry.face_slacks(mesh, metric)
    if (slacks >= feas_margin).all() and (metric.lengths >= min_length).all():
        return metric

    lengths = np.maximum(metric.lengths, min_length).tolist()
    face_edges = mesh.face_edges.tolist()
    for _ in range(_MAX_SWEEPS):
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
            step = max(deficit * _OVERSHOOT, 8.0 * math.ulp(max(x0, x1, x2))) / 3.0
            lengths[lo_a] += step
            lengths[lo_b] += step
            lengths[hi] = max(lengths[hi] - step, min_length)
            changed = True
        if not changed:
            return MetricField(np.array(lengths))
    result = MetricField(np.array(lengths))
    bad = geometry.check_feasible(mesh, result, feas_margin)
    if bad:
        raise FeasibilityProjectionError(
            f"{len(bad)} faces still below margin {feas_margin} after "
            f"{_MAX_SWEEPS} sweeps, worst deficit {max(d for _, d in bad)}",
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
        if not (
            isinstance(self.max_iters, numbers.Integral)
            and not isinstance(self.max_iters, bool)
            and self.max_iters >= 0
        ):
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
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
    """The trace, stop reason and final state of one descent.

    ``eta_init`` is the first trial step the run took; it is None only
    for a run that stopped at row 0.
    """

    rows: list[TraceRow]
    stop_reason: str
    metric: MetricField
    embedding: Embedding
    config: LossConfig
    eta_init: float | None = None

    @property
    def iterations(self) -> int:
        return len(self.rows) - 1

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]


def _start(mesh, metric: MetricField, config: LossConfig) -> tuple[MetricField, LossConfig]:
    """The descent's start: ``metric`` repaired, every unset setting resolved.

    An unset margin and floor are 1e-4 and 1e-6 times ``metric``'s mean
    edge length. The metric is repaired by :func:`feasibility_projection`,
    the rule every line-search candidate goes through; an unset volume
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


# Backtracking halves the trial step this many times before giving up,
# which spans about six orders of magnitude below it.
_MAX_BACKTRACKS = 20
# A Barzilai-Borwein trial step is at most this many times the last
# accepted step.
_BB_CAP = 4.0


def _joint(lengths: np.ndarray, coords: np.ndarray | None) -> np.ndarray:
    """The descent's variables (or gradient) as one vector: lengths, then coordinates."""
    return lengths if coords is None else np.concatenate((lengths, coords.ravel()))


def _bb_step(s: np.ndarray, y: np.ndarray, eta_used: float) -> float:
    """The Barzilai-Borwein trial step ``s.s / s.y`` after an accepted step.

    ``s`` and ``y`` are the moves of the joint iterate and gradient over
    the accepted step ``eta_used``. The trial step is capped at
    ``_BB_CAP * eta_used``, and it is ``2 * eta_used`` where ``s.y <= 0``.
    """
    sy = float(s @ y)
    return min(float(s @ s) / sy, _BB_CAP * eta_used) if sy > 0.0 else 2.0 * eta_used


def run_optimization(
    mesh,
    metric: MetricField,
    embedding: Embedding,
    dataset: Dataset | None,
    config: LossConfig,
    stop: StopRule | None = None,
    freeze_embedding: bool = False,
    on_iteration: Callable[[IterationState], None] | None = None,
) -> OptimizationResult:
    """Projected gradient descent with a spectral step and backtracking.

    An unset margin and floor in ``config`` are derived from the initial
    metric's mean edge length (1e-4 and 1e-6 times it). The initial
    metric is then projected to feasibility, so row 0 of the trace is
    already a feasible point, and an unset volume target with a positive
    ``mu_volume`` becomes its total area; ``result.config`` holds the
    values used.

    Each iteration takes one gradient, then tries steps eta, eta/2, ...
    until the candidate (after its own feasibility projection) does not
    increase the true loss. The step acts on the joint vector of lengths
    and, unless the embedding is frozen, flattened coordinates. The first
    trial step, ``mean(l) / max|g|``, moves the largest gradient component
    by one mean edge length of the start metric. Each later trial step is
    the Barzilai-Borwein step ``s.s / s.y`` (Barzilai & Borwein, 1988),
    with ``s`` and ``y`` the joint iterate and gradient differences of the
    last accepted step, capped at 4 times that step; where ``s.y <= 0`` it
    is twice that step. ``result.eta_init`` holds the first trial step.

    The start metric and the candidates are repaired by the same
    :func:`feasibility_projection`; a candidate whose repair fails is one
    more halving of the step. Stop reasons: ``grad_tol``, ``loss_tol``,
    ``max_iters``, ``stalled``. A mesh with a vertex that belongs to no
    face raises :class:`IsolatedVertexError` before row 0, from the first
    curvature report.
    """
    stop = stop if stop is not None else StopRule()
    metric, config = _start(mesh, metric, config)

    proj = None
    if dataset is not None:
        proj = project_dataset_arrays(dataset.points, embedding, mesh)
    losses = total_loss(mesh, metric, embedding, dataset, config, projections=proj)

    rows: list[TraceRow] = []
    eta_init = None
    eta_used = 0.0
    x_prev = grad_prev = None
    k = 0
    while True:
        g_len, g_coord = _gradient(
            mesh, metric, embedding, dataset, config, proj, losses.report, freeze_embedding
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
            max_deficit=geometry._max_deficit(losses.report.face_slack, config.feas_margin),
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

        x = _joint(metric.lengths, None if g_coord is None else embedding.coords)
        grad = _joint(g_len, g_coord)
        if k == 0:
            eta = eta_init = float(np.mean(metric.lengths)) / float(np.abs(grad).max())
        else:
            eta = _bb_step(x - x_prev, grad - grad_prev, eta_used)
        x_prev, grad_prev = x, grad
        accepted = None
        for _ in range(_MAX_BACKTRACKS + 1):
            cand_lengths = np.maximum(metric.lengths - eta * g_len, config.min_length)
            try:
                cand_metric = feasibility_projection(
                    mesh, MetricField(cand_lengths), config.feas_margin, config.min_length
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
        k += 1

    return OptimizationResult(
        rows=rows,
        stop_reason=reason,
        metric=metric,
        embedding=embedding,
        config=config,
        eta_init=eta_init,
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
    freeze_embedding: bool = False,
) -> list[SweepRecord]:
    """Optimize at each weight, warm-starting from the previous optimum.

    The weights are checked by :func:`sweep_weights`. The start is
    prepared once, as :func:`run_optimization` prepares it: the unset
    margin, floor and volume target are derived from the starting metric
    and shared by every run, and a starting metric that cannot be repaired
    raises :class:`FeasibilityProjectionError` before the first weight. A
    failed run is recorded and the sweep continues from the last
    successful state, so one bad weight does not void the rest. Each run
    sizes its first trial step to its own start gradient.
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
