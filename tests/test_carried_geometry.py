"""The descent computes each iterate's geometry once and carries it.

``total_loss`` returns the curvature report, the face rows and their
logs it used, and the embedding memoizes its extrinsic edge lengths;
``run_optimization`` hands the accepted candidate's to the next gradient
and trace row. The oracle
below is the descent as it was before that, rebuilding the report, the
corner angles, the slacks and the extrinsic lengths on every call;
carrying them must not change a single bit of any trace row, final
metric or embedding.
"""

import dataclasses
import math

import numpy as np
import pytest

import metricmesh as mm
from metricmesh import geometry, optimize
from metricmesh.errors import FeasibilityProjectionError, TapeNonFiniteError
from metricmesh.optimize import LossConfig, StopRule, TraceRow
from metricmesh.projection import _unit_scaled, project_dataset_arrays

from conftest import FIT, FLOW, feasible_jittered, fit_case, flow_case

# --------------------------------------------------------------------------
# Oracle: the descent rebuilding every quantity on every call


def fresh_edge_lengths(mesh, embedding):
    """Extrinsic lengths from a new embedding object, so nothing memoized is reused."""
    return mm.Embedding(embedding.coords).edge_lengths(mesh)


def rebuilding_gradient(mesh, metric, embedding, dataset, config, projections, freeze_embedding):
    coords = embedding.coords
    ndim = coords.shape[1]
    g_len = np.zeros(metric.edge_count)
    g_coord = None if freeze_embedding else np.zeros(coords.size)

    def scatter(vertices, rows):
        idx = vertices[..., None] * ndim + np.arange(ndim)
        return np.bincount(idx.ravel(), weights=rows.ravel(), minlength=coords.size)

    if dataset is not None and g_coord is not None:
        corners = mesh.faces[projections[0]]
        bary = projections[1]
        resid = np.einsum("nk,nkd->nd", bary, coords[corners]) - dataset.points
        g_coord += scatter(corners, 2.0 * bary[:, :, None] * resid[:, None, :])

    if config.mu_iso > 0.0:
        ext = fresh_edge_lengths(mesh, embedding)
        gap = 2.0 * config.mu_iso * (ext - metric.lengths)
        g_len -= gap
        if g_coord is not None:
            edges = mesh.edges
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
        opp = mesh.face_edges[:, [1, 2, 0]]
        sides = metric.lengths[opp]
        cos = np.cos(geometry.face_corner_angles(mesh, metric))
        w_angle = -d_defect[mesh.faces] * sides
        w_area = d_vertex_area[mesh.faces].sum(axis=1) / 3.0
        if config.mu_volume > 0.0:
            (vol, v_t), j = _unit_scaled(np.array([report.total_volume, config.v_target]))
            w_area += np.ldexp(config.mu_volume * 2.0 * (vol - v_t) / (v_t * v_t), -j)
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


def rebuilding_descent(mesh, metric, embedding, dataset, config, stop, freeze_embedding=False):
    """(rows, stop reason, metric, embedding) of the rebuilding descent."""
    metric, config = optimize._start(mesh, metric, config)
    proj = None
    if dataset is not None:
        proj = project_dataset_arrays(dataset.points, embedding, mesh)
    losses = optimize.total_loss(mesh, metric, embedding, dataset, config, projections=proj)
    rows = []
    eta_used, x_prev, grad_prev, k = 0.0, None, None, 0
    while True:
        g_len, g_coord = rebuilding_gradient(
            mesh, metric, embedding, dataset, config, proj, freeze_embedding
        )
        # numpy's pairwise sums, not BLAS dots: the same bits at any thread count
        sq = float(np.add.reduce(g_len * g_len))
        if g_coord is not None:
            sq += float(np.add.reduce(g_coord * g_coord))
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
            max_deficit=float(np.max(config.feas_margin - mm.face_slacks(mesh, metric))),
            grad_norm=grad_norm,
        )
        rows.append(row)
        if grad_norm <= stop.grad_tol:
            reason = "grad_tol"
            break
        if stop.loss_tol > 0.0 and k > 0 and abs(rows[-2].l_total - row.l_total) <= stop.loss_tol:
            reason = "loss_tol"
            break
        if k >= stop.max_iters:
            reason = "max_iters"
            break
        x, grad = metric.lengths, g_len
        if g_coord is not None:
            x = np.concatenate((x, embedding.coords.ravel()))
            grad = np.concatenate((grad, g_coord))
        if k == 0:
            eta = float(np.mean(metric.lengths)) / float(np.abs(grad).max())
        else:
            s, y = x - x_prev, grad - grad_prev
            sy = float(np.add.reduce(s * y))
            eta = (
                min(float(np.add.reduce(s * s)) / sy, 4.0 * eta_used)
                if sy > 0.0
                else 2.0 * eta_used
            )
        x_prev, grad_prev = x, grad
        accepted = None
        for _ in range(optimize._MAX_BACKTRACKS + 1):
            cand_lengths = np.maximum(metric.lengths - eta * g_len, config.min_length)
            try:
                cand_metric = optimize.feasibility_projection(
                    mesh, mm.MetricField(cand_lengths), config.feas_margin, config.min_length
                )
            except (ValueError, FeasibilityProjectionError):
                eta *= 0.5
                continue
            if g_coord is not None:
                new_coords = embedding.coords - eta * g_coord.reshape(embedding.coords.shape)
                try:
                    cand_emb = mm.Embedding(new_coords)
                except ValueError:
                    eta *= 0.5
                    continue
            else:
                cand_emb = embedding
            cand_proj = proj
            if dataset is not None and g_coord is not None:
                try:
                    cand_proj = project_dataset_arrays(dataset.points, cand_emb, mesh)
                except ValueError:
                    eta *= 0.5
                    continue
            cand_losses = optimize.total_loss(
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
    return rows, reason, metric, embedding


def assert_same_descent(result, oracle):
    rows, reason, metric, embedding = oracle
    assert result.rows == rows
    assert result.stop_reason == reason
    assert np.array_equal(result.metric.lengths, metric.lengths)
    assert np.array_equal(result.embedding.coords, embedding.coords)


# --------------------------------------------------------------------------
# Cases


def counting_loss(monkeypatch):
    """Count the calls the descent makes to ``optimize.total_loss``."""
    real = optimize.total_loss
    calls = {"n": 0}

    def counted(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(optimize, "total_loss", counted)
    return calls


class TestDescentOracle:
    def test_flow_frozen_embedding(self):
        mesh, emb, metric = flow_case()
        stop = StopRule(max_iters=6, grad_tol=0.0)
        res = mm.run_optimization(mesh, metric, emb, None, FLOW, stop=stop, freeze_embedding=True)
        assert res.stop_reason == "max_iters"
        oracle = rebuilding_descent(mesh, metric, emb, None, FLOW, stop, freeze_embedding=True)
        assert_same_descent(res, oracle)

    # A mesh with boundary (the defect base is pi there) and a torus, at
    # p = 1 (the subgradient at zero defect), 2 and 3.
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("kind", ["grid(8,8,1.0)", "torus(8,8,2.0,0.5)"])
    def test_frozen_embedding_grid_and_torus(self, kind, p):
        mesh, emb = mm.generate_mesh(kind)
        metric = mm.MetricField.from_embedding(mesh, emb).with_jitter(
            np.random.default_rng(7), 0.3
        )
        config = dataclasses.replace(FLOW, p=p)
        stop = StopRule(max_iters=5, grad_tol=0.0)
        res = mm.run_optimization(
            mesh, metric, emb, None, config, stop=stop, freeze_embedding=True
        )
        assert res.stop_reason == "max_iters"
        oracle = rebuilding_descent(mesh, metric, emb, None, config, stop, freeze_embedding=True)
        assert_same_descent(res, oracle)

    def test_fit_free_embedding(self):
        mesh, emb, ds, metric = fit_case()
        stop = StopRule(max_iters=3, grad_tol=0.0)
        res = mm.run_optimization(mesh, metric, emb, ds, FIT, stop=stop)
        assert res.stop_reason == "max_iters"
        assert not np.array_equal(res.embedding.coords, emb.coords)
        assert_same_descent(res, rebuilding_descent(mesh, metric, emb, ds, FIT, stop))

    def test_lambda_sweep(self):
        mesh, emb, ds, metric = fit_case(seed=5, n=60)
        cfg = dataclasses.replace(FIT, mu_dirichlet=0.1, mu_volume=1.0)
        stop = StopRule(max_iters=2, grad_tol=0.0)
        weights = [0.0, 1e-3, 1e-1]
        records = mm.lambda_sweep(mesh, metric, emb, ds, cfg, weights, stop=stop)
        assert [r.status for r in records] == ["ok"] * 3
        start, cfg = optimize._start(mesh, metric, cfg)
        cur_metric, cur_emb = start, emb
        for lv, record in zip(weights, records):
            oracle = rebuilding_descent(
                mesh, cur_metric, cur_emb, ds, dataclasses.replace(cfg, lambda_=lv), stop
            )
            assert_same_descent(record.result, oracle)
            cur_metric, cur_emb = oracle[2], oracle[3]

    def test_rejected_candidate_before_accept(self, monkeypatch):
        # On this fit the step rule's trial step is too long at some
        # iterations: candidates are rejected (their embedding, report and
        # lengths differ from the accepted one's) before the accept, so the
        # geometry carried forward must be the accepted candidate's.
        mesh, emb, ds, metric = fit_case(seed=5, n=60)
        stop = StopRule(max_iters=10, grad_tol=0.0)
        calls = counting_loss(monkeypatch)
        res = mm.run_optimization(mesh, metric, emb, ds, FIT, stop=stop)
        assert res.stop_reason == "max_iters"
        # one loss for row 0, one per accepted candidate, the rest rejected
        assert calls["n"] > len(res.rows)
        monkeypatch.undo()
        assert_same_descent(res, rebuilding_descent(mesh, metric, emb, ds, FIT, stop))


class TestCallStructure:
    # The benchmark's tracer counts line-search candidates as the calls to
    # optimize.feasibility_projection after the first optimize.total_loss,
    # through the module globals. The descent must keep making those calls
    # there: one repair for the start, one loss for row 0, then one repair
    # and one loss per candidate (these seeded cases reject no candidate
    # before its loss).
    @pytest.mark.parametrize("shape", ["flow", "fit"])
    def test_one_repair_and_one_loss_per_candidate(self, shape, monkeypatch):
        if shape == "flow":
            mesh, emb, metric = flow_case(seed=6)
            args, kwargs = (None, FLOW), {"freeze_embedding": True}
        else:
            mesh, emb, ds, metric = fit_case(seed=5, n=60)
            args, kwargs = (ds, FIT), {}
        calls = []
        real_repair, real_loss = optimize.feasibility_projection, optimize.total_loss

        def repair(mesh, metric, *rest):
            out = real_repair(mesh, metric, *rest)
            calls.append(("repair", out))
            return out

        def loss(mesh, metric, *rest, **kw):
            out = real_loss(mesh, metric, *rest, **kw)
            calls.append(("loss", metric, out.total))
            return out

        monkeypatch.setattr(optimize, "feasibility_projection", repair)
        monkeypatch.setattr(optimize, "total_loss", loss)
        stop = StopRule(max_iters=8, grad_tol=0.0)
        res = mm.run_optimization(mesh, metric, emb, *args, stop=stop, **kwargs)
        assert res.stop_reason == "max_iters"
        kinds = [c[0] for c in calls]
        assert kinds == ["repair", "loss"] * (len(calls) // 2) and len(calls) % 2 == 0
        for (_, repaired), (_, evaluated, _) in zip(calls[::2], calls[1::2]):
            assert evaluated is repaired
        candidates = len(calls) // 2 - 1
        assert kinds.count("repair") == kinds.count("loss") == 1 + candidates
        # some candidates were rejected, and the accepted ones are the rows
        assert candidates > res.iterations
        totals = [c[2] for c in calls[1::2]]
        accepted = [totals[0]]
        for t in totals[1:]:
            if t <= accepted[-1]:
                accepted.append(t)
        assert accepted == [row.l_total for row in res.rows]


# --------------------------------------------------------------------------
# What total_loss carries


def closed_case():
    mesh, emb = mm.make_icosphere(1)
    return mesh, emb, feasible_jittered(mesh, emb, seed=2, amount=0.2)


def boundary_case():
    mesh, emb = mm.make_grid(5, 4, 0.5)
    return mesh, emb, feasible_jittered(mesh, emb, seed=2, amount=0.2)


@pytest.mark.parametrize("case", [closed_case, boundary_case], ids=["closed", "boundary"])
class TestCarriedGeometry:
    def test_report_matches_curvature_report(self, case):
        mesh, emb, metric = case()
        out = optimize.total_loss(mesh, metric, emb, None, LossConfig(mu_iso=1.0))
        ref = mm.curvature_report(mesh, metric)
        for f in dataclasses.fields(ref):
            assert np.array_equal(getattr(out.report, f.name), getattr(ref, f.name)), f.name
        assert np.array_equal(out.report.corner_angle, mm.face_corner_angles(mesh, metric))
        assert np.array_equal(out.report.face_slack, mm.face_slacks(mesh, metric))
        assert np.array_equal(out.report.face_area, mm.face_areas(mesh, metric))
        assert np.array_equal(emb.edge_lengths(mesh), fresh_edge_lengths(mesh, emb))
        assert mm.isometry_coupling(mesh, metric, emb) == out.iso

    def test_max_deficit_on_every_row(self, case):
        mesh, emb, metric = case()
        seen = []
        res = mm.run_optimization(
            mesh, metric, emb, None, LossConfig(lambda_=1.0, p=1.5, mu_dirichlet=0.1),
            stop=StopRule(max_iters=4, grad_tol=0.0), freeze_embedding=True,
            on_iteration=seen.append,
        )
        assert len(seen) == len(res.rows) > 1
        for state in seen:
            expected = float(np.max(res.config.feas_margin - mm.face_slacks(mesh, state.metric)))
            assert state.row.max_deficit == expected

    def test_breakdown_equality_and_repr_ignore_carried_fields(self, case):
        mesh, emb, metric = case()
        out = optimize.total_loss(mesh, metric, emb, None, LossConfig(mu_iso=1.0))
        carried = ("report", "rows", "logs")
        bare = dataclasses.replace(out, **dict.fromkeys(carried))
        assert all(getattr(out, name) is not None for name in carried)
        assert out == bare
        assert repr(out) == repr(bare)
        for name in carried:
            assert f"{name}=" not in repr(out)


@pytest.mark.parametrize("case", [closed_case, boundary_case], ids=["closed", "boundary"])
class TestCarriedRows:
    # total_loss returns the face rows and logs it gathered, and the gradient
    # reads them; a metric built from the same lengths gathers them afresh.
    # Nothing is kept on a metric, by the descent or by the public functions.
    def test_rows_and_logs_are_a_fresh_gather(self, case):
        mesh, emb, repaired = case()
        metric = mm.MetricField(repaired.lengths)
        out = optimize.total_loss(mesh, metric, emb, None, LossConfig(mu_dirichlet=0.1))
        fresh = mm.MetricField(metric.lengths)
        rows = geometry._face_rows(mesh, fresh)
        assert out.rows.k == rows.k
        for name in ("unit", "slacks", "rows"):
            assert np.array_equal(getattr(out.rows, name), getattr(rows, name)), name
        assert np.array_equal(out.rows.rows, fresh.lengths[mesh.face_edges.T])
        assert np.array_equal(out.logs, np.log(fresh.lengths[mesh.face_edges]).T)
        ref = mm.curvature_report(mesh, fresh)
        for f in dataclasses.fields(ref):
            assert np.array_equal(getattr(out.report, f.name), getattr(ref, f.name)), f.name
        assert out.dirichlet == mm.dirichlet_energy(mesh, fresh)

    def test_gradient_from_the_breakdown_matches_a_fresh_loss(self, case):
        mesh, emb, repaired = case()
        metric = mm.MetricField(repaired.lengths)
        volume = mm.curvature_report(mesh, metric).total_volume
        config = LossConfig(mu_dirichlet=0.1, mu_volume=1.0, v_target=1.1 * volume, mu_iso=0.5)
        out = optimize.total_loss(mesh, metric, emb, None, config)
        g_carried = optimize._gradient(mesh, metric, emb, None, config, None, out, False)
        fresh = mm.MetricField(metric.lengths)
        fresh_emb = mm.Embedding(emb.coords)
        again = optimize.total_loss(mesh, fresh, fresh_emb, None, config)
        g_fresh = optimize._gradient(mesh, fresh, fresh_emb, None, config, None, again, False)
        assert np.array_equal(g_carried[0], g_fresh[0])
        assert np.array_equal(g_carried[1], g_fresh[1])

    def test_nothing_is_kept_on_a_metric(self, case):
        mesh, emb, repaired = case()
        metric = mm.MetricField(repaired.lengths)
        assert mm.feasibility_projection(mesh, metric, 1e-6, 1e-9) is metric
        for quantity in (mm.curvature_report, mm.face_slacks, mm.dirichlet_energy):
            quantity(mesh, metric)
        mm.fast_marching(mesh, metric, 0)
        assert list(vars(metric)) == ["lengths"]
        first, second = mm.face_slacks(mesh, metric), mm.face_slacks(mesh, metric)
        assert not np.shares_memory(first, second)
        res = mm.run_optimization(
            mesh, metric, emb, None, FLOW, stop=StopRule(max_iters=3, grad_tol=0.0),
            freeze_embedding=True,
        )
        assert res.metric is not metric and list(vars(res.metric)) == ["lengths"]
