import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metricmesh as mm
from metricmesh import autodiff as ad
from metricmesh import optimize
from metricmesh.autodiff import evaluate_with_gradient, finite_difference_gradient
from metricmesh.errors import FeasibilityProjectionError, InfeasibleMetricError
from metricmesh.optimize import (
    LossConfig,
    StopRule,
    TraceRow,
    feasibility_projection,
    lambda_sweep,
    run_optimization,
    total_loss,
)

from conftest import FIT, FLOW, feasible_jittered, fit_case, flow_case, loss_gradient
from traced_geometry import interior_angles, triangle_area


def sphere_dataset(n=12, seed=0, radius=1.1):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return mm.Dataset(pts * radius)


ALL_TERMS = LossConfig(
    lambda_=1.0, p=2.0, mu_dirichlet=5.0, mu_volume=3.0, mu_iso=2.0, v_target=0.8
)


class TestLossConfig:
    def test_defaults_valid(self):
        cfg = LossConfig()
        assert cfg.lambda_ == 1.0 and cfg.p == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda_": -1.0},
            {"lambda_": math.inf},
            {"p": 0.5},
            {"p": math.nan},
            {"mu_dirichlet": -0.1},
            {"mu_volume": -1.0},
            {"mu_iso": -2.0},
            {"v_target": 0.0},
            {"v_target": -1.0},
            {"feas_margin": 0.0},
            {"min_length": -1e-9},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            LossConfig(**kwargs)

    def test_stop_rule_rejects(self):
        with pytest.raises(ValueError):
            StopRule(max_iters=-1)
        with pytest.raises(ValueError):
            StopRule(grad_tol=-1e-9)
        with pytest.raises(ValueError):
            StopRule(loss_tol=-1.0)
        # NaN would silently switch off its stop test
        with pytest.raises(ValueError):
            StopRule(grad_tol=math.nan)
        with pytest.raises(ValueError):
            StopRule(loss_tol=math.nan)
        # NaN switches off the iteration cap (k >= nan is never true); a
        # fractional or infinite cap is no iteration count either
        for bad in (math.nan, math.inf, 2.5):
            with pytest.raises(ValueError, match=f"max_iters must be an integer >= 0, got {bad!r}"):
                StopRule(max_iters=bad)


class TestTotalLoss:
    def test_breakdown_identity(self, icosphere1):
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=2, amount=0.15)
        ds = sphere_dataset(30, seed=5)
        b = total_loss(mesh, metric, emb, ds, ALL_TERMS)
        recomputed = b.data + ALL_TERMS.mu_iso * b.iso + ALL_TERMS.lambda_ * (
            b.curvature + ALL_TERMS.mu_dirichlet * b.dirichlet + ALL_TERMS.mu_volume * b.volume
        )
        assert b.total == recomputed
        assert b.data > 0 and b.curvature > 0 and b.dirichlet > 0 and b.iso > 0

    def test_no_dataset_means_zero_data(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        b = total_loss(mesh, metric, emb, None, LossConfig())
        assert b.data == 0.0
        assert b.volume == 0.0  # no v_target set

    def test_volume_reported_when_target_set(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        b = total_loss(mesh, metric, emb, None, LossConfig(v_target=1.0))
        assert b.volume > 0.0

    def test_volume_weight_without_target_raises(self, icosphere0):
        # reporting volume 0 would hide that the term was never evaluated
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        with pytest.raises(ValueError, match="requires v_target"):
            total_loss(mesh, metric, emb, None, LossConfig(mu_volume=1.0))

    def test_infeasible_raises(self, icosphere0):
        mesh, emb = icosphere0
        lengths = mm.MetricField.from_embedding(mesh, emb).lengths.copy()
        lengths[3] = 40.0
        with pytest.raises(InfeasibleMetricError):
            total_loss(mesh, mm.MetricField(lengths), emb, None, LossConfig())

    def test_projections_reused_verbatim(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        ds = sphere_dataset(8, seed=1)
        proj = mm.project_dataset_arrays(ds.points, emb, mesh)
        b = total_loss(mesh, metric, emb, ds, LossConfig(), projections=proj)
        assert b.data == float(np.sum(proj[2]))


class TestGradients:
    def test_value_matches_numeric_loss(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        ds = sphere_dataset()
        value, g_len, g_coord = loss_gradient(mesh, metric, emb, ds, ALL_TERMS)
        assert value == total_loss(mesh, metric, emb, ds, ALL_TERMS).total
        assert g_len.shape == (mesh.edge_count,)
        assert g_coord.shape == (emb.coords.size,)

    def test_length_gradient_all_terms(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        ds = sphere_dataset()
        _, g_len, _ = loss_gradient(mesh, metric, emb, ds, ALL_TERMS)

        def f(x):
            return total_loss(mesh, mm.MetricField(x), emb, ds, ALL_TERMS).total

        fd = finite_difference_gradient(f, metric.lengths)
        np.testing.assert_allclose(g_len, fd, rtol=1e-5, atol=1e-8)

    def test_coordinate_gradient_with_reprojection(self, icosphere0):
        # the surrogate freezes barycentric weights, yet its gradient must
        # match differences of the true loss, which reprojects every call
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        ds = sphere_dataset()
        _, _, g_coord = loss_gradient(mesh, metric, emb, ds, ALL_TERMS)

        def f(x):
            e = mm.Embedding(x.reshape(emb.coords.shape))
            return total_loss(mesh, metric, e, ds, ALL_TERMS).total

        fd = finite_difference_gradient(f, emb.coords.ravel())
        np.testing.assert_allclose(g_coord, fd, rtol=1e-4, atol=1e-7)

    def test_data_only_length_gradient_exactly_zero(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        ds = sphere_dataset()
        cfg = LossConfig(lambda_=0.0, mu_iso=0.0)
        _, g_len, g_coord = loss_gradient(mesh, metric, emb, ds, cfg)
        assert np.count_nonzero(g_len) == 0
        assert np.count_nonzero(g_coord) > 0

    def test_frozen_embedding_drops_coordinate_gradient(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        ds = sphere_dataset()
        _, g_len, g_coord = loss_gradient(
            mesh, metric, emb, ds, ALL_TERMS, freeze_embedding=True
        )
        assert g_coord is None

        def f(x):
            return total_loss(mesh, mm.MetricField(x), emb, ds, ALL_TERMS).total

        fd = finite_difference_gradient(f, metric.lengths)
        np.testing.assert_allclose(g_len, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_curvature_exponents(self, icosphere0, p):
        mesh, emb = icosphere0
        metric = feasible_jittered(mesh, emb, seed=8, amount=0.1)
        cfg = LossConfig(lambda_=1.0, p=p)
        _, g_len, _ = loss_gradient(mesh, metric, emb, None, cfg, freeze_embedding=True)

        def f(x):
            return total_loss(mesh, mm.MetricField(x), emb, None, cfg).total

        fd = finite_difference_gradient(f, metric.lengths)
        np.testing.assert_allclose(g_len, fd, rtol=1e-5, atol=1e-7)

    def test_iso_couples_lengths_to_embedding(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField(mm.MetricField.from_embedding(mesh, emb).lengths * 1.2)
        cfg = LossConfig(lambda_=0.0, mu_iso=1.0)
        _, g_len, g_coord = loss_gradient(mesh, metric, emb, None, cfg)

        def f_len(x):
            return total_loss(mesh, mm.MetricField(x), emb, None, cfg).total

        np.testing.assert_allclose(
            g_len, finite_difference_gradient(f_len, metric.lengths), rtol=1e-6, atol=1e-9
        )

        def f_coord(x):
            return total_loss(mesh, metric, mm.Embedding(x.reshape(emb.coords.shape)), None, cfg).total

        np.testing.assert_allclose(
            g_coord, finite_difference_gradient(f_coord, emb.coords.ravel()),
            rtol=1e-6, atol=1e-9,
        )

    def test_volume_requires_target(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        with pytest.raises(ValueError):
            loss_gradient(mesh, metric, emb, None, LossConfig(mu_volume=1.0))


def tape_gradient(mesh, metric, emb, ds, cfg, freeze):
    """Gradient of the objective recorded term by term on the scalar tape.

    The independent oracle for the closed form: the scalar
    ``interior_angles`` and ``triangle_area`` of ``traced_geometry`` per
    face, barycentric coordinates frozen at the current projection,
    coordinates traced only for a free embedding.
    """
    faces, nd, ne, nv = mesh.faces, emb.ambient_dim, mesh.edge_count, mesh.vertex_count
    pf, bary, _ = mm.project_dataset_arrays(ds.points, emb, mesh)
    bary, pts, ext = bary.tolist(), ds.points.tolist(), emb.edge_lengths(mesh).tolist()

    def objective(t):
        ln = t[:ne]
        x = None if freeze else [t[ne + v * nd : ne + (v + 1) * nd] for v in range(nv)]
        data = iso = vol = dirichlet = curv = 0.0
        for e, (u, v) in enumerate(mesh.edges):
            length = ext[e] if freeze else ad.sqrt(sum((x[u][d] - x[v][d]) ** 2 for d in range(nd)))
            iso = iso + (length - ln[e]) ** 2
        if not freeze:
            for i, f in enumerate(pf):
                for d in range(nd):
                    q = sum(bary[i][c] * x[faces[f, c]][d] for c in range(3))
                    data = data + (q - pts[i][d]) ** 2
        angle_sum = [0.0] * nv
        vertex_area = [0.0] * nv
        for f in range(mesh.face_count):
            l_ij, l_jk, l_ki = (ln[e] for e in mesh.face_edges[f])
            area = triangle_area(l_jk, l_ki, l_ij)
            for c, angle in enumerate(interior_angles(l_jk, l_ki, l_ij)):
                angle_sum[faces[f, c]] = angle_sum[faces[f, c]] + angle
                vertex_area[faces[f, c]] = vertex_area[faces[f, c]] + area / 3.0
            vol = vol + area
            logs = [ad.log(l_ij), ad.log(l_jk), ad.log(l_ki)]
            dirichlet = dirichlet + sum((logs[a] - logs[a - 1]) ** 2 for a in range(3))
        for v in range(nv):
            base = math.pi if mesh.boundary_vertex[v] else 2.0 * math.pi
            defect = ad.absolute(base - angle_sum[v])
            curv = curv + defect**cfg.p * vertex_area[v] ** (1.0 - cfg.p)
        vol_pen = ((vol - cfg.v_target) / cfg.v_target) ** 2
        return data + cfg.mu_iso * iso + cfg.lambda_ * (
            curv + cfg.mu_dirichlet * dirichlet + cfg.mu_volume * vol_pen
        )

    inputs = metric.lengths if freeze else np.concatenate((metric.lengths, emb.coords.ravel()))
    return evaluate_with_gradient(objective, inputs).gradient


def closed_form_gradient(mesh, metric, emb, ds, cfg, freeze):
    _, g_len, g_coord = loss_gradient(mesh, metric, emb, ds, cfg, freeze_embedding=freeze)
    return g_len if freeze else np.concatenate((g_len, g_coord))


def gradient_case(kind, jitter, seed=5, n_points=60):
    mesh, emb = mm.generate_mesh(kind)
    rng = np.random.default_rng(seed)
    raw = mm.MetricField.from_embedding(mesh, emb)
    if jitter > 0.0:
        raw = raw.with_jitter(rng, jitter)
    mean = float(np.mean(raw.lengths))
    metric = feasibility_projection(mesh, raw, 1e-4 * mean, 1e-6 * mean)
    picks = emb.coords[rng.integers(0, mesh.vertex_count, n_points)]
    ds = mm.Dataset(1.1 * picks + rng.normal(scale=0.1, size=picks.shape))
    v_target = 1.1 * mm.curvature_report(mesh, metric).total_volume
    return mesh, emb, metric, ds, v_target


class TestClosedFormGradient:
    """The optimizer's closed-form gradient against the tape oracle.

    Gated on max|delta| relative to max|g_tape|: near-cancelling
    components at p = 1 legitimately differ by more in relative terms.
    """

    @pytest.mark.parametrize("kind", ["icosphere(2)", "torus(16,8,2.0,0.7)", "grid(10,10,1.0)"])
    @pytest.mark.parametrize("jitter", [0.1, 0.5])
    def test_matches_tape_all_terms(self, kind, jitter):
        mesh, emb, metric, ds, v_target = gradient_case(kind, jitter)
        for p in (1.0, 1.5, 2.0, 3.0):
            cfg = LossConfig(
                lambda_=0.7, p=p, mu_dirichlet=0.3, mu_volume=2.0, mu_iso=1.5, v_target=v_target
            )
            for freeze in (False, True):
                ref = tape_gradient(mesh, metric, emb, ds, cfg, freeze)
                got = closed_form_gradient(mesh, metric, emb, ds, cfg, freeze)
                assert got.shape == ref.shape
                err = np.max(np.abs(got - ref))
                assert err <= 1e-11 * np.max(np.abs(ref)), (p, freeze, err)

    def test_zero_defect_subgradient_is_plus_one(self):
        # stretching one interior edge of a flat grid leaves the defect
        # exactly zero at every vertex off its two faces; at p = 1 the
        # tape's |x| takes the subgradient +1 there, not 0
        mesh, emb, metric, ds, v_target = gradient_case("grid(6,5,0.5)", 0.0)
        lengths = metric.lengths.copy()
        lengths[np.flatnonzero(~mesh.boundary_edge)[7]] *= 1.05
        metric = mm.MetricField(lengths)
        defect = mm.curvature_report(mesh, metric).defect
        assert np.count_nonzero(defect == 0.0) > 0 and np.count_nonzero(defect < 0.0) > 0
        cfg = LossConfig(lambda_=1.0, p=1.0, v_target=v_target)
        ref = tape_gradient(mesh, metric, emb, ds, cfg, True)
        got = closed_form_gradient(mesh, metric, emb, ds, cfg, True)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("exponent", [400, -400])
    @pytest.mark.parametrize("mu_dirichlet", [0.0, 0.1])
    def test_far_from_unit_scale(self, exponent, mu_dirichlet):
        # the area term multiplies three sides, which at 2**400 overflows
        # and at 2**-400 underflows; the gradient itself scales as 1/length
        mesh, emb = mm.make_icosphere(1)
        metric = feasible_jittered(mesh, emb, seed=2, amount=0.2)
        cfg = LossConfig(lambda_=1.0, p=1.0, mu_dirichlet=mu_dirichlet)
        base = closed_form_gradient(mesh, metric, emb, None, cfg, True)
        scaled = mm.MetricField(np.ldexp(metric.lengths, exponent))
        with np.errstate(all="raise"):
            got = closed_form_gradient(mesh, scaled, emb, None, cfg, True)
        want = np.ldexp(base, -exponent)
        if mu_dirichlet == 0.0:
            np.testing.assert_array_equal(got, want)
        else:
            # log(2**400 * l) rounds differently from log(l) + 400 log(2)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("exponent", [400, -400])
    def test_volume_term_far_from_unit_scale(self, exponent):
        # the volume term divides by v_target squared, which at 2**-400
        # underflows and at 2**400 overflows unless formed at unit scale
        mesh, emb = mm.make_icosphere(1)
        metric = feasible_jittered(mesh, emb, seed=2, amount=0.2)
        v_target = 1.1 * mm.curvature_report(mesh, metric).total_volume
        cfg = LossConfig(lambda_=1.0, p=1.0, mu_volume=1.0, v_target=v_target)
        base = closed_form_gradient(mesh, metric, emb, None, cfg, True)
        scaled = mm.MetricField(np.ldexp(metric.lengths, exponent))
        cfg = dataclasses.replace(cfg, v_target=math.ldexp(v_target, 2 * exponent))
        with np.errstate(all="raise"):
            got = closed_form_gradient(mesh, scaled, emb, None, cfg, True)
        np.testing.assert_array_equal(got, np.ldexp(base, -exponent))

    def test_non_finite_gradient_raises(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        collapsed = mm.Embedding(np.zeros_like(emb.coords))
        with pytest.raises(mm.TapeNonFiniteError):
            loss_gradient(mesh, metric, collapsed, None, LossConfig(lambda_=0.0, mu_iso=1.0))


class TestFeasibilityProjection:
    def test_feasible_passthrough_same_object(self, icosphere1):
        mesh, emb = icosphere1
        metric = mm.MetricField.from_embedding(mesh, emb)
        out = feasibility_projection(mesh, metric, 1e-6, 1e-9)
        assert out is metric

    def test_repairs_single_triangle(self):
        mesh = mm.Mesh(3, np.array([[0, 1, 2]]))
        metric = mm.MetricField(np.array([1.0, 1.0, 3.0]))
        out = feasibility_projection(mesh, metric, 1e-6, 1e-9)
        assert mm.check_feasible(mesh, out, 1e-6) == []
        assert (out.lengths >= 1e-9).all()
        # second projection is a no-op on the same object
        assert feasibility_projection(mesh, out, 1e-6, 1e-9) is out

    def test_min_length_floor(self):
        mesh = mm.Mesh(3, np.array([[0, 1, 2]]))
        metric = mm.MetricField(np.array([1e-12, 1.0, 1.0]))
        out = feasibility_projection(mesh, metric, 1e-6, 1e-3)
        assert (out.lengths >= 1e-3).all()
        assert mm.check_feasible(mesh, out, 1e-6) == []

    def test_sweep_budget(self, monkeypatch):
        # face 0 starts barely feasible; repairing face 1 shortens their
        # shared edge and re-breaks face 0, which needs a second sweep
        mesh = mm.Mesh(4, np.array([[0, 1, 2], [1, 2, 3]]))
        # edges sorted: (0,1), (0,2), (1,2), (1,3), (2,3)
        lengths = np.array([1.0, 0.50001, 0.5, 0.2, 0.2])
        metric = mm.MetricField(lengths)
        with monkeypatch.context() as m:
            m.setattr(optimize, "_MAX_SWEEPS", 1)
            with pytest.raises(FeasibilityProjectionError):
                feasibility_projection(mesh, metric, 1e-6, 1e-9)
        out = feasibility_projection(mesh, metric, 1e-6, 1e-9)
        assert mm.check_feasible(mesh, out, 1e-6) == []

    def test_last_sweep_repairs(self, monkeypatch):
        # one sweep repairs this triangle; with a budget of one sweep the
        # loop runs out still "changed", and the vectorized check passes
        mesh = mm.Mesh(3, np.array([[0, 1, 2]]))
        metric = mm.MetricField(np.array([1.0, 1.0, 3.0]))
        full = feasibility_projection(mesh, metric, 1e-6, 1e-9)
        monkeypatch.setattr(optimize, "_MAX_SWEEPS", 1)
        one = feasibility_projection(mesh, metric, 1e-6, 1e-9)
        np.testing.assert_array_equal(one.lengths, full.lengths)

    def test_parameter_validation(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        with pytest.raises(ValueError):
            feasibility_projection(mesh, metric, 0.0, 1e-9)
        with pytest.raises(ValueError):
            feasibility_projection(mesh, metric, 1e-6, 0.0)
        # a non-finite margin or floor is named up front, before any sweep
        # (a NaN margin used to run every sweep and then blame the lengths)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="feas_margin must be finite"):
                feasibility_projection(mesh, metric, bad, 1e-9)
            with pytest.raises(ValueError, match="min_length must be finite"):
                feasibility_projection(mesh, metric, 1e-6, bad)

    def test_tiny_deficit_converges(self):
        # a deficit far below one ulp of the side lengths must still make
        # progress through the absolute step floor
        mesh = mm.Mesh(3, np.array([[0, 1, 2]]))
        lengths = np.array([1.0, 1.0, 2.0 - 1e-13])
        out = feasibility_projection(mesh, mm.MetricField(lengths), 1e-12, 1e-9)
        assert mm.check_feasible(mesh, out, 1e-12) == []


def numpy_scalar_repair(mesh, metric, feas_margin, min_length, max_sweeps=50):
    """The repair sweep on numpy scalars, as it first shipped: the oracle.

    Visits faces in index order and indexes the length array once per
    read, so each repair sees what the faces before it wrote, and
    over-relaxes each face step by 1.5. The library runs the same
    arithmetic on plain floats and must agree bit for bit.
    """
    lengths = metric.lengths.copy()
    np.maximum(lengths, min_length, out=lengths)
    fe = mesh.face_edges
    for _ in range(max_sweeps):
        changed = False
        for f in range(fe.shape[0]):
            e0, e1, e2 = fe[f, 0], fe[f, 1], fe[f, 2]
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
            step = max(
                deficit * (1.5 * (1.0 + 1e-9)), 8.0 * np.spacing(max(x0, x1, x2))
            ) / 3.0
            lengths[lo_a] += step
            lengths[lo_b] += step
            lengths[hi] = max(lengths[hi] - step, min_length)
            changed = True
        if not changed:
            break
    result = mm.MetricField(lengths)
    bad = mm.check_feasible(mesh, result, feas_margin)
    if bad:
        raise FeasibilityProjectionError(
            f"{len(bad)} faces still below margin {feas_margin} after "
            f"{max_sweeps} sweeps, worst deficit {max(d for _, d in bad)}",
            faces=tuple(f for f, _ in bad[:16]),
        )
    return result


def repair_outcome(repair, mesh, lengths, margin, floor):
    """Repaired lengths, or the failure's (message, faces)."""
    try:
        return repair(mesh, mm.MetricField(lengths), margin, floor).lengths
    except FeasibilityProjectionError as exc:
        return str(exc), exc.faces


def jittered_case(kind, amount):
    """Jittered extrinsic lengths, unrepaired, with the auto margin and floor."""
    mesh, emb = mm.generate_mesh(kind)
    metric = mm.MetricField.from_embedding(mesh, emb)
    metric = metric.with_jitter(np.random.default_rng(int(amount * 10)), amount)
    mean = float(np.mean(metric.lengths))
    return mesh, metric.lengths, 1e-4 * mean, 1e-6 * mean


def repair_case(name):
    """(mesh, lengths, margin, floor) for one named case of the oracle test."""
    if name == "min_length clamp":
        # some lengths start below the floor
        mesh, lengths, margin, _ = jittered_case("icosphere(2)", 0.5)
        lengths = lengths.copy()
        lengths[::7] *= 1e-6
        return mesh, lengths, margin, 0.3 * float(np.mean(lengths))
    if name == "three-way ties":
        # a uniform metric below the margin: every face ties three ways,
        # and lowering a long side runs into the floor
        mesh, _ = mm.generate_mesh("icosphere(1)")
        return mesh, np.ones(mesh.edge_count), 1.5, 0.9
    if name == "sub-ulp deficit":
        # progress only through the absolute step floor
        mesh = mm.Mesh(3, np.array([[0, 1, 2]]))
        return mesh, np.array([1.0, 1.0, 2.0 - 1e-13]), 1e-12, 1e-9
    kind, _, amount = name.partition(" jitter ")
    return jittered_case(kind, float(amount))


REPAIR_KINDS = [
    "icosphere(1)", "icosphere(2)", "icosphere(3)", "torus(16,8,2.0,0.7)", "grid(10,10,1.0)"
]
REPAIR_CASES = [
    f"{kind} jitter {amount}" for kind in REPAIR_KINDS for amount in (0.1, 0.5, 0.9)
] + ["min_length clamp", "three-way ties", "sub-ulp deficit"]


# A case that still runs out of sweeps at 1 and at 3 sweeps.
SWEEP_LIMIT_CASE = "three-way ties"


class TestRepairMatchesNumpyScalarSweep:
    @pytest.mark.parametrize("name", REPAIR_CASES)
    def test_bitwise_equal_to_oracle(self, name):
        args = repair_case(name)
        got = repair_outcome(feasibility_projection, *args)
        want = repair_outcome(numpy_scalar_repair, *args)
        if isinstance(want, tuple):
            assert got == want
        else:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", REPAIR_CASES)
    def test_repaired_metric_needs_no_second_repair(self, name):
        # the vectorised early exit agrees with the sweep's own stopping
        # rule: whatever one repair returns, a second returns untouched
        mesh, lengths, margin, floor = repair_case(name)
        once = feasibility_projection(mesh, mm.MetricField(lengths), margin, floor)
        assert feasibility_projection(mesh, once, margin, floor) is once

    @pytest.mark.parametrize("max_sweeps", [1, 3])
    def test_same_failure_when_sweeps_run_out(self, max_sweeps, monkeypatch):
        args = repair_case(SWEEP_LIMIT_CASE)
        monkeypatch.setattr(optimize, "_MAX_SWEEPS", max_sweeps)
        got = repair_outcome(feasibility_projection, *args)
        oracle = functools.partial(numpy_scalar_repair, max_sweeps=max_sweeps)
        want = repair_outcome(oracle, *args)
        assert isinstance(want, tuple), "the case must run out of sweeps"
        assert got == want

    @pytest.mark.parametrize("kind", REPAIR_KINDS)
    def test_start_repaired_like_a_candidate(self, kind):
        # the descent's start goes through the same repair rule, at the
        # auto margin and floor that ``jittered_case`` also derives
        mesh, lengths, margin, floor = jittered_case(kind, 0.9)
        got = optimize._start(mesh, mm.MetricField(lengths), LossConfig())[0].lengths
        want = numpy_scalar_repair(mesh, mm.MetricField(lengths), margin, floor).lengths
        np.testing.assert_array_equal(got, want)


@functools.cache
def repair_mesh(kind):
    return mm.generate_mesh(kind)


def same_outcome(got, want):
    """Repair outcomes agree: the same length bits, or the same failure."""
    if isinstance(want, tuple):
        return got == want
    return not isinstance(got, tuple) and got.tobytes() == want.tobytes()


def push_short(mesh, lengths, face, slack):
    """Lengthen the last side of ``face`` until the face's slack is ``slack``.

    Up to rounding. The other face on that side, if any, loses slack too.
    """
    e0, e1, e2 = mesh.face_edges[face]
    lengths[e2] = lengths[e0] + lengths[e1] - slack


class TestRepairVisitsOnlyShortFaces:
    """The repair visits only the faces that can be short of the margin.

    The full sweep, ``numpy_scalar_repair``, leaves every other face as it
    is, so the two must agree bit for bit, failures included.
    """

    @given(
        kind=st.sampled_from(
            ["icosphere(1)", "icosphere(2)", "torus(8,4,2.0,0.7)", "grid(5,4,1.0)", "grid(2,2,1.0)"]
        ),
        amount=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**32 - 1),
        margin_scale=st.floats(1e-6, 0.3),
        floor_scale=st.floats(1e-9, 0.5),
        below_floor=st.floats(0.0, 0.3),
        max_sweeps=st.sampled_from([1, 2, 3, optimize._MAX_SWEEPS]),
    )
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_full_sweep(
        self, kind, amount, seed, margin_scale, floor_scale, below_floor, max_sweeps
    ):
        mesh, emb = repair_mesh(kind)
        rng = np.random.default_rng(seed)
        lengths = mm.MetricField.from_embedding(mesh, emb).with_jitter(rng, amount).lengths.copy()
        mean = float(np.mean(lengths))
        margin, floor = margin_scale * mean, floor_scale * mean
        low = rng.random(lengths.size) < below_floor
        lengths[low] = floor * rng.uniform(1e-3, 1.0, np.count_nonzero(low))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(optimize, "_MAX_SWEEPS", max_sweeps)
            got = repair_outcome(feasibility_projection, mesh, lengths, margin, floor)
        oracle = functools.partial(numpy_scalar_repair, max_sweeps=max_sweeps)
        assert same_outcome(got, repair_outcome(oracle, mesh, lengths, margin, floor))

    # icosphere(4) has 5120 faces; the pushed ones lie far apart or side by side
    @pytest.mark.parametrize("faces", [(0,), (4000,), (17, 3001), (2500, 2501)])
    @pytest.mark.parametrize("max_sweeps", [1, optimize._MAX_SWEEPS])
    def test_few_short_faces_on_a_large_mesh(self, faces, max_sweeps, monkeypatch):
        mesh, emb = repair_mesh("icosphere(4)")
        lengths = mm.MetricField.from_embedding(mesh, emb).lengths.copy()
        mean = float(np.mean(lengths))
        margin, floor = 1e-4 * mean, 1e-6 * mean
        for f in faces:
            push_short(mesh, lengths, f, 0.5 * margin)
        short = mm.check_feasible(mesh, mm.MetricField(lengths), margin)
        assert len(faces) <= len(short) <= 2 * len(faces)
        monkeypatch.setattr(optimize, "_MAX_SWEEPS", max_sweeps)
        got = repair_outcome(feasibility_projection, mesh, lengths, margin, floor)
        oracle = functools.partial(numpy_scalar_repair, max_sweeps=max_sweeps)
        assert same_outcome(got, repair_outcome(oracle, mesh, lengths, margin, floor))
        assert not isinstance(got, tuple)

    def test_one_short_boundary_face(self):
        mesh, emb = repair_mesh("grid(50,50,1.0)")
        lengths = mm.MetricField.from_embedding(mesh, emb).lengths.copy()
        margin, floor = 1e-4, 1e-6
        # a face whose pushed side is a boundary edge: no other face shares it
        face = next(
            f for f in range(mesh.face_count) if mesh.boundary_edge[mesh.face_edges[f, 2]]
        )
        push_short(mesh, lengths, face, 0.5 * margin)
        assert [f for f, _ in mm.check_feasible(mesh, mm.MetricField(lengths), margin)] == [face]
        got = repair_outcome(feasibility_projection, mesh, lengths, margin, floor)
        assert same_outcome(got, repair_outcome(numpy_scalar_repair, mesh, lengths, margin, floor))

    def test_feasible_input_builds_no_lists(self):
        mesh, emb = mm.make_icosphere(2)
        metric = mm.MetricField.from_embedding(mesh, emb)
        assert feasibility_projection(mesh, metric, 1e-6, 1e-9) is metric
        assert mesh._lists_memo is None


class TestRepairReturnsFeasibleInputAsIs:
    """The repair's one entry check agrees with ``check_feasible`` and the floor.

    It tests the floored lengths with the sweep's raw sums, so it must give
    the verdict of the unit-scaled slacks at any length scale.
    """

    @given(
        kind=st.sampled_from(["icosphere(1)", "torus(8,4,2.0,0.7)", "grid(5,4,1.0)"]),
        scale=st.integers(-900, 900),
        amount=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
        margin_scale=st.floats(1e-6, 1e-2),
        pushed=st.integers(0, 3),
        ulps=st.integers(-4, 4),
        floor_at=st.sampled_from(["far below", "the shortest", "just above"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_object_exactly_when_feasible(
        self, kind, scale, amount, seed, margin_scale, pushed, ulps, floor_at
    ):
        mesh, emb = repair_mesh(kind)
        rng = np.random.default_rng(seed)
        metric = mm.MetricField.from_embedding(mesh, emb).with_jitter(rng, amount)
        lengths = np.ldexp(metric.lengths, scale)
        margin = margin_scale * float(np.mean(lengths))
        # faces whose slack lies within a few ulps of the lengths from the margin
        for f in rng.choice(mesh.face_count, pushed, replace=False):
            e0, e1, _ = mesh.face_edges[f]
            push_short(mesh, lengths, f, margin + ulps * math.ulp(lengths[e0] + lengths[e1]))
        shortest = float(lengths.min())
        floor = {
            "far below": 1e-3 * shortest,
            "the shortest": shortest,
            "just above": math.nextafter(shortest, math.inf),
        }[floor_at]
        metric = mm.MetricField(lengths)
        feasible = mm.check_feasible(mesh, metric, margin) == [] and shortest >= floor
        try:
            out = feasibility_projection(mesh, metric, margin, floor)
        except FeasibilityProjectionError:
            out = None
        assert (out is metric) == feasible


class TestOverRelaxedRepair:
    @given(
        kind=st.sampled_from(
            ["icosphere(1)", "torus(8,4,2.0,0.7)", "grid(5,4,1.0)", "grid(2,2,1.0)"]
        ),
        amount=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**32 - 1),
        margin_scale=st.floats(1e-6, 1e-2),
        floor_scale=st.floats(1e-9, 1e-3),
    )
    @settings(max_examples=150, deadline=None)
    def test_output_meets_margin_and_floor(self, kind, amount, seed, margin_scale, floor_scale):
        mesh, emb = repair_mesh(kind)
        metric = mm.MetricField.from_embedding(mesh, emb)
        metric = metric.with_jitter(np.random.default_rng(seed), amount)
        mean = float(np.mean(metric.lengths))
        margin, floor = margin_scale * mean, floor_scale * mean
        out = feasibility_projection(mesh, metric, margin, floor)
        assert mm.check_feasible(mesh, out, margin) == []
        assert (out.lengths >= floor).all()


def jittered_start(mesh, emb):
    """A start metric below the auto margin, and its repair at the auto settings."""
    metric = mm.MetricField.from_embedding(mesh, emb).with_jitter(np.random.default_rng(0), 0.3)
    mean = float(np.mean(metric.lengths))
    assert mm.check_feasible(mesh, metric, 1e-4 * mean)
    return metric, feasibility_projection(mesh, metric, 1e-4 * mean, 1e-6 * mean)


def fail_first_candidate(monkeypatch, owner, name, exc):
    """Make ``owner.name`` raise ``exc`` once, at the first line-search candidate.

    Returns the ``on_iteration`` callback that arms the failure at row 0,
    after the start's own repair. Both step rule cases accept their first
    candidate when nothing fails, so with the failure row 1's step is the
    first trial step halved exactly once.
    """
    real = getattr(owner, name)
    armed = []

    def failing(*args, **kwargs):
        if armed:
            armed.clear()
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    return lambda state: armed.append(True) if state.row.iteration == 0 else None


class TestRunOptimization:
    def geometry_setup(self, icosphere1, seed=6, amount=0.2):
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=seed, amount=amount)
        cfg = LossConfig(lambda_=1.0, p=2.0, mu_volume=1.0, v_target=None)
        report = mm.curvature_report(mesh, metric)
        cfg = dataclasses.replace(cfg, v_target=report.total_volume)
        return mesh, emb, metric, cfg

    def test_isolated_vertex_rejected_before_first_iteration(self):
        # vertex 3 is on no face: its vertex area is 0, so for p > 1 the
        # curvature energy is inf and no step could ever lower the loss
        mesh = mm.Mesh(4, [[0, 1, 2]])
        emb = mm.Embedding(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]]))
        metric = mm.MetricField.from_embedding(mesh, emb)
        ds = mm.Dataset(np.array([[0.2, 0.2, 0.5]]))
        seen = []
        with pytest.raises(mm.IsolatedVertexError, match="vertex 3"):
            run_optimization(
                mesh, metric, emb, ds, LossConfig(lambda_=1.0, p=2.0),
                stop=StopRule(max_iters=3), on_iteration=seen.append,
            )
        assert seen == []

    def test_non_finite_start_loss_raises_before_row_zero(self, icosphere1):
        # at p = 600 the curvature term is 0 * inf = nan, and its zero
        # weight keeps it: 0 * nan
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=0, amount=0.2)
        seen = []
        with pytest.raises(mm.TapeNonFiniteError, match="the total loss at the start is nan"):
            run_optimization(
                mesh, metric, emb, None, LossConfig(lambda_=0.0, p=600.0, mu_iso=0.01),
                stop=StopRule(max_iters=3), on_iteration=seen.append,
            )
        assert seen == []

    def test_candidate_whose_areas_overflow_is_rejected(self):
        # at 4e153 the start's total area is 1.6e308, and the first trial
        # candidate's areas leave the float range: its loss raises
        # ValueError, which is one halving, not the end of the run
        mesh, emb = mm.make_icosphere(2)
        emb = mm.Embedding(emb.coords * 4e153)
        rng = np.random.default_rng(1)
        metric = mm.MetricField.from_embedding(mesh, emb).with_jitter(rng, 0.5)
        res = run_optimization(
            mesh, metric, emb, None, FLOW, stop=StopRule(max_iters=30, grad_tol=0.0),
            freeze_embedding=True,
        )
        assert res.stop_reason == "max_iters"
        assert res.rows[1].eta < res.eta_init
        assert res.final.l_total < res.rows[0].l_total

    def test_grad_norm_of_overflowing_squares_is_finite(self, icosphere1):
        # at p = 300 the gradient is finite, but its sum of squares is not
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=0, amount=0.2)
        grads = []
        res = run_optimization(
            mesh, metric, emb, None, LossConfig(lambda_=1.0, p=300.0, mu_iso=0.01),
            stop=StopRule(max_iters=2),
            on_iteration=lambda s: grads.append(np.concatenate((s.grad_lengths, s.grad_coords))),
        )
        assert len(res.rows) == 3
        for row, g in zip(res.rows, grads):
            with np.errstate(over="ignore"):
                assert math.isinf(float(np.add.reduce(g * g)))
            top = float(np.abs(g).max())
            assert row.grad_norm == pytest.approx(top * math.sqrt(np.add.reduce((g / top) ** 2)))

    def test_overflowing_candidate_projection_is_rejected(self, icosphere1, monkeypatch):
        # a candidate embedding whose squared distances overflow is one more
        # rejected step, not the end of the run
        mesh, emb = icosphere1
        metric = mm.MetricField.from_embedding(mesh, emb)
        ds = sphere_dataset()
        first = mm.project_dataset_arrays(ds.points, emb, mesh)
        calls = []

        def project(points, embedding, mesh_):
            calls.append(embedding)
            if len(calls) > 1:
                raise ValueError("the squared distance of point 0 to the mesh overflows")
            return first

        monkeypatch.setattr(optimize, "project_dataset_arrays", project)
        res = run_optimization(
            mesh, metric, emb, ds, LossConfig(lambda_=1e-3, mu_iso=1e-2),
            stop=StopRule(max_iters=3, grad_tol=1e-12),
        )
        assert res.stop_reason == "stalled" and res.iterations == 0
        assert len(calls) > 2

    @pytest.mark.parametrize(
        "kind,owner,name,exc",
        [
            ("flow", optimize, "feasibility_projection", FeasibilityProjectionError("forced")),
            ("fit", optimize, "feasibility_projection", FeasibilityProjectionError("forced")),
            ("fit", optimize, "Embedding", ValueError("forced")),
            ("fit", optimize, "project_dataset_arrays", ValueError("forced")),
            ("flow", optimize, "MetricField", ValueError("forced")),
            ("flow", optimize, "total_loss", ValueError("forced")),
        ],
        ids=[
            "flow-repair", "fit-repair", "fit-coordinates", "fit-projection", "flow-lengths",
            "flow-loss",
        ],
    )
    def test_failed_candidate_halves_the_step(self, kind, owner, name, exc, monkeypatch):
        # a failed repair, candidate lengths or coordinates refused, an
        # overflowing projection or a loss that cannot be evaluated is one
        # halving
        mesh, metric, emb, ds, cfg, freeze = step_rule_case(kind)
        arm = fail_first_candidate(monkeypatch, owner, name, exc)
        res = run_optimization(
            mesh, metric, emb, ds, cfg, stop=StopRule(max_iters=1, grad_tol=0.0),
            freeze_embedding=freeze, on_iteration=arm,
        )
        assert res.stop_reason == "max_iters"
        assert res.rows[1].eta == res.eta_init * 0.5

    def test_descent_trace_shape(self, icosphere1):
        mesh, emb, metric, cfg = self.geometry_setup(icosphere1)
        res = run_optimization(
            mesh, metric, emb, None, cfg,
            stop=StopRule(max_iters=25, grad_tol=1e-12),
            freeze_embedding=True,
        )
        assert res.stop_reason in {"max_iters", "grad_tol", "loss_tol", "stalled"}
        assert res.iterations == len(res.rows) - 1
        assert res.final is res.rows[-1]
        assert res.rows[0].eta == 0.0
        assert res.rows[0].iteration == 0
        assert [r.iteration for r in res.rows] == list(range(len(res.rows)))
        for r in res.rows[1:]:
            assert r.eta > 0.0

    def test_trace_monotone_and_feasible(self, icosphere1):
        mesh, emb, metric, cfg = self.geometry_setup(icosphere1)
        res = run_optimization(
            mesh, metric, emb, None, cfg,
            stop=StopRule(max_iters=40, grad_tol=1e-12),
            freeze_embedding=True,
        )
        totals = [r.l_total for r in res.rows]
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        assert totals[-1] < totals[0]
        for r in res.rows:
            assert r.max_deficit <= 0.0
        assert mm.check_feasible(mesh, res.metric, res.config.feas_margin) == []

    def test_callback_sees_every_accepted_iterate(self, icosphere1):
        mesh, emb, metric, cfg = self.geometry_setup(icosphere1)
        states = []
        res = run_optimization(
            mesh, metric, emb, None, cfg,
            stop=StopRule(max_iters=10, grad_tol=1e-12),
            freeze_embedding=True,
            on_iteration=states.append,
        )
        assert len(states) == len(res.rows)
        for k, state in enumerate(states):
            assert state.row.iteration == k
            assert mm.check_feasible(mesh, state.metric, res.config.feas_margin) == []
            assert (state.metric.lengths >= res.config.min_length).all()
            assert state.grad_coords is None  # frozen embedding
            assert state.embedding is emb

    def test_stop_max_iters(self, icosphere1):
        mesh, emb, metric, cfg = self.geometry_setup(icosphere1)
        res = run_optimization(
            mesh, metric, emb, None, cfg,
            stop=StopRule(max_iters=2, grad_tol=1e-15),
            freeze_embedding=True,
        )
        assert res.stop_reason == "max_iters"
        assert len(res.rows) == 3

    def test_stop_grad_tol(self, icosphere1):
        mesh, emb, metric, cfg = self.geometry_setup(icosphere1)
        res = run_optimization(
            mesh, metric, emb, None, cfg,
            stop=StopRule(max_iters=50, grad_tol=1e9),
            freeze_embedding=True,
        )
        assert res.stop_reason == "grad_tol"
        assert res.iterations == 0

    def test_stop_loss_tol(self, icosphere1):
        mesh, emb, metric, cfg = self.geometry_setup(icosphere1)
        res = run_optimization(
            mesh, metric, emb, None, cfg,
            stop=StopRule(max_iters=50, grad_tol=1e-15, loss_tol=1e12),
            freeze_embedding=True,
        )
        assert res.stop_reason == "loss_tol"
        assert res.iterations == 1

    def test_stop_stalled(self, icosphere1, monkeypatch):
        mesh, emb, metric, cfg = self.geometry_setup(icosphere1)
        real = optimize.total_loss
        calls = {"n": 0}

        def worse_candidates(*args, **kwargs):
            out = real(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] == 1:
                return out  # the initial evaluation
            return dataclasses.replace(out, total=out.total + 1e12)

        monkeypatch.setattr(optimize, "total_loss", worse_candidates)
        res = run_optimization(
            mesh, metric, emb, None, cfg,
            stop=StopRule(max_iters=50, grad_tol=1e-15),
            freeze_embedding=True,
        )
        assert res.stop_reason == "stalled"
        assert res.iterations == 0

    def test_deterministic_repeat(self, icosphere1):
        mesh, emb, metric, cfg = self.geometry_setup(icosphere1)
        kwargs = dict(stop=StopRule(max_iters=15, grad_tol=1e-12), freeze_embedding=True)
        a = run_optimization(mesh, metric, emb, None, cfg, **kwargs)
        b = run_optimization(mesh, metric, emb, None, cfg, **kwargs)
        assert a.rows == b.rows
        assert a.stop_reason == b.stop_reason
        np.testing.assert_array_equal(a.metric.lengths, b.metric.lengths)

    def test_zero_regularization_leaves_lengths_untouched(self, icosphere1):
        mesh, emb = icosphere1
        metric = mm.MetricField.from_embedding(mesh, emb)
        ds = sphere_dataset(40, seed=9, radius=1.3)
        cfg = LossConfig(lambda_=0.0, mu_iso=0.0)
        grads = []
        res = run_optimization(
            mesh, metric, emb, ds, cfg,
            stop=StopRule(max_iters=8, grad_tol=1e-15),
            on_iteration=lambda s: grads.append(s.grad_lengths.copy()),
        )
        for g in grads:
            assert np.count_nonzero(g) == 0
        np.testing.assert_array_equal(res.metric.lengths, metric.lengths)
        assert res.rows[-1].l_data < res.rows[0].l_data  # embedding still moved

    def test_data_fit_descends(self, icosphere1):
        mesh, emb = icosphere1
        metric = mm.MetricField.from_embedding(mesh, emb)
        ds = sphere_dataset(60, seed=3, radius=1.25)
        cfg = LossConfig(lambda_=1e-3, mu_iso=1e-2)
        res = run_optimization(
            mesh, metric, emb, ds, cfg,
            stop=StopRule(max_iters=30, grad_tol=1e-12),
        )
        assert res.rows[-1].l_data < 0.5 * res.rows[0].l_data
        totals = [r.l_total for r in res.rows]
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_flow_candidates_repair_without_failure(self, monkeypatch, seed):
        # Curvature flow from a heavily jittered start. Repaired by plain
        # cyclic projection, 4-5 line-search candidates per solve ran all
        # 50 sweeps and failed; over-relaxed, none does.
        mesh, emb = mm.make_icosphere(2)
        metric = mm.MetricField.from_embedding(mesh, emb)
        metric = metric.with_jitter(np.random.default_rng(seed), 0.5)
        metric, cfg = optimize._start(
            mesh, metric, LossConfig(lambda_=1.0, p=1.5, mu_dirichlet=0.1, mu_volume=1.0)
        )
        real = optimize.feasibility_projection
        failures = []

        def counting(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except FeasibilityProjectionError as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(optimize, "feasibility_projection", counting)
        res = run_optimization(
            mesh, metric, emb, None, cfg,
            stop=StopRule(max_iters=6, grad_tol=0.0), freeze_embedding=True,
        )
        assert failures == []
        assert res.stop_reason == "max_iters"

    def test_volume_target_resolved_from_repaired_start(self, icosphere1):
        mesh, emb = icosphere1
        metric, repaired = jittered_start(mesh, emb)
        res = run_optimization(
            mesh, metric, emb, None, LossConfig(mu_volume=1.0),
            stop=StopRule(max_iters=2, grad_tol=0.0), freeze_embedding=True,
        )
        assert res.config.v_target == mm.curvature_report(mesh, repaired).total_volume
        assert res.rows[0].l_vol == 0.0
        assert res.stop_reason == "max_iters"


def descent_states(case, max_iters):
    """(result, [(joint iterate, joint gradient) per row]) of one descent."""
    mesh, metric, emb, ds, cfg, freeze = case
    states = []

    def keep(state):
        x, g = state.metric.lengths, state.grad_lengths
        if state.grad_coords is not None:
            x = np.concatenate((x, state.embedding.coords.ravel()))
            g = np.concatenate((g, state.grad_coords))
        states.append((x, g))

    res = run_optimization(
        mesh, metric, emb, ds, cfg, stop=StopRule(max_iters=max_iters, grad_tol=0.0),
        freeze_embedding=freeze, on_iteration=keep,
    )
    return res, states


def step_rule_case(kind):
    """(mesh, metric, embedding, dataset, config, freeze_embedding) of a flow or fit case."""
    if kind == "flow":
        mesh, emb, metric = flow_case()
        return mesh, metric, emb, None, FLOW, True
    mesh, emb, ds, metric = fit_case()
    return mesh, metric, emb, ds, FIT, False


class TestStepRule:
    @pytest.mark.parametrize("kind", ["fit", "flow"])
    def test_first_step_is_one_mean_length_over_the_largest_gradient(self, kind):
        res, states = descent_states(step_rule_case(kind), 1)
        x0, g0 = states[0]
        first = float(np.mean(x0[: res.metric.edge_count])) / float(np.abs(g0).max())
        assert res.eta_init == first
        # the first candidate is accepted on both cases, so row 1 took it
        assert res.rows[1].eta == first

    @pytest.mark.parametrize("kind", ["fit", "flow"])
    def test_every_step_is_the_rule_halved(self, kind):
        # each accepted eta is the rule's trial step halved j >= 0 times,
        # an exact operation, so the match is bitwise
        res, states = descent_states(step_rule_case(kind), 8)
        assert res.stop_reason == "max_iters"
        firsts = 0
        for k in range(1, len(res.rows)):
            if k == 1:
                trial = res.eta_init
            else:
                (x0, g0), (x1, g1) = states[k - 2], states[k - 1]
                s, y = x1 - x0, g1 - g0
                # the library's sums: numpy's pairwise reduction, not BLAS
                sy = float(np.add.reduce(s * y))
                last = res.rows[k - 1].eta
                ss = float(np.add.reduce(s * s))
                trial = min(ss / sy, 4.0 * last) if sy > 0.0 else 2.0 * last
            halvings = [j for j in range(optimize._MAX_BACKTRACKS + 1)
                        if res.rows[k].eta == trial * 0.5**j]
            assert halvings, k
            firsts += halvings[0] == 0
        assert firsts >= len(res.rows) - 2

    def test_bb_step(self):
        s = np.array([1.0, -2.0, 0.5])
        y = np.array([0.5, -1.0, 0.25])  # s.s / s.y = 2
        assert optimize._bb_step(s, y, 1.0) == 2.0

    def test_bb_step_capped_at_four_times_the_last(self):
        s = np.array([1.0, -2.0, 0.5])
        assert optimize._bb_step(s, 1e-6 * s, 0.25) == 1.0
        assert optimize._bb_step(s, np.array([1e-300, 0.0, 0.0]), 3.0) == 12.0

    @pytest.mark.parametrize(
        "y", [[-1.0, 2.0, -0.5], [0.0, 0.0, 0.0], [2.0, 1.0, 0.0]], ids=["opposed", "zero", "orthogonal"]
    )
    def test_bb_step_doubles_without_positive_curvature(self, y):
        assert optimize._bb_step(np.array([1.0, -2.0, 0.5]), np.array(y), 0.75) == 1.5

    def test_no_step_tried(self):
        mesh, metric, emb, ds, cfg, freeze = step_rule_case("flow")
        stop = StopRule(max_iters=0)
        res = run_optimization(mesh, metric, emb, ds, cfg, stop=stop, freeze_embedding=freeze)
        assert res.iterations == 0 and res.eta_init is None


class TestLambdaSweep:
    def test_weight_validation(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        for bad in ([], [1.0, 0.5], [-1.0], [math.inf], [math.nan]):
            with pytest.raises(ValueError):
                lambda_sweep(mesh, metric, emb, None, LossConfig(), bad)

    def test_sweep_runs_all_weights(self, icosphere1):
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=13, amount=0.15)
        records = lambda_sweep(
            mesh, metric, emb, None, LossConfig(), [0.1, 1.0, 10.0],
            stop=StopRule(max_iters=3, grad_tol=1e-12), freeze_embedding=True,
        )
        assert [r.lambda_ for r in records] == [0.1, 1.0, 10.0]
        assert all(r.status == "ok" for r in records)
        assert all(r.result is not None for r in records)
        assert all(r.result.config.lambda_ == r.lambda_ for r in records)

    def test_failed_weight_recorded_and_skipped(self, icosphere1, monkeypatch):
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=13, amount=0.15)
        real = optimize.run_optimization
        seen_starts = []

        def flaky(mesh_, metric_, *args, **kwargs):
            cfg = args[2]
            seen_starts.append(metric_)
            if cfg.lambda_ == 1.0:
                raise mm.TapeNonFiniteError("injected failure")
            return real(mesh_, metric_, *args, **kwargs)

        monkeypatch.setattr(optimize, "run_optimization", flaky)
        records = lambda_sweep(
            mesh, metric, emb, None, LossConfig(), [0.1, 1.0, 10.0],
            stop=StopRule(max_iters=2, grad_tol=1e-12), freeze_embedding=True,
        )
        assert [r.status for r in records] == ["ok", "failed", "ok"]
        assert records[1].result is None
        assert records[1].detail == "TapeNonFiniteError: injected failure"
        # the failed weight leaves the warm-start state untouched
        assert seen_starts[2] is records[0].result.metric

    def test_only_a_non_finite_run_is_recorded(self, icosphere1, monkeypatch):
        # no run raises another error, so one that does is a fault to report
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=13, amount=0.15)

        def failing(*args, **kwargs):
            raise InfeasibleMetricError("injected failure")

        monkeypatch.setattr(optimize, "run_optimization", failing)
        with pytest.raises(InfeasibleMetricError, match="injected failure"):
            lambda_sweep(mesh, metric, emb, None, LossConfig(), [0.1, 1.0])

    def test_non_finite_start_loss_fails_its_weight(self, icosphere1):
        # at p = 600 the curvature term is nan at every weight: the sweep
        # records each weight as failed and goes on to the next
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=0, amount=0.2)
        records = lambda_sweep(
            mesh, metric, emb, None, LossConfig(p=600.0, mu_iso=0.01), [0.0, 1.0],
            stop=StopRule(max_iters=3), freeze_embedding=True,
        )
        assert [r.status for r in records] == ["failed", "failed"]
        assert all(r.result is None for r in records)
        assert records[0].detail == "TapeNonFiniteError: the total loss at the start is nan"

    def test_auto_margin_resolved_once_from_start(self, icosphere1):
        # every weight runs at the margin and floor of the starting metric,
        # not of the previous optimum it warm-starts from
        mesh, emb = icosphere1
        rng = np.random.default_rng(0)
        metric = mm.MetricField.from_embedding(mesh, emb).with_jitter(rng, 0.3)
        records = lambda_sweep(
            mesh, metric, emb, None, LossConfig(), [0.1, 1.0, 10.0],
            stop=StopRule(max_iters=5, grad_tol=1e-12), freeze_embedding=True,
        )
        mean = float(np.mean(metric.lengths))
        assert all(r.status == "ok" for r in records)
        for r in records:
            assert r.result.config.feas_margin == 1e-4 * mean
            assert r.result.config.min_length == 1e-6 * mean

    def test_volume_target_resolved_once_from_start(self, icosphere1):
        mesh, emb = icosphere1
        metric, repaired = jittered_start(mesh, emb)
        records = lambda_sweep(
            mesh, metric, emb, None, LossConfig(mu_volume=1.0), [0.1, 1.0],
            stop=StopRule(max_iters=2, grad_tol=0.0), freeze_embedding=True,
        )
        volume = mm.curvature_report(mesh, repaired).total_volume
        assert [r.status for r in records] == ["ok", "ok"]
        assert [r.result.config.v_target for r in records] == [volume, volume]

    def test_unrepairable_start_raises_before_first_weight(self, icosphere1, monkeypatch):
        # log-normal lengths (sigma 3) need 3 sweeps; the budget is 2
        mesh, emb = icosphere1
        lengths = np.exp(np.random.default_rng(0).normal(0.0, 3.0, mesh.edge_count))
        monkeypatch.setattr(optimize, "_MAX_SWEEPS", 2)
        calls = []
        monkeypatch.setattr(optimize, "run_optimization", lambda *a, **k: calls.append(a))
        with pytest.raises(FeasibilityProjectionError):
            lambda_sweep(mesh, mm.MetricField(lengths), emb, None, LossConfig(), [0.1, 1.0])
        assert calls == []

    def test_warm_start_chains(self, icosphere1):
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=14, amount=0.2)
        records = lambda_sweep(
            mesh, metric, emb, None, LossConfig(), [0.5, 2.0],
            stop=StopRule(max_iters=4, grad_tol=1e-12), freeze_embedding=True,
        )
        first_final = records[0].result.metric.lengths
        second_initial_deficit = records[1].result.rows[0].max_deficit
        assert second_initial_deficit <= 0.0
        # the second run started from the first optimum: its row-0 curvature
        # matches a direct evaluation there
        report = mm.curvature_report(mesh, mm.MetricField(first_final))
        assert records[1].result.rows[0].l_curv == pytest.approx(
            mm.curvature_energy(report, 2.0), rel=1e-12
        )


class TestTraceRow:
    def test_field_order_stable(self):
        assert TraceRow.fields() == (
            "iteration", "eta", "l_data", "l_curv", "l_dirichlet",
            "l_vol", "l_iso", "l_total", "max_deficit", "grad_norm",
        )
