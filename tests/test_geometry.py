import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metricmesh as mm
from metricmesh import geometry
from metricmesh.errors import InfeasibleMetricError
from metricmesh.projection import _unit_scaled

from conftest import feasible_jittered
from traced_geometry import interior_angles, triangle_area

# Frozen reference values, derived independently (50-digit arithmetic for the
# angle, closed forms for the rest) before the implementations were written.
ANGLE_OPP_3998 = 3.078344464858538          # arccos((4+4-3.998^2)/8)
AREA_2_2_3998 = 0.126412056383077           # Heron, exact rational radicand
AREA_UNIT_EQUILATERAL = 0.4330127018922193  # sqrt(3)/4
ICO_UNIT_EDGE_P2_ENERGY = 18.234300024844977  # 12*(pi/3)^2 / (5*sqrt(3)/12)


def feasible_triples(min_side=0.1, max_side=10.0, rel_slack=1e-3):
    """Triangle side strategy staying away from degeneracy.

    Keeps the smallest triangle-inequality slack above rel_slack times the
    longest side so reference formulas with worse conditioning stay usable.
    """

    def ok(t):
        a, b, c = t
        m = max(a, b, c)
        return min(a + b - c, b + c - a, c + a - b) > rel_slack * m

    side = st.floats(min_value=min_side, max_value=max_side,
                     allow_nan=False, allow_infinity=False)
    return st.tuples(side, side, side).filter(ok)


def reference_area(a, b, c):
    # planar embedding: A at origin, B at (c, 0), C from the angle at A
    cos_a = (b * b + c * c - a * a) / (2.0 * b * c)
    sin_a = math.sqrt(max(1.0 - cos_a * cos_a, 0.0))
    return 0.5 * b * c * sin_a


def reference_corner_angles(fl):
    """The np.clip form of ``geometry._corner_angles``, kept as its bitwise reference."""
    l_ij, l_jk, l_ki = fl[:, 0], fl[:, 1], fl[:, 2]
    sq_ij, sq_jk, sq_ki = l_ij**2, l_jk**2, l_ki**2
    angles = np.empty_like(fl)
    with np.errstate(invalid="ignore"):
        angles[:, 0] = np.arccos(np.clip((sq_ki + sq_ij - sq_jk) / (2.0 * l_ki * l_ij), -1.0, 1.0))
        angles[:, 1] = np.arccos(np.clip((sq_ij + sq_jk - sq_ki) / (2.0 * l_ij * l_jk), -1.0, 1.0))
        angles[:, 2] = np.arccos(np.clip((sq_jk + sq_ki - sq_ij) / (2.0 * l_jk * l_ki), -1.0, 1.0))
    return angles


@np.errstate(over="ignore")
def reference_areas(fl, k):
    """The sorting form of ``geometry._areas``, kept as its bitwise reference."""
    s = -np.sort(-fl, axis=1)
    a, b, c = s[:, 0], s[:, 1], s[:, 2]
    prod = (a + (b + c)) * (c - (a - b)) * ((c + (a - b)) * (a + (b - c)))
    return np.ldexp(0.25 * np.sqrt(np.maximum(prod, 0.0)), 2 * k)


@st.composite
def face_rows(draw):
    """One face's three lengths, in any order: equilateral, isosceles, a
    sliver whose slack is the feasibility margin (1e-4 of the mean) or a
    few ulps, or a general feasible triangle."""
    a = draw(st.floats(min_value=0.5, max_value=2.0))
    t = draw(st.floats(min_value=1e-3, max_value=1.0))
    kind = draw(st.sampled_from(["equilateral", "isosceles", "margin", "flat", "general"]))
    if kind == "equilateral":
        row = [a, a, a]
    elif kind == "isosceles":
        row = [a, a, 2.0 * a * t * (1.0 - 1e-9)]
    elif kind == "margin":
        b = a * t
        row = [a, b, (a + b) * (1.0 - 2e-4 / 3.0)]  # slack about 1e-4 * mean(a, b, c)
    elif kind == "flat":
        b = a * t
        row = [a, b, (a + b) - draw(st.integers(0, 4)) * np.spacing(a + b)]
    else:
        b = a * t
        row = [a, b, (a - b) + 2.0 * b * draw(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))]
    return draw(st.permutations(row))


# One triangle as a mesh. Its edges, in lexicographic order, are (0,1),
# (0,2), (1,2); the corner at vertex i is opposite the edge without i.
ONE_FACE = mm.Mesh(3, np.array([[0, 1, 2]], dtype=np.int64))


def one_face_metric(la, lb, lc):
    """Metric whose corners 0, 1, 2 are opposite sides la, lb, lc."""
    return mm.MetricField(np.array([lc, lb, la]))


def angles(la, lb, lc):
    """(alpha, beta, gamma) opposite (la, lb, lc) from ``face_corner_angles``."""
    return [float(x) for x in mm.face_corner_angles(ONE_FACE, one_face_metric(la, lb, lc))[0]]


def area(la, lb, lc):
    return float(mm.face_areas(ONE_FACE, one_face_metric(la, lb, lc))[0])


class TestAnglesAndAreas:
    def test_near_degenerate_angle(self):
        alpha, beta, gamma = angles(3.998, 2.0, 2.0)
        assert alpha == pytest.approx(ANGLE_OPP_3998, abs=1e-13)
        assert beta == gamma
        assert alpha + beta + gamma == pytest.approx(math.pi, abs=1e-12)

    def test_near_degenerate_area(self):
        assert area(2.0, 2.0, 3.998) == pytest.approx(AREA_2_2_3998, rel=1e-13)

    def test_equilateral(self):
        assert area(1.0, 1.0, 1.0) == pytest.approx(AREA_UNIT_EQUILATERAL, abs=1e-15)
        for a in angles(1.0, 1.0, 1.0):
            assert a == pytest.approx(math.pi / 3, abs=1e-15)

    def test_right_triangle(self):
        alpha, beta, gamma = angles(5.0, 3.0, 4.0)
        assert alpha == pytest.approx(math.pi / 2, abs=1e-15)
        assert area(3.0, 4.0, 5.0) == pytest.approx(6.0, rel=1e-15)
        # every corner is on the boundary, so its defect is pi minus its angle
        report = mm.curvature_report(ONE_FACE, one_face_metric(5.0, 3.0, 4.0))
        np.testing.assert_allclose(report.defect, [math.pi / 2, math.pi - beta, math.pi - gamma],
                                   rtol=0, atol=1e-15)
        assert report.total_volume == pytest.approx(6.0, rel=1e-15)
        np.testing.assert_allclose(report.vertex_area, 2.0, rtol=1e-15)

    def test_infeasible_rejected(self):
        for sides in ((1.0, 1.0, 2.5), (1.0, 1.0, 2.0), (0.3, 1.0, 0.5)):
            with pytest.raises(InfeasibleMetricError):
                mm.curvature_report(ONE_FACE, one_face_metric(*sides))

    def test_area_permutation_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = rng.uniform(0.5, 2.0, size=3)
            if min(a + b - c, b + c - a, c + a - b) <= 1e-6:
                continue
            base = area(a, b, c)
            for perm in ((b, c, a), (c, a, b), (a, c, b), (b, a, c), (c, b, a)):
                assert area(*perm) == base  # sorting makes it exact

    @given(feasible_triples())
    @settings(max_examples=200, deadline=None)
    def test_angle_sum_property(self, sides):
        got = angles(*sides)
        assert all(0.0 < a < math.pi for a in got)
        assert sum(got) == pytest.approx(math.pi, rel=1e-10)

    @given(feasible_triples())
    @settings(max_examples=200, deadline=None)
    def test_area_against_reference(self, sides):
        a, b, c = sides
        assert area(a, b, c) == pytest.approx(reference_area(a, b, c), rel=1e-9)

    @given(feasible_triples())
    @settings(max_examples=100, deadline=None)
    def test_law_of_sines(self, sides):
        a, b, c = sides
        alpha, beta, gamma = angles(a, b, c)
        r = a / math.sin(alpha)
        assert b / math.sin(beta) == pytest.approx(r, rel=1e-9)
        assert c / math.sin(gamma) == pytest.approx(r, rel=1e-9)


class TestVectorizedAgreement:
    def test_matches_scalar(self, icosphere1):
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=3, amount=0.15)
        fl = np.asarray([[metric.lengths[e] for e in mesh.face_edges[f]]
                         for f in range(mesh.face_count)])
        corner = mm.face_corner_angles(mesh, metric)
        areas = mm.face_areas(mesh, metric)
        for f in range(mesh.face_count):
            l_ij, l_jk, l_ki = fl[f]
            # corner j holds the angle at vertex faces[f, j]
            expected = interior_angles(l_jk, l_ki, l_ij)
            np.testing.assert_allclose(corner[f], expected, rtol=0, atol=1e-13)
            assert areas[f] == pytest.approx(triangle_area(l_ij, l_jk, l_ki), rel=1e-13)

    def test_infeasible_face_named(self, icosphere0):
        mesh, emb = icosphere0
        lengths = mm.MetricField.from_embedding(mesh, emb).lengths.copy()
        lengths[mesh.face_edges[7, 0]] = 100.0
        metric = mm.MetricField(lengths)
        with pytest.raises(InfeasibleMetricError) as exc:
            mm.curvature_report(mesh, metric)
        assert exc.value.faces  # offending faces reported

    def test_edge_count_mismatch_rejected(self, icosphere0):
        mesh, emb = icosphere0
        short = mm.MetricField(mm.MetricField.from_embedding(mesh, emb).lengths[:-1])
        message = f"metric has {mesh.edge_count - 1} lengths, mesh has {mesh.edge_count} edges"
        for quantity in (mm.face_corner_angles, mm.face_areas, mm.curvature_report):
            with pytest.raises(ValueError, match=message):
                quantity(mesh, short)

    def test_angle_rows_sum_to_pi(self, icosphere2):
        mesh, emb = icosphere2
        metric = feasible_jittered(mesh, emb, seed=11, amount=0.18)
        angles = mm.face_corner_angles(mesh, metric)
        np.testing.assert_allclose(angles.sum(axis=1), math.pi, rtol=0, atol=1e-12)


class TestColumnFormulas:
    # The angles clamp with minimum/maximum and the areas pick the sorted
    # sides with minimum/maximum; both must give their reference's bits.
    @given(
        st.lists(face_rows(), min_size=1, max_size=24),
        st.sampled_from([0, 500, -500]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_clip_and_sort(self, rows, power):
        fl, k = _unit_scaled(np.ldexp(np.array(rows), power))
        assert np.array_equal(geometry._corner_angles(fl.T).T, reference_corner_angles(fl))
        assert np.array_equal(geometry._areas(fl.T, k), reference_areas(fl, k))


class TestCurvature:
    def test_unit_edge_icosahedron_energy(self, icosphere0):
        mesh, _ = icosphere0
        metric = mm.MetricField.uniform(mesh, 1.0)
        report = mm.curvature_report(mesh, metric)
        assert mm.curvature_energy(report, 2.0) == pytest.approx(ICO_UNIT_EDGE_P2_ENERGY, abs=1e-12)
        # p=1 degenerates to the total absolute defect, here 4*pi exactly
        assert mm.curvature_energy(report, 1.0) == pytest.approx(4 * math.pi, abs=1e-12)

    def test_defect_density(self, icosphere0):
        mesh, emb = icosphere0
        report = mm.curvature_report(mesh, mm.MetricField.from_embedding(mesh, emb))
        np.testing.assert_allclose(report.defect_density,
                                   report.defect / report.vertex_area, rtol=0, atol=0)

    def test_vertex_area_partitions_surface(self, icosphere1):
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=5, amount=0.2)
        report = mm.curvature_report(mesh, metric)
        assert report.vertex_area.sum() == pytest.approx(report.face_area.sum(), rel=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_total_defect_sphere(self, icosphere1, seed):
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=seed, amount=0.25)
        report = mm.curvature_report(mesh, metric)
        assert abs(report.total_defect() - 4 * math.pi) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_total_defect_torus(self, seed):
        mesh, emb = mm.make_torus(8, 8, 2.0, 0.7)
        metric = feasible_jittered(mesh, emb, seed=seed, amount=0.2)
        report = mm.curvature_report(mesh, metric)
        assert abs(report.total_defect()) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_total_defect_disk(self, seed):
        # boundary vertices measured against pi, so the total is 2*pi*chi
        mesh, emb = mm.make_grid(6, 6, 1.0)
        metric = feasible_jittered(mesh, emb, seed=seed, amount=0.15)
        report = mm.curvature_report(mesh, metric)
        assert abs(report.total_defect() - 2 * math.pi) <= 1e-9

    def test_energy_rejects_bad_p(self, icosphere0):
        mesh, emb = icosphere0
        report = mm.curvature_report(mesh, mm.MetricField.from_embedding(mesh, emb))
        with pytest.raises(ValueError):
            mm.curvature_energy(report, 0.5)


class TestExtremeScale:
    # Angles and areas square the lengths; at 2**500 the squares overflow
    # and at 2**-500 they underflow unless both run at unit scale.
    @pytest.mark.parametrize("power", [500, -500])
    def test_angles_defects_and_areas(self, power):
        for mesh, emb in (mm.make_icosphere(2), mm.make_torus(16, 8, 2.0, 0.7),
                          mm.make_grid(12, 9, 1.0)):
            metric = feasible_jittered(mesh, emb, seed=4, amount=0.2)
            scaled = mm.MetricField(np.ldexp(metric.lengths, power))
            np.testing.assert_array_equal(
                mm.face_corner_angles(mesh, scaled), mm.face_corner_angles(mesh, metric)
            )
            base, got = mm.curvature_report(mesh, metric), mm.curvature_report(mesh, scaled)
            np.testing.assert_array_equal(got.defect, base.defect)
            np.testing.assert_array_equal(got.face_area, np.ldexp(base.face_area, 2 * power))
            np.testing.assert_array_equal(got.vertex_area, np.ldexp(base.vertex_area, 2 * power))
            assert got.total_volume == math.ldexp(base.total_volume, 2 * power)

    @pytest.mark.parametrize("length", [1e200, 1e-200])
    def test_unrepresentable_area_rejected(self, icosphere0, length):
        mesh, _ = icosphere0
        metric = mm.MetricField.uniform(mesh, length)
        np.testing.assert_array_equal(
            mm.face_corner_angles(mesh, metric), np.full((mesh.face_count, 3), math.pi / 3)
        )
        with pytest.raises(ValueError, match="out of float range"):
            mm.curvature_report(mesh, metric)

    def test_slacks_near_the_float_maximum(self, icosphere0):
        # a + b - c overflows at 1.5e308 unless summed at unit scale
        mesh, _ = icosphere0
        metric = mm.MetricField.uniform(mesh, 1.5e308)
        np.testing.assert_array_equal(mm.face_slacks(mesh, metric), 1.5e308)


class TestRegularizers:
    def test_dirichlet_scale_invariant(self, icosphere1):
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=9, amount=0.2)
        base = mm.dirichlet_energy(mesh, metric)
        assert base > 0
        for s in (0.3, 2.0, 17.5):
            scaled = mm.MetricField(metric.lengths * s)
            assert mm.dirichlet_energy(mesh, scaled) == pytest.approx(base, rel=1e-12)

    def test_dirichlet_zero_for_uniform(self, icosphere0):
        mesh, _ = icosphere0
        assert mm.dirichlet_energy(mesh, mm.MetricField.uniform(mesh, 2.0)) == 0.0

    def test_volume_penalty(self, icosphere1):
        mesh, emb = icosphere1
        report = mm.curvature_report(mesh, mm.MetricField.from_embedding(mesh, emb))
        vol = report.total_volume
        assert mm.volume_penalty(report, vol) == 0.0
        assert mm.volume_penalty(report, 2 * vol) == pytest.approx(0.25, rel=1e-12)
        with pytest.raises(ValueError):
            mm.volume_penalty(report, 0.0)


class TestFeasibility:
    def test_clean_metric(self, icosphere1):
        mesh, emb = icosphere1
        metric = mm.MetricField.from_embedding(mesh, emb)
        assert mm.check_feasible(mesh, metric) == []

    def test_broken_edge_detected(self, icosphere1):
        mesh, emb = icosphere1
        lengths = mm.MetricField.from_embedding(mesh, emb).lengths.copy()
        edge = 17
        lengths[edge] = 10.0
        metric = mm.MetricField(lengths)
        bad = mm.check_feasible(mesh, metric)
        assert bad
        bad_faces = {f for f, _ in bad}
        touching = {f for f in range(mesh.face_count) if edge in mesh.face_edges[f]}
        assert bad_faces == touching
        for _, deficit in bad:
            assert deficit > 0

    def test_margin_semantics(self, icosphere0):
        mesh, _ = icosphere0
        metric = mm.MetricField.uniform(mesh, 1.0)
        # equilateral slack is 1.0 per inequality
        assert mm.check_feasible(mesh, metric, margin=0.5) == []
        assert mm.check_feasible(mesh, metric, margin=1.5)

    def test_slack_values(self, icosphere0):
        mesh, _ = icosphere0
        metric = mm.MetricField.uniform(mesh, 1.0)
        np.testing.assert_allclose(mm.face_slacks(mesh, metric), 1.0, rtol=0, atol=0)


class TestMetricField:
    def test_validation(self, icosphere0):
        mesh, _ = icosphere0
        n = mesh.edge_count
        with pytest.raises(ValueError):
            mm.MetricField(np.ones((n, 2)))
        with pytest.raises(ValueError):
            mm.MetricField(np.concatenate([np.ones(n - 1), [0.0]]))
        with pytest.raises(ValueError):
            mm.MetricField(np.concatenate([np.ones(n - 1), [-1.0]]))
        with pytest.raises(ValueError):
            mm.MetricField(np.concatenate([np.ones(n - 1), [np.nan]]))

    def test_from_embedding_matches_norms(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        expected = np.linalg.norm(emb.coords[mesh.edges[:, 0]] - emb.coords[mesh.edges[:, 1]], axis=1)
        np.testing.assert_array_equal(metric.lengths, expected)

    def test_jitter_bounds_and_determinism(self, icosphere1):
        mesh, emb = icosphere1
        metric = mm.MetricField.from_embedding(mesh, emb)
        a = metric.with_jitter(np.random.default_rng(42), 0.3)
        b = metric.with_jitter(np.random.default_rng(42), 0.3)
        np.testing.assert_array_equal(a.lengths, b.lengths)
        ratios = a.lengths / metric.lengths
        assert (ratios >= 0.7).all() and (ratios <= 1.3).all()
        assert not np.array_equal(a.lengths, metric.lengths)

    def test_jitter_zero_amount(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        same = metric.with_jitter(np.random.default_rng(0), 0.0)
        np.testing.assert_array_equal(same.lengths, metric.lengths)

    def test_jitter_amount_range(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            metric.with_jitter(rng, 1.0)
        with pytest.raises(ValueError):
            metric.with_jitter(rng, -0.1)
