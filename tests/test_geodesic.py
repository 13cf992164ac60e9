import heapq
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metricmesh as mm
from metricmesh.errors import InfeasibleMetricError
from metricmesh.geodesic import _triangle_update, _validated
from metricmesh.projection import _unit_scaled

from conftest import feasible_jittered, two_triangle_strip

SQRT3 = math.sqrt(3.0)


class TestTriangleUpdate:
    def test_two_point_update_equilateral(self):
        # both supports at 0 on a unit equilateral: the apex sits at height
        # sqrt(3)/2 and the planar update finds exactly that
        assert _triangle_update(0.0, 0.0, 1.0, 1.0, 1.0) == pytest.approx(SQRT3 / 2, rel=1e-15)

    def test_gradient_too_steep_falls_back(self):
        # d_b - d_a equals the connecting edge: wavefront runs along it, the
        # two-point stencil is invalid and the one-point bound takes over
        assert _triangle_update(0.0, 1.0, 1.0, 1.0, 1.0) == 1.0
        assert _triangle_update(0.0, 1.0, math.sqrt(2.0), 1.0, 1.0) == 1.0

    def test_stale_support_ignored(self):
        # the far support is useless; result is the direct hop from A
        assert _triangle_update(0.0, 50.0, 1.0, 1.0, 1.0) == 1.0

    def test_degenerate_unfold_falls_back(self):
        # sides BC = 2, CA = 1, AB = 1 put C on the line through A and B:
        # the unfold has no height
        assert _triangle_update(0.0, 0.5, 2.0, 1.0, 1.0) == 1.0

    def test_nonfinite_support(self):
        assert _triangle_update(0.0, math.inf, 1.0, 1.0, 1.0) == 1.0
        assert math.isinf(_triangle_update(math.inf, math.inf, 1.0, 1.0, 1.0))

    def test_frozen_oblique_case(self):
        # 3-4-5 right triangle, supports 0 and 0.5; value pinned from the
        # planar unfolding worked by hand
        got = _triangle_update(0.0, 0.5, 4.0, 3.0, 5.0)
        a = np.array([0.0, 0.0])
        b = np.array([5.0, 0.0])
        c = np.array([9.0 / 5.0, 12.0 / 5.0])  # law-of-cosines placement
        n_x = (0.5 - 0.0) / 5.0
        n_y = math.sqrt(1 - n_x**2)
        expected = 0.0 + n_x * c[0] + n_y * c[1]
        foot = c[0] - (c[1] / n_y) * n_x
        assert 0.0 < foot < 5.0
        assert got == pytest.approx(expected, rel=1e-15)
        assert got <= min(0.0 + 3.0, 0.5 + 4.0)

    @given(
        st.floats(0.0, 5.0),
        st.floats(0.0, 5.0),
        st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0)).filter(
            lambda t: min(t[0] + t[1] - t[2], t[1] + t[2] - t[0], t[2] + t[0] - t[1]) > 1e-3
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_worse_than_one_point(self, d_a, d_b, sides):
        la, lb, lc = sides
        got = _triangle_update(d_a, d_b, la, lb, lc)
        assert got <= min(d_a + lb, d_b + la) + 1e-12

    @given(
        st.floats(0.0, 5.0),
        st.floats(0.0, 5.0),
        st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0)).filter(
            lambda t: min(t[0] + t[1] - t[2], t[1] + t[2] - t[0], t[2] + t[0] - t[1]) > 1e-3
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_support_swap_symmetry(self, d_a, d_b, sides):
        la, lb, lc = sides
        forward = _triangle_update(d_a, d_b, la, lb, lc)
        swapped = _triangle_update(d_b, d_a, lb, la, lc)
        assert forward == pytest.approx(swapped, rel=1e-12, abs=1e-12)


class TestFastMarching:
    def test_single_triangle(self):
        mesh = mm.Mesh(3, np.array([[0, 1, 2]]))
        field = mm.fast_marching(mesh, mm.MetricField.uniform(mesh, 1.0), 0)
        np.testing.assert_allclose(field.distances, [0.0, 1.0, 1.0], rtol=0, atol=0)
        assert field.source == 0
        assert field.reached().all()

    def test_equilateral_strip_frozen(self):
        mesh = two_triangle_strip()
        field = mm.fast_marching(mesh, mm.MetricField.uniform(mesh, 1.0), 0)
        np.testing.assert_allclose(
            field.distances, [0.0, 1.0, 1.0, 1.8660254037844386], rtol=0, atol=0
        )
        # the graph path 0-1-3 has length 2; the surface update is shorter
        graph = mm.dijkstra_distances(mesh, mm.MetricField.uniform(mesh, 1.0), 0)
        np.testing.assert_allclose(graph.distances, [0.0, 1.0, 1.0, 2.0], rtol=0, atol=0)

    def test_unit_grid_frozen(self):
        mesh, emb = mm.make_grid(10, 10, 1.0)
        metric = mm.MetricField.from_embedding(mesh, emb)
        d = mm.fast_marching(mesh, metric, 0).distances
        # vertex 12 sits at grid offset (2, 1); first-order overshoot of
        # sqrt(5) pinned once and watched for regressions
        assert d[12] == pytest.approx(2.3243932834975496, rel=1e-14)
        assert d[12] >= math.hypot(2.0, 1.0)
        assert d[9] == pytest.approx(9.0, rel=1e-14)  # straight boundary run

    def test_scaling_by_two_is_exact(self, icosphere1):
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=4, amount=0.2)
        base = mm.fast_marching(mesh, metric, 7).distances
        doubled = mm.fast_marching(mesh, mm.MetricField(metric.lengths * 2.0), 7).distances
        np.testing.assert_array_equal(doubled, 2.0 * base)

    def test_scaling_general(self, icosphere1):
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=4, amount=0.2)
        base = mm.fast_marching(mesh, metric, 7).distances
        s = 1.7
        scaled = mm.fast_marching(mesh, mm.MetricField(metric.lengths * s), 7).distances
        np.testing.assert_allclose(scaled, s * base, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_never_exceeds_graph_distance(self, icosphere1, seed):
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=seed, amount=0.25)
        source = seed * 3
        surf = mm.fast_marching(mesh, metric, source).distances
        graph = mm.dijkstra_distances(mesh, metric, source).distances
        assert (surf <= graph + 1e-12).all()
        assert surf[source] == 0.0
        assert np.isfinite(surf).all()
        assert (np.delete(surf, source) > 0).all()

    def test_determinism(self, icosphere1):
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=1, amount=0.2)
        a = mm.fast_marching(mesh, metric, 5).distances
        b = mm.fast_marching(mesh, metric, 5).distances
        np.testing.assert_array_equal(a, b)

    def test_disconnected_component_unreached(self):
        mesh = mm.Mesh(6, np.array([[0, 1, 2], [3, 4, 5]]))
        metric = mm.MetricField.uniform(mesh, 1.0)
        field = mm.fast_marching(mesh, metric, 0)
        assert np.isinf(field.distances[3:]).all()
        np.testing.assert_array_equal(field.reached(), [True] * 3 + [False] * 3)
        graph = mm.dijkstra_distances(mesh, metric, 0)
        assert np.isinf(graph.distances[3:]).all()

    def test_source_validation(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        # a float or a bool is no vertex, even where it equals one
        for bad in (-1, mesh.vertex_count, 1.0, 2.5, np.float64(1.0), True, False, "1", None):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                mm.fast_marching(mesh, metric, bad)
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                mm.dijkstra_distances(mesh, metric, bad)

    @pytest.mark.parametrize("solver", [mm.fast_marching, mm.dijkstra_distances])
    def test_numpy_integer_source(self, icosphere0, solver):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        want = solver(mesh, metric, 5)
        for source in (np.int64(5), np.int32(5), np.uint8(5)):
            got = solver(mesh, metric, source)
            assert type(got.source) is int and got.source == 5
            np.testing.assert_array_equal(got.distances, want.distances)

    def test_infeasible_metric_rejected(self, icosphere0):
        mesh, emb = icosphere0
        lengths = mm.MetricField.from_embedding(mesh, emb).lengths.copy()
        lengths[0] = 25.0
        with pytest.raises(InfeasibleMetricError):
            mm.fast_marching(mesh, mm.MetricField(lengths), 0)

    @pytest.mark.parametrize("solver", [mm.fast_marching, mm.dijkstra_distances])
    def test_zero_slack_face_rejected_like_curvature(self, solver):
        # face 0 of grid(2,2) has sides 1, 1 and 2: slack exactly 0, which
        # the strict triangle inequality rejects everywhere alike
        mesh, _ = mm.make_grid(2, 2, 1.0)
        metric = mm.MetricField(np.array([1.0, 1.5, 2.0, 1.0, 1.5]))
        with pytest.raises(InfeasibleMetricError) as want:
            mm.curvature_report(mesh, metric)
        with pytest.raises(InfeasibleMetricError) as got:
            solver(mesh, metric, 0)
        assert str(got.value) == str(want.value)
        assert got.value.faces == want.value.faces == (0,)

    @pytest.mark.parametrize("power", [600, -600])
    def test_extreme_scale_is_exact(self, icosphere1, power):
        # the unfold squares lengths: at 2**600 they overflow, at 2**-600
        # they underflow, unless it runs at unit scale
        mesh, emb = icosphere1
        metric = feasible_jittered(mesh, emb, seed=2, amount=0.2)
        base = mm.fast_marching(mesh, metric, 3).distances
        scaled = mm.MetricField(np.ldexp(metric.lengths, power))
        got = mm.fast_marching(mesh, scaled, 3).distances
        np.testing.assert_array_equal(got, np.ldexp(base, power))
        assert (got < mm.dijkstra_distances(mesh, scaled, 3).distances).any()


def numpy_scalar_fast_marching(mesh, metric, source):
    """Reference fast marching on numpy arrays and scalars.

    This is the loop ``fast_marching`` ran before it moved to Python
    lists and floats; the distances must stay bit for bit the same. Like
    ``fast_marching`` it unfolds at unit scale, which is exact.
    """
    _validated(mesh, metric, source)
    dist = np.full(mesh.vertex_count, np.inf)
    accepted = np.zeros(mesh.vertex_count, dtype=bool)
    dist[source] = 0.0
    heap = [(0.0, source)]
    faces = mesh.faces
    face_edges = mesh.face_edges
    lengths, k = _unit_scaled(metric.lengths)
    while heap:
        d, u = heapq.heappop(heap)
        if accepted[u] or d > dist[u]:
            continue
        accepted[u] = True
        for fi in mesh.vertex_faces(u):
            corners = faces[fi]
            fl = lengths[face_edges[fi]]
            opp = (fl[1], fl[2], fl[0])
            pos_u = 0 if corners[0] == u else (1 if corners[1] == u else 2)
            for pos_c in range(3):
                c = int(corners[pos_c])
                if pos_c == pos_u or accepted[c]:
                    continue
                pos_w = 3 - pos_u - pos_c
                w = int(corners[pos_w])
                cand = dist[u] + opp[pos_w]
                if accepted[w]:
                    cand = min(
                        cand,
                        _triangle_update(
                            dist[u], dist[w], la=opp[pos_u], lb=opp[pos_w], lc=opp[pos_c]
                        ),
                    )
                if cand < dist[c]:
                    dist[c] = cand
                    heapq.heappush(heap, (cand, c))
    return np.ldexp(dist, k)


def numpy_scalar_dijkstra(mesh, metric, source):
    """Reference edge-graph Dijkstra on numpy arrays and scalars."""
    _validated(mesh, metric, source)
    v = mesh.vertex_count
    u0, u1 = mesh.edges[:, 0], mesh.edges[:, 1]
    heads = np.concatenate([u0, u1])
    tails = np.concatenate([u1, u0])
    wts = np.concatenate([metric.lengths, metric.lengths])
    order = np.argsort(heads, kind="stable")
    tails = tails[order]
    wts = wts[order]
    starts = np.searchsorted(heads[order], np.arange(v + 1))
    dist = np.full(v, np.inf)
    done = np.zeros(v, dtype=bool)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = True
        for k in range(starts[u], starts[u + 1]):
            c = int(tails[k])
            cand = d + wts[k]
            if cand < dist[c]:
                dist[c] = cand
                heapq.heappush(heap, (cand, c))
    return dist


def _two_spheres():
    """Two disjoint icosphere(1) components; the second is never reached."""
    mesh, emb = mm.make_icosphere(1)
    faces = np.vstack((mesh.faces, mesh.faces + mesh.vertex_count))
    coords = np.vstack((emb.coords, emb.coords + 3.0))
    return mm.Mesh(2 * mesh.vertex_count, faces), mm.Embedding(coords)


def _alternating_icosphere():
    """icosphere(2) with every other face reversed, so the faces' corner orders disagree."""
    mesh, emb = mm.make_icosphere(2)
    faces = mesh.faces.copy()
    faces[1::2] = faces[1::2, ::-1]
    return mm.Mesh(mesh.vertex_count, faces), emb


def _isolated_source():
    """torus(8,6) with an isolated vertex numbered 23, one of the oracle's sources."""
    mesh, emb = mm.make_torus(8, 6, 2.0, 0.7)
    iso = (mesh.vertex_count + 1) // 2 - 1
    faces = np.where(mesh.faces >= iso, mesh.faces + 1, mesh.faces)
    coords = np.insert(emb.coords, iso, [0.0, 0.0, 3.0], axis=0)
    return mm.Mesh(mesh.vertex_count + 1, faces), mm.Embedding(coords)


def _three_face_edge():
    """icosphere(1) plus a third face, on a new vertex, on the first side of face 0."""
    mesh, emb = mm.make_icosphere(1)
    u, v = (int(x) for x in mesh.edges[mesh.face_edges[0, 0]])
    faces = np.vstack((mesh.faces, [[v, mesh.vertex_count, u]]))
    apex = 1.5 * (emb.coords[u] + emb.coords[v])
    coords = np.vstack((emb.coords, apex))
    return mm.Mesh(mesh.vertex_count + 1, faces), mm.Embedding(coords)


ORACLE_MESHES = {
    "icosphere(2)": lambda: mm.make_icosphere(2),
    "icosphere(3)": lambda: mm.make_icosphere(3),
    "torus(16,8,2.0,0.7)": lambda: mm.make_torus(16, 8, 2.0, 0.7),
    "grid(20,20,1.0)": lambda: mm.make_grid(20, 20, 1.0),
    "grid(30,7,0.5)": lambda: mm.make_grid(30, 7, 0.5),
    "two spheres": _two_spheres,
    "icosphere(2) alternating orientation": _alternating_icosphere,
    "isolated source": _isolated_source,
    "edge on three faces": _three_face_edge,
}


class TestListLoopsMatchNumpyScalars:
    @pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_bitwise(self, name, jitter):
        mesh, emb = ORACLE_MESHES[name]()
        if jitter:
            metric = feasible_jittered(mesh, emb, seed=len(name), amount=jitter)
        else:
            # uniform lengths: many exactly tied heap keys
            metric = mm.MetricField.uniform(mesh, 1.0)
        rng = np.random.default_rng(7)
        sources = [0, mesh.vertex_count // 2 - 1]
        sources += rng.choice(mesh.vertex_count // 2, 2, replace=False).tolist()
        for source in sources:
            fmm = mm.fast_marching(mesh, metric, source).distances
            dij = mm.dijkstra_distances(mesh, metric, source).distances
            assert fmm.dtype == dij.dtype == np.float64
            np.testing.assert_array_equal(fmm, numpy_scalar_fast_marching(mesh, metric, source))
            np.testing.assert_array_equal(dij, numpy_scalar_dijkstra(mesh, metric, source))
            if name == "two spheres":
                half = mesh.vertex_count // 2
                assert np.isfinite(fmm[:half]).all() and np.isinf(fmm[half:]).all()
                assert np.isinf(dij[half:]).all()

    def test_oracle_mesh_shapes(self):
        mesh, _ = _alternating_icosphere()
        # not consistently oriented: some side runs the same way in two faces
        sides = mesh.faces[:, (0, 1, 1, 2, 2, 0)].reshape(-1, 2).tolist()
        assert len(set(map(tuple, sides))) < len(sides)
        mesh, emb = _isolated_source()
        iso = mesh.vertex_count // 2 - 1  # the second source of test_bitwise
        assert mesh.isolated_vertices.tolist() == [iso]
        field = mm.fast_marching(mesh, mm.MetricField.from_embedding(mesh, emb), iso)
        assert field.reached().tolist() == [v == iso for v in range(mesh.vertex_count)]
        mesh, _ = _three_face_edge()
        assert sorted(mesh.edge_face_count.tolist())[-2:] == [2, 3]

    def test_one_mesh_two_metrics(self):
        # the fan table kept on the mesh is topology only: a second metric,
        # and then the first again, read their own lengths through it
        mesh, emb = _alternating_icosphere()
        metrics = [feasible_jittered(mesh, emb, seed=s, amount=0.3) for s in (1, 2)]
        for metric in metrics + metrics[:1]:
            for source in (0, 77):
                fmm = mm.fast_marching(mesh, metric, source).distances
                np.testing.assert_array_equal(
                    fmm, numpy_scalar_fast_marching(mesh, metric, source)
                )
        assert not np.array_equal(
            mm.fast_marching(mesh, metrics[0], 0).distances,
            mm.fast_marching(mesh, metrics[1], 0).distances,
        )
