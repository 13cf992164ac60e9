import io
import zlib

import numpy as np
import pytest

import metricmesh as mm
from metricmesh import projection
from metricmesh.errors import DatasetError
from metricmesh.projection import closest_point_on_face, project_dataset_arrays


def brute_force_sq(point, embedding, mesh, samples=60):
    """Dense barycentric grid scan, the slow reference for the kernel."""
    best = np.inf
    tris = embedding.coords[mesh.faces]
    for tri in tris:
        for i in range(samples + 1):
            for j in range(samples + 1 - i):
                b0 = i / samples
                b1 = j / samples
                q = b0 * tri[0] + b1 * tri[1] + (1.0 - b0 - b1) * tri[2]
                r = point - q
                best = min(best, float(r @ r))
    return best


def scan_all_faces(points, coords, faces):
    """Closest point per point by a scan over every face: the exact oracle.

    Runs the region-select closest-point kernel against all faces for one
    point at a time and keeps the first minimum, so ties go to the lowest
    face index. The pruned ``projection.project_points`` must agree with it
    bit for bit.
    """
    a = coords[faces[:, 0]]  # (F, n)
    b = coords[faces[:, 1]]
    c = coords[faces[:, 2]]
    ab = b - a
    ac = c - a
    npts = points.shape[0]
    nf = faces.shape[0]
    out_face = np.empty(npts, dtype=np.int64)
    out_bary = np.empty((npts, 3), dtype=np.float64)
    out_sq = np.empty(npts, dtype=np.float64)
    for ip in range(npts):
        p = points[ip]
        ap = p[None, :] - a
        bp = p[None, :] - b
        cp = p[None, :] - c
        d1 = np.einsum("fk,fk->f", ab, ap)
        d2 = np.einsum("fk,fk->f", ac, ap)
        d3 = np.einsum("fk,fk->f", ab, bp)
        d4 = np.einsum("fk,fk->f", ac, bp)
        d5 = np.einsum("fk,fk->f", ab, cp)
        d6 = np.einsum("fk,fk->f", ac, cp)
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
        ones = np.ones(nf)
        zeros = np.zeros(nf)
        b0 = np.select(conds, [ones, zeros, 1.0 - v_ab, zeros, 1.0 - w_ac, zeros], 1.0 - v_in - w_in)
        b1 = np.select(conds, [zeros, ones, v_ab, zeros, zeros, 1.0 - w_bc], v_in)
        b2 = np.select(conds, [zeros, zeros, zeros, ones, w_ac, w_bc], w_in)
        interior = ~(conds[0] | conds[1] | conds[2] | conds[3] | conds[4] | conds[5])
        bad = interior & ~((denom > 0.0) & np.isfinite(denom))
        for f in np.flatnonzero(bad):
            b0[f], b1[f], b2[f] = projection._closest_point_single(p, a[f], b[f], c[f])
        q = b0[:, None] * a + b1[:, None] * b + b2[:, None] * c
        sq = np.einsum("fk,fk->f", p[None, :] - q, p[None, :] - q)
        f_best = int(np.argmin(sq))
        out_face[ip] = f_best
        out_bary[ip] = b0[f_best], b1[f_best], b2[f_best]
        out_sq[ip] = sq[f_best]
    return out_face, out_bary, out_sq


def oracle_points(mesh, coords, rng):
    """Random cloud plus the tie-prone and far points the pruning must survive."""
    centre = coords.mean(axis=0)
    extent = float(np.abs(coords - centre).max())
    dim = coords.shape[1]
    cloud = centre + rng.normal(size=(120, dim)) * 0.7 * extent
    on_vertices = coords[rng.integers(0, coords.shape[0], 25)]
    edges = mesh.edges[rng.integers(0, mesh.edge_count, 25)]
    on_edges = 0.5 * (coords[edges[:, 0]] + coords[edges[:, 1]])
    above_vertices = centre + 1.5 * (coords[rng.integers(0, coords.shape[0], 25)] - centre)
    far = centre + rng.normal(size=(10, dim)) * 30.0 * extent
    return np.vstack([cloud, on_vertices, on_edges, above_vertices, far])


def oracle_case(name):
    """(points, coords, faces) for one named case of the oracle test."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    kind, _, variant = name.partition(" ")
    mesh, emb = mm.generate_mesh(kind)
    coords = emb.coords
    if variant == "2d":
        coords = np.ascontiguousarray(coords[:, :2])
    elif variant == "4d":
        coords = np.hstack([coords, coords[:, :1] * coords[:, 1:2]])
    elif variant == "flat":
        coords = coords * np.array([1.0, 1.0, 1e-9])
    elif variant == "collinear":
        # every face degenerate, its corners on one line
        coords = coords * np.array([1.0, 0.0, 0.0])
    elif variant == "isolated":
        # one vertex that no face uses, far from the surface; the points
        # near it have it as their nearest vertex but must land on a face
        coords = np.vstack([coords, [[4.0, 0.0, 0.0]]])
        mesh = mm.Mesh(coords.shape[0], mesh.faces)
    points = oracle_points(mesh, coords, rng)
    if variant == "isolated":
        points = np.vstack([points, [[4.0, 0.0, 0.0], [3.9, 0.2, -0.1]]])
    return np.ascontiguousarray(points), coords, mesh.faces


ORACLE_CASES = [
    f"{kind} {variant}".strip()
    for kind in ("icosphere(2)", "icosphere(3)", "torus(16,8,2.0,0.7)", "grid(30,30,1.0)")
    for variant in ("", "2d")
] + [
    "icosphere(2) 4d",
    "icosphere(2) flat",
    "torus(16,8,2.0,0.7) flat",
    "icosphere(2) collinear",
    "icosphere(1) isolated",
]


class TestPrunedProjectionMatchesScan:
    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_bitwise_equal_to_scan(self, name):
        points, coords, faces = oracle_case(name)
        got = projection.project_points(points, coords, faces)
        want = scan_all_faces(points, coords, faces)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        points, coords, faces = oracle_case("torus(16,8,2.0,0.7)")
        want = projection.project_points(points, coords, faces)
        monkeypatch.setattr(projection, "_BLOCK_PAIRS", 1)
        got = projection.project_points(points, coords, faces)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestProjectionScale:
    # Unscaled, the kernel's fourth-degree products overflow for coordinates
    # beyond about 1e77 and underflow below about 1e-77. Scaling by a power
    # of two is exact, so the answer must be the unit-scale one, sq times 4^k.
    @pytest.mark.parametrize("name", ["icosphere(2)", "grid(30,30,1.0)"])
    @pytest.mark.parametrize("k", [330, -300])
    def test_power_of_two_scale_is_exact(self, name, k):
        points, coords, faces = oracle_case(name)
        face, bary, sq = projection.project_points(points, coords, faces)
        got_face, got_bary, got_sq = projection.project_points(
            np.ldexp(points, k), np.ldexp(coords, k), faces
        )
        np.testing.assert_array_equal(got_face, face)
        np.testing.assert_array_equal(got_bary, bary)
        np.testing.assert_array_equal(got_sq, np.ldexp(sq, 2 * k))


class TestClosestPoint:
    def test_interior_projection(self):
        tri = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        bary, sq = closest_point_on_face(np.array([0.5, 0.5, 3.0]), tri)
        assert sq == pytest.approx(9.0, rel=1e-14)
        assert bary.sum() == pytest.approx(1.0, abs=1e-14)
        q = bary @ tri
        np.testing.assert_allclose(q, [0.5, 0.5, 0.0], atol=1e-14)

    def test_vertex_region(self):
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        bary, sq = closest_point_on_face(np.array([-1.0, -1.0, 0.0]), tri)
        np.testing.assert_allclose(bary, [1.0, 0.0, 0.0], atol=1e-14)
        assert sq == pytest.approx(2.0, rel=1e-14)

    def test_edge_region(self):
        tri = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        bary, sq = closest_point_on_face(np.array([1.0, -1.0, 0.0]), tri)
        np.testing.assert_allclose(bary, [0.5, 0.5, 0.0], atol=1e-14)
        assert sq == pytest.approx(1.0, rel=1e-14)

    def test_degenerate_triangle_falls_back_to_edges(self):
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])  # collinear
        bary, sq = closest_point_on_face(np.array([0.5, 1.0, 0.0]), tri)
        assert np.isfinite(bary).all()
        assert bary.sum() == pytest.approx(1.0, abs=1e-12)
        assert sq == pytest.approx(1.0, rel=1e-12)

    def test_matches_brute_force(self, icosphere0):
        mesh, emb = icosphere0
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(6, 3)) * 1.4
        faces, bary, sq = project_dataset_arrays(pts, emb, mesh)
        for i, p in enumerate(pts):
            ref = brute_force_sq(p, emb, mesh, samples=80)
            # the grid reference overshoots, so the kernel may only be better
            assert sq[i] <= ref + 1e-9
            assert sq[i] >= ref - 2e-3  # grid resolution bound


class TestBatchProjection:
    def test_barycentric_validity(self, icosphere2):
        mesh, emb = icosphere2
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 3))
        faces, bary, sq = project_dataset_arrays(pts, emb, mesh)
        assert ((faces >= 0) & (faces < mesh.face_count)).all()
        assert (bary >= -1e-12).all()
        np.testing.assert_allclose(bary.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        assert (sq >= 0).all()

    def test_surface_points_project_to_zero(self, icosphere1):
        mesh, emb = icosphere1
        # barycentric combinations of face corners lie exactly on the surface
        rng = np.random.default_rng(3)
        f = rng.integers(0, mesh.face_count, size=50)
        w = rng.dirichlet([1.0, 1.0, 1.0], size=50)
        pts = np.einsum("pk,pkn->pn", w, emb.coords[mesh.faces[f]])
        faces, bary, sq = project_dataset_arrays(pts, emb, mesh)
        assert sq.max() <= 1e-20

    def test_rigid_motion_invariance(self, icosphere1):
        mesh, emb = icosphere1
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(40, 3)) * 1.2
        _, _, sq = project_dataset_arrays(pts, emb, mesh)

        # random rotation (QR of a gaussian matrix) plus a translation
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))
        t = np.array([0.3, -1.1, 2.2])
        emb2 = mm.Embedding(emb.coords @ q.T + t)
        _, _, sq2 = project_dataset_arrays(pts @ q.T + t, emb2, mesh)
        np.testing.assert_allclose(sq2, sq, rtol=1e-9, atol=1e-12)

    def test_tie_goes_to_lowest_face(self, icosphere0):
        mesh, emb = icosphere0
        # query radially above a vertex: the closest point is the vertex,
        # shared by five faces, so the scan must report the smallest index
        v = 0
        pts = (emb.coords[v] * 2.0)[None, :]
        faces, bary, sq = project_dataset_arrays(pts, emb, mesh)
        incident = sorted(int(f) for f in mesh.vertex_faces(v))
        assert int(faces[0]) == incident[0]
        corner = list(mesh.faces[faces[0]]).index(v)
        assert bary[0, corner] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self, icosphere0):
        mesh, emb = icosphere0
        with pytest.raises(DatasetError):
            project_dataset_arrays(np.zeros((4, 2)), emb, mesh)

    def test_project_dataset_wrapper(self, icosphere0):
        mesh, emb = icosphere0
        ds = mm.Dataset(np.array([[0.0, 0.0, 2.0], [1.5, 0.0, 0.0]]))
        results = mm.project_dataset(ds, emb, mesh)
        assert [r.point_id for r in results] == [0, 1]
        faces, bary, sq = project_dataset_arrays(ds.points, emb, mesh)
        for r in results:
            assert r.face == faces[r.point_id]
            assert r.sq_distance == sq[r.point_id]
        assert mm.data_fidelity(results) == pytest.approx(float(sq.sum()), rel=1e-15)
        assert mm.data_fidelity(sq) == pytest.approx(float(sq.sum()), rel=1e-15)
        assert mm.data_fidelity([]) == 0.0


class TestDecode:
    def test_vertex_pick_exact(self, icosphere0):
        mesh, emb = icosphere0
        out = mm.decode(mesh, emb, 4, (0.0, 1.0, 0.0))
        np.testing.assert_array_equal(out, emb.coords[mesh.faces[4, 1]])

    def test_round_trip_through_projection(self, icosphere1):
        mesh, emb = icosphere1
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 3)) * 1.3
        faces, bary, sq = project_dataset_arrays(pts, emb, mesh)
        for i in range(pts.shape[0]):
            b = np.clip(bary[i], 0.0, None)
            b /= b.sum()
            q = mm.decode(mesh, emb, int(faces[i]), b)
            r = pts[i] - q
            assert float(r @ r) == pytest.approx(sq[i], rel=1e-9, abs=1e-12)

    def test_validation(self, icosphere0):
        mesh, emb = icosphere0
        with pytest.raises(ValueError):
            mm.decode(mesh, emb, 0, (0.5, 0.5))
        with pytest.raises(ValueError):
            mm.decode(mesh, emb, 0, (-0.1, 0.6, 0.5))
        with pytest.raises(ValueError):
            mm.decode(mesh, emb, 0, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            mm.decode(mesh, emb, mesh.face_count, (1.0, 0.0, 0.0))


class TestDataset:
    def test_from_csv_with_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z\n1,2,3\n4,5,6\n")
        ds = mm.Dataset.from_csv(path)
        np.testing.assert_array_equal(ds.points, [[1, 2, 3], [4, 5, 6]])
        assert (ds.size, ds.dim) == (2, 3)

    def test_from_csv_headerless_and_filelike(self):
        ds = mm.Dataset.from_csv(io.StringIO("1.5,2.5\n-1,0\n"))
        np.testing.assert_array_equal(ds.points, [[1.5, 2.5], [-1.0, 0.0]])

    def test_from_csv_blank_lines_skipped(self):
        ds = mm.Dataset.from_csv(io.StringIO("1,2\n\n3,4\n"))
        assert ds.size == 2

    def test_from_csv_errors_carry_row_numbers(self):
        with pytest.raises(DatasetError, match="row 3"):
            mm.Dataset.from_csv(io.StringIO("1,2\n3,4\n5\n"))
        with pytest.raises(DatasetError, match="row 2"):
            mm.Dataset.from_csv(io.StringIO("h1,h2\n1,spam\n"))

    def test_from_csv_degenerate_files(self):
        with pytest.raises(DatasetError):
            mm.Dataset.from_csv(io.StringIO(""))
        with pytest.raises(DatasetError):
            mm.Dataset.from_csv(io.StringIO("x,y,z\n"))

    def test_validation(self):
        with pytest.raises(DatasetError):
            mm.Dataset(np.zeros((0, 3)))
        with pytest.raises(DatasetError):
            mm.Dataset(np.array([[1.0, np.inf]]))


class TestIsometryCoupling:
    def test_zero_at_matching_metric(self, icosphere1):
        mesh, emb = icosphere1
        metric = mm.MetricField.from_embedding(mesh, emb)
        assert mm.isometry_coupling(mesh, metric, emb) == 0.0

    def test_positive_and_exact(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        bumped = mm.MetricField(metric.lengths + 0.1)
        expected = 0.01 * mesh.edge_count
        assert mm.isometry_coupling(mesh, bumped, emb) == pytest.approx(expected, rel=1e-12)


class TestEmbedding:
    def test_validation(self):
        with pytest.raises(ValueError):
            mm.Embedding(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            mm.Embedding(np.array([[1.0, np.nan, 0.0]]))
        with pytest.raises(ValueError):
            mm.Embedding(np.zeros(3))

    def test_edge_lengths(self, icosphere0):
        mesh, emb = icosphere0
        lengths = emb.edge_lengths(mesh)
        d = emb.coords[mesh.edges[:, 0]] - emb.coords[mesh.edges[:, 1]]
        np.testing.assert_allclose(lengths, np.linalg.norm(d, axis=1), rtol=1e-15)

    def test_with_coords(self, icosphere0):
        _, emb = icosphere0
        emb2 = emb.with_coords(emb.coords * 2.0)
        assert emb2.vertex_count == emb.vertex_count
        with pytest.raises(ValueError):
            emb.with_coords(np.full_like(emb.coords, np.nan))
