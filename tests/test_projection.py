import io
import math
import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metricmesh as mm
from metricmesh import projection
from metricmesh.errors import DatasetError
from metricmesh.projection import project_dataset_arrays


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


def best_edge_point_single(p, a, b, c):
    """Scalar reference for the kernel's degenerate-triangle fallback.

    Barycentrics of the best of the clamped projections of p onto ab, bc,
    ca, one coordinate at a time; the first minimum wins.
    """
    n = p.shape[0]
    best_sq = math.inf
    out = (1.0, 0.0, 0.0)
    for e, (u0, u1) in enumerate(((a, b), (b, c), (c, a))):
        dd = 0.0
        dn = 0.0
        for k in range(n):
            ev = u1[k] - u0[k]
            dd += ev * ev
            dn += ev * (p[k] - u0[k])
        t = 0.0
        if dd > 0.0:
            t = dn / dd
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
        sq = 0.0
        for k in range(n):
            r = p[k] - (u0[k] + t * (u1[k] - u0[k]))
            sq += r * r
        if sq < best_sq:
            best_sq = sq
            out = [(1.0 - t, t, 0.0), (0.0, 1.0 - t, t), (t, 0.0, 1.0 - t)][e]
    return out


def region_select(p, a, b, c):
    """The array kernel's six-region select, written out as the test oracle.

    Takes (M, n) rows (``p`` may broadcast) and returns b0, b1, b2 and the
    mask of thin interior rows: those whose denominator is not above 2**-16
    times the summed magnitudes of its six products. Their barycentrics
    here are the interior point, which they keep only where it is nearer
    than the best edge projection.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    bp = p - b
    cp = p - c
    d1 = np.einsum("fk,fk->f", ab, ap)
    d2 = np.einsum("fk,fk->f", ac, ap)
    d3 = np.einsum("fk,fk->f", ab, bp)
    d4 = np.einsum("fk,fk->f", ac, bp)
    d5 = np.einsum("fk,fk->f", ab, cp)
    d6 = np.einsum("fk,fk->f", ac, cp)
    terms = (d1 * d4, d3 * d2, d5 * d2, d1 * d6, d3 * d6, d4 * d5)
    vc = terms[0] - terms[1]
    vb = terms[2] - terms[3]
    va = terms[4] - terms[5]
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
    ones = np.ones(len(ab))
    zeros = np.zeros(len(ab))
    b0 = np.select(conds, [ones, zeros, 1.0 - v_ab, zeros, 1.0 - w_ac, zeros], 1.0 - v_in - w_in)
    b1 = np.select(conds, [zeros, ones, v_ab, zeros, zeros, 1.0 - w_bc], v_in)
    b2 = np.select(conds, [zeros, zeros, zeros, ones, w_ac, w_bc], w_in)
    interior = ~(conds[0] | conds[1] | conds[2] | conds[3] | conds[4] | conds[5])
    noise = sum(np.abs(t) for t in terms)
    thin = interior & ~((denom > 2.0**-16 * noise) & np.isfinite(denom))
    return b0, b1, b2, thin


def sq_at(p, a, b, c, bary):
    """Squared distance from p to the point with barycentrics ``bary`` on (a, b, c)."""
    r = p - (bary[0] * a + bary[1] * b + bary[2] * c)
    return float(np.einsum("k,k->", r, r))


def settle_thin_row(p, a, b, c, inner):
    """A thin row's barycentrics: the interior point if nearer than the best edge point."""
    edge = best_edge_point_single(p, a, b, c)
    return inner if sq_at(p, a, b, c, inner) < sq_at(p, a, b, c, edge) else edge


def scan_all_faces(points, coords, faces):
    """Closest point per point by a scan over every face: the exact oracle.

    Runs the region select against all faces for one point at a time,
    with the scalar edge fallback on degenerate rows, and keeps the first
    minimum, so ties go to the lowest face index. The pruned
    ``projection.project_points`` must agree with it bit for bit.
    """
    a = coords[faces[:, 0]]  # (F, n)
    b = coords[faces[:, 1]]
    c = coords[faces[:, 2]]
    npts = points.shape[0]
    out_face = np.empty(npts, dtype=np.int64)
    out_bary = np.empty((npts, 3), dtype=np.float64)
    out_sq = np.empty(npts, dtype=np.float64)
    for ip in range(npts):
        p = points[ip]
        b0, b1, b2, thin = region_select(p[None, :], a, b, c)
        for f in np.flatnonzero(thin):
            b0[f], b1[f], b2[f] = settle_thin_row(p, a[f], b[f], c[f], (b0[f], b1[f], b2[f]))
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
    elif variant == "fit":
        # the fit workload's shape: the mesh at the volume of the (1, 1, 2)
        # ellipsoid that its 500 points lie on
        coords = coords * 2.0 ** (1.0 / 3.0)
    points = oracle_points(mesh, coords, rng)
    if variant == "isolated":
        points = np.vstack([points, [[4.0, 0.0, 0.0], [3.9, 0.2, -0.1]]])
    elif variant == "fit":
        points = rng.normal(size=(500, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        points[:, 2] *= 2.0
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
    "icosphere(2) fit",
]


class TestPrunedProjectionMatchesScan:
    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_bitwise_equal_to_scan(self, name):
        points, coords, faces = oracle_case(name)
        got = projection.project_points(points, coords, faces)
        want = scan_all_faces(points, coords, faces)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize(
        "sizes",
        [{"_BLOCK_PAIRS": 1}, {"_KERNEL_PAIRS": 1}, {"_BLOCK_PAIRS": 1, "_KERNEL_PAIRS": 1}],
    )
    def test_blocks_do_not_change_the_result(self, monkeypatch, sizes):
        points, coords, faces = oracle_case("torus(16,8,2.0,0.7)")
        want = projection.project_points(points, coords, faces)
        for name, value in sizes.items():
            monkeypatch.setattr(projection, name, value)
        got = projection.project_points(points, coords, faces)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("kernel_pairs", [1, 1 << 11, 1 << 30])
    def test_far_points_between_near_ones_match_the_scan(self, monkeypatch, kernel_pairs):
        # a far point keeps every face, so it fills a kernel batch by itself;
        # every row, far or near, must still be the scan's
        points, coords, faces = oracle_case("icosphere(2)")
        rng = np.random.default_rng(7)
        far = rng.normal(size=(20, 3)) * 10.0 ** rng.uniform(100, 150, size=(20, 1))
        points = np.insert(points, rng.integers(0, len(points), 20), far, axis=0)
        monkeypatch.setattr(projection, "_KERNEL_PAIRS", kernel_pairs)
        got = projection.project_points(points, coords, faces)
        for g, w in zip(got, scan_all_faces(points, coords, faces)):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("block_pairs", [1, projection._BLOCK_PAIRS])
    def test_overflow_reported_for_the_right_point(self, monkeypatch, block_pairs):
        points, coords, faces = oracle_case("icosphere(2)")
        points = np.insert(points, [150, 170], [[1e200, 0.0, 0.0], [0.0, -1e250, 0.0]], axis=0)
        monkeypatch.setattr(projection, "_BLOCK_PAIRS", block_pairs)
        with pytest.raises(ValueError, match="point 150 to the mesh overflows"):
            projection.project_points(points, coords, faces)


class TestBlockFloor:
    # _BLOCK_FLOOR = 1 with _BLOCK_PAIRS = 1 gives one-point blocks; a floor
    # past the point count, one block
    @pytest.mark.parametrize("floor,block_pairs", [(1, 1), (3, 1), (8, 1), (1 << 20, 1)])
    def test_floor_does_not_change_the_result(self, monkeypatch, floor, block_pairs):
        points, coords, faces = oracle_case("torus(16,8,2.0,0.7)")
        monkeypatch.setattr(projection, "_BLOCK_FLOOR", floor)
        monkeypatch.setattr(projection, "_BLOCK_PAIRS", block_pairs)
        got = projection.project_points(points, coords, faces)
        for g, w in zip(got, scan_all_faces(points, coords, faces)):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("floor", [1, 8, 1 << 20])
    def test_overflow_reported_for_the_right_point(self, monkeypatch, floor):
        points, coords, faces = oracle_case("icosphere(2)")
        points = np.insert(points, [150, 170], [[1e200, 0.0, 0.0], [0.0, -1e250, 0.0]], axis=0)
        monkeypatch.setattr(projection, "_BLOCK_FLOOR", floor)
        monkeypatch.setattr(projection, "_BLOCK_PAIRS", 1)
        with pytest.raises(ValueError, match="point 150 to the mesh overflows"):
            projection.project_points(points, coords, faces)


def hard_case(seed, dim, far):
    """(points, coords, faces) that stress the pruning bound.

    icosphere(1) mapped linearly into ``dim`` dimensions plus three tiny,
    nearly collinear faces; points exactly on vertices, edge midpoints and
    centroids, points above vertices (equidistant from the faces around
    them), a random cloud and, if ``far``, points 1e100 to 1e150 away.
    """
    rng = np.random.default_rng(seed)
    mesh, emb = mm.make_icosphere(1)
    coords = emb.coords @ rng.normal(size=(3, dim))
    corner = coords[rng.integers(0, len(coords), 3), None] + 0.1 * rng.normal(size=(3, 1, dim))
    edge, off = 1e-8 * rng.normal(size=(2, 3, 1, dim))
    slivers = np.concatenate([corner, corner + edge, corner + 0.5 * edge + 1e-9 * off], axis=1)
    faces = np.vstack([mesh.faces, len(coords) + np.arange(9).reshape(3, 3)])
    coords = np.vstack([coords, slivers.reshape(9, dim)])
    tri = coords[faces]
    edges = mesh.edges[rng.integers(0, mesh.edge_count, 10)]
    points = [
        coords[rng.integers(0, len(coords), 15)],
        0.5 * (coords[edges[:, 0]] + coords[edges[:, 1]]),
        tri[rng.integers(0, len(faces), 12)].sum(axis=1) / 3.0,
        1.7 * coords[rng.integers(0, len(coords), 10)],
        rng.normal(size=(10, dim)),
    ]
    if far:
        points.append(rng.normal(size=(5, dim)) * 10.0 ** rng.uniform(100, 150, size=(5, 1)))
    return np.vstack(points), coords, faces


class TestPruningBoundProperty:
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 4]),
        power=st.sampled_from([0, 300, -300]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_scan(self, seed, dim, power):
        # at 2**300 a point 1e100 away has a squared distance past the
        # float range, so far points are checked at 2**0 and 2**-300
        points, coords, faces = hard_case(seed, dim, far=power <= 0)
        face, bary, sq = projection.project_points(
            np.ldexp(points, power), np.ldexp(coords, power), faces
        )
        want_face, want_bary, want_sq = scan_all_faces(points, coords, faces)
        np.testing.assert_array_equal(face, want_face)
        np.testing.assert_array_equal(bary, want_bary)
        np.testing.assert_array_equal(sq, np.ldexp(want_sq, 2 * power))

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_points_on_the_bound_keep_their_face(self, dim):
        # a point beyond a face's farthest corner, on the ray from the
        # centroid, meets |p - c| = reach + r with equality, so only the
        # margin d keeps the face; with the origin halfway between p and c
        # that margin is as small as it gets
        rng = np.random.default_rng(dim)
        faces = np.array([[0, 1, 2]])
        for _ in range(40):
            tri = rng.normal(size=(3, dim)) * 10.0 ** rng.uniform(-3, 3)
            centre = tri.mean(axis=0)
            corner = tri[np.argmax(((tri - centre) ** 2).sum(axis=1))]
            out = corner + np.outer(10.0 ** rng.uniform(-6, 2, 8), corner - centre)
            for p in out:
                mid = 0.5 * (p + centre)
                points, coords = (p - mid)[None], tri - mid
                got = projection.project_points(points, coords, faces)
                for g, w in zip(got, scan_all_faces(points, coords, faces)):
                    np.testing.assert_array_equal(g, w)


def random_rows(rng, m, scale):
    """m random (point, triangle) rows in 3-D at the given scale."""
    return tuple(rng.normal(size=(m, 3)) * scale for _ in range(4))


class TestEdgeFallback:
    # Thin interior rows (their denominator zero, not finite or within
    # rounding) take the best clamped edge projection unless their interior
    # point is nearer. Fed straight to the kernel, without the rescale of
    # project_points, triangles at 1e77 and beyond overflow the
    # fourth-degree products and reach that fallback in bulk. The kernel
    # must give every row exactly what the region select plus the scalar
    # edge projection gives.
    @pytest.mark.parametrize("scale", [1e100, 1e77])
    def test_bitwise_equal_to_scalar_oracle(self, scale):
        rng = np.random.default_rng(41)
        p, a, b, c = random_rows(rng, 4000, scale)
        with np.errstate(all="ignore"):
            bary, _ = projection._closest_points(p, a, b, c)
            b0, b1, b2, thin = region_select(p, a, b, c)
            assert thin.sum() > 1000
            for i in np.flatnonzero(thin):
                b0[i], b1[i], b2[i] = settle_thin_row(p[i], a[i], b[i], c[i], (b0[i], b1[i], b2[i]))
        np.testing.assert_array_equal(bary, np.stack((b0, b1, b2), axis=1))


# A sliver whose interior denominator is rounding noise: at a time the
# kernel's interior branch put p's closest point at barycentric (0.8, 0.2,
# 0), squared distance 7.8e-5, while corner c is 5.4e-11 from p.
SLIVER_POINT = np.array([1.0025624230066288, -0.36269173519673775, -1.3678699510056969])
SLIVER = np.array([
    [1.0049174636232452, -0.36903557389562086, -1.3667138320179313],
    [1.0083366581505373, -0.3782459537111138, -1.3650353065228653],
    [1.0025598975364076, -0.36268493226743126, -1.3678711907910204],
])


def near_collinear_rows(rng, m, dim=3):
    """m (point, triangle) rows: c near the line ab, p near the triangle."""
    a = rng.normal(size=(m, dim))
    ab = rng.normal(size=(m, dim)) * 10.0 ** rng.uniform(-3, 0, (m, 1))
    width = np.linalg.norm(ab, axis=1, keepdims=True) * 10.0 ** rng.uniform(-14, -3, (m, 1))
    b = a + ab
    c = a + rng.uniform(-0.5, 1.5, (m, 1)) * ab + rng.normal(size=(m, dim)) * width
    corner = np.choose(rng.integers(0, 3, m)[:, None], [a, b, c])
    along = a + rng.uniform(-0.2, 1.2, (m, 1)) * ab
    base = np.where(rng.random((m, 1)) < 0.5, along, corner)
    spread = np.linalg.norm(ab, axis=1, keepdims=True) * 10.0 ** rng.uniform(-12, -1, (m, 1))
    return base + rng.normal(size=(m, dim)) * spread, a, b, c


def best_corner_or_edge_sq(p, a, b, c):
    """Squared distance from p to the nearest point of the three edges (corners included)."""
    best = np.full(len(p), np.inf)
    for u0, u1 in ((a, b), (b, c), (c, a)):
        ev = u1 - u0
        dd = np.einsum("ik,ik->i", ev, ev)
        t = np.clip(np.einsum("ik,ik->i", p - u0, ev) / np.where(dd > 0.0, dd, 1.0), 0.0, 1.0)
        r = p - (u0 + t[:, None] * ev)
        best = np.minimum(best, np.einsum("ik,ik->i", r, r))
    return best


class TestSlivers:
    def test_found_sliver_lands_near_its_corner(self):
        face, bary, sq = projection.project_points(
            SLIVER_POINT[None], SLIVER, np.array([[0, 1, 2]])
        )
        corner_sq = float(np.sum((SLIVER_POINT - SLIVER[2]) ** 2))
        assert face[0] == 0
        assert sq[0] <= corner_sq
        assert bary[0, 2] > 0.999

    def test_found_sliver_beside_a_small_face_matches_the_scan(self):
        # a small face 1e-3 from p: the scan must not lose p to it, and the
        # pruning bound, resting on the sliver's corner c, must keep the sliver
        small = SLIVER_POINT + [1e-3, 0.0, 0.0] + 1e-5 * np.random.default_rng(0).normal(size=(3, 3))
        coords = np.vstack([SLIVER, small])
        faces = np.array([[0, 1, 2], [3, 4, 5]])
        got = projection.project_points(SLIVER_POINT[None], coords, faces)
        for g, w in zip(got, scan_all_faces(SLIVER_POINT[None], coords, faces)):
            np.testing.assert_array_equal(g, w)
        assert got[0][0] == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_never_farther_than_the_best_corner_or_edge(self, seed):
        p, a, b, c = near_collinear_rows(np.random.default_rng(seed), 100_000)
        _, sq = projection._closest_points(p, a, b, c)
        size = np.abs(np.stack((p, a, b, c))).max(axis=(0, 2))
        slack = 2.0 * np.finfo(np.float64).eps * size * size
        assert (sq <= best_corner_or_edge_sq(p, a, b, c) + slack).all()

    def test_thin_faces_keep_their_interior_point(self):
        # triangles 1e-4 to 1e-1 wide for their length, p at height h above
        # an interior point: the closest point is that foot, at h^2, which
        # no edge point reaches
        rng = np.random.default_rng(9)
        m = 20_000
        a, ab = rng.normal(size=(2, m, 3))
        normal = np.cross(ab, rng.normal(size=(m, 3)))
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        b = a + ab
        c = a + rng.uniform(0.2, 0.8, (m, 1)) * ab
        c += 10.0 ** rng.uniform(-4, -1, (m, 1)) * np.cross(normal, ab)
        u = rng.uniform(0.05, 0.9, (m, 1))
        v = rng.uniform(0.05, 0.9, (m, 1)) * (1.0 - u)
        h = 10.0 ** rng.uniform(-6, 0, m)
        p = a + u * (b - a) + v * (c - a) + h[:, None] * normal
        _, sq = projection._closest_points(p, a, b, c)
        size = np.abs(np.stack((p, a, b, c))).max(axis=(0, 2))
        assert (sq <= h * h + 16.0 * np.finfo(np.float64).eps * size * size).all()

    @pytest.mark.parametrize("seed", [3, 4])
    def test_pruned_equals_scan_on_near_collinear_faces(self, seed):
        rng = np.random.default_rng(seed)
        p, a, b, c = near_collinear_rows(rng, 150)
        coords = np.concatenate([a, b, c])
        faces = np.arange(3 * len(a)).reshape(3, -1).T
        got = projection.project_points(p, coords, faces)
        for g, w in zip(got, scan_all_faces(p, coords, faces)):
            np.testing.assert_array_equal(g, w)


# A triangle and one point well inside each of its seven regions, in the
# kernel's order: vertex a, vertex b, edge ab, vertex c, edge ac, edge bc,
# interior.
REGION_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
REGION_POINTS = np.array(
    [[-0.5, -0.5], [1.5, -0.3], [0.5, -0.5], [0.2, 1.5], [-0.3, 0.6], [1.0, 0.7], [0.4, 0.3]]
)


def region_rows(rng, count, dim):
    """``count`` copies of the seven region rows, each moved by its own similarity.

    A rotation, scale and shift keep every point in its region; in three
    or more dimensions the point also leaves the plane of its triangle.
    """
    rows = []
    for _ in range(count):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        scale = 10.0 ** rng.uniform(-2, 2)
        shift = rng.normal(size=dim)
        tri = scale * REGION_TRIANGLE @ q[:2] + shift
        p = scale * REGION_POINTS @ q[:2] + shift
        if dim > 2:
            p += scale * rng.normal(size=(7, 1)) * q[2]
        rows.append((p, *(np.repeat(x[None], 7, axis=0) for x in tri)))
    return [np.concatenate(x) for x in zip(*rows)]


def kernel_batch(seed, dim):
    """(p, a, b, c) rows in ``dim`` dimensions mixing every region and the hard cases.

    Region rows, random rows, collinear and zero-area triangles, repeated
    corners, points on corners, near-collinear slivers and, from three
    dimensions up, the ``SLIVER`` row, shuffled together.
    """
    rng = np.random.default_rng(seed)
    parts = [region_rows(rng, 4, dim), list(rng.normal(size=(4, 20, dim)))]
    a, b, p = rng.normal(size=(3, 10, dim))
    parts.append([p, a, b, a + rng.uniform(-0.5, 1.5, (10, 1)) * (b - a)])
    a, b, p = rng.normal(size=(3, 4, dim))
    parts += [[p, a, a, a], [p, a, a, b], [p, a, b, a], [p, a, b, b]]
    p, a, b, c = rng.normal(size=(4, 9, dim))
    parts.append([np.concatenate([a[:3], b[3:6], c[6:]]), a, b, c])
    parts.append(list(near_collinear_rows(rng, 20, dim)))
    if dim > 2:
        pad = np.zeros(dim - 3)
        sliver = [np.concatenate([SLIVER_POINT, pad])] + [np.concatenate([x, pad]) for x in SLIVER]
        parts.append([x[None] for x in sliver])
    rows = [np.concatenate(x) for x in zip(*parts)]
    order = rng.permutation(len(rows[0]))
    return [x[order] for x in rows]


class TestKernelMatchesSelect:
    # The kernel evaluates each region's formula on that region's rows
    # only; the result must be the six-region select of the oracle, with
    # thin rows settled by the scalar edge point, bit for bit. Compared as
    # uint64, so -0.0 and +0.0 differ and NaNs must match in payload too.
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 4]),
        scale=st.sampled_from(["1", "2**500", "2**-500", "1e200"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_region_select(self, seed, dim, scale):
        p, a, b, c = kernel_batch(seed, dim)
        if scale == "1e200":
            p, a, b, c = (x * 1e200 for x in (p, a, b, c))
        else:
            power = {"1": 0, "2**500": 500, "2**-500": -500}[scale]
            p, a, b, c = (np.ldexp(x, power) for x in (p, a, b, c))
        with np.errstate(all="ignore"):
            bary, sq = projection._closest_points(p, a, b, c)
            b0, b1, b2, thin = region_select(p, a, b, c)
            for i in np.flatnonzero(thin):
                b0[i], b1[i], b2[i] = settle_thin_row(p[i], a[i], b[i], c[i], (b0[i], b1[i], b2[i]))
            r = p - (b0[:, None] * a + b1[:, None] * b + b2[:, None] * c)
            want_sq = np.einsum("ik,ik->i", r, r)
        want = np.stack((b0, b1, b2), axis=1)
        np.testing.assert_array_equal(bary.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(sq.view(np.uint64), want_sq.view(np.uint64))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_region_rows_cover_every_region(self, dim):
        p, a, b, c = region_rows(np.random.default_rng(dim), 50, dim)
        bary, _ = projection._closest_points(p, a, b, c)
        inside = (bary > 0.0).reshape(50, 7, 3)
        # vertex a, vertex b, edge ab, vertex c, edge ac, edge bc, interior
        support = np.array(
            [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]], bool
        )
        assert (inside == support).all()


def lexsort_first_least(pi, fi, sq):
    """The selection ``_first_least`` replaced: order by point, distance (NaN last), face."""
    order = np.lexsort((fi, sq, pi))
    return order[np.flatnonzero(np.diff(pi[order], prepend=-1))]


def grouped_pairs(groups, seed):
    """(pi, fi, sq) for the given per-point ``sq`` lists: points ascending with
    gaps, faces ascending within each point."""
    rng = np.random.default_rng(seed)
    points = np.cumsum(rng.integers(1, 4, len(groups)))
    pi = np.repeat(points, [len(g) for g in groups])
    fi = np.concatenate([np.sort(rng.choice(40, len(g), replace=False)) for g in groups])
    return pi, fi, np.array([x for g in groups for x in g], dtype=np.float64)


class TestFirstLeast:
    @pytest.mark.parametrize(
        "groups, want",
        [
            ([[2.0, 1.0, 1.0, 3.0]], [1]),  # a tie goes to the first pair
            ([[np.inf, np.inf]], [0]),  # inf only
            ([[np.nan, np.nan, np.nan]], [0]),  # NaN only: the first pair
            ([[np.nan, 2.0, np.nan, 2.0]], [1]),  # NaN loses to any number
            ([[np.nan, np.inf, 0.0]], [2]),
            ([[0.0, -0.0], [np.nan], [np.inf, np.nan, np.inf], [5.0]], [0, 2, 3, 6]),
        ],
    )
    def test_named_groups(self, groups, want):
        pi, fi, sq = grouped_pairs(groups, 0)
        np.testing.assert_array_equal(projection._first_least(pi, sq), want)
        np.testing.assert_array_equal(lexsort_first_least(pi, fi, sq), want)

    @given(
        groups=st.lists(
            st.lists(
                st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.0, 1e308, np.inf, np.nan]),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=15,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_lexsort(self, groups, seed):
        pi, fi, sq = grouped_pairs(groups, seed)
        np.testing.assert_array_equal(projection._first_least(pi, sq), lexsort_first_least(pi, fi, sq))


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


def one_face(point, triangle):
    """(barycentric, squared distance) of ``point`` on one triangle, by project_points."""
    _, bary, sq = projection.project_points(point[None], triangle, np.array([[0, 1, 2]]))
    return bary[0], sq[0]


class TestClosestPoint:
    def test_is_the_one_face_projection(self):
        # one face leaves nothing to prune and the rescale is exact, so the
        # one-face projection is the kernel, bit for bit
        rng = np.random.default_rng(31)
        for p, a, b, c in zip(*random_rows(rng, 200, 1.0)):
            bary, sq = one_face(p, np.stack((a, b, c)))
            want_bary, want_sq = projection._closest_points(p[None], a[None], b[None], c[None])
            np.testing.assert_array_equal(bary, want_bary[0])
            assert sq == want_sq[0]

    @pytest.mark.parametrize("k", [330, -300])
    def test_power_of_two_scale_is_exact(self, k):
        rng = np.random.default_rng(32)
        for p, a, b, c in zip(*random_rows(rng, 200, 1.0)):
            tri = np.stack((a, b, c))
            bary, sq = one_face(p, tri)
            got_bary, got_sq = one_face(np.ldexp(p, k), np.ldexp(tri, k))
            np.testing.assert_array_equal(got_bary, bary)
            assert got_sq == np.ldexp(sq, 2 * k)

    @pytest.mark.parametrize(
        "point,triangle",
        [(np.zeros(3), np.eye(2)), (np.zeros((1, 3)), np.eye(3)), (np.zeros(2), np.eye(3))],
        ids=["2x2 triangle", "2-D point", "dimension mismatch"],
    )
    def test_shape_rejected(self, point, triangle):
        # the public route to a one-face projection checks shapes before the kernel
        mesh = mm.Mesh(3, np.array([[0, 1, 2]]))
        with pytest.raises(DatasetError, match="shape|dimension"):
            project_dataset_arrays(mm.Dataset(point[None]).points, mm.Embedding(triangle), mesh)

    def test_non_finite_rejected(self):
        tri = np.eye(3)
        with pytest.raises(ValueError, match="finite"):
            one_face(np.array([np.nan, 0.0, 0.0]), tri)
        tri[1, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            one_face(np.zeros(3), tri)

    def test_interior_projection(self):
        tri = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        bary, sq = one_face(np.array([0.5, 0.5, 3.0]), tri)
        assert sq == pytest.approx(9.0, rel=1e-14)
        assert bary.sum() == pytest.approx(1.0, abs=1e-14)
        q = bary @ tri
        np.testing.assert_allclose(q, [0.5, 0.5, 0.0], atol=1e-14)

    def test_vertex_region(self):
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        bary, sq = one_face(np.array([-1.0, -1.0, 0.0]), tri)
        np.testing.assert_allclose(bary, [1.0, 0.0, 0.0], atol=1e-14)
        assert sq == pytest.approx(2.0, rel=1e-14)

    def test_edge_region(self):
        tri = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        bary, sq = one_face(np.array([1.0, -1.0, 0.0]), tri)
        np.testing.assert_allclose(bary, [0.5, 0.5, 0.0], atol=1e-14)
        assert sq == pytest.approx(1.0, rel=1e-14)

    def test_degenerate_triangle_falls_back_to_edges(self):
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])  # collinear
        bary, sq = one_face(np.array([0.5, 1.0, 0.0]), tri)
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

    def test_overflowing_distance_rejected(self, icosphere0):
        mesh, emb = icosphere0
        pts = np.array([[0.0, 0.0, 2.0], [1e200, 0.0, 0.0]])
        with pytest.raises(ValueError, match="point 1 to the mesh overflows"):
            project_dataset_arrays(pts, emb, mesh)

    def test_non_finite_points_rejected(self, icosphere0):
        mesh, emb = icosphere0
        for bad in (np.nan, np.inf, -np.inf):
            pts = np.array([[0.0, 0.0, 2.0], [bad, 0.0, 0.0]])
            with pytest.raises(DatasetError, match="non-finite"):
                project_dataset_arrays(pts, emb, mesh)
            with pytest.raises(ValueError, match="finite"):
                projection.project_points(pts, emb.coords, mesh.faces)


class TestDecode:
    def test_vertex_pick_exact(self, icosphere0):
        # a point at a vertex projects onto it, and its pick maps back exactly
        mesh, emb = icosphere0
        faces, bary, sq = project_dataset_arrays(emb.coords, emb, mesh)
        assert (sq == 0.0).all()
        out = np.einsum("nk,nkd->nd", bary, emb.coords[mesh.faces[faces]])
        np.testing.assert_array_equal(out, emb.coords)

    def test_round_trip_through_projection(self, icosphere1):
        mesh, emb = icosphere1
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 3)) * 1.3
        faces, bary, sq = project_dataset_arrays(pts, emb, mesh)
        for i in range(pts.shape[0]):
            b = np.clip(bary[i], 0.0, None)
            b /= b.sum()
            q = b @ emb.coords[mesh.faces[faces[i]]]
            r = pts[i] - q
            assert float(r @ r) == pytest.approx(sq[i], rel=1e-9, abs=1e-12)

    def test_validation(self, icosphere1):
        # every pick is a valid decode input: a face in range and three
        # barycentric weights, none below rounding, that sum to one
        mesh, emb = icosphere1
        pts = np.random.default_rng(3).normal(size=(200, 3)) * 1.3
        faces, bary, _ = project_dataset_arrays(pts, emb, mesh)
        assert faces.dtype == np.int64 and ((0 <= faces) & (faces < mesh.face_count)).all()
        assert bary.shape == (200, 3) and (bary >= -1e-12).all()
        np.testing.assert_allclose(bary.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


class TestDataset:
    def test_from_csv_with_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z\n1,2,3\n4,5,6\n")
        ds = mm.Dataset.from_csv(path)
        np.testing.assert_array_equal(ds.points, [[1, 2, 3], [4, 5, 6]])

    def test_from_csv_headerless_and_filelike(self):
        ds = mm.Dataset.from_csv(io.StringIO("1.5,2.5\n-1,0\n"))
        np.testing.assert_array_equal(ds.points, [[1.5, 2.5], [-1.0, 0.0]])

    def test_from_csv_blank_lines_skipped(self):
        ds = mm.Dataset.from_csv(io.StringIO("1,2\n\n3,4\n"))
        np.testing.assert_array_equal(ds.points, [[1, 2], [3, 4]])

    def test_from_csv_errors_carry_row_numbers(self):
        with pytest.raises(DatasetError, match="row 3"):
            mm.Dataset.from_csv(io.StringIO("1,2\n3,4\n5\n"))
        with pytest.raises(DatasetError, match="row 2"):
            mm.Dataset.from_csv(io.StringIO("h1,h2\n1,spam\n"))

    def test_from_csv_mistyped_first_point_rejected(self):
        with pytest.raises(DatasetError, match=r"^row 1: non-numeric value \(.*'x'\)$"):
            mm.Dataset.from_csv(io.StringIO("1.0,2.0,x\n0,0,1\n1,0,0\n"))
        # a header is a first row with no numeric cell at all
        ds = mm.Dataset.from_csv(io.StringIO("x, y ,\n0,0,1\n1,0,0\n"))
        np.testing.assert_array_equal(ds.points, [[0, 0, 1], [1, 0, 0]])

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

    def test_points_are_a_read_only_copy(self):
        source = np.eye(3)
        ds = mm.Dataset(source)
        source[0, 0] = 5.0
        assert ds.points[0, 0] == 1.0
        with pytest.raises(ValueError):
            ds.points[0, 0] = 2.0


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

    @pytest.mark.parametrize("power", [600, -600])
    def test_edge_lengths_at_extreme_scale(self, icosphere1, power):
        # the squared differences leave float range unless scaled first
        mesh, emb = icosphere1
        scaled = mm.Embedding(np.ldexp(emb.coords, power))
        np.testing.assert_array_equal(
            scaled.edge_lengths(mesh), np.ldexp(emb.edge_lengths(mesh), power)
        )

    def test_coords_are_a_read_only_copy(self):
        source = np.eye(3)
        emb = mm.Embedding(source)
        source[0, 0] = 5.0
        assert emb.coords[0, 0] == 1.0
        with pytest.raises(ValueError):
            emb.coords[0, 0] = 2.0

    def test_edge_lengths_computed_once_per_mesh(self, icosphere0):
        mesh, emb = icosphere0
        emb = mm.Embedding(emb.coords)
        first = emb.edge_lengths(mesh)
        assert emb.edge_lengths(mesh) is first
        assert not first.flags.writeable
        other = mm.Mesh(mesh.vertex_count, mesh.faces)
        again = emb.edge_lengths(other)
        assert again is not first
        np.testing.assert_array_equal(again, first)

    def test_pickles_after_edge_lengths(self, icosphere0):
        mesh, emb = icosphere0
        emb = mm.Embedding(emb.coords)
        emb.edge_lengths(mesh)
        back = pickle.loads(pickle.dumps(emb))
        np.testing.assert_array_equal(back.coords, emb.coords)
        np.testing.assert_array_equal(back.edge_lengths(mesh), emb.edge_lengths(mesh))
