import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metricmesh as mm
from metricmesh.mesh import Violation, _edge_runs, _edge_table, _side_ends
from metricmesh.errors import (
    FaceIndexError,
    MeshError,
    NonManifoldEdgeError,
    NonTriangleFaceError,
    OFFParseError,
)

from conftest import two_triangle_strip
from loop_generators import loop_grid, loop_icosphere, loop_torus


class TestMeshConstruction:
    def test_counts_icosphere(self):
        expected = {0: (12, 30, 20), 1: (42, 120, 80), 2: (162, 480, 320)}
        for k, (v, e, f) in expected.items():
            mesh, emb = mm.make_icosphere(k)
            assert (mesh.vertex_count, mesh.edge_count, mesh.face_count) == (v, e, f)
            assert emb.coords.shape == (v, 3)
            assert mm.euler_characteristic(mesh) == 2

    def test_counts_torus(self):
        mesh, _ = mm.make_torus(8, 6, 2.0, 0.5)
        assert mesh.vertex_count == 48
        assert mesh.face_count == 96
        assert mesh.edge_count == 144
        assert mm.euler_characteristic(mesh) == 0
        assert not mesh.boundary_vertex.any()

    def test_counts_grid(self):
        mesh, emb = mm.make_grid(4, 3, 0.5)
        assert mesh.vertex_count == 12
        assert mesh.face_count == 2 * 3 * 2
        assert mm.euler_characteristic(mesh) == 1
        assert mesh.boundary_vertex.sum() == 10  # all but the 2 interior vertices
        assert np.allclose(emb.coords[:, 2], 0.0)

    def test_icosphere_on_unit_sphere(self):
        _, emb = mm.make_icosphere(2)
        radii = np.linalg.norm(emb.coords, axis=1)
        assert np.allclose(radii, 1.0, atol=1e-12)

    def test_face_index_out_of_range(self):
        with pytest.raises(FaceIndexError):
            mm.Mesh(3, np.array([[0, 1, 3]]))

    def test_repeated_vertex_in_face(self):
        with pytest.raises(NonTriangleFaceError):
            mm.Mesh(3, np.array([[0, 1, 1]]))

    def test_bad_face_shape(self):
        with pytest.raises(NonTriangleFaceError):
            mm.Mesh(4, np.array([[0, 1, 2, 3]]))
        with pytest.raises(MeshError):
            mm.Mesh(3, np.zeros((0, 3), dtype=np.int64))

    def test_edges_sorted_unique(self):
        mesh = two_triangle_strip()
        assert mesh.edge_count == 5
        assert (mesh.edges[:, 0] < mesh.edges[:, 1]).all()
        # lexicographic order
        keys = [tuple(e) for e in mesh.edges]
        assert keys == sorted(keys)

    def test_face_edges_consistent(self, icosphere1):
        mesh, _ = icosphere1
        for f in range(mesh.face_count):
            i, j, k = mesh.faces[f]
            for col, (u, v) in enumerate(((i, j), (j, k), (k, i))):
                e = mesh.face_edges[f, col]
                assert set(mesh.edges[e]) == {u, v}

    def test_edge_index_lookup(self, icosphere0):
        # an edge's id is the one entry its two ends' edge slices share
        mesh, _ = icosphere0
        offsets, rows = mesh.vertex_edge_csr
        for e in range(mesh.edge_count):
            u, v = mesh.edges[e]
            at_u = rows[offsets[u] : offsets[u + 1]]
            at_v = rows[offsets[v] : offsets[v + 1]]
            assert np.intersect1d(at_u, at_v).tolist() == [e]

    def test_vertex_faces_cover_all_faces(self, icosphere0):
        mesh, _ = icosphere0
        seen = set()
        for v in range(mesh.vertex_count):
            faces = mesh.vertex_faces(v)
            assert all(v in mesh.faces[f] for f in faces)
            seen.update(int(f) for f in faces)
        assert seen == set(range(mesh.face_count))


def fan_walk_violations(mesh):
    """Reference manifold check: a Python walk over each vertex's fan.

    This is the check ``validate_manifold`` ran before it worked on
    arrays; the vectorized one must give the same list.
    """
    out = []
    for e in np.flatnonzero(mesh.edge_face_count > 2):
        u, v = (int(x) for x in mesh.edges[e])
        out.append(
            Violation(
                "non-manifold-edge",
                int(e),
                f"edge {e} ({u},{v}) borders {int(mesh.edge_face_count[e])} faces",
            )
        )
    face_edges = mesh.face_edges
    for v in range(mesh.vertex_count):
        incident = mesh.vertex_faces(v)
        if incident.size == 0:
            out.append(Violation("isolated-vertex", v, f"vertex {v} has no faces"))
            continue
        # Adjacency between incident faces through the edges that touch v.
        edge_to_faces = {}
        for f in incident:
            for e in face_edges[f]:
                e = int(e)
                if v in mesh.edges[e]:
                    edge_to_faces.setdefault(e, []).append(int(f))
        seen = {int(incident[0])}
        stack = [int(incident[0])]
        while stack:
            f = stack.pop()
            for e in face_edges[f]:
                for g in edge_to_faces.get(int(e), ()):
                    if g not in seen:
                        seen.add(g)
                        stack.append(g)
        n_open = sum(1 for fs in edge_to_faces.values() if len(fs) == 1)
        if len(seen) != incident.size:
            out.append(
                Violation(
                    "non-manifold-vertex",
                    v,
                    f"faces around vertex {v} split into disconnected fans",
                )
            )
        elif n_open not in (0, 2):
            out.append(
                Violation(
                    "non-manifold-vertex",
                    v,
                    f"vertex {v} has {n_open} open fan edges (expected 0 or 2)",
                )
            )
    return out


def unique_edge_table(faces):
    """Reference edge table: a row-wise ``np.unique`` of the sorted face sides."""
    sides = np.sort(faces[:, (0, 1, 1, 2, 2, 0)].reshape(-1, 2), axis=1)
    edges, inverse = np.unique(sides, axis=0, return_inverse=True)
    return edges, inverse.reshape(-1, 3)


def incidence_tuples(mesh, table):
    """Reference incidence: per-vertex arrays of the rows of ``table`` holding it."""
    rows = table.tolist()
    return tuple(
        np.array([r for r, row in enumerate(rows) if v in row], dtype=np.int64)
        for v in range(mesh.vertex_count)
    )


def _tetrahedron(a, b, c, d):
    return [[a, b, c], [a, c, d], [a, d, b], [b, d, c]]


def _icosphere_with_defects():
    """icosphere(1) plus a third face on edge 0 and an isolated vertex."""
    mesh, _ = mm.make_icosphere(1)
    u, v = (int(x) for x in mesh.edges[0])
    faces = np.vstack((mesh.faces, [[v, u, mesh.vertex_count]]))
    return mm.Mesh(mesh.vertex_count + 2, faces)


GENERATED = [f"icosphere({k})" for k in range(5)] + [
    "torus(16,8,2.0,0.7)",
    "grid(50,50,1.0)",
]

CRAFTED = {
    "bowtie": (5, [[0, 1, 2], [0, 3, 4]]),
    "edge with 3 faces": (5, [[0, 1, 2], [1, 0, 3], [0, 4, 1]]),
    "edge with 4 faces": (6, [[0, 1, 2], [0, 1, 3], [1, 0, 4], [0, 1, 5]]),
    "isolated vertex": (4, [[0, 1, 2]]),
    "isolated inner vertex": (5, [[0, 1, 3], [1, 4, 3]]),
    "two fans at one vertex": (7, [[0, 1, 2], [0, 2, 3], [0, 4, 5], [0, 5, 6]]),
    "two closed fans at one vertex": (7, _tetrahedron(0, 1, 2, 3) + _tetrahedron(0, 4, 5, 6)),
    "3 open fan edges": (5, [[0, 1, 2], [0, 2, 3], [0, 2, 4]]),
}


def isolated_in(violations):
    """The vertices of the ``isolated-vertex`` entries, in order."""
    return [v.where for v in violations if v.kind == "isolated-vertex"]


class TestValidateManifoldMatchesFanWalk:
    @pytest.mark.parametrize("spec", GENERATED)
    def test_generated_meshes(self, spec):
        mesh, _ = mm.generate_mesh(spec)
        assert mm.validate_manifold(mesh) == fan_walk_violations(mesh) == []

    @pytest.mark.parametrize("name", sorted(CRAFTED))
    def test_crafted_defects(self, name):
        vertex_count, faces = CRAFTED[name]
        mesh = mm.Mesh(vertex_count, np.array(faces))
        expected = fan_walk_violations(mesh)
        assert expected, "every crafted mesh has a defect"
        assert mm.validate_manifold(mesh) == expected
        assert mesh.isolated_vertices.tolist() == isolated_in(expected)

    def test_defects_on_a_larger_mesh(self):
        mesh = _icosphere_with_defects()
        expected = fan_walk_violations(mesh)
        assert [v.kind for v in expected] == [
            "non-manifold-edge",
            "non-manifold-vertex",
            "non-manifold-vertex",
            "isolated-vertex",
        ]
        assert mm.validate_manifold(mesh) == expected
        assert mesh.isolated_vertices.tolist() == isolated_in(expected)

    def test_pinned_messages(self):
        vertex_count, faces = CRAFTED["3 open fan edges"]
        mesh = mm.Mesh(vertex_count, np.array(faces))
        e = mesh.edges.tolist().index([0, 2])
        assert mm.validate_manifold(mesh) == [
            Violation("non-manifold-edge", e, f"edge {e} (0,2) borders 3 faces"),
            Violation("non-manifold-vertex", 0, "vertex 0 has 3 open fan edges (expected 0 or 2)"),
            Violation("non-manifold-vertex", 2, "vertex 2 has 3 open fan edges (expected 0 or 2)"),
        ]


class TestIncidence:
    MESHES = ["icosphere(2)", "torus(16,8,2.0,0.7)", "grid(7,5,1.0)"]

    @pytest.mark.parametrize("spec", MESHES)
    def test_matches_reference(self, spec):
        mesh, _ = mm.generate_mesh(spec)
        faces = incidence_tuples(mesh, mesh.faces)
        edges = incidence_tuples(mesh, mesh.edges)
        offsets, rows = mesh.vertex_edge_csr
        for v in range(mesh.vertex_count):
            np.testing.assert_array_equal(mesh.vertex_faces(v), faces[v])
            np.testing.assert_array_equal(rows[offsets[v] : offsets[v + 1]], edges[v])

    @pytest.mark.parametrize("spec", MESHES + sorted(CRAFTED) + ["icosphere(1) with defects"])
    def test_edge_face_lists_match_brute_force(self, spec):
        if spec in CRAFTED:
            mesh = mm.Mesh(CRAFTED[spec][0], np.array(CRAFTED[spec][1]))
        elif spec == "icosphere(1) with defects":
            mesh = _icosphere_with_defects()
        else:
            mesh, _ = mm.generate_mesh(spec)
        assert mesh._lists_memo is None, "built only when first asked for"
        face_edges, offsets, rows = mesh._edge_face_lists()
        assert face_edges == mesh.face_edges.tolist()
        assert len(offsets) == mesh.edge_count + 1 and offsets[0] == 0
        for e in range(mesh.edge_count):
            want = [f for f, sides in enumerate(face_edges) if e in sides]
            assert rows[offsets[e] : offsets[e + 1]] == want
        assert offsets[-1] == len(rows) == 3 * mesh.face_count
        assert mesh._edge_face_lists() is mesh._lists_memo

    @pytest.mark.parametrize("spec", MESHES + sorted(CRAFTED) + ["icosphere(1) with defects"])
    def test_vertex_fans_match_brute_force(self, spec):
        if spec in CRAFTED:
            mesh = mm.Mesh(CRAFTED[spec][0], np.array(CRAFTED[spec][1]))
        elif spec == "icosphere(1) with defects":
            mesh = _icosphere_with_defects()
        else:
            mesh, _ = mm.generate_mesh(spec)
        assert mesh._fan_memo is None, "built only when first used"
        mm.fast_marching(mesh, mm.MetricField.uniform(mesh, 1.0), 0)
        memo = mesh._fan_memo
        assert memo is not None
        assert mesh._vertex_fans() is memo
        others, opposite = memo
        assert others.shape == (2, 3 * mesh.face_count)
        assert opposite.shape == (3, 3 * mesh.face_count)
        offsets, _ = mesh.vertex_face_csr
        for v in range(mesh.vertex_count):
            for j, f in zip(range(offsets[v], offsets[v + 1]), mesh.vertex_faces(v)):
                corners = mesh.faces[f].tolist()
                rest = [c for c in corners if c != v]
                assert others[:, j].tolist() == rest
                # the side opposite a corner is the face's one edge without it
                want = [
                    next(e for e in mesh.face_edges[f] if c not in mesh.edges[e])
                    for c in [v, *rest]
                ]
                assert opposite[:, j].tolist() == want

    def test_optimization_builds_no_fans(self):
        mesh, emb = mm.make_icosphere(1)
        metric = mm.MetricField.from_embedding(mesh, emb)
        config = mm.LossConfig(lambda_=1.0, p=1.5, mu_dirichlet=0.1, mu_volume=1.0)
        mm.run_optimization(
            mesh, metric, emb, None, config, mm.StopRule(max_iters=2), freeze_embedding=True
        )
        assert mesh._fan_memo is None

    def test_read_only(self):
        mesh = mm.Mesh(5, np.array([[0, 1, 3], [1, 4, 3]]))
        offsets, rows = mesh.vertex_edge_csr
        assert mesh.vertex_faces(2).size == 0 and offsets[2] == offsets[3]
        arrays = [mesh.vertex_faces(1), rows[offsets[1] : offsets[2]]]
        arrays += [*mesh.vertex_face_csr, *mesh.vertex_edge_csr, mesh.isolated_vertices]
        arrays += mesh._vertex_fans()
        assert mesh.isolated_vertices.tolist() == [2]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0


class TestEdgeTable:
    @pytest.mark.parametrize("spec", GENERATED[:4] + ["torus(16,8,2.0,0.7)", "grid(9,6,1.0)"])
    def test_matches_unique(self, spec):
        mesh, _ = mm.generate_mesh(spec)
        edges, face_edges = unique_edge_table(mesh.faces)
        np.testing.assert_array_equal(mesh.edges, edges)
        np.testing.assert_array_equal(mesh.face_edges, face_edges)

    # 3037000499 = isqrt(2**63 - 1): past it a 1-D key lo * n + hi would
    # wrap in int64.
    @pytest.mark.parametrize("top", [3037000498, 3037000499, 2**62, 2**63 - 1])
    def test_huge_vertex_ids(self, top):
        # Ids up to the int64 limit still come out in lexicographic order.
        rng = np.random.default_rng(top % 1000)
        ids = np.concatenate(([0, 1, top], top - rng.integers(1, 2**20, size=12)))
        faces = np.stack([np.roll(ids, k) for k in (0, 1, 3)], axis=1)
        sides = faces[:, (0, 1, 1, 2, 2, 0)].reshape(-1, 2)
        edges, inverse = _edge_table(sides.min(axis=1), sides.max(axis=1))
        ref_edges, ref_inverse = unique_edge_table(faces)
        np.testing.assert_array_equal(edges, ref_edges)
        np.testing.assert_array_equal(inverse.reshape(-1, 3), ref_inverse)

    # Few vertices and many faces: the face sets repeat edges, put an edge on
    # three or more faces and repeat whole faces. The offset moves the ids
    # up to the one-key sort's limit and past it.
    @given(
        st.integers(3, 9).flatmap(
            lambda v: st.lists(
                st.permutations(range(v)).map(lambda p: p[:3]), min_size=1, max_size=40
            )
        ),
        st.sampled_from([0, 10**6, 3037000490, 2**62]),
    )
    @settings(max_examples=200, deadline=None)
    def test_runs_follow_the_two_key_sort(self, faces, offset):
        lo, hi = _side_ends(np.array(faces, dtype=np.int64) + offset)
        order, first = _edge_runs(lo, hi)
        ref = np.lexsort((hi, lo))
        np.testing.assert_array_equal(order, ref)
        pairs = np.stack((lo[ref], hi[ref]), axis=1)
        np.testing.assert_array_equal(first[1:], (pairs[1:] != pairs[:-1]).any(axis=1))
        assert first[0]


class TestValidateManifold:
    def test_generators_clean(self):
        for mesh, _ in (mm.make_icosphere(1), mm.make_torus(5, 4, 2.0, 0.5), mm.make_grid(4, 4, 1.0)):
            assert mm.validate_manifold(mesh) == []

    def test_overshared_edge(self):
        mesh = mm.Mesh(5, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))
        kinds = {v.kind for v in mm.validate_manifold(mesh)}
        assert "non-manifold-edge" in kinds

    def test_bowtie_vertex(self):
        # two triangles meeting only at vertex 0
        mesh = mm.Mesh(5, np.array([[0, 1, 2], [0, 3, 4]]))
        kinds = {v.kind for v in mm.validate_manifold(mesh)}
        assert "non-manifold-vertex" in kinds

    def test_isolated_vertex(self):
        mesh = mm.Mesh(4, np.array([[0, 1, 2]]))
        kinds = {v.kind for v in mm.validate_manifold(mesh)}
        assert "isolated-vertex" in kinds


class TestOFF:
    def test_round_trip(self, icosphere0):
        mesh, emb = icosphere0
        text = mm.write_off(mesh, emb)
        mesh2, emb2 = mm.load_off(io.StringIO(text))
        assert np.array_equal(mesh.faces, mesh2.faces)
        assert np.array_equal(emb.coords, emb2.coords)

    def test_comments_and_colors_tolerated(self):
        text = (
            "OFF # header comment\n"
            "# full-line comment\n"
            "3 1 3\n"
            "0 0 0\n"
            "1 0 0  # vertex comment\n"
            "0 1 0\n"
            "3 0 1 2 255 0 0\n"
        )
        mesh, emb = mm.load_off(text)
        assert mesh.vertex_count == 3
        assert mesh.face_count == 1

    def test_empty_stream(self):
        with pytest.raises(OFFParseError, match="empty OFF stream"):
            mm.load_off("")
        with pytest.raises(OFFParseError, match="empty OFF stream"):
            mm.load_off("# only a comment\n\n")

    def test_missing_counts_line(self):
        with pytest.raises(OFFParseError, match="missing counts line"):
            mm.load_off("OFF\n")

    def test_missing_header(self):
        with pytest.raises(OFFParseError):
            mm.load_off("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")

    def test_wrong_vertex_count(self):
        with pytest.raises(OFFParseError):
            mm.load_off("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")

    def test_non_triangle_face(self):
        text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        with pytest.raises(NonTriangleFaceError):
            mm.load_off(text)

    def test_trailing_junk(self):
        with pytest.raises(OFFParseError):
            mm.load_off("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\nextra stuff\n")

    def test_overshared_edge_rejected(self):
        text = (
            "OFF\n5 3 0\n"
            "0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 -1 0\n"
            "3 0 1 2\n3 0 1 3\n3 0 1 4\n"
        )
        with pytest.raises(NonManifoldEdgeError):
            mm.load_off(text)

    @pytest.mark.parametrize("index", ["99999999999999999999", "-99999999999999999999"])
    def test_face_index_past_int64(self, index):
        text = f"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 {index}\n"
        with pytest.raises(FaceIndexError, match="face 0 references a vertex outside"):
            mm.load_off(text)

    def test_write_needs_3d_coordinates(self):
        mesh = mm.Mesh(3, np.array([[0, 1, 2]]))
        flat = mm.Embedding(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(MeshError, match="requires 3D coordinates, embedding has dimension 2"):
            mm.write_off(mesh, flat)

    def test_write_needs_one_point_per_vertex(self, icosphere0):
        mesh, emb = icosphere0
        short = mm.Embedding(emb.coords[:-1])
        with pytest.raises(MeshError, match="embedding has 11 vertices, mesh has 12"):
            mm.write_off(mesh, short)

    def test_save_and_read(self, tmp_path, icosphere0):
        mesh, emb = icosphere0
        path = tmp_path / "sphere.off"
        mm.save_off(mesh, emb, path)
        mesh2, emb2 = mm.read_off(path)
        assert np.array_equal(emb.coords, emb2.coords)
        assert np.array_equal(mesh.faces, mesh2.faces)


class TestGenerateMesh:
    def test_spec_forms(self):
        for spec in ("icosphere(1)", "icosphere:1", "torus(6,5,2.0,0.5)", "grid(3,4,0.25)"):
            mesh, emb = mm.generate_mesh(spec)
            assert mesh.vertex_count > 0
            assert emb.coords.shape[0] == mesh.vertex_count

    def test_bad_specs(self):
        for spec in ("sphere(1)", "icosphere", "icosphere(1,2)", "grid(2)", "torus(a,b,c,d)"):
            with pytest.raises(ValueError):
                mm.generate_mesh(spec)

    def test_generator_argument_validation(self):
        with pytest.raises(ValueError):
            mm.make_icosphere(-1)
        with pytest.raises(ValueError):
            mm.make_torus(2, 5, 2.0, 0.5)
        with pytest.raises(ValueError):
            mm.make_torus(5, 5, 1.0, 1.5)  # minor >= major
        with pytest.raises(ValueError):
            mm.make_grid(1, 5, 1.0)
        with pytest.raises(ValueError):
            mm.make_grid(3, 3, 0.0)

    @pytest.mark.parametrize("spacing", [math.nan, math.inf, -0.0, 1e308])
    def test_grid_rejects_bad_spacing(self, spacing):
        # NaN passes a plain `spacing <= 0` test; 2 * 1e308 overflows
        with pytest.raises(ValueError, match="grid spacing"):
            mm.make_grid(3, 3, spacing)

    @pytest.mark.parametrize("radii", [
        (math.nan, 0.5), (2.0, math.nan), (math.inf, 0.5), (2.0, -0.0), (1e308, 1.0),
    ])
    def test_torus_rejects_bad_radii(self, radii):
        with pytest.raises(ValueError, match="torus radii"):
            mm.make_torus(6, 4, *radii)

    # icosphere(7) has the most faces a reference mesh may have
    @pytest.mark.parametrize("spec,message", [
        ("icosphere(-1)", "subdivisions must be >= 0, got -1"),
        ("icosphere(8)", "subdivisions capped at 7, got 8"),
        ("torus(512,321,2.0,0.5)", "torus(512, 321) would have 328704 faces"),
        ("torus(100000,100000,2.0,0.5)", "would have 20000000000 faces"),
        ("torus(10000000000,3,nan,nan)", "would have 60000000000 faces"),
        ("grid(514,321,1.0)", "grid(514, 321) would have 328320 faces"),
        ("grid(100000,100000,1.0)", "would have 19999600002 faces"),
    ])
    def test_size_caps(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            mm.generate_mesh(spec)
        if "icosphere" not in spec:
            assert str(err.value).endswith("more than the cap of 327680 (the faces of icosphere(7))")

    @pytest.mark.parametrize("spec", ["torus(512,320,2.0,0.5)", "grid(513,321,1.0)"])
    def test_at_the_cap(self, spec):
        mesh, _ = mm.generate_mesh(spec)
        assert mesh.face_count == 327680


def same_bytes(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


LOOP_CASES = [(mm.make_icosphere, loop_icosphere, (k,)) for k in range(6)] + [
    (mm.make_torus, loop_torus, args)
    for args in [(3, 3, 2.0, 0.5), (8, 6, 2.0, 0.5), (16, 8, 2.0, 0.7), (100, 37, 3.3, 1.1)]
] + [
    (mm.make_grid, loop_grid, (nx, ny, 1.0))
    for nx, ny in [(2, 2), (4, 3), (9, 6), (200, 3), (50, 50)]
]


class TestGeneratorsMatchLoops:
    @pytest.mark.parametrize(
        "make,loop,args", LOOP_CASES, ids=[f"{m.__name__}{a}" for m, _, a in LOOP_CASES]
    )
    def test_same_bits(self, make, loop, args):
        (mesh, emb), (want, want_emb) = make(*args), loop(*args)
        assert mesh.vertex_count == want.vertex_count
        assert same_bytes(emb.coords, want_emb.coords)
        for name in ("faces", "edges", "face_edges", "boundary_vertex"):
            assert same_bytes(getattr(mesh, name), getattr(want, name)), name
        for name in ("vertex_face_csr", "vertex_edge_csr"):
            for got, ref in zip(getattr(mesh, name), getattr(want, name)):
                assert same_bytes(got, ref), name
        # and the edge tables are those of an independent reference
        edges, face_edges = unique_edge_table(want.faces)
        assert same_bytes(mesh.edges, edges)
        assert same_bytes(mesh.face_edges, face_edges)
