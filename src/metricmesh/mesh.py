"""Triangle-mesh connectivity, OFF file I/O, and reference generators.

A :class:`Mesh` is pure topology: vertex count, faces, and the derived
edge tables. Vertex positions travel separately as an
:class:`~metricmesh.projection.Embedding` so the same connectivity can
carry many geometries. Construction builds the edge tables, the boundary
flags and the isolated vertices; the incidence tables that only the
solvers and the repair read are built on first read and kept. Every
table is read-only and a mesh never changes, so threads can share one.

Edges are stored as sorted vertex pairs in lexicographic order, so edge
indices are a stable function of connectivity alone. Everything that
lays out per-edge quantities (metric fields, optimizer state) relies on
that ordering.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import itemgetter
from typing import IO, NoReturn

import numpy as np

from .errors import (
    FaceIndexError,
    MeshError,
    NonManifoldEdgeError,
    NonTriangleFaceError,
    OFFParseError,
    read_text,
)
from .projection import Embedding


@dataclass(frozen=True)
class Violation:
    """One manifoldness defect found by :func:`validate_manifold`."""

    kind: str
    where: int
    message: str


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _side_ends(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends (lo, hi) of the face sides (i,j), (j,k), (k,i), face by face."""
    start, end = faces.ravel(), faces[:, (1, 2, 0)].ravel()
    return np.minimum(start, end), np.maximum(start, end)


def _edge_runs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the (lo, hi) pairs, and where its runs start.

    A run is one distinct pair; the sort is stable, so each run starts at
    the pair's first row.
    """
    # One key sorts faster than two. With lo <= hi < n every key is below
    # n * n, so it is exact while that stays in int64; larger vertex
    # indices, which Mesh accepts, take the two-key sort.
    n = int(hi.max()) + 1
    if n * n < 2**63:
        order = np.argsort(lo * n + hi, kind="stable")
    else:
        order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return order, first


def _incidence(table: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR pair (offsets, rows): the rows of ``table`` holding id i, i < n, ascending."""
    flat = table.ravel()
    rows = np.argsort(flat, kind="stable") // table.shape[1]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n), out=offsets[1:])
    return _freeze(offsets), _freeze(rows)


def _edge_table(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (lo, hi) pairs in lexicographic order, and each pair's row."""
    order, first = _edge_runs(lo, hi)
    inverse = np.empty(order.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    rows = order[first]
    return np.stack((lo[rows], hi[rows]), axis=1), inverse


class Mesh:
    """Immutable fixed-topology triangle mesh.

    Args:
        vertex_count: integer number of vertices; faces index into this range.
        faces: integer array of shape (F, 3), three distinct vertex
            indices per face.

    Construction builds the edge tables, the boundary flags and
    ``isolated_vertices``. ``vertex_face_csr``, ``vertex_edge_csr`` and
    the private tables of the solvers and the repair are built on first
    read and kept; two threads that race there build equal tables.

    Construction tolerates edges on more than two faces and vertices on no
    face (``isolated_vertices``) so that :func:`validate_manifold` can
    report them; the OFF loader rejects such edges outright.
    """

    def __init__(self, vertex_count: int, faces):
        if not isinstance(vertex_count, numbers.Integral) or isinstance(vertex_count, bool):
            raise MeshError(f"vertex count must be an integer, got {vertex_count!r}")
        vertex_count = int(vertex_count)
        faces = np.asarray(faces)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise NonTriangleFaceError(
                f"faces must have shape (F, 3), got {faces.shape}"
            )
        if faces.shape[0] == 0:
            raise MeshError("mesh has no faces")
        if faces.dtype.kind not in "iu":
            raise MeshError(f"face indices must be integers, got dtype {faces.dtype}")
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        if faces.min() < 0 or faces.max() >= vertex_count:
            bad = int(np.flatnonzero((faces < 0) | (faces >= vertex_count)).ravel()[0] // 3)
            raise FaceIndexError(
                f"face {bad} references a vertex outside [0, {vertex_count})"
            )
        same = (
            (faces[:, 0] == faces[:, 1])
            | (faces[:, 1] == faces[:, 2])
            | (faces[:, 2] == faces[:, 0])
        )
        if same.any():
            raise NonTriangleFaceError(
                f"face {int(np.flatnonzero(same)[0])} repeats a vertex"
            )

        self.vertex_count = vertex_count
        self.faces = _freeze(faces)

        # Face sides in corner order (i,j), (j,k), (k,i); edge ids come from
        # lexicographic order of the sorted pairs.
        edges, inverse = _edge_table(*_side_ends(faces))
        self.edges = _freeze(edges)
        self.face_edges = _freeze(inverse.reshape(-1, 3))
        self.edge_face_count = _freeze(
            np.bincount(inverse, minlength=edges.shape[0]).astype(np.int64)
        )
        self.boundary_edge = _freeze(self.edge_face_count == 1)
        # Vertices on no face, ascending: they have no area and no curvature.
        self.isolated_vertices = _freeze(
            np.flatnonzero(np.bincount(faces.ravel(), minlength=vertex_count) == 0)
        )

        bv = np.zeros(vertex_count, dtype=bool)
        bv[self.edges[self.boundary_edge].ravel()] = True
        self.boundary_vertex = _freeze(bv)

    @cached_property
    def vertex_face_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, rows): vertex v's faces are ``rows[offsets[v]:offsets[v + 1]]``, ascending."""
        return _incidence(self.faces, self.vertex_count)

    @cached_property
    def vertex_edge_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, rows): the edges on vertex v, in the layout of ``vertex_face_csr``."""
        return _incidence(self.edges, self.vertex_count)

    @cached_property
    def _edge_face_lists(self) -> tuple[list, list, list]:
        """(face_edges, offsets, rows) as Python lists.

        ``face_edges`` is ``self.face_edges.tolist()``, and the faces on
        edge e are ``rows[offsets[e]:offsets[e + 1]]``, ascending. The
        feasibility repair reads them one face at a time, which lists do
        faster than arrays; a mesh that is never repaired builds none.
        """
        offsets, rows = _incidence(self.face_edges, self.edge_count)
        return self.face_edges.tolist(), offsets.tolist(), rows.tolist()

    @cached_property
    def _vertex_fans(self) -> tuple[np.ndarray, np.ndarray]:
        """The fan table (others, opposite), read-only.

        Entry j of ``vertex_face_csr`` is vertex u and a face f holding
        it. Column j of ``others`` (2, 3F) holds f's other two corners in
        corner order, c1 before c2, and column j of ``opposite`` (3, 3F)
        the edges opposite u, c1 and c2. Fast marching reads them one fan
        at a time. Topology only: any metric on the mesh can read them.
        """
        offsets, rows = self.vertex_face_csr
        at = np.repeat(np.arange(self.vertex_count), np.diff(offsets))
        first = 3 * rows  # flat index of corner 0 of each entry's face
        flat = self.faces.ravel()
        pos_u = (flat[first + 1] == at) + 2 * (flat[first + 2] == at)
        # corner positions of u, c1 and c2; corner p is opposite side (p + 1) % 3
        pos = np.stack((pos_u, pos_u == 0, 2 - (pos_u == 2)))
        others = flat[first + pos[1:]]
        opposite = self.face_edges.ravel()[first + (pos + 1) % 3]
        return _freeze(others), _freeze(opposite)

    @cached_property
    def _far_ends(self) -> np.ndarray:
        """The far-end table (int64, 2E), read-only.

        Entry k of ``vertex_edge_csr`` is a vertex u and an edge holding
        it; entry k of the table is that edge's other end. Dijkstra reads
        it one vertex at a time. Topology only, like ``_vertex_fans``.
        """
        offsets, rows = self.vertex_edge_csr
        at = np.repeat(np.arange(self.vertex_count), np.diff(offsets))
        ends = self.edges[rows]
        return _freeze(ends[:, 0] + ends[:, 1] - at)

    @property
    def face_count(self) -> int:
        return int(self.faces.shape[0])

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    def vertex_faces(self, v: int) -> np.ndarray:
        """Indices of faces incident to vertex ``v``, an int in [0, V), ascending (read-only)."""
        integral = isinstance(v, numbers.Integral) and not isinstance(v, bool)
        if not (integral and 0 <= v < self.vertex_count):
            raise ValueError(f"vertex {v!r} is not an integer in [0, {self.vertex_count})")
        offsets, rows = self.vertex_face_csr
        return rows[offsets[v] : offsets[v + 1]]

    def __repr__(self) -> str:
        return (
            f"Mesh(V={self.vertex_count}, E={self.edge_count}, F={self.face_count})"
        )


def euler_characteristic(mesh: Mesh) -> int:
    """V - E + F; 2 for sphere topology, 0 for a torus, 1 for a disk."""
    return mesh.vertex_count - mesh.edge_count + mesh.face_count


def _fan_counts(mesh: Mesh) -> np.ndarray:
    """Number of face fans around each vertex; 0 for an isolated vertex.

    A node is a face corner. Each face side links its two corners to the
    corners of the same vertices in one chosen face of that edge, so all
    faces of an edge are linked, however many there are. Minimum labels
    then spread along the links, with pointer jumping, until nothing
    changes; every corner ends up labelled with the smallest corner of its
    fan, and a vertex has as many fans as it has corners that are their
    own label.
    """
    corner_vertex = mesh.faces.ravel()
    ca = np.arange(corner_vertex.size, dtype=np.int32)  # side (f, j) starts at corner 3f + j
    cb = ca.reshape(-1, 3)[:, (1, 2, 0)].ravel()  # ... and ends at 3f + (j+1) % 3
    rep = np.empty(mesh.edge_count, dtype=np.int32)
    rep[mesh.face_edges.ravel()] = ca  # any one side of each edge
    r = rep[mesh.face_edges.ravel()]
    same = corner_vertex[r] == corner_vertex
    src = np.concatenate((ca, cb))
    dst = np.concatenate((np.where(same, r, cb[r]), np.where(same, cb[r], r)))
    label = ca.copy()
    while True:
        before = label.copy()
        np.minimum.at(label, src, label[dst])
        np.minimum.at(label, dst, label[src])
        label = label[label]
        if np.array_equal(label, before):
            break
    return np.bincount(corner_vertex[label == ca], minlength=mesh.vertex_count)


def validate_manifold(mesh: Mesh) -> list[Violation]:
    """Report manifoldness defects; empty list means the mesh is clean.

    Checks that every edge borders at most two faces and that the faces
    around every vertex form a single fan (one cycle for interior
    vertices, one open strip with exactly two boundary edges otherwise).
    Edge defects come first, by edge id, then vertex defects by vertex.
    """
    out: list[Violation] = []
    counts = mesh.edge_face_count
    for e in np.flatnonzero(counts > 2).tolist():
        u, v = mesh.edges[e].tolist()
        out.append(
            Violation(
                "non-manifold-edge",
                e,
                f"edge {e} ({u},{v}) borders {int(counts[e])} faces",
            )
        )
    fans = _fan_counts(mesh)
    n_open = np.bincount(
        mesh.edges[mesh.boundary_edge].ravel(), minlength=mesh.vertex_count
    )
    bad = (fans != 1) | ((n_open != 0) & (n_open != 2))
    for v in np.flatnonzero(bad).tolist():
        if fans[v] == 0:
            out.append(Violation("isolated-vertex", v, f"vertex {v} has no faces"))
        elif fans[v] > 1:
            out.append(
                Violation(
                    "non-manifold-vertex",
                    v,
                    f"faces around vertex {v} split into disconnected fans",
                )
            )
        else:
            out.append(
                Violation(
                    "non-manifold-vertex",
                    v,
                    f"vertex {v} has {int(n_open[v])} open fan edges (expected 0 or 2)",
                )
            )
    return out


# --------------------------------------------------------------------------
# OFF I/O


def _off_lines(text: str) -> tuple[list[int], list[str]]:
    """Numbers and text of the lines that are not blank once '#' comments are cut."""
    cut = map(itemgetter(0), map(str.partition, text.splitlines(), repeat("#")))
    stripped = list(map(str.strip, cut))
    return list(compress(count(1), stripped)), list(filter(None, stripped))


def load_off(source: str | IO[str]) -> tuple[Mesh, Embedding]:
    """Parse OFF text (string or file-like) into a mesh plus its coordinates.

    '#' comments and blank lines are ignored anywhere. Counts header is
    ``V F E``; the declared edge count is ignored since edges are derived.
    Trailing tokens on face lines (color attributes) are ignored.

    Coordinates and face indices convert in bulk, one ``float`` or ``int``
    pass over all of them; only a file that fails a bulk check is walked
    line by line, to name its first bad line.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    numbers, lines = _off_lines(text)
    if not lines:
        raise OFFParseError("empty OFF stream")
    pos = 0
    lineno, header = numbers[pos], lines[pos]
    if header.upper() != "OFF":
        raise OFFParseError(f"line {lineno}: expected 'OFF' header, got {header!r}")
    pos += 1
    if pos >= len(lines):
        raise OFFParseError("missing counts line")
    lineno, counts = numbers[pos], lines[pos]
    parts = counts.split()
    if len(parts) != 3:
        raise OFFParseError(f"line {lineno}: counts line must hold 3 integers")
    try:
        nv, nf, _ne = (int(p) for p in parts)
    except ValueError as exc:
        raise OFFParseError(f"line {lineno}: bad counts line {counts!r}") from exc
    if nv <= 0 or nf <= 0:
        raise OFFParseError(f"line {lineno}: counts must be positive, got {counts!r}")
    pos += 1
    if len(lines) - pos < nv + nf:
        raise OFFParseError(
            f"expected {nv} vertex and {nf} face lines, found {len(lines) - pos}"
        )
    numbers, lines = numbers[pos:], lines[pos:]
    vertex_lines, face_lines = lines[:nv], lines[nv:]
    # widths per line, so a short line cannot lend a token to a long one
    if len(face_lines) != nf or set(map(len, map(str.split, vertex_lines))) != {3}:
        _off_error(numbers, lines, nv, nf)
    try:
        xyz = map(float, chain.from_iterable(map(str.split, vertex_lines)))
        coords = np.fromiter(xyz, np.float64, 3 * nv).reshape(nv, 3)
        # arity and three indices: 4 * nf of them only if no face line is short
        heads = map(itemgetter(slice(4)), map(str.split, face_lines, repeat(None), repeat(4)))
        flat = list(map(int, chain.from_iterable(heads)))
    except ValueError:
        _off_error(numbers, lines, nv, nf)
    if len(flat) != 4 * nf or flat[::4].count(3) != nf:
        _off_error(numbers, lines, nv, nf)
    del flat[::4]
    # Checked on Python ints, before an index past int64 could reach an array.
    if min(flat) < 0 or max(flat) >= nv:
        _off_error(numbers, lines, nv, nf)
    mesh = Mesh(nv, np.array(flat, dtype=np.int64).reshape(nf, 3))
    too_many = np.flatnonzero(mesh.edge_face_count > 2)
    if too_many.size:
        e = int(too_many[0])
        u, v = (int(x) for x in mesh.edges[e])
        raise NonManifoldEdgeError(
            f"edge ({u},{v}) borders {int(mesh.edge_face_count[e])} faces"
        )
    return mesh, Embedding(coords)


def _off_error(numbers: list[int], lines: list[str], nv: int, nf: int) -> NoReturn:
    """Raise the error of the first bad line of an OFF body that failed a bulk check."""
    body = list(zip(numbers, lines))
    for lineno, line in body[:nv]:
        parts = line.split()
        if len(parts) != 3:
            raise OFFParseError(f"line {lineno}: vertex line must hold 3 coordinates")
        try:
            [float(p) for p in parts]
        except ValueError as exc:
            raise OFFParseError(f"line {lineno}: bad vertex line {line!r}") from exc
    faces = []
    for lineno, line in body[nv : nv + nf]:
        parts = line.split()
        try:
            arity = int(parts[0])
        except (ValueError, IndexError) as exc:
            raise OFFParseError(f"line {lineno}: bad face line {line!r}") from exc
        if arity != 3:
            raise NonTriangleFaceError(
                f"line {lineno}: face with {arity} vertices, only triangles supported"
            )
        if len(parts) < 4:
            raise OFFParseError(f"line {lineno}: face line too short {line!r}")
        try:
            faces.append([int(p) for p in parts[1:4]])
        except ValueError as exc:
            raise OFFParseError(f"line {lineno}: bad face indices {line!r}") from exc
    if len(body) > nv + nf:
        lineno, line = body[nv + nf]
        raise OFFParseError(f"line {lineno}: unexpected trailing content {line!r}")
    for i, face in enumerate(faces):
        if min(face) < 0 or max(face) >= nv:
            raise FaceIndexError(f"face {i} references a vertex outside [0, {nv})")
    raise AssertionError("OFF body failed a bulk check but no line check")


def read_off(path) -> tuple[Mesh, Embedding]:
    """Load an OFF file from disk."""
    return load_off(read_text(path, lambda line, why: OFFParseError(f"line {line}: {why}")))


def write_off(mesh: Mesh, embedding: Embedding) -> str:
    """Serialize mesh connectivity plus 3D coordinates as OFF text.

    Coordinates are written with shortest round-trip precision so a
    write/load cycle reproduces them bit for bit.
    """
    coords = embedding.coords
    if coords.shape[1] != 3:
        raise MeshError(
            f"OFF output requires 3D coordinates, embedding has dimension {coords.shape[1]}"
        )
    if coords.shape[0] != mesh.vertex_count:
        raise MeshError(
            f"embedding has {coords.shape[0]} vertices, mesh has {mesh.vertex_count}"
        )
    out = ["OFF", f"{mesh.vertex_count} {mesh.face_count} {mesh.edge_count}"]
    for row in coords:
        out.append(f"{float(row[0])!r} {float(row[1])!r} {float(row[2])!r}")
    for f in mesh.faces:
        out.append(f"3 {int(f[0])} {int(f[1])} {int(f[2])}")
    return "\n".join(out) + "\n"


def save_off(mesh: Mesh, embedding: Embedding, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_off(mesh, embedding))


# --------------------------------------------------------------------------
# Generators


# Faces of icosphere(7), the largest reference mesh; a torus or grid may
# have no more.
_MAX_FACES = 20 * 4**7


def make_icosphere(subdivisions: int) -> tuple[Mesh, Embedding]:
    """Unit icosphere: icosahedron with each face split 4-fold k times.

    A round gives every edge one midpoint and splits face (i, j, k), with
    midpoints a, b, c on its sides (i,j), (j,k), (k,i), into (i, a, c),
    (j, b, a), (k, c, b) and (a, b, c), in that order and in face order.
    The new vertices follow the old ones, numbered in the order their
    edges are first met walking the faces in order and each face's sides
    in order. A midpoint is ``m = p + q`` scaled back onto the unit sphere
    as ``m / sqrt(m . m)``, the dot product taken as numpy's 1-D
    ``np.linalg.norm`` takes it, so it keeps the bits of the one-midpoint-
    at-a-time construction. V = 10*4**k + 2, F = 20*4**k.
    """
    if subdivisions < 0:
        raise ValueError(f"subdivisions must be >= 0, got {subdivisions}")
    if subdivisions > 7:
        raise ValueError(f"subdivisions capped at 7, got {subdivisions}")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    coords = np.array(raw, dtype=np.float64) / math.sqrt(1.0 + phi * phi)
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=np.int64)
    for _ in range(subdivisions):
        lo, hi = _side_ends(faces)
        order, first = _edge_runs(lo, hi)
        # The sort is stable, so each edge's run starts at the edge's first
        # side; those sides, in side order, number the midpoints.
        heads = order[first]
        fresh = np.zeros(order.size, dtype=bool)
        fresh[heads] = True
        number = np.cumsum(fresh) + (coords.shape[0] - 1)  # read at fresh sides
        mids = np.empty(order.size, dtype=np.int64)
        mids[order] = number[heads][np.cumsum(first) - 1]
        m = coords[lo[fresh]] + coords[hi[fresh]]
        # (k, 1, 3) @ (k, 3, 1) is a BLAS dot per row, like the 1-D norm; a
        # dot of 3 entries runs in one thread at any BLAS thread count.
        m /= np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
        coords = np.vstack((coords, m))
        corners = np.hstack((faces, mids.reshape(-1, 3)))  # i, j, k, a, b, c
        faces = corners[:, (0, 3, 5, 1, 4, 3, 2, 5, 4, 3, 4, 5)].reshape(-1, 3)
    return Mesh(coords.shape[0], faces), Embedding(coords)


def _check_face_count(kind: str, faces: int) -> None:
    if faces > _MAX_FACES:
        raise ValueError(
            f"{kind} would have {faces} faces, more than the cap of {_MAX_FACES} "
            f"(the faces of icosphere(7))"
        )


def _split_quads(v00, v10, v11, v01) -> np.ndarray:
    """Faces (v00, v10, v11), (v00, v11, v01) of each quad, quad by quad."""
    return np.stack((v00, v10, v11, v00, v11, v01), axis=-1).reshape(-1, 3)


def make_torus(nu: int, nv: int, major_radius: float, minor_radius: float) -> tuple[Mesh, Embedding]:
    """Structured torus: nu x nv vertex grid, both directions wrapped.

    V = nu*nv, E = 3*nu*nv, F = 2*nu*nv; Euler characteristic 0. F may
    not pass 327,680, the faces of icosphere(7).
    """
    if nu < 3 or nv < 3:
        raise ValueError(f"torus needs nu, nv >= 3, got ({nu}, {nv})")
    _check_face_count(f"torus({nu}, {nv})", 2 * int(nu) * int(nv))
    # Written so that NaN fails; the diameter bounds every coordinate difference.
    diameter = 2.0 * (major_radius + minor_radius)
    if not (0.0 < minor_radius < major_radius and math.isfinite(diameter)):
        raise ValueError(
            f"torus radii must satisfy 0 < minor < major with a finite diameter, "
            f"got ({major_radius}, {minor_radius})"
        )
    # Vertex (i, j) at angle theta_i around the axis and phi_j around the
    # tube. The sines and cosines come from math, once per angle: np.cos is
    # not promised to round as math.cos does.
    thetas = [2.0 * math.pi * i / nu for i in range(nu)]
    phis = [2.0 * math.pi * j / nv for j in range(nv)]
    ring = np.array([major_radius + minor_radius * math.cos(p) for p in phis])
    coords = np.empty((nu, nv, 3), dtype=np.float64)
    coords[:, :, 0] = np.outer([math.cos(t) for t in thetas], ring)
    coords[:, :, 1] = np.outer([math.sin(t) for t in thetas], ring)
    coords[:, :, 2] = [minor_radius * math.sin(p) for p in phis]
    ids = np.arange(nu * nv, dtype=np.int64).reshape(nu, nv)
    next_i = np.roll(ids, -1, axis=0)
    faces = _split_quads(ids, next_i, np.roll(next_i, -1, axis=1), np.roll(ids, -1, axis=1))
    return Mesh(nu * nv, faces), Embedding(coords.reshape(-1, 3))


def make_grid(nx: int, ny: int, spacing: float) -> tuple[Mesh, Embedding]:
    """Planar nx x ny vertex grid in the z=0 plane, quads split uniformly.

    Every quad is split along the same diagonal, from its lower-left to
    its upper-right corner. The alternating split looks more symmetric
    but degrades front propagation accuracy near the corners, so the
    uniform one is deliberate. F = 2*(nx-1)*(ny-1) may not pass 327,680,
    the faces of icosphere(7).
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"grid needs nx, ny >= 2, got ({nx}, {ny})")
    _check_face_count(f"grid({nx}, {ny})", 2 * (int(nx) - 1) * (int(ny) - 1))
    # Written so that NaN fails; the diagonal bounds every coordinate difference.
    if not (spacing > 0.0 and math.isfinite(math.hypot(nx - 1, ny - 1) * spacing)):
        raise ValueError(
            f"grid spacing must be positive with a finite diagonal, got {spacing}"
        )
    xs = np.arange(nx, dtype=np.float64) * spacing
    ys = np.arange(ny, dtype=np.float64) * spacing
    coords = np.zeros((nx * ny, 3), dtype=np.float64)
    coords[:, 0] = np.tile(xs, ny)
    coords[:, 1] = np.repeat(ys, nx)
    ids = np.arange(nx * ny, dtype=np.int64).reshape(ny, nx)
    faces = _split_quads(ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1])
    return Mesh(nx * ny, faces), Embedding(coords)


_KIND_RE = re.compile(r"^\s*([a-z_]+)\s*[(:]\s*([^)]*?)\s*\)?\s*$")


def generate_mesh(kind: str) -> tuple[Mesh, Embedding]:
    """Build a reference mesh from a spec string.

    Accepted forms: ``icosphere(2)``, ``torus(8,8,2.0,0.5)``,
    ``grid(10,10,1.0)``; a colon may replace the parenthesis, as in
    ``icosphere:2``.
    """
    m = _KIND_RE.match(kind.strip().lower())
    if not m:
        raise ValueError(f"unrecognized mesh spec {kind!r}")
    name, argstr = m.group(1), m.group(2)
    args = [s.strip() for s in argstr.split(",")] if argstr.strip() else []
    arity = {"icosphere": 1, "torus": 4, "grid": 3}
    if name not in arity:
        raise ValueError(
            f"unknown mesh kind {name!r} (expected icosphere, torus, or grid)"
        )
    if len(args) != arity[name]:
        raise ValueError(
            f"mesh kind {name!r} takes {arity[name]} arguments, got {len(args)}"
        )
    try:
        if name == "icosphere":
            return make_icosphere(int(args[0]))
        if name == "torus":
            return make_torus(int(args[0]), int(args[1]), float(args[2]), float(args[3]))
        return make_grid(int(args[0]), int(args[1]), float(args[2]))
    except ValueError as exc:
        raise ValueError(f"bad mesh spec {kind!r}: {exc}") from exc
