"""The three file readers against the row-by-row readers they replaced.

``load_off``, ``read_lengths_csv`` and ``Dataset.from_csv`` convert
whole columns of tokens at once and walk rows only to report an error.
The ``reference_*`` functions below are the row-by-row readers as they
were before; on every input the bulk readers must return the same bits
or raise the same exception class with the same message.
"""

import codecs
import csv
import io
import random
import tracemalloc

import numpy as np
import pytest

import metricmesh as mm
from metricmesh import outputs
from metricmesh.errors import (
    DatasetError,
    FaceIndexError,
    NonManifoldEdgeError,
    NonTriangleFaceError,
    OFFParseError,
    read_text,
)
from metricmesh.projection import _is_number
from test_cli import _mutate_fields, _mutate_off


def reference_load_off(text):
    """OFF text to (faces, coords), one line at a time."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise OFFParseError("empty OFF stream")
    pos = 0
    lineno, header = lines[pos]
    if header.upper() != "OFF":
        raise OFFParseError(f"line {lineno}: expected 'OFF' header, got {header!r}")
    pos += 1
    if pos >= len(lines):
        raise OFFParseError("missing counts line")
    lineno, counts = lines[pos]
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
    rows = []
    for lineno, line in lines[pos : pos + nv]:
        parts = line.split()
        if len(parts) != 3:
            raise OFFParseError(f"line {lineno}: vertex line must hold 3 coordinates")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise OFFParseError(f"line {lineno}: bad vertex line {line!r}") from exc
    coords = np.array(rows, dtype=np.float64)
    pos += nv
    faces = []
    for i in range(nf):
        lineno, line = lines[pos + i]
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
    if len(lines) - pos - nf > 0:
        lineno, line = lines[pos + nf]
        raise OFFParseError(f"line {lineno}: unexpected trailing content {line!r}")
    for i, face in enumerate(faces):
        if min(face) < 0 or max(face) >= nv:
            raise FaceIndexError(f"face {i} references a vertex outside [0, {nv})")
    mesh = mm.Mesh(nv, np.array(faces, dtype=np.int64))
    too_many = np.flatnonzero(mesh.edge_face_count > 2)
    if too_many.size:
        e = int(too_many[0])
        u, v = (int(x) for x in mesh.edges[e])
        raise NonManifoldEdgeError(
            f"edge ({u},{v}) borders {int(mesh.edge_face_count[e])} faces"
        )
    return mesh.faces, mm.Embedding(coords).coords


def reference_read_lengths(path, mesh):
    """A lengths file to its lengths array, one row at a time."""
    text = read_text(path, lambda line, why: ValueError(f"lengths file {path}, line {line}: {why}"))
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0] != outputs.LENGTHS_HEADER:
        raise ValueError(f"lengths file must start with header '{outputs.LENGTHS_HEADER}'")
    body = lines[1:]
    if len(body) != mesh.edge_count:
        raise ValueError(
            f"lengths file has {len(body)} rows, mesh has {mesh.edge_count} edges"
        )
    out, ends = [], []
    for i, line in enumerate(body):
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"lengths row {i}: expected 4 columns, got {len(parts)}")
        try:
            e, v0, v1 = int(parts[0]), int(parts[1]), int(parts[2])
            value = float(parts[3])
        except ValueError as exc:
            raise ValueError(f"lengths row {i}: {exc}") from None
        if e != i:
            raise ValueError(f"lengths row {i}: edge ids must be sequential, got {e}")
        ends.append([v0, v1])
        out.append(value)
    expected = mesh.edges.tolist()
    if ends != expected:
        i = next(i for i, pair in enumerate(ends) if pair != expected[i])
        raise ValueError(
            f"lengths row {i}: edge endpoints ({ends[i][0]}, {ends[i][1]}) do not match "
            f"the mesh ({expected[i][0]}, {expected[i][1]})"
        )
    return mm.MetricField(np.array(out)).lengths


def reference_dataset(source):
    """A dataset file (path or file-like) to its points, one row at a time."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = read_text(source, lambda line, why: DatasetError(f"line {line}: {why}"))
    rows = [r for r in csv.reader(io.StringIO(text)) if r and any(c.strip() for c in r)]
    if not rows:
        raise DatasetError("empty dataset file")
    start = 0 if any(map(_is_number, rows[0])) else 1
    if start >= len(rows):
        raise DatasetError("dataset file holds only a header")
    width = len(rows[start])
    data = np.empty((len(rows) - start, width), dtype=np.float64)
    for i, row in enumerate(rows[start:], start=start):
        if len(row) != width:
            raise DatasetError(f"row {i + 1}: expected {width} columns, got {len(row)}")
        try:
            data[i - start] = [float(c) for c in row]
        except ValueError as exc:
            raise DatasetError(f"row {i + 1}: non-numeric value ({exc})") from exc
    return mm.Dataset(data).points


def bulk_load_off(text):
    mesh, emb = mm.load_off(text)
    return mesh.faces, emb.coords


def outcome(read, *args):
    """('ok', arrays) or ('error', class, message) of ``read(*args)``."""
    try:
        result = read(*args)
    except (mm.MetricMeshError, ValueError) as exc:
        return ("error", type(exc), str(exc))
    return ("ok", result)


def assert_same_outcome(bulk, reference, context):
    """Same exception and message, or the same arrays bit for bit."""
    assert bulk[0] == reference[0], (context, bulk, reference)
    if bulk[0] == "error":
        assert bulk[1:] == reference[1:], context
        return
    got, want = bulk[1], reference[1]
    if isinstance(want, tuple):
        assert len(got) == len(want), context
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), context
    else:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), context


# Valid inputs with everything the readers accept: '#' comments, blank
# lines, CRLF, tabs, trailing face tokens (colours), a dataset header and
# numbers only Python's converters read ('1_0', ' +2 ', Arabic-Indic
# digits '١٢').
VALID_OFF = (
    "OFF # header comment\r\n"
    "\r\n"
    "# 13 vertices, 2 faces\r\n"
    "13\t2  0\r\n"
    "0 0 0\n1_0 0 0\n0 ١٢ 0  # twelve\n"
    + "".join(f"{k} +{k}.5 -{k}e-3\n" for k in range(3, 13))
    + "3 0 1 ١٢ 255 0 0\n"
    "\t3\t1_0 0 +2   0.5 0.5 0.5 1\n"
)
VALID_DATASET = (
    "x,y,z\r\n"
    "\r\n"
    "1_0, +2 ,١٢\r\n"
    "  ,  \n"
    "0.5,\t-1e-3,3\n"
    "1e300,-0,7\n"
)


def valid_lengths_text(mesh, metric):
    """A lengths file in odd but valid spellings: CRLF, blank lines, tabs, '+', '_', '١٢'."""
    rows = outputs.lengths_csv_text(mesh, metric).splitlines()
    out = [rows[0], ""]
    for e, row in enumerate(rows[1:]):
        i, u, v, length = row.split(",")
        if e % 3 == 0:
            i = f" +{i} "
        elif e % 3 == 1 and e >= 10:
            i = f"{i[:-1]}_{i[-1]}"
        else:
            i = i.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
        if e % 4 == 1:
            u = "\t" + u + "\t"
        out.append(",".join([i, u, v, length]))
    return "\r\n".join(out) + "\r\n\r\n"


def mutated(text, rng, mutate, most):
    """``text`` after 1 to ``most`` edits; a text cut to blanks takes no more."""
    for _ in range(rng.randint(1, most)):
        if not text.strip():
            break
        text = mutate(text, rng)
    return text


class TestBulkReadersMatchReference:
    def test_valid_inputs_bit_identical(self, tmp_path):
        off = tmp_path / "m.off"
        off.write_bytes(codecs.BOM_UTF8 + VALID_OFF.encode("utf-8"))
        want = outcome(reference_load_off, read_text(off, None))
        assert want[0] == "ok" and want[1][0].tolist() == [[0, 1, 12], [10, 0, 2]]
        mesh, emb = mm.read_off(off)
        assert_same_outcome(("ok", (mesh.faces, emb.coords)), want, "OFF")

        data = tmp_path / "pts.csv"
        data.write_bytes(codecs.BOM_UTF8 + VALID_DATASET.encode("utf-8"))
        want = outcome(reference_dataset, data)
        assert want[0] == "ok" and want[1][0].tolist() == [10.0, 2.0, 12.0]
        assert_same_outcome(("ok", mm.Dataset.from_csv(data).points), want, "dataset")

        mesh, emb = mm.make_icosphere(1)
        metric = mm.MetricField.from_embedding(mesh, emb).with_jitter(np.random.default_rng(5), 0.2)
        lengths = tmp_path / "lengths.csv"
        lengths.write_bytes(codecs.BOM_UTF8 + valid_lengths_text(mesh, metric).encode("utf-8"))
        want = outcome(reference_read_lengths, lengths, mesh)
        assert want[0] == "ok" and want[1].tobytes() == metric.lengths.tobytes()
        got = outputs.read_lengths_csv(lengths, mesh).lengths
        assert_same_outcome(("ok", got), want, "lengths")

    def test_seeded_mutations(self, tmp_path):
        rng = random.Random(20261019)
        counts = {}

        def check(name, bulk, reference, text):
            assert_same_outcome(bulk, reference, (name, text))
            key = (name, bulk[0])
            counts[key] = counts.get(key, 0) + 1

        base = VALID_OFF.replace("\r\n", "\n")
        for _ in range(300):
            text = mutated(base, rng, _mutate_off, 3)
            check("OFF", outcome(bulk_load_off, text), outcome(reference_load_off, text), text)

        base = VALID_DATASET.replace("\r\n", "\n")
        for _ in range(300):
            text = mutated(base, rng, lambda t, r: _mutate_fields(t, r, ","), 3)
            bulk = outcome(lambda: mm.Dataset.from_csv(io.StringIO(text)).points)
            check("dataset", bulk, outcome(reference_dataset, io.StringIO(text)), text)

        mesh, emb = mm.make_icosphere(0)
        metric = mm.MetricField.from_embedding(mesh, emb)
        base = valid_lengths_text(mesh, metric).replace("\r\n", "\n")
        path = tmp_path / "lengths.csv"
        for _ in range(300):
            text = mutated(base, rng, lambda t, r: _mutate_fields(t, r, ","), 2)
            path.write_text(text, encoding="utf-8")
            bulk = outcome(lambda: outputs.read_lengths_csv(path, mesh).lengths)
            check("lengths", bulk, outcome(reference_read_lengths, path, mesh), text)

        # both directions are exercised for every reader
        for name in ("OFF", "dataset", "lengths"):
            assert counts.get((name, "ok"), 0) >= 10, counts
            assert counts.get((name, "error"), 0) >= 100, counts


def _two_off_vertices_realigned():
    mesh, emb = mm.make_icosphere(0)
    lines = mm.write_off(mesh, emb).splitlines()
    a, b = lines[3].split(), lines[4].split()
    lines[3], lines[4] = " ".join(a[:2]), " ".join(a[2:] + b)  # 2 and 4 coordinates
    return "\n".join(lines) + "\n", "line 4: vertex line must hold 3 coordinates"


def _two_off_faces_realigned():
    mesh, emb = mm.make_icosphere(0)
    lines = mm.write_off(mesh, emb).splitlines()
    k = 2 + mesh.vertex_count
    a, b = lines[k].split(), lines[k + 1].split()
    # '3 i j' (3 tokens) then 'k 3 i' j' k'' (5): one stream of tokens
    # reads as the two faces the file had before
    lines[k], lines[k + 1] = " ".join(a[:3]), " ".join(a[3:] + b)
    return "\n".join(lines) + "\n", f"line {k + 1}: face line too short {lines[k]!r}"


class TestFieldCountsThatCancel:
    """A short row next to a long one leaves the token total unchanged.

    Read as one stream of tokens, the two rows realign into valid ones;
    each reader must still reject the short row.
    """

    @pytest.mark.parametrize("build", [_two_off_vertices_realigned, _two_off_faces_realigned])
    def test_off(self, build):
        text, message = build()
        with pytest.raises(OFFParseError) as info:
            mm.load_off(text)
        assert str(info.value) == message
        assert outcome(reference_load_off, text) == ("error", OFFParseError, message)

    def test_lengths(self, tmp_path):
        mesh, emb = mm.make_icosphere(0)
        rows = outputs.lengths_csv_text(mesh, mm.MetricField.from_embedding(mesh, emb)).splitlines()
        a, b = rows[3].split(","), rows[4].split(",")
        rows[3], rows[4] = ",".join(a[:3]), ",".join(a[3:] + b)  # 3 and 5 fields
        path = tmp_path / "lengths.csv"
        path.write_text("\n".join(rows) + "\n")
        message = "lengths row 2: expected 4 columns, got 3"
        with pytest.raises(ValueError) as info:
            outputs.read_lengths_csv(path, mesh)
        assert str(info.value) == message
        assert outcome(reference_read_lengths, path, mesh) == ("error", ValueError, message)

    def test_dataset(self):
        text = "x,y,z\n1,2,3\n4,5\n6,7,8,9\n"  # 2 and 4 columns
        with pytest.raises(DatasetError) as info:
            mm.Dataset.from_csv(io.StringIO(text))
        assert str(info.value) == "row 3: expected 3 columns, got 2"
        assert outcome(reference_dataset, io.StringIO(text)) == (
            "error", DatasetError, "row 3: expected 3 columns, got 2"
        )


def traced_peak(read, *args):
    """Peak bytes that tracemalloc sees while ``read(*args)`` runs.

    A first untraced call keeps one-time allocations (caches filled on
    first use) out of the count.
    """
    read(*args)
    tracemalloc.start()
    try:
        read(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Bulk conversion must not hold more at once than the row-by-row readers."""

    @pytest.fixture(scope="class")
    def icosphere4(self, tmp_path_factory):
        mesh, emb = mm.make_icosphere(4)
        root = tmp_path_factory.mktemp("icosphere4")
        metric = mm.MetricField.from_embedding(mesh, emb)
        paths = {"off": root / "m.off", "lengths": root / "lengths.csv", "points": root / "pts.csv"}
        mm.save_off(mesh, emb, paths["off"])
        outputs.write_text(paths["lengths"], outputs.lengths_csv_text(mesh, metric))
        outputs.write_text(
            paths["points"],
            "x,y,z\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in emb.coords.tolist()),
        )
        return mesh, paths

    def test_off(self, icosphere4):
        _, paths = icosphere4
        bulk = traced_peak(mm.read_off, paths["off"])
        assert bulk <= traced_peak(lambda p: reference_load_off(read_text(p, None)), paths["off"])

    def test_lengths(self, icosphere4):
        mesh, paths = icosphere4
        bulk = traced_peak(outputs.read_lengths_csv, paths["lengths"], mesh)
        assert bulk <= traced_peak(reference_read_lengths, paths["lengths"], mesh)

    def test_dataset(self, icosphere4):
        _, paths = icosphere4
        bulk = traced_peak(mm.Dataset.from_csv, paths["points"])
        assert bulk <= traced_peak(reference_dataset, paths["points"])
