"""Result files: CSV tables and a JSON manifest.

Formatting is deliberately byte-stable: floats are written with repr
(shortest round-trip form), rows are joined with bare newlines, and the
manifest is serialized with sorted keys and no timestamps, so repeated
runs with the same configuration produce identical files.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import read_text
from .geodesic import DistanceField
from .geometry import CurvatureReport, MetricField
from .optimize import SweepRecord, TraceRow

TRACE_HEADER = "iter,eta,L_data,L_curv,L_dirichlet,L_vol,L_iso,L_total,max_deficit,grad_norm"
LENGTHS_HEADER = "edge,v0,v1,length"
CURVATURE_HEADER = "vertex,defect,vertex_area,density"
DISTANCES_HEADER = "vertex,distance"
SWEEP_HEADER = "lambda,status,iters,stop_reason,L_data,L_curv,L_dirichlet,L_vol,L_iso,L_total"


def fmt(x: float) -> str:
    """Shortest exact decimal form of a float."""
    return repr(float(x))


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def trace_csv_text(rows: list[TraceRow]) -> str:
    floats = TraceRow.fields()[1:]  # every column after the iteration number
    lines = [TRACE_HEADER]
    for r in rows:
        lines.append(",".join([str(r.iteration), *(fmt(getattr(r, f)) for f in floats)]))
    return "\n".join(lines) + "\n"


def lengths_csv_text(mesh, metric: MetricField) -> str:
    lines = [LENGTHS_HEADER]
    rows = zip(mesh.edges.tolist(), metric.lengths.tolist())
    for e, ((v0, v1), length) in enumerate(rows):
        lines.append(f"{e},{v0},{v1},{fmt(length)}")
    return "\n".join(lines) + "\n"


def read_lengths_csv(path, mesh) -> MetricField:
    """Inverse of :func:`lengths_csv_text`, validated against the mesh.

    Rows must appear in edge order with endpoints matching the mesh's
    edge list, which catches files written for a different mesh.

    Columns convert in bulk, one ``int`` or ``float`` pass per block of
    rows; only a file that fails a bulk check is walked row by row, to
    name its first bad row.
    """
    text = read_text(path, lambda line, why: ValueError(f"lengths file {path}, line {line}: {why}"))
    lines = list(filter(None, map(str.strip, text.split("\n"))))
    if not lines or lines[0] != LENGTHS_HEADER:
        raise ValueError(f"lengths file must start with header '{LENGTHS_HEADER}'")
    body = lines[1:]
    if len(body) != mesh.edge_count:
        raise ValueError(
            f"lengths file has {len(body)} rows, mesh has {mesh.edge_count} edges"
        )
    n = len(body)
    # fields per row, so a short row cannot lend a field to a long one
    if set(map(str.count, body, repeat(","))) == {3}:
        ids = np.empty((n, 3), dtype=np.int64)  # edge id, v0, v1
        lengths = np.empty(n)
        try:
            # 4096 rows at a time, which bounds the token strings alive at once
            for s in range(0, n, 4096):
                cells = ",".join(body[s : s + 4096]).split(",")
                m = len(cells) // 4
                lengths[s : s + m] = np.fromiter(map(float, cells[3::4]), np.float64, m)
                del cells[3::4]
                ids[s : s + m] = np.fromiter(map(int, cells), np.int64, 3 * m).reshape(m, 3)
        except (ValueError, OverflowError):
            pass  # the row walk below names the bad field
        else:
            if np.array_equal(ids[:, 0], np.arange(n)) and np.array_equal(ids[:, 1:], mesh.edges):
                return MetricField(lengths)
    # only a file that failed a bulk check gets here
    ends = []
    for i, line in enumerate(body):
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"lengths row {i}: expected 4 columns, got {len(parts)}")
        try:
            e, v0, v1 = int(parts[0]), int(parts[1]), int(parts[2])
            float(parts[3])
        except ValueError as exc:
            raise ValueError(f"lengths row {i}: {exc}") from None
        if e != i:
            raise ValueError(f"lengths row {i}: edge ids must be sequential, got {e}")
        ends.append([v0, v1])
    expected = mesh.edges.tolist()
    if ends != expected:
        i = next(i for i, pair in enumerate(ends) if pair != expected[i])
        raise ValueError(
            f"lengths row {i}: edge endpoints ({ends[i][0]}, {ends[i][1]}) do not match "
            f"the mesh ({expected[i][0]}, {expected[i][1]})"
        )
    raise AssertionError("lengths rows failed a bulk check but no row check")


def curvature_csv_text(report: CurvatureReport) -> str:
    lines = [CURVATURE_HEADER]
    rows = zip(
        report.defect.tolist(),
        report.vertex_area.tolist(),
        report.defect_density.tolist(),
    )
    for v, (defect, area, density) in enumerate(rows):
        lines.append(f"{v},{fmt(defect)},{fmt(area)},{fmt(density)}")
    return "\n".join(lines) + "\n"


def distances_csv_text(field: DistanceField) -> str:
    lines = [DISTANCES_HEADER]
    for v, d in enumerate(field.distances.tolist()):
        lines.append(f"{v},{fmt(d)}")
    return "\n".join(lines) + "\n"


def sweep_csv_text(records: list[SweepRecord]) -> str:
    lines = [SWEEP_HEADER]
    for rec in records:
        if rec.result is None:
            lines.append(
                f"{fmt(rec.lambda_)},failed,0,,nan,nan,nan,nan,nan,nan"
            )
        else:
            last = rec.result.final
            lines.append(
                f"{fmt(rec.lambda_)},ok,{rec.result.iterations},{rec.result.stop_reason},"
                f"{fmt(last.l_data)},{fmt(last.l_curv)},{fmt(last.l_dirichlet)},"
                f"{fmt(last.l_vol)},{fmt(last.l_iso)},{fmt(last.l_total)}"
            )
    return "\n".join(lines) + "\n"


def manifest_text(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def ensure_outdir(outdir) -> Path:
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path
