"""Batch command-line interface.

Subcommands: ``generate`` (reference meshes), ``validate`` (manifold
checks), ``curvature`` (angle-defect report), ``geodesic`` (fast-marching
distances), ``optimize`` (one run from a config file), and ``sweep``
(optimize across a list of regularization weights).

Exit codes: 0 on success, 1 for runtime failures (bad input files,
infeasible metrics, failed projections, validation findings), 2 for
usage and configuration errors.

Anywhere a mesh is expected, either an OFF file path or a generator spec
such as ``icosphere(2)``, ``torus(24,12,2.0,0.7)``, or ``grid(50,50,0.1)``
is accepted; paths are recognized by their ``.off`` suffix, in any case.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import backend_name, outputs
from .errors import ConfigError, MetricMeshError
from .geodesic import dijkstra_distances, fast_marching
from .geometry import MetricField, curvature_report
from .mesh import euler_characteristic, generate_mesh, read_off, save_off, validate_manifold
from .optimize import _start, lambda_sweep, run_optimization, sweep_weights
from .projection import Dataset, Embedding
from .runconfig import RunSettings, read_config, settings_echo

TWO_PI = 2.0 * np.pi


def _load_mesh(spec: str):
    if spec.lower().endswith(".off"):
        return read_off(spec)
    return generate_mesh(spec)


def _load_metric(args, mesh, embedding: Embedding) -> MetricField:
    if args.lengths:
        return outputs.read_lengths_csv(args.lengths, mesh)
    return MetricField.from_embedding(mesh, embedding)


# --------------------------------------------------------------------------
# Subcommands


def _cmd_generate(args) -> int:
    mesh, embedding = generate_mesh(args.kind)
    save_off(mesh, embedding, args.out)
    print(
        f"wrote {args.out}: {mesh.vertex_count} vertices, "
        f"{mesh.edge_count} edges, {mesh.face_count} faces"
    )
    return 0


def _cmd_validate(args) -> int:
    mesh, _ = _load_mesh(args.mesh)
    violations = validate_manifold(mesh)
    if violations:
        for v in violations:
            print(f"{v.kind} at {v.where}: {v.message}")
        print(f"{len(violations)} violations")
        return 1
    print(
        f"ok: {mesh.vertex_count} vertices, {mesh.edge_count} edges, "
        f"{mesh.face_count} faces, euler characteristic {euler_characteristic(mesh)}"
    )
    return 0


def _cmd_curvature(args) -> int:
    mesh, embedding = _load_mesh(args.mesh)
    metric = _load_metric(args, mesh, embedding)
    report = curvature_report(mesh, metric)
    outdir = outputs.ensure_outdir(args.outdir)
    path = outdir / "curvature.csv"
    outputs.write_text(path, outputs.curvature_csv_text(report))
    chi = euler_characteristic(mesh)
    print(f"total defect {report.total_defect()!r} (2*pi*chi = {TWO_PI * chi!r})")
    print(f"total area {report.total_volume!r}")
    print(f"wrote {path}")
    return 0


def _cmd_geodesic(args) -> int:
    mesh, embedding = _load_mesh(args.mesh)
    metric = _load_metric(args, mesh, embedding)
    solver = dijkstra_distances if args.graph_only else fast_marching
    field = solver(mesh, metric, args.source)
    outdir = outputs.ensure_outdir(args.outdir)
    path = outdir / "distances.csv"
    outputs.write_text(path, outputs.distances_csv_text(field))
    reached = field.reached()
    far = float(np.max(field.distances[reached]))
    print(
        f"source {args.source}: reached {int(np.count_nonzero(reached))}/"
        f"{mesh.vertex_count} vertices, max distance {far!r}"
    )
    print(f"wrote {path}")
    return 0


def _prepare_run(settings: RunSettings):
    """Shared setup for optimize and sweep: mesh, data, start metric.

    The returned settings have every 'auto' of the loss resolved to a
    concrete number, so the manifest records exactly what the run used.
    """
    mesh, embedding = _load_mesh(settings.mesh)
    dataset = Dataset.from_csv(settings.dataset) if settings.dataset else None
    metric = MetricField.from_embedding(mesh, embedding)
    if settings.jitter > 0.0:
        rng = np.random.default_rng(settings.seed)
        metric = metric.with_jitter(rng, settings.jitter)
    metric, loss = _start(mesh, metric, settings.loss)
    return mesh, embedding, dataset, metric, dataclasses.replace(settings, loss=loss)


def _cmd_optimize(args) -> int:
    settings = read_config(args.config)
    mesh, embedding, dataset, metric, settings = _prepare_run(settings)
    result = run_optimization(
        mesh,
        metric,
        embedding,
        dataset,
        settings.loss,
        stop=settings.stop,
        freeze_embedding=settings.freeze_embedding,
    )
    outdir = outputs.ensure_outdir(settings.outdir)
    outputs.write_text(outdir / "trace.csv", outputs.trace_csv_text(result.rows))
    outputs.write_text(
        outdir / "lengths_final.csv", outputs.lengths_csv_text(mesh, result.metric)
    )
    final_report = curvature_report(mesh, result.metric)
    outputs.write_text(
        outdir / "curvature_final.csv", outputs.curvature_csv_text(final_report)
    )
    manifest = {
        "command": "optimize",
        "backend": backend_name(),
        "settings": settings_echo(settings),
        "result": {
            "iterations": result.iterations,
            "stop_reason": result.stop_reason,
            "eta_init": result.eta_init,
            "initial_total": result.rows[0].l_total,
            "final_total": result.final.l_total,
        },
        "outputs": ["curvature_final.csv", "lengths_final.csv", "trace.csv"],
    }
    outputs.write_text(outdir / "manifest.json", outputs.manifest_text(manifest))
    print(
        f"stop: {result.stop_reason} after {result.iterations} iterations, "
        f"L_total {result.rows[0].l_total!r} -> {result.final.l_total!r}"
    )
    print(f"wrote {outdir}/trace.csv, lengths_final.csv, curvature_final.csv, manifest.json")
    return 0


def _cmd_sweep(args) -> int:
    try:
        lambdas = sweep_weights(t for t in args.lambdas.split(",") if t.strip())
    except ValueError as exc:
        print(f"error: --lambdas: {exc}", file=sys.stderr)
        return 2
    settings = read_config(args.config)
    mesh, embedding, dataset, metric, settings = _prepare_run(settings)
    records = lambda_sweep(
        mesh,
        metric,
        embedding,
        dataset,
        settings.loss,
        lambdas,
        stop=settings.stop,
        freeze_embedding=settings.freeze_embedding,
    )
    outdir = outputs.ensure_outdir(settings.outdir)
    outputs.write_text(outdir / "sweep.csv", outputs.sweep_csv_text(records))
    written = ["sweep.csv", "manifest.json"]
    last_ok = next((r for r in reversed(records) if r.result is not None), None)
    if last_ok is not None:
        outputs.write_text(
            outdir / "lengths_final.csv",
            outputs.lengths_csv_text(mesh, last_ok.result.metric),
        )
        written.insert(1, "lengths_final.csv")
    manifest = {
        "command": "sweep",
        "backend": backend_name(),
        "settings": settings_echo(settings),
        "lambdas": lambdas,
        "records": [
            {
                "lambda": rec.lambda_,
                "status": rec.status,
                "detail": rec.detail,
                "eta_init": None if rec.result is None else rec.result.eta_init,
            }
            for rec in records
        ],
        "outputs": sorted(written),
    }
    outputs.write_text(outdir / "manifest.json", outputs.manifest_text(manifest))
    for rec in records:
        if rec.result is None:
            print(f"lambda {rec.lambda_!r}: failed ({rec.detail})")
        else:
            print(
                f"lambda {rec.lambda_!r}: {rec.result.stop_reason} after "
                f"{rec.result.iterations} iterations, L_total {rec.result.final.l_total!r}"
            )
    print(f"wrote {outdir}/" + ", ".join(written))
    return 0


# --------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricmesh",
        description="Edge-length metric optimization on triangle meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a reference mesh as an OFF file")
    p.add_argument("--kind", required=True, help="generator spec, e.g. icosphere(2)")
    p.add_argument("--out", required=True, help="output OFF path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", help="check a mesh for manifold defects")
    p.add_argument("--mesh", required=True, help="OFF path or generator spec")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("curvature", help="per-vertex angle-defect report")
    p.add_argument("--mesh", required=True, help="OFF path or generator spec")
    p.add_argument("--lengths", help="edge-length CSV from optimize (default: mesh edge lengths)")
    p.add_argument("--outdir", default="out", help="output directory (default: out)")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("geodesic", help="single-source geodesic distances")
    p.add_argument("--mesh", required=True, help="OFF path or generator spec")
    p.add_argument("--source", required=True, type=int, help="source vertex id")
    p.add_argument("--lengths", help="edge-length CSV from optimize (default: mesh edge lengths)")
    p.add_argument(
        "--graph-only",
        action="store_true",
        help="plain edge-graph shortest paths instead of fast marching",
    )
    p.add_argument("--outdir", default="out", help="output directory (default: out)")
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("optimize", help="run one optimization from a config file")
    p.add_argument("--config", required=True, help="key=value config path")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="optimize across ascending regularization weights")
    p.add_argument("--config", required=True, help="key=value config path")
    p.add_argument("--lambdas", required=True, help="comma-separated ascending weights")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MetricMeshError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
