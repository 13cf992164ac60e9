"""The three benchmark workloads: ``fit``, ``flow`` and ``analyze``.

Each workload turns the run's seed into a fixed list of instances and
writes their input files (untimed). ``setup`` goes from those files to
the state a user's command holds before it iterates or queries, ``run``
is the timed unit of work, and ``check_setup``/``check`` return one
message per failed correctness check. Every call goes through the public
``metricmesh`` API the way ``metricmesh.cli`` does, and names are looked
up on the package at call time so the tracer can wrap them.

Workload sizes are fixed here, never derived from the time budget, so a
run's deterministic outputs depend on its seed alone. They keep one
unit near a second, so that a run samples every instance several times
across its whole length and its medians follow the host's wandering
speed less.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import metricmesh as mm
from metricmesh import outputs

TWO_PI = 2.0 * math.pi


def _instance_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _resolve_floor(metric, loss: mm.LossConfig) -> mm.LossConfig:
    """The CLI's 'auto' feasibility margin and length floor."""
    mean = float(np.mean(metric.lengths))
    return dataclasses.replace(loss, feas_margin=1e-4 * mean, min_length=1e-6 * mean)


@dataclass(frozen=True)
class DescentState:
    mesh: mm.Mesh
    embedding: mm.Embedding
    dataset: mm.Dataset | None
    metric: mm.MetricField
    loss: mm.LossConfig


class _Descent:
    """Shared solve and checks of the two optimizer workloads."""

    setup_repeats = 5
    freeze_embedding = False

    def run(self, state: DescentState) -> mm.OptimizationResult:
        return mm.run_optimization(
            state.mesh,
            state.metric,
            state.embedding,
            state.dataset,
            state.loss,
            stop=mm.StopRule(max_iters=self.iterations, grad_tol=0.0, loss_tol=0.0),
            freeze_embedding=self.freeze_embedding,
        )

    def check_setup(self, state: DescentState) -> list[str]:
        bad = mm.check_feasible(state.mesh, state.metric, state.loss.feas_margin)
        return [f"start metric infeasible on {len(bad)} faces"] if bad else []

    def check(self, state: DescentState, result: mm.OptimizationResult) -> list[str]:
        problems = []
        if result.stop_reason != "max_iters" or result.iterations != self.iterations:
            problems.append(
                f"stopped by {result.stop_reason} after {result.iterations} iterations"
            )
        totals = [r.l_total for r in result.rows]
        if any(b > a for a, b in zip(totals, totals[1:])):
            problems.append("L_total increased between accepted iterates")
        if any(not r.max_deficit <= 0.0 for r in result.rows):
            problems.append("an accepted iterate violates the feasibility margin")
        if not result.final.l_total < result.rows[0].l_total:
            problems.append("final L_total is not below the row-0 L_total")
        return problems

    @staticmethod
    def quality(results: list[mm.OptimizationResult]) -> float:
        """Geometric mean of L_total / row-0 L_total over instances and iterates 1..N.

        The final ratio alone swings with single line-search outcomes
        (about 15% between seeds for one instance); averaging the whole
        descent keeps the metric steady and still rises if it slows.
        """
        logs = [
            math.log(row.l_total / r.rows[0].l_total) for r in results for row in r.rows[1:]
        ]
        return math.exp(sum(logs) / len(logs))

    @staticmethod
    def same_output(a: mm.OptimizationResult, b: mm.OptimizationResult) -> bool:
        return a.rows == b.rows and np.array_equal(a.metric.lengths, b.metric.lengths)


class Fit(_Descent):
    """Free-embedding fit of an icosphere to points on an ellipsoid."""

    name = "fit"
    instances = 4
    iterations = 3
    points = 500

    def __init__(self, workdir: Path, seed: int):
        mesh, emb = mm.make_icosphere(2)
        # Same volume as the (1, 1, 2) ellipsoid the points lie on.
        self.mesh_path = workdir / "fit_mesh.off"
        mm.save_off(mesh, mm.Embedding(emb.coords * 2.0 ** (1.0 / 3.0)), self.mesh_path)
        self.specs = []
        for i, s in enumerate(_instance_seeds(seed, self.instances)):
            rng = np.random.default_rng(s)
            pts = rng.normal(size=(self.points, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            pts[:, 2] *= 2.0
            path = workdir / f"fit_points_{i}.csv"
            outputs.write_text(
                path, "x,y,z\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in pts.tolist())
            )
            self.specs.append((path, s))

    def setup(self, spec) -> DescentState:
        path, seed = spec
        mesh, embedding = mm.read_off(self.mesh_path)
        dataset = mm.Dataset.from_csv(path)
        metric = mm.MetricField.from_embedding(mesh, embedding)
        metric = metric.with_jitter(np.random.default_rng(seed), 0.1)
        loss = _resolve_floor(metric, mm.LossConfig(lambda_=1e-3, p=2.0, mu_iso=1e-2))
        metric = mm.feasibility_projection(mesh, metric, loss.feas_margin, loss.min_length)
        return DescentState(mesh, embedding, dataset, metric, loss)


class Flow(_Descent):
    """Geometry-only curvature flow from a heavily jittered metric."""

    name = "flow"
    instances = 16
    iterations = 6
    freeze_embedding = True

    def __init__(self, workdir: Path, seed: int):
        self.specs = _instance_seeds(seed, self.instances)

    def setup(self, seed) -> DescentState:
        mesh, embedding = mm.generate_mesh("icosphere(2)")
        metric = mm.MetricField.from_embedding(mesh, embedding)
        metric = metric.with_jitter(np.random.default_rng(seed), 0.5)
        loss = _resolve_floor(
            metric, mm.LossConfig(lambda_=1.0, p=1.5, mu_dirichlet=0.1, mu_volume=1.0)
        )
        metric = mm.feasibility_projection(mesh, metric, loss.feas_margin, loss.min_length)
        loss = dataclasses.replace(loss, v_target=mm.curvature_report(mesh, metric).total_volume)
        return DescentState(mesh, embedding, None, metric, loss)


@dataclass(frozen=True)
class AnalyzeInput:
    mesh_path: Path
    lengths_path: Path
    lengths: np.ndarray
    counts: tuple[int, int, int]
    sources: tuple[int, ...]
    outdir: Path


@dataclass(frozen=True)
class MeshAnalysis:
    violations: list
    chi: int
    total_defect: float
    fmm: list  # DistanceField per source
    dijkstra: list


class Analyze:
    """Standalone commands on a closed mesh and a mesh with boundary."""

    name = "analyze"
    setup_repeats = 3
    kinds = ("icosphere(4)", "grid(50,50,1.0)")
    sources_per_mesh = 2

    def __init__(self, workdir: Path, seed: int):
        rng = np.random.default_rng(seed)
        inputs = []
        for i, kind in enumerate(self.kinds):
            mesh, emb = mm.generate_mesh(kind)
            metric = mm.MetricField.from_embedding(mesh, emb).with_jitter(rng, 0.1)
            mean = float(np.mean(metric.lengths))
            metric = mm.feasibility_projection(mesh, metric, 1e-4 * mean, 1e-6 * mean)
            mesh_path = workdir / f"analyze_{i}.off"
            lengths_path = workdir / f"analyze_{i}_lengths.csv"
            mm.save_off(mesh, emb, mesh_path)
            outputs.write_text(lengths_path, outputs.lengths_csv_text(mesh, metric))
            sources = tuple(
                int(v) for v in rng.choice(mesh.vertex_count, self.sources_per_mesh, replace=False)
            )
            counts = (mesh.vertex_count, mesh.edge_count, mesh.face_count)
            outdir = outputs.ensure_outdir(workdir / f"analyze_{i}_out")
            inputs.append(AnalyzeInput(mesh_path, lengths_path, metric.lengths, counts, sources, outdir))
        self.specs = [tuple(inputs)]

    def setup(self, spec) -> list:
        """(input, mesh, metric) for each mesh."""
        state = []
        for inp in spec:
            mesh, _ = mm.read_off(inp.mesh_path)
            state.append((inp, mesh, outputs.read_lengths_csv(inp.lengths_path, mesh)))
        return state

    def check_setup(self, state: list) -> list[str]:
        problems = []
        for inp, mesh, metric in state:
            if (mesh.vertex_count, mesh.edge_count, mesh.face_count) != inp.counts:
                problems.append(f"{inp.mesh_path.name}: mesh counts changed on reload")
            elif not np.array_equal(metric.lengths, inp.lengths):
                problems.append(f"{inp.lengths_path.name}: lengths did not round-trip")
        return problems

    def run(self, state: list) -> list[MeshAnalysis]:
        """One pass of validate, curvature and geodesic, writing their CSVs."""
        out = []
        for inp, mesh, metric in state:
            violations = mm.validate_manifold(mesh)
            report = mm.curvature_report(mesh, metric)
            outputs.write_text(inp.outdir / "curvature.csv", outputs.curvature_csv_text(report))
            fmm, dij = [], []
            for src in inp.sources:
                field = mm.fast_marching(mesh, metric, src)
                outputs.write_text(
                    inp.outdir / f"distances_{src}.csv", outputs.distances_csv_text(field)
                )
                fmm.append(field)
                dij.append(mm.dijkstra_distances(mesh, metric, src))
            out.append(
                MeshAnalysis(
                    violations, mm.euler_characteristic(mesh), report.total_defect(), fmm, dij
                )
            )
        return out

    def check(self, state: list, result: list[MeshAnalysis]) -> list[str]:
        problems = []
        for (inp, mesh, _), res in zip(state, result):
            tag = inp.mesh_path.name
            if res.violations:
                problems.append(f"{tag}: {len(res.violations)} manifold violations")
            gap = abs(res.total_defect - TWO_PI * res.chi)
            if not gap <= 1e-8:
                problems.append(f"{tag}: total defect off 2*pi*chi by {gap!r}")
            for f, d in zip(res.fmm, res.dijkstra):
                if not (f.reached().all() and d.reached().all()):
                    problems.append(f"{tag}: source {f.source} leaves vertices unreached")
                elif not (f.distances <= d.distances).all():
                    problems.append(f"{tag}: fast marching exceeds Dijkstra from {f.source}")
            for src in inp.sources:
                with open(inp.outdir / f"distances_{src}.csv", encoding="utf-8") as fh:
                    rows = sum(1 for _ in fh)
                if rows != mesh.vertex_count + 1:
                    problems.append(f"{tag}: distances_{src}.csv has {rows} lines")
        return problems

    def quality(self, results: list[list[MeshAnalysis]]) -> float:
        """Mean fast-marching / Dijkstra distance over non-source vertices."""
        ratios = []
        for res in results[0]:
            for f, d in zip(res.fmm, res.dijkstra):
                keep = d.distances > 0.0
                ratios.append(float(np.mean(f.distances[keep] / d.distances[keep])))
        return sum(ratios) / len(ratios)

    @staticmethod
    def same_output(a: list[MeshAnalysis], b: list[MeshAnalysis]) -> bool:
        return all(
            np.array_equal(f.distances, g.distances)
            for ra, rb in zip(a, b)
            for f, g in zip(ra.fmm + ra.dijkstra, rb.fmm + rb.dijkstra)
        )


WORKLOADS = {w.name: w for w in (Fit, Flow, Analyze)}
