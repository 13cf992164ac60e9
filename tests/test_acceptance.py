"""End-to-end checks of the package's headline guarantees.

One test per guarantee, so a verbose run reads as a checklist:

1. total angle defect is the topological constant on closed surfaces,
   metric-independent across random feasible metrics;
2. the closed-form gradient of the full objective matches central
   finite differences;
3. fast-marching distances on a flat grid are accurate, never worse
   than edge-graph Dijkstra, and improve under refinement;
4. the geometry-only objective drives the defect density toward
   constant curvature while the total defect stays pinned;
5. fitting a point cloud from a stretched surface recovers most of the
   data error, with an exactly non-increasing loss trace;
6. every accepted iterate of the two optimization runs is strictly
   feasible at the configured margin and length floor;
7. with the data term alone, the edge-length gradient vanishes
   identically (the generator reads only vertex coordinates);
8. the optimize command is byte-deterministic given a seed, at any
   BLAS thread count;
9. the curvature term regularizes: on a noisy point cloud some weight
   above zero fits held-out points better than no curvature term, and
   the largest weight tried fits them worse than the best.

Each test also prints one PASS line with the measured numbers, visible
under ``pytest -rA`` or ``-s``.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import metricmesh as mm
from metricmesh.cli import main as cli_main
from metricmesh.geodesic import dijkstra_distances, fast_marching
from metricmesh.geometry import check_feasible, curvature_report
from metricmesh.optimize import (
    LossConfig,
    StopRule,
    feasibility_projection,
    run_optimization,
    total_loss,
)
from metricmesh.projection import Dataset, project_dataset_arrays

from conftest import feasible_jittered, loss_gradient

FOUR_PI = 4.0 * math.pi


def report(n: int, detail: str) -> None:
    print(f"\nCRITERION-{n} PASS: {detail}")


@dataclass(frozen=True)
class IterateFacts:
    """Per-iterate audit record collected by the optimization callbacks."""

    total_defect: float
    density_var: float
    feasibility_violations: int
    min_length: float


def audit_callback(mesh, margin, sink):
    def cb(state):
        rep = curvature_report(mesh, state.metric)
        sink.append(
            IterateFacts(
                total_defect=rep.total_defect(),
                density_var=float(np.var(rep.defect_density)),
                feasibility_violations=len(check_feasible(mesh, state.metric, margin)),
                min_length=float(state.metric.lengths.min()),
            )
        )

    return cb


def ellipsoid_cloud(rng: np.random.Generator, count: int) -> Dataset:
    """Points on the surface with semi-axes (1, 1, 2)."""
    d = rng.normal(size=(count, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    d[:, 2] *= 2.0
    return Dataset(d)


@pytest.fixture(scope="module")
def curvature_flow_run(icosphere2):
    """Geometry-only descent on a jittered metric (criteria 4 and 6)."""
    mesh, emb = icosphere2
    rng = np.random.default_rng(42)
    raw = mm.MetricField.from_embedding(mesh, emb).with_jitter(rng, 0.2)
    mean = float(np.mean(raw.lengths))
    margin, floor = 1e-4 * mean, 1e-6 * mean
    start = feasibility_projection(mesh, raw, margin, floor)
    cfg = LossConfig(
        lambda_=1.0,
        p=2.0,
        mu_volume=1.0,
        v_target=curvature_report(mesh, start).total_volume,
        feas_margin=margin,
        min_length=floor,
    )
    facts: list[IterateFacts] = []
    t0 = time.perf_counter()
    result = run_optimization(
        mesh,
        start,
        emb,
        None,
        cfg,
        stop=StopRule(max_iters=150, grad_tol=1e-10),
        freeze_embedding=True,
        on_iteration=audit_callback(mesh, margin, facts),
    )
    elapsed = time.perf_counter() - t0
    return mesh, cfg, result, facts, elapsed


@pytest.fixture(scope="module")
def ellipsoid_fit_run(icosphere2):
    """Free-embedding fit of an ellipsoid cloud (criteria 5 and 6)."""
    mesh, emb_unit = icosphere2
    # volume-matched start: the (1, 1, 2) ellipsoid encloses twice the
    # unit-ball volume, so scale the round start by 2^(1/3)
    emb = mm.Embedding(emb_unit.coords * 2.0 ** (1.0 / 3.0))
    dataset = ellipsoid_cloud(np.random.default_rng(3), 200)
    start = mm.MetricField.from_embedding(mesh, emb)
    mean = float(np.mean(start.lengths))
    margin, floor = 1e-4 * mean, 1e-6 * mean
    cfg = LossConfig(
        lambda_=1e-3, p=2.0, mu_iso=1e-2, feas_margin=margin, min_length=floor
    )
    facts: list[IterateFacts] = []
    t0 = time.perf_counter()
    result = run_optimization(
        mesh,
        start,
        emb,
        dataset,
        cfg,
        stop=StopRule(max_iters=120, grad_tol=1e-10),
        on_iteration=audit_callback(mesh, margin, facts),
    )
    elapsed = time.perf_counter() - t0
    return mesh, cfg, result, facts, elapsed


class TestCriterion1GaussBonnet:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_criterion_1_sphere_total_defect(self, level):
        mesh, emb = mm.make_icosphere(level)
        worst = 0.0
        for i in range(100):
            metric = feasible_jittered(mesh, emb, seed=1000 * level + i, amount=0.3)
            total = curvature_report(mesh, metric).total_defect()
            worst = max(worst, abs(total - FOUR_PI))
        assert worst <= 1e-9
        report(1, f"icosphere({level}) 100 random metrics, max |sum - 4pi| = {worst:.2e}")

    def test_criterion_1_torus_total_defect(self):
        mesh, emb = mm.make_torus(8, 8, 2.0, 0.5)
        worst = 0.0
        for i in range(100):
            metric = feasible_jittered(mesh, emb, seed=7000 + i, amount=0.3)
            total = curvature_report(mesh, metric).total_defect()
            worst = max(worst, abs(total))
        assert worst <= 1e-9
        report(1, f"torus(8,8) 100 random metrics, max |sum| = {worst:.2e}")


class TestCriterion2GradientOracle:
    def test_criterion_2_gradient_matches_central_differences(self, icosphere0):
        mesh, emb = icosphere0
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(12, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= rng.uniform(0.9, 1.15, size=(12, 1))
        dataset = Dataset(pts)
        metric = mm.MetricField.from_embedding(mesh, emb)
        cfg = LossConfig(
            lambda_=1.0,
            p=2.0,
            mu_dirichlet=5.0,
            mu_volume=3.0,
            mu_iso=2.0,
            v_target=curvature_report(mesh, metric).total_volume * 0.9,
            feas_margin=1e-8,
            min_length=1e-9,
        )
        _, g_len, g_coord = loss_gradient(mesh, metric, emb, dataset, cfg)
        ad = np.concatenate([g_len, g_coord])

        def f(lengths, coords):
            return total_loss(
                mesh, mm.MetricField(lengths), mm.Embedding(coords.reshape(-1, 3)),
                dataset, cfg,
            ).total

        x_len = metric.lengths.copy()
        x_coord = emb.coords.ravel().copy()
        x = np.concatenate([x_len, x_coord])
        nl = x_len.size
        fd = np.empty_like(x)
        # cube-root-of-eps step scaling; 1e-5 already straddles a
        # projection reassignment on one coordinate of this setup
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        for i in range(x.size):
            xp = x.copy()
            xm = x.copy()
            xp[i] += h[i]
            xm[i] -= h[i]
            fd[i] = (f(xp[:nl], xp[nl:]) - f(xm[:nl], xm[nl:])) / (2.0 * h[i])

        denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-10)
        rel = np.abs(ad - fd) / denom
        frac_ok = float(np.mean(rel <= 1e-5))
        assert frac_ok >= 0.99
        report(
            2,
            f"{int(round(frac_ok * rel.size))}/{rel.size} coordinates within 1e-5 "
            f"(max rel {rel.max():.2e})",
        )


class TestCriterion3GeodesicAccuracy:
    @staticmethod
    def grid_case(n):
        mesh, emb = mm.make_grid(n, n, 1.0)
        metric = mm.MetricField.from_embedding(mesh, emb)
        fmm = fast_marching(mesh, metric, 0).distances
        dij = dijkstra_distances(mesh, metric, 0).distances
        idx = np.arange(n * n)
        exact = np.hypot((idx % n).astype(float), (idx // n).astype(float))
        rel = np.abs(fmm[1:] - exact[1:]) / exact[1:]
        return fmm, dij, rel

    def test_criterion_3_grid_accuracy_and_refinement(self):
        fmm50, dij50, rel50 = self.grid_case(50)
        fmm10, dij10, rel10 = self.grid_case(10)

        assert rel50.max() <= 0.05
        assert np.all(fmm50 <= dij50 + 1e-12)
        assert np.all(fmm10 <= dij10 + 1e-12)

        # the worst vertex is the near-corner (2,1) on both grids and its
        # update stencil is identical there, so the max error ties exactly;
        # refinement shows up in the mean instead
        assert rel10.max() == rel50.max()
        assert rel10.mean() > rel50.mean()
        report(
            3,
            f"50x50 max rel {rel50.max():.4%} (<= 5%), dominated by Dijkstra; "
            f"mean rel {rel50.mean():.4%} vs {rel10.mean():.4%} on 10x10 "
            f"(max ties exactly at the shared worst vertex)",
        )


class TestCriterion4ConstantCurvature:
    def test_criterion_4_defect_density_variance_drops(self, curvature_flow_run):
        mesh, cfg, result, facts, elapsed = curvature_flow_run
        assert elapsed < 300.0
        var0 = facts[0].density_var
        var_final = facts[-1].density_var
        drop = 1.0 - var_final / var0
        assert drop >= 0.90
        worst_gb = max(abs(f.total_defect - FOUR_PI) for f in facts)
        assert worst_gb <= 1e-9
        report(
            4,
            f"var(R_i/A_i) {var0:.3e} -> {var_final:.3e} "
            f"({drop:.2%} drop, >= 90%), max |sum - 4pi| = {worst_gb:.2e}, "
            f"{result.iterations} iterations in {elapsed:.1f}s",
        )


class TestCriterion5DataFitting:
    def test_criterion_5_data_loss_drops(self, ellipsoid_fit_run):
        mesh, cfg, result, facts, elapsed = ellipsoid_fit_run
        assert elapsed < 600.0
        first, last = result.rows[0], result.rows[-1]
        drop = 1.0 - last.l_data / first.l_data
        assert drop >= 0.80
        totals = np.array([r.l_total for r in result.rows])
        assert np.all(np.diff(totals) <= 0.0)
        report(
            5,
            f"L_data {first.l_data:.4f} -> {last.l_data:.4f} ({drop:.2%} drop, >= 80%), "
            f"trace non-increasing over {result.iterations} iterations in {elapsed:.1f}s",
        )


class TestCriterion6Feasibility:
    def test_criterion_6_every_iterate_feasible(self, curvature_flow_run, ellipsoid_fit_run):
        checked = 0
        for mesh, cfg, result, facts, _ in (curvature_flow_run, ellipsoid_fit_run):
            for f in facts:
                assert f.feasibility_violations == 0
                assert f.min_length >= cfg.min_length
            checked += len(facts)
        report(6, f"{checked} accepted iterates feasible at margin, lengths above floor")


class TestCriterion7Decoupling:
    def test_criterion_7_data_only_length_gradient_is_zero(self, icosphere1):
        mesh, emb = icosphere1
        dataset = ellipsoid_cloud(np.random.default_rng(11), 60)
        start = mm.MetricField.from_embedding(mesh, emb)
        cfg = LossConfig(lambda_=0.0, mu_iso=0.0)
        grads = []
        result = run_optimization(
            mesh,
            start,
            emb,
            dataset,
            cfg,
            stop=StopRule(max_iters=25, grad_tol=1e-12),
            on_iteration=lambda s: grads.append(s.grad_lengths.copy()),
        )
        assert len(grads) == len(result.rows)
        for g in grads:
            assert np.all(g == 0.0)
        # the run genuinely moved: the embedding alone absorbed data error
        assert result.final.l_data < 0.5 * result.rows[0].l_data
        report(
            7,
            f"edge-length gradient identically zero on all {len(grads)} iterates "
            f"while L_data fell {1 - result.final.l_data / result.rows[0].l_data:.2%}",
        )


class TestCriterion8Determinism:
    @staticmethod
    def write_points(path, count):
        """Write ``count`` seeded ellipsoid points to ``path`` as a dataset CSV."""
        pts = ellipsoid_cloud(np.random.default_rng(2), count)
        lines = ["x,y,z"] + [",".join(repr(float(v)) for v in row) for row in pts.points]
        path.write_text("\n".join(lines) + "\n")

    def test_criterion_8_optimize_reruns_byte_identical(self, tmp_path):
        data_path = tmp_path / "points.csv"
        self.write_points(data_path, 40)
        config = (
            "mesh = icosphere(1)\n"
            f"dataset = {data_path}\n"
            "lambda = 1e-3\n"
            "mu_iso = 1e-2\n"
            "jitter = 0.1\n"
            "seed = 7\n"
            "max_iters = 8\n"
            "grad_tol = 1e-12\n"
        )
        outs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            cfg_path = tmp_path / f"run_{name}.cfg"
            cfg_path.write_text(config + f"outdir = {outdir}\n")
            assert cli_main(["optimize", "--config", str(cfg_path)]) == 0
            outs.append(outdir)
        trace_a = (outs[0] / "trace.csv").read_bytes()
        trace_b = (outs[1] / "trace.csv").read_bytes()
        assert trace_a == trace_b
        lengths_a = (outs[0] / "lengths_final.csv").read_bytes()
        assert lengths_a == (outs[1] / "lengths_final.csv").read_bytes()
        report(8, f"two seeded runs wrote identical trace.csv ({len(trace_a)} bytes)")

    def test_criterion_8_same_bytes_at_any_blas_thread_count(self, tmp_path):
        # icosphere(5) has 30720 edges: OpenBLAS splits a dot product past
        # 10,000 entries over its threads, so a sum taken with ``@`` would
        # round differently with one thread and with two. The fit projects
        # its points through the pruning bound's matrix products, which
        # OpenBLAS also splits once they are large enough.
        data_path = tmp_path / "points.csv"
        self.write_points(data_path, 2000)
        configs = {
            "flow": "mesh = icosphere(5)\njitter = 0.5\nseed = 3\nfreeze_embedding = yes\n"
            "p = 1.5\nmu_dirichlet = 0.1\nmu_volume = 1.0\nmax_iters = 3\n",
            "fit": f"mesh = icosphere(3)\ndataset = {data_path}\nlambda = 1e-3\nmu_iso = 1e-2\n"
            "max_iters = 3\n",
        }
        src = Path(mm.__file__).resolve().parents[1]
        for run, config in configs.items():
            outs = []
            for threads in ("1", "2"):
                outdir = tmp_path / f"{run}_{threads}"
                cfg_path = tmp_path / f"{run}_{threads}.cfg"
                cfg_path.write_text(config + f"outdir = {outdir}\n")
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
                env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
                proc = subprocess.run(
                    [sys.executable, "-c", "import sys; from metricmesh.cli import main; sys.exit(main())",
                     "optimize", "--config", str(cfg_path)],
                    env=env, capture_output=True, text=True, timeout=120,
                )
                assert proc.returncode == 0, proc.stderr
                outs.append(outdir)
            for name in ("trace.csv", "lengths_final.csv"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (run, name)
        report(8, "icosphere(5) flow and icosphere(3) fit at 1 and 2 BLAS threads wrote identical trace.csv")


class TestCriterion9HeldOutRegularization:
    # 40 training points on the (1, 1, 1.5) ellipsoid with Gaussian noise
    # (sigma 0.1), 1000 clean held-out points from the same surface, and a
    # volume-matched icosphere(2) start; each weight runs 100 iterations
    # from that same start. Over seeds 0-15 (not this test's seed 16) the
    # best weight was 1e-4 every time, the error at weight 0 was 1.063-1.208
    # times the best and the error at 1e-2 was 1.165-1.399 times the best;
    # the two factors below sit under those minima.
    SEED = 16
    LAMBDAS = (0.0, 1e-5, 1e-4, 1e-3, 1e-2)
    UNREGULARIZED_FACTOR = 1.05
    OVERSMOOTHED_FACTOR = 1.1

    @staticmethod
    def surface_points(rng, count):
        d = rng.normal(size=(count, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        d[:, 2] *= 1.5
        return d

    def test_criterion_9_curvature_term_reduces_held_out_error(self, icosphere2):
        rng = np.random.default_rng(self.SEED)
        train = self.surface_points(rng, 40) + rng.normal(scale=0.1, size=(40, 3))
        held_out = self.surface_points(rng, 1000)
        mesh, unit = icosphere2
        emb = mm.Embedding(unit.coords * 1.5 ** (1.0 / 3.0))
        metric = mm.MetricField.from_embedding(mesh, emb)
        errors = []
        for lam in self.LAMBDAS:
            res = run_optimization(
                mesh, metric, emb, Dataset(train), LossConfig(lambda_=lam, p=2.0, mu_iso=1e-2),
                stop=StopRule(max_iters=100, grad_tol=0.0),
            )
            assert res.stop_reason == "max_iters"
            errors.append(float(np.mean(project_dataset_arrays(held_out, res.embedding, mesh)[2])))
        best = min(errors[1:])
        assert errors[0] > self.UNREGULARIZED_FACTOR * best, errors
        assert errors[-1] > self.OVERSMOOTHED_FACTOR * min(errors), errors
        report(
            9,
            f"held-out MSE {errors[0]:.5f} at lambda 0, {best:.5f} at lambda "
            f"{self.LAMBDAS[errors.index(best)]:g}, {errors[-1]:.5f} at {self.LAMBDAS[-1]:g}",
        )
