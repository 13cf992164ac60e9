import json

import numpy as np
import pytest

import metricmesh as mm
from metricmesh import outputs
from metricmesh.cli import main


def write_dataset(path, n=20, seed=4, radius=1.2):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= radius
    lines = ["x,y,z"] + [",".join(repr(float(v)) for v in row) for row in pts]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_config(path, **overrides):
    entries = {
        "mesh": "icosphere(1)",
        "lambda": "1e-3",
        "mu_iso": "1e-2",
        "max_iters": "5",
        "grad_tol": "1e-12",
        "seed": "0",
    }
    entries.update({k: str(v) for k, v in overrides.items()})
    lines = ["# test run"] + [f"{k} = {v}" for k, v in entries.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv_column(path, col):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index(col)
    return [line.split(",")[idx] for line in lines[1:]]


class TestGenerateValidate:
    def test_round_trip(self, tmp_path, capsys):
        off = tmp_path / "sphere.off"
        assert main(["generate", "--kind", "icosphere(1)", "--out", str(off)]) == 0
        assert "42 vertices" in capsys.readouterr().out
        assert main(["validate", "--mesh", str(off)]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out and "euler characteristic 2" in out

    def test_validate_generator_spec(self, capsys):
        assert main(["validate", "--mesh", "torus(6,5,2.0,0.5)"]) == 0
        assert "euler characteristic 0" in capsys.readouterr().out

    def test_validate_reports_violations(self, tmp_path, capsys):
        off = tmp_path / "bowtie.off"
        off.write_text(
            "OFF\n5 2 0\n"
            "0 0 0\n1 0 0\n0 1 0\n-1 0 0\n0 -1 0\n"
            "3 0 1 2\n3 0 3 4\n"
        )
        assert main(["validate", "--mesh", str(off)]) == 1
        out = capsys.readouterr().out
        assert "non-manifold-vertex" in out
        assert "violations" in out

    def test_bad_generator_spec(self, capsys):
        assert main(["validate", "--mesh", "dodecahedron(1)"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_off_file(self, tmp_path):
        assert main(["validate", "--mesh", str(tmp_path / "nope.off")]) == 1


class TestCurvatureCommand:
    def test_from_embedding(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = main(["curvature", "--mesh", "icosphere(1)", "--outdir", str(outdir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "total defect" in out
        csv_path = outdir / "curvature.csv"
        text = csv_path.read_text()
        lines = text.splitlines()
        assert lines[0] == "vertex,defect,vertex_area,density"
        assert len(lines) == 1 + 42
        defects = [float(x) for x in read_csv_column(csv_path, "defect")]
        assert sum(defects) == pytest.approx(4 * np.pi, abs=1e-9)

    def test_with_lengths_file(self, tmp_path):
        mesh, emb = mm.make_icosphere(0)
        off = tmp_path / "ico.off"
        mm.save_off(mesh, emb, off)
        # intrinsically uniform metric, unrelated to the embedding
        metric = mm.MetricField.uniform(mesh, 1.0)
        lcsv = tmp_path / "lengths.csv"
        outputs.write_text(lcsv, outputs.lengths_csv_text(mesh, metric))
        outdir = tmp_path / "out"
        code = main([
            "curvature", "--mesh", str(off), "--lengths", str(lcsv),
            "--outdir", str(outdir),
        ])
        assert code == 0
        defects = [float(x) for x in read_csv_column(outdir / "curvature.csv", "defect")]
        np.testing.assert_allclose(defects, np.pi / 3, rtol=1e-12)

    def test_corrupt_lengths_file(self, tmp_path):
        mesh, emb = mm.make_icosphere(0)
        off = tmp_path / "ico.off"
        mm.save_off(mesh, emb, off)
        bad = tmp_path / "bad.csv"
        bad.write_text("edge,v0,v1,length\n0,0,1,1.0\n")  # too few rows
        assert main(["curvature", "--mesh", str(off), "--lengths", str(bad)]) == 1


class TestGeodesicCommand:
    def test_fast_marching_output(self, tmp_path):
        outdir = tmp_path / "out"
        code = main([
            "geodesic", "--mesh", "grid(5,5,1.0)", "--source", "0",
            "--outdir", str(outdir),
        ])
        assert code == 0
        d = [float(x) for x in read_csv_column(outdir / "distances.csv", "distance")]
        assert len(d) == 25
        assert d[0] == 0.0
        assert d[4] == pytest.approx(4.0, rel=1e-12)  # straight boundary run

    def test_graph_only_dominates(self, tmp_path):
        surf_dir = tmp_path / "surf"
        graph_dir = tmp_path / "graph"
        args = ["geodesic", "--mesh", "grid(5,5,1.0)", "--source", "0"]
        assert main(args + ["--outdir", str(surf_dir)]) == 0
        assert main(args + ["--graph-only", "--outdir", str(graph_dir)]) == 0
        surf = np.array([float(x) for x in read_csv_column(surf_dir / "distances.csv", "distance")])
        graph = np.array([float(x) for x in read_csv_column(graph_dir / "distances.csv", "distance")])
        assert (surf <= graph + 1e-12).all()
        assert (surf < graph - 1e-9).any()  # strictly better somewhere

    def test_source_out_of_range(self, tmp_path, capsys):
        assert main([
            "geodesic", "--mesh", "icosphere(0)", "--source", "99",
            "--outdir", str(tmp_path / "o"),
        ]) == 1
        assert "error" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_end_to_end(self, tmp_path, capsys):
        ds = write_dataset(tmp_path / "pts.csv")
        outdir = tmp_path / "run"
        cfg = write_config(tmp_path / "run.cfg", dataset=ds, outdir=outdir)
        assert main(["optimize", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "stop:" in out

        trace = (outdir / "trace.csv").read_text().splitlines()
        assert trace[0] == outputs.TRACE_HEADER
        assert 2 <= len(trace) <= 7  # header + up to max_iters+1 rows
        totals = [float(line.split(",")[7]) for line in trace[1:]]
        assert all(b <= a for a, b in zip(totals, totals[1:]))

        mesh, _ = mm.make_icosphere(1)
        metric = outputs.read_lengths_csv(outdir / "lengths_final.csv", mesh)
        assert metric.lengths.shape == (mesh.edge_count,)

        curv = (outdir / "curvature_final.csv").read_text().splitlines()
        assert curv[0] == "vertex,defect,vertex_area,density"
        assert len(curv) == 1 + mesh.vertex_count

        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "optimize"
        assert manifest["backend"] == "numpy"
        assert manifest["result"]["stop_reason"] in {
            "max_iters", "grad_tol", "loss_tol", "stalled"
        }
        assert manifest["settings"]["lambda"] == 1e-3
        assert manifest["settings"]["feas_margin"] is not None
        assert manifest["outputs"] == sorted(manifest["outputs"])

    def test_reruns_byte_identical(self, tmp_path):
        ds = write_dataset(tmp_path / "pts.csv")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_config(tmp_path / "a.cfg", dataset=ds, outdir=out_a, jitter="0.1")
        cfg_b = write_config(tmp_path / "b.cfg", dataset=ds, outdir=out_b, jitter="0.1")
        assert main(["optimize", "--config", str(cfg_a)]) == 0
        assert main(["optimize", "--config", str(cfg_b)]) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        assert (out_a / "lengths_final.csv").read_bytes() == (out_b / "lengths_final.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mesh = icosphere(1)\nwarp_factor = 9\n")
        assert main(["optimize", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "line 2" in err

    def test_missing_mesh_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lambda = 1.0\n")
        assert main(["optimize", "--config", str(cfg)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["optimize", "--config", str(tmp_path / "none.cfg")]) == 1

    def test_isolated_vertex_exits_one(self, tmp_path, capsys):
        off = tmp_path / "stray.off"
        off.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n5 5 5\n3 0 1 2\n")
        cfg = write_config(tmp_path / "run.cfg", mesh=off, outdir=tmp_path / "o")
        assert main(["optimize", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "vertex 3" in err and "Traceback" not in err

    def test_missing_dataset_file(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.cfg",
            dataset=tmp_path / "absent.csv",
            outdir=tmp_path / "o",
        )
        assert main(["optimize", "--config", str(cfg)]) == 1


class TestSweepCommand:
    def test_end_to_end(self, tmp_path, capsys):
        outdir = tmp_path / "sweep"
        cfg = write_config(
            tmp_path / "s.cfg", outdir=outdir, max_iters="3",
            jitter="0.15", freeze_embedding="true", **{"lambda": "1.0"},
        )
        assert main(["sweep", "--config", str(cfg), "--lambdas", "0.01,0.1,1.0"]) == 0
        out = capsys.readouterr().out
        assert out.count("lambda") >= 3

        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert lines[0] == outputs.SWEEP_HEADER
        assert len(lines) == 4
        statuses = [line.split(",")[1] for line in lines[1:]]
        assert statuses == ["ok", "ok", "ok"]

        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["lambdas"] == [0.01, 0.1, 1.0]
        assert (outdir / "lengths_final.csv").exists()

    @pytest.mark.parametrize("bad", ["1,0.5", "abc", "-1,2", "", "nan", "inf", "1,nan"])
    def test_bad_lambdas_rejected(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path / "s.cfg", outdir=tmp_path / "o")
        assert main(["sweep", "--config", str(cfg), f"--lambdas={bad}"]) == 2
        assert "lambdas" in capsys.readouterr().err


class TestParser:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize"])
        assert exc.value.code == 2

    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
