import math

import numpy as np
import pytest

import metricmesh as mm
from metricmesh import outputs
from metricmesh.errors import ConfigError
from metricmesh.optimize import OptimizationResult, SweepRecord, TraceRow
from metricmesh.optimize import StopRule
from metricmesh.runconfig import parse_config, read_config, settings_echo


FULL_CONFIG = """\
# fitting run                     full-line comment
mesh = icosphere(2)
dataset = points.csv   # trailing comment
lambda = 1e-3
p = 1.5
mu_dirichlet = 0.1
mu_volume = 1.0
mu_iso = 0.01
v_target = 12.5
feas_margin = 1e-5
min_length = 1e-8
max_iters = 200
grad_tol = 1e-8
loss_tol = 1e-12
seed = 7
jitter = 0.2
freeze_embedding = yes
outdir = results/run1
"""


class TestParseConfig:
    def test_full_config(self):
        s = parse_config(FULL_CONFIG)
        assert s.mesh == "icosphere(2)"
        assert s.dataset == "points.csv"
        assert s.outdir == "results/run1"
        assert (s.seed, s.jitter, s.freeze_embedding) == (7, 0.2, True)
        assert s.loss.lambda_ == 1e-3 and s.loss.p == 1.5
        assert s.loss.mu_dirichlet == 0.1 and s.loss.mu_volume == 1.0
        assert s.loss.v_target == 12.5
        assert s.loss.feas_margin == 1e-5 and s.loss.min_length == 1e-8
        assert s.stop.max_iters == 200
        assert s.stop.grad_tol == 1e-8 and s.stop.loss_tol == 1e-12

    def test_defaults(self):
        s = parse_config("mesh = grid(3,3,1.0)\n")
        assert s.dataset is None
        assert s.outdir == "out"
        assert s.loss.lambda_ == 1.0 and s.loss.p == 2.0
        assert s.loss.v_target is None
        assert s.loss.feas_margin is None and s.loss.min_length is None
        assert s.stop.max_iters == 5000
        assert s.freeze_embedding is False

    def test_auto_placeholders(self):
        s = parse_config("mesh = m.off\nv_target = auto\nfeas_margin = AUTO\n")
        assert s.loss.v_target is None
        assert s.loss.feas_margin is None

    @pytest.mark.parametrize("token,expected", [
        ("true", True), ("1", True), ("yes", True), ("on", True),
        ("false", False), ("0", False), ("no", False), ("off", False),
        ("TRUE", True), ("Off", False),
    ])
    def test_bool_tokens(self, token, expected):
        s = parse_config(f"mesh = m.off\nfreeze_embedding = {token}\n")
        assert s.freeze_embedding is expected

    @pytest.mark.parametrize("body,line", [
        ("mesh = m.off\nwibble = 3\n", 2),
        ("mesh = m.off\nmesh = n.off\n", 2),
        ("mesh = m.off\nlambda =\n", 2),
        ("mesh = m.off\nlambda = soup\n", 2),
        ("mesh = m.off\nmax_iters = 2.5\n", 2),
        ("mesh = m.off\nfreeze_embedding = maybe\n", 2),
        ("mesh = m.off\nthis has no equals sign\n", 2),
        ("mesh = m.off\n\n\nlambda = -1\n", 4),
        ("mesh = m.off\np = 0.5\n", 2),
        ("mesh = m.off\njitter = 1.0\n", 2),
        ("mesh = m.off\nv_target = -2\n", 2),
        ("mesh = m.off\nmax_iters = -1\n", 2),
        ("mesh = m.off\ngrad_tol = nan\n", 2),
        ("mesh = m.off\nloss_tol = nan\n", 2),
        ("mesh = m.off\nlambda = inf\n", 2),
        ("mesh = m.off\np = 1e309\n", 2),
        ("mesh = m.off\nmu_iso = -inf\n", 2),
        ("mesh = m.off\nv_target = nan\n", 2),
        ("mesh = m.off\nfeas_margin = inf\n", 2),
        ("mesh = m.off\njitter = nan\n", 2),
        ("mesh = m.off\nseed = -1\n", 2),
        ("mesh = m.off\ngrad_tol = inf\n", 2),
    ])
    def test_errors_carry_line_numbers(self, body, line):
        with pytest.raises(ConfigError) as exc:
            parse_config(body)
        assert exc.value.line == line
        assert f"line {line}" in str(exc.value)

    def test_missing_mesh(self):
        with pytest.raises(ConfigError, match="mesh"):
            parse_config("lambda = 1.0\n")

    def test_read_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mesh = icosphere(0)\nseed = 3\n")
        assert read_config(path).seed == 3

    def test_auto_unsets_exactly_the_derived_settings(self):
        # the settings run_optimization derives from the start metric
        echo = settings_echo(parse_config(FULL_CONFIG))
        numeric = [k for k, v in echo.items() if type(v) in (int, float)]
        assert len(numeric) == 13
        unset = set()
        for key in numeric:
            try:
                settings = parse_config(f"mesh = m.off\n{key} = auto\n")
            except ConfigError as exc:
                assert exc.line == 2 and str(exc).startswith("line 2: "), key
            else:
                assert settings_echo(settings)[key] is None, key
                unset.add(key)
        assert unset == {"v_target", "feas_margin", "min_length"}

    def test_echo_parses_back_to_the_same_settings(self):
        settings = parse_config(FULL_CONFIG)
        text = "".join(f"{key} = {value}\n" for key, value in settings_echo(settings).items())
        assert parse_config(text) == settings

    def test_stop_rule_rejects_infinite_tolerance(self):
        # an infinite grad_tol would stop every run at row 0
        for name in ("grad_tol", "loss_tol"):
            with pytest.raises(ValueError, match=name):
                StopRule(**{name: math.inf})


class TestOutputs:
    def test_trace_round_trip(self):
        rows = [
            TraceRow(0, 0.0, 1.0, 2.0, 0.5, 0.0, 0.25, 3.75, -1e-6, 0.125),
            TraceRow(1, 0.01, 0.5, 1.9, 0.4, 0.0, 0.2, 3.0, -2e-6, 0.1),
        ]
        text = outputs.trace_csv_text(rows)
        lines = text.splitlines()
        assert lines[0] == outputs.TRACE_HEADER
        parsed = lines[1].split(",")
        assert int(parsed[0]) == 0
        assert [float(x) for x in parsed[1:]] == [
            0.0, 1.0, 2.0, 0.5, 0.0, 0.25, 3.75, -1e-6, 0.125
        ]

    def test_trace_header_has_one_column_per_field(self):
        assert len(outputs.TRACE_HEADER.split(",")) == len(TraceRow.fields())

    def test_fmt_round_trips_exactly(self):
        for x in (0.1, 1e-300, 2.3243932834975496, -0.0, float("inf")):
            assert float(outputs.fmt(x)) == x or (x != x)

    def test_lengths_round_trip_bitwise(self, tmp_path, icosphere1):
        mesh, emb = icosphere1
        rng = np.random.default_rng(1)
        metric = mm.MetricField.from_embedding(mesh, emb).with_jitter(rng, 0.3)
        path = tmp_path / "lengths.csv"
        outputs.write_text(path, outputs.lengths_csv_text(mesh, metric))
        back = outputs.read_lengths_csv(path, mesh)
        np.testing.assert_array_equal(back.lengths, metric.lengths)

    def test_read_lengths_validation(self, tmp_path, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        good = outputs.lengths_csv_text(mesh, metric).splitlines()

        cases = {
            "bad_header.csv": "length,edge\n" + "\n".join(good[1:]),
            "short.csv": "\n".join(good[:-1]),
            "bad_id.csv": "\n".join(
                good[:1] + ["99" + good[1][good[1].index(",") :]] + good[2:]
            ),
            "bad_endpoints.csv": "\n".join(
                good[:1] + [f"0,7,8,{good[1].rsplit(',', 1)[1]}"] + good[2:]
            ),
            "bad_value.csv": "\n".join(
                good[:1] + [good[1].rsplit(",", 1)[0] + ",spam"] + good[2:]
            ),
            "extra_cols.csv": "\n".join(good[:1] + [good[1] + ",9"] + good[2:]),
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_text(text + "\n")
            with pytest.raises(ValueError):
                outputs.read_lengths_csv(path, mesh)

    def test_read_lengths_names_first_bad_endpoint_row(self, tmp_path, icosphere0):
        mesh, emb = icosphere0
        rows = outputs.lengths_csv_text(mesh, mm.MetricField.from_embedding(mesh, emb)).splitlines()
        for i in (4, 9):
            rows[i] = f"{i - 1},7,{10**30},1.0"
        path = tmp_path / "lengths.csv"
        path.write_text("\n".join(rows) + "\n")
        u, v = mesh.edges[3].tolist()
        message = f"lengths row 3: edge endpoints (7, {10**30}) do not match the mesh ({u}, {v})"
        with pytest.raises(ValueError) as info:
            outputs.read_lengths_csv(path, mesh)
        assert str(info.value) == message

    def test_csv_text_matches_numpy_scalar_rows(self, icosphere1):
        # Reference rows index numpy arrays one scalar at a time.
        mesh, emb = icosphere1
        metric = mm.MetricField.from_embedding(mesh, emb).with_jitter(np.random.default_rng(3), 0.3)
        lengths = [outputs.LENGTHS_HEADER] + [
            f"{e},{mesh.edges[e, 0]},{mesh.edges[e, 1]},{outputs.fmt(metric.lengths[e])}"
            for e in range(mesh.edge_count)
        ]
        assert outputs.lengths_csv_text(mesh, metric) == "\n".join(lengths) + "\n"
        report = mm.curvature_report(mesh, metric)
        d = report.defect_density
        curvature = [outputs.CURVATURE_HEADER] + [
            f"{v},{outputs.fmt(report.defect[v])},{outputs.fmt(report.vertex_area[v])},"
            f"{outputs.fmt(d[v])}"
            for v in range(mesh.vertex_count)
        ]
        assert outputs.curvature_csv_text(report) == "\n".join(curvature) + "\n"
        distances = mm.fast_marching(mesh, metric, 5).distances.copy()
        distances[[1, 7]] = [np.inf, 1e-300]
        field = mm.DistanceField(source=5, distances=distances)
        expected = [outputs.DISTANCES_HEADER] + [
            f"{v},{outputs.fmt(distances[v])}" for v in range(mesh.vertex_count)
        ]
        assert outputs.distances_csv_text(field) == "\n".join(expected) + "\n"

    def test_distances_text_handles_unreachable(self):
        field = mm.DistanceField(source=0, distances=np.array([0.0, 1.5, np.inf]))
        lines = outputs.distances_csv_text(field).splitlines()
        assert lines[0] == outputs.DISTANCES_HEADER
        assert lines[3] == "2,inf"

    def test_curvature_text(self, icosphere0):
        mesh, emb = icosphere0
        report = mm.curvature_report(mesh, mm.MetricField.from_embedding(mesh, emb))
        lines = outputs.curvature_csv_text(report).splitlines()
        assert lines[0] == outputs.CURVATURE_HEADER
        assert len(lines) == 1 + mesh.vertex_count
        v, defect, area, density = lines[1].split(",")
        assert float(density) == pytest.approx(float(defect) / float(area), rel=1e-15)

    def test_sweep_text_failed_row(self):
        rec = SweepRecord(lambda_=0.5, status="failed", detail="boom", result=None)
        lines = outputs.sweep_csv_text([rec]).splitlines()
        assert lines[0] == outputs.SWEEP_HEADER
        assert lines[1] == "0.5,failed,0,,nan,nan,nan,nan,nan,nan"

    def test_sweep_text_ok_row(self, icosphere0):
        mesh, emb = icosphere0
        metric = mm.MetricField.from_embedding(mesh, emb)
        row = TraceRow(3, 0.01, 0.0, 2.0, 0.0, 0.0, 0.0, 2.0, -1e-7, 0.5)
        result = OptimizationResult(
            rows=[row, row, row, row],
            stop_reason="max_iters",
            metric=metric,
            embedding=emb,
            config=mm.LossConfig(),
        )
        rec = SweepRecord(lambda_=1.0, status="ok", detail="max_iters", result=result)
        line = outputs.sweep_csv_text([rec]).splitlines()[1]
        assert line.startswith("1.0,ok,3,max_iters,")

    def test_manifest_deterministic(self):
        a = outputs.manifest_text({"b": 1, "a": [2, 3]})
        b = outputs.manifest_text({"a": [2, 3], "b": 1})
        assert a == b
        assert a.endswith("\n")

    def test_ensure_outdir(self, tmp_path):
        target = tmp_path / "deep" / "nested"
        out = outputs.ensure_outdir(target)
        assert out.is_dir()
        assert outputs.ensure_outdir(target) == out  # idempotent
