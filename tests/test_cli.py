import codecs
import json
import math
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metricmesh as mm
from metricmesh import optimize, outputs
from metricmesh.cli import main
from metricmesh.errors import TapeNonFiniteError
from metricmesh.optimize import sweep_weights
from metricmesh.runconfig import read_config

from loop_generators import loop_icosphere


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

    def test_upper_case_suffix(self, tmp_path, capsys):
        off = tmp_path / "s.OFF"
        assert main(["generate", "--kind", "icosphere(1)", "--out", str(off)]) == 0
        assert main(["validate", "--mesh", str(off)]) == 0
        assert "ok: 42 vertices" in capsys.readouterr().out
        cfg = write_config(tmp_path / "run.cfg", mesh=off, max_iters=1, outdir=tmp_path / "o")
        assert main(["optimize", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""

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

    def test_generate_writes_the_loop_generators_bytes(self, tmp_path):
        off = tmp_path / "sphere.off"
        assert main(["generate", "--kind", "icosphere(3)", "--out", str(off)]) == 0
        assert off.read_bytes() == mm.write_off(*loop_icosphere(3)).encode()

    @pytest.mark.parametrize("spec", ["torus(100000,100000,2.0,0.5)", "grid(1000,1000,1.0)"])
    def test_over_the_cap(self, tmp_path, capsys, spec):
        off = tmp_path / "big.off"
        assert main(["generate", "--kind", spec, "--out", str(off)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad mesh spec {spec!r}: ") and err.count("\n") == 1
        assert "more than the cap of 327680" in err
        assert not off.exists()

    def test_missing_off_file(self, tmp_path):
        assert main(["validate", "--mesh", str(tmp_path / "nope.off")]) == 1

    @pytest.mark.parametrize("index", ["99999999999999999999", "-99999999999999999999"])
    def test_face_index_past_int64(self, tmp_path, capsys, index):
        off = tmp_path / "huge.off"
        off.write_text(f"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 {index}\n")
        assert main(["validate", "--mesh", str(off)]) == 1
        err = capsys.readouterr().err
        assert err == "error: face 0 references a vertex outside [0, 3)\n"


# Tokens that malformed OFF files are made of: huge, negative and
# non-integer numbers, non-numbers, and counts that disagree with the body.
_OFF_TOKENS = [
    "99999999999999999999", "-99999999999999999999", "9223372036854775808",
    "-1", "0", "1", "3", "4", "12", "1e400", "-0", "nan", "inf", "0x1",
    "1.5", "", "OFF", "#", "x", "3 0 1 2", "\t",
]


def _mutate_off(text, rng):
    lines = text.splitlines()
    if not lines:  # an earlier edit cut the text to nothing
        return "OFF\n"
    kind = rng.randrange(5)
    i = rng.randrange(len(lines))
    if kind == 0:  # replace one token
        parts = lines[i].split() or [""]
        parts[rng.randrange(len(parts))] = rng.choice(_OFF_TOKENS)
        lines[i] = " ".join(parts)
    elif kind == 1:  # insert a token
        parts = lines[i].split()
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(_OFF_TOKENS))
        lines[i] = " ".join(parts)
    elif kind == 2:
        del lines[i]
    elif kind == 3:
        lines.insert(i, lines[rng.randrange(len(lines))])
    else:  # cut the text anywhere
        return text[: rng.randrange(len(text))]
    return "\n".join(lines) + "\n"


class TestMalformedOFF:
    def test_seeded_mutations_end_in_an_error_line(self, tmp_path, capsys):
        mesh, emb = mm.make_icosphere(0)
        base = mm.write_off(mesh, emb)
        rng = random.Random(20261018)
        off = tmp_path / "m.off"
        for case in range(300):
            text = base
            for _ in range(rng.randint(1, 3)):
                text = _mutate_off(text, rng)
            off.write_text(text)
            code = main(["validate", "--mesh", str(off)])
            out, err = capsys.readouterr()
            assert code in (0, 1), (case, text)
            if code == 1 and not out:
                assert err.startswith("error: ") and err.count("\n") == 1, (case, text, err)


# Values that malformed configs, datasets and lengths files are made of:
# non-finite, overflowing, subnormal and huge numbers, non-numbers, key
# names and separators.
_FIELD_TOKENS = [
    "nan", "inf", "-inf", "1e309", "-1e309", "1e308", "1e-320", "-1", "0", "-0",
    "0.5", "2", "99999999999999999999", "auto", "x", "", ",", "=", "#", "true",
    "seed", "lambda",
]


# Numbers for generator specs: NaN, infinities, negative zero, spacings
# and radii whose coordinates, sums or squares leave float range, and
# subnormals. Sizes stay at 50 or less.
_SPEC_SIZES = ["-1", "-0", "0", "2", "3", "50", "nan", "inf", "1.5", "1e308"]
_SPEC_REALS = ["nan", "inf", "-inf", "-0", "0", "-1", "1e-320", "1e-200", "0.5", "1",
               "2.5", "1e200", "1e308"]
# kind -> (valid arguments, how many lead with a size)
_SPEC_BASES = {"icosphere": (["1"], 1), "torus": (["6", "4", "2.0", "0.7"], 2),
               "grid": (["4", "3", "1.0"], 2)}


class TestMutationHelpers:
    # an earlier edit can cut a text to nothing or to a lone newline; the
    # next edit must still return a text
    @pytest.mark.parametrize("text", ["", "\n"])
    def test_blank_texts_still_mutate(self, text):
        for seed in range(200):
            assert isinstance(_mutate_off(text, random.Random(seed)), str)
            assert isinstance(_mutate_fields(text, random.Random(seed), ","), str)


class TestGeneratorSpecMutations:
    def test_seeded_specs_end_in_exit_zero_or_an_error_line(self, tmp_path, capsys):
        rng = random.Random(20261022)
        for case in range(150):
            kind = rng.choice(sorted(_SPEC_BASES))
            args, n_sizes = _SPEC_BASES[kind]
            args = list(args)
            for i in rng.sample(range(len(args)), rng.randint(1, len(args))):
                args[i] = rng.choice(_SPEC_SIZES if i < n_sizes else _SPEC_REALS)
            spec = f"{kind}({','.join(args)})"
            for argv in (["validate"], ["curvature", "--outdir", str(tmp_path / "o")]):
                code = main([argv[0], "--mesh", spec, *argv[1:]])
                err = capsys.readouterr().err
                assert code in (0, 1), (case, spec, argv[0])
                if code:
                    assert err.startswith("error: ") and err.count("\n") == 1, (case, spec, err)
                else:
                    assert err == "", (case, spec, err)


def _mutate_fields(text, rng, sep, keep=0):
    """One random edit of ``text``, a file of ``sep``-separated fields.

    The last ``keep`` lines are left alone.
    """
    lines = text.splitlines()
    head, tail = lines[: len(lines) - keep], lines[len(lines) - keep :]
    if not head:
        return "\n".join([rng.choice(_FIELD_TOKENS)] + tail) + "\n"
    kind = rng.choice((0, 0, 0, 0, 1, 2, 3, 4))  # mostly bad values in valid lines
    i = rng.randrange(len(head))
    if kind == 0:  # replace one field, often the last: a config value or a length
        parts = head[i].split(sep)
        j = rng.choice((-1, rng.randrange(len(parts))))
        parts[j] = rng.choice(_FIELD_TOKENS)
        head[i] = sep.join(parts)
    elif kind == 1:  # insert a field
        parts = head[i].split(sep)
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(_FIELD_TOKENS))
        head[i] = sep.join(parts)
    elif kind == 2:
        del head[i]
    elif kind == 3:
        head.insert(i, head[rng.randrange(len(head))])
    else:  # cut the head anywhere
        joined = "\n".join(head)
        if not joined:  # a lone empty line: nothing to cut
            return "\n".join(["x"] + tail) + "\n"
        head = joined[: rng.randrange(len(joined))].splitlines()
    return "\n".join(head + tail) + "\n"


def _reject_constant(name):
    raise ValueError(f"manifest holds {name}, which is not JSON")


def _run_mutations(rng, cases, base, sep, path, argv, capsys, keep=0):
    """Write ``cases`` mutations of ``base`` to ``path`` and run ``argv``.

    Every run must end in exit 0, 1 or 2, a failure in one ``error:`` or
    ``config error:`` line, and an optimize run in a strict-JSON manifest.
    ``base`` itself must run cleanly, or every mutation would stop at the
    same error.
    """
    path.write_text(base)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    for case in range(cases):
        text = base
        for _ in range(rng.randint(1, 2)):
            text = _mutate_fields(text, rng, sep, keep)
        path.write_text(text)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (case, text)
        if code:
            assert err.startswith(("error: ", "config error: ")), (case, text, err)
            assert err.count("\n") == 1, (case, text, err)
        elif argv[0] == "optimize":
            outdir = Path(read_config(argv[2]).outdir)
            json.loads((outdir / "manifest.json").read_text(), parse_constant=_reject_constant)


class TestMalformedInputs:
    # Each run optimizes icosphere(0) for at most two iterations: the config
    # keeps its last line, max_iters = 2, out of reach of the mutations.
    CONFIG = (
        "mesh = icosphere(0)\ndataset = pts.csv\nlambda = 1e-3\np = 1.5\n"
        "mu_iso = 1e-2\nmu_volume = 0.5\nmu_dirichlet = 0.1\nv_target = auto\n"
        "feas_margin = auto\nmin_length = 1e-9\njitter = 0.1\n"
        "seed = 3\ngrad_tol = 1e-12\nloss_tol = 0\nfreeze_embedding = no\n"
        "outdir = out\nmax_iters = 2\n"
    )

    def test_config_mutations(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_dataset(tmp_path / "pts.csv", n=12)
        cfg = tmp_path / "run.cfg"
        _run_mutations(random.Random(20261019), 80, self.CONFIG, "=", cfg,
                       ["optimize", "--config", str(cfg)], capsys, keep=1)

    def test_dataset_mutations(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        base = write_dataset(tmp_path / "pts.csv", n=12).read_text()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG)
        _run_mutations(random.Random(20261020), 80, base, ",", tmp_path / "pts.csv",
                       ["optimize", "--config", str(cfg)], capsys)

    def test_mistyped_first_point_is_exit_1(self, tmp_path, capsys):
        ds = tmp_path / "pts.csv"
        ds.write_text("1.0,2.0,x\n0,0,1\n1,0,0\n")
        cfg = write_config(tmp_path / "run.cfg", dataset=ds, outdir=tmp_path / "o")
        assert main(["optimize", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: row 1: non-numeric value (")

    @pytest.mark.parametrize("command", ["curvature", "geodesic"])
    def test_lengths_mutations(self, tmp_path, capsys, command):
        mesh, emb = mm.make_icosphere(0)
        base = outputs.lengths_csv_text(mesh, mm.MetricField.from_embedding(mesh, emb))
        lengths = tmp_path / "lengths.csv"
        argv = [command, "--mesh", "icosphere(0)", "--lengths", str(lengths),
                "--outdir", str(tmp_path / "out")]
        if command == "geodesic":
            argv += ["--source", "0"]
        _run_mutations(random.Random(20261021), 100, base, ",", lengths, argv, capsys)


def insert_latin1_line(path):
    """Make line 3 of ``path`` a comment with a Latin-1 byte, 0xe9."""
    lines = path.read_bytes().split(b"\n")
    lines.insert(2, b"# caf\xe9 (Latin-1)")
    path.write_bytes(b"\n".join(lines))


class TestUndecodableInput:
    """A byte that is not UTF-8 is the reader's own error, with its line.

    A leading UTF-8 byte-order mark is dropped before decoding.
    """

    READERS = ["config", "off", "dataset", "lengths"]

    @staticmethod
    def case(tmp_path, reader):
        """(the file ``reader`` reads, argv, error prefix, exit code of an error)."""
        mesh, emb = mm.make_icosphere(0)
        off = tmp_path / "ico.off"
        mm.save_off(mesh, emb, off)
        ds = write_dataset(tmp_path / "pts.csv", n=12)
        lengths = tmp_path / "lengths.csv"
        metric = mm.MetricField.from_embedding(mesh, emb)
        outputs.write_text(lengths, outputs.lengths_csv_text(mesh, metric))
        cfg = write_config(tmp_path / "run.cfg", mesh=off, dataset=ds, outdir=tmp_path / "o")
        path = {"config": cfg, "off": off, "dataset": ds, "lengths": lengths}[reader]
        if reader == "lengths":
            argv = ["curvature", "--mesh", str(off), "--lengths", str(lengths),
                    "--outdir", str(tmp_path / "o")]
            return path, argv, f"error: lengths file {lengths}, ", 1
        argv = ["optimize", "--config", str(cfg)]
        if reader == "config":
            return path, argv, "config error: ", 2
        return path, argv, "error: ", 1

    @pytest.mark.parametrize("reader", READERS)
    def test_error_names_the_line(self, tmp_path, capsys, reader):
        path, argv, prefix, code = self.case(tmp_path, reader)
        insert_latin1_line(path)
        assert main(argv) == code
        assert capsys.readouterr().err == prefix + "line 3: byte 0xe9 is not UTF-8\n"
        # after a byte-order mark the error still names the byte and its line
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert main(argv) == code
        assert capsys.readouterr().err == prefix + "line 3: byte 0xe9 is not UTF-8\n"

    @pytest.mark.parametrize("reader", READERS)
    def test_byte_order_mark_is_dropped(self, tmp_path, capsys, reader):
        path, argv, _, _ = self.case(tmp_path, reader)
        outdir = tmp_path / "o"

        def run():
            code = main(argv)
            written = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
            shutil.rmtree(outdir)
            return code, capsys.readouterr(), written

        plain = run()
        assert plain[0] == 0 and plain[2]
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert run() == plain


class TestFromEmbeddingRemoved:
    # the flag selected the default metric, so it went; passing it is a usage error
    @pytest.mark.parametrize(
        "argv",
        [
            ["curvature", "--mesh", "icosphere(1)"],
            ["geodesic", "--mesh", "icosphere(1)", "--source", "3"],
        ],
        ids=["curvature", "geodesic"],
    )
    def test_is_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--from-embedding", "--outdir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --from-embedding" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestReadmeCommands:
    def test_command_line_block_runs(self, tmp_path, monkeypatch, capsys):
        # every command of README's "Command line" block, in order: the
        # first writes the sphere.off that the others read
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1]
        lines = block.split("```", 1)[0].splitlines()
        commands = [line for line in lines if line.startswith("metricmesh ")]
        assert len(commands) == 6
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("mesh = sphere.off\nmax_iters = 3\n")
        for command in commands:
            assert main(shlex.split(command)[1:]) == 0, command
            assert capsys.readouterr().err == "", command


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

    @pytest.mark.parametrize("length", [1e200, 1e-200])
    def test_unrepresentable_area_is_one_error_line(self, tmp_path, capsys, length):
        # the angles are fine at any scale; the areas near 1e+-400 are not
        mesh, _ = mm.make_icosphere(0)
        lcsv = tmp_path / "lengths.csv"
        outputs.write_text(lcsv, outputs.lengths_csv_text(mesh, mm.MetricField.uniform(mesh, length)))
        outdir = tmp_path / "out"
        argv = ["curvature", "--mesh", "icosphere(0)", "--lengths", str(lcsv), "--outdir", str(outdir)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: face areas are out of float range")
        assert err.count("\n") == 1
        assert not (outdir / "curvature.csv").exists()

    def test_isolated_vertex_exits_one(self, tmp_path, capsys):
        # vertex 3 has no area: its density would be a division by zero
        off = tmp_path / "stray.off"
        off.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n5 5 5\n3 0 1 2\n")
        outdir = tmp_path / "out"
        assert main(["curvature", "--mesh", str(off), "--outdir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: vertex 3 belongs to no face")
        assert err.count("\n") == 1
        assert not (outdir / "curvature.csv").exists()


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

    @pytest.mark.parametrize("extra", [[], ["--graph-only"]])
    def test_zero_slack_face_rejected_like_curvature(self, tmp_path, capsys, extra):
        mesh, _ = mm.make_grid(2, 2, 1.0)
        metric = mm.MetricField(np.array([1.0, 1.5, 2.0, 1.0, 1.5]))  # face 0: 1 + 1 = 2
        lcsv = tmp_path / "lengths.csv"
        outputs.write_text(lcsv, outputs.lengths_csv_text(mesh, metric))
        common = ["--mesh", "grid(2,2,1.0)", "--lengths", str(lcsv), "--outdir", str(tmp_path / "o")]
        assert main(["curvature", *common]) == 1
        want = capsys.readouterr().err
        assert "strict triangle inequality" in want
        assert main(["geodesic", "--source", "0", *common, *extra]) == 1
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("extra", [[], ["--graph-only"]])
    def test_overflow_is_one_error_line(self, tmp_path, capsys, extra):
        # lengths x 2**1023 are finite and feasible; the far side's distances are not
        mesh, emb = mm.make_icosphere(3)
        lengths = np.ldexp(mm.MetricField.from_embedding(mesh, emb).lengths, 1023)
        lcsv = tmp_path / "big.csv"
        outputs.write_text(lcsv, outputs.lengths_csv_text(mesh, mm.MetricField(lengths)))
        outdir = tmp_path / "o"
        argv = ["geodesic", "--mesh", "icosphere(3)", "--lengths", str(lcsv), "--source", "0"]
        assert main([*argv, "--outdir", str(outdir), *extra]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: the distance of vertex \d+ from source 0 overflows\n", err)
        assert not (outdir / "distances.csv").exists()

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
        # there is one numeric path, so the manifest names none
        assert "backend" not in manifest
        assert manifest["result"]["stop_reason"] in {
            "max_iters", "grad_tol", "loss_tol", "stalled"
        }
        assert manifest["settings"]["lambda"] == 1e-3
        assert manifest["settings"]["feas_margin"] is not None
        # the first trial step is what the run took, not a setting
        assert "eta_init" not in manifest["settings"]
        assert type(manifest["result"]["eta_init"]) is float
        assert manifest["result"]["eta_init"] > 0.0
        assert manifest["outputs"] == sorted(manifest["outputs"])

    def test_eta_init_is_an_unknown_key(self, tmp_path, capsys):
        # the run sizes its first trial step itself; there is no step setting
        outdir = tmp_path / "run"
        cfg = write_config(tmp_path / "run.cfg", outdir=outdir, eta_init="0.003")
        assert main(["optimize", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: line 9: unknown key 'eta_init'\n"
        assert not outdir.exists()

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
        assert "backend" not in manifest
        assert manifest["lambdas"] == [0.01, 0.1, 1.0]
        # each run sizes its own first trial step
        assert "eta_init" not in manifest["settings"]
        for rec in manifest["records"]:
            assert type(rec["eta_init"]) is float and rec["eta_init"] > 0.0
        assert (outdir / "lengths_final.csv").exists()

    def test_failed_weight_reported(self, tmp_path, capsys, monkeypatch):
        real = optimize.run_optimization

        def flaky(mesh, metric, embedding, dataset, config, **kwargs):
            if config.lambda_ == 0.1:
                raise TapeNonFiniteError("injected failure")
            return real(mesh, metric, embedding, dataset, config, **kwargs)

        monkeypatch.setattr(optimize, "run_optimization", flaky)
        outdir = tmp_path / "sweep"
        cfg = write_config(tmp_path / "s.cfg", outdir=outdir, max_iters="2", jitter="0.15",
                           freeze_embedding="true")
        assert main(["sweep", "--config", str(cfg), "--lambdas", "0.01,0.1,1.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "lambda 0.1: failed (TapeNonFiniteError: injected failure)"
        assert lines[0].startswith("lambda 0.01: max_iters after 2 iterations")
        assert lines[2].startswith("lambda 1.0: max_iters after 2 iterations")
        rows = (outdir / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["ok", "failed", "ok"]
        records = json.loads((outdir / "manifest.json").read_text())["records"]
        assert [rec["eta_init"] is None for rec in records] == [False, True, False]

    @pytest.mark.parametrize("bad", ["1,0.5", "abc", "-1,2", "", "nan", "inf", "1,nan"])
    def test_bad_lambdas_rejected(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path / "s.cfg", outdir=tmp_path / "o")
        assert main(["sweep", "--config", str(cfg), f"--lambdas={bad}"]) == 2
        assert "lambdas" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [[1.0, 0.5], [-1.0], [math.nan], []])
    def test_lambdas_checked_by_the_sweep_rule(self, tmp_path, capsys, bad):
        # the library's rule and message, before the config is even read
        with pytest.raises(ValueError) as rule:
            sweep_weights(bad)
        missing = tmp_path / "missing.cfg"
        assert main(["sweep", "--config", str(missing), "--lambdas=" + ",".join(map(repr, bad))]) == 2
        assert capsys.readouterr().err == f"error: --lambdas: {rule.value}\n"


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


def run_module(*argv, cwd=None):
    """``python -m metricmesh argv`` in a fresh interpreter on this source tree."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "metricmesh", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=cwd,
        capture_output=True,
        text=True,
    )


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        ok = run_module("validate", "--mesh", "icosphere(1)")
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.startswith("ok: 42 vertices, 120 edges, 80 faces")
        bad = run_module("validate", "--mesh", "icosphere(x)")
        assert bad.returncode == 1
        assert bad.stderr.startswith("error: bad mesh spec 'icosphere(x)'")
        assert "Traceback" not in bad.stderr


class TestNonFiniteLoss:
    # A fresh interpreter: numpy's RuntimeWarnings print to stderr there,
    # where in-process pytest would raise them.
    @pytest.mark.parametrize(
        "settings",
        [
            # the curvature term is 0 * inf = nan at p = 600, and a zero
            # weight does not drop it: 0 * nan
            "jitter = 0.2\nlambda = 0\nmu_iso = 0.01\np = 600",
            # each power overflows or underflows: inf * 0 = nan
            "lambda = 1\np = 1e300",
        ],
        ids=["zero-weight-nan", "overflow"],
    )
    def test_optimize_exits_one_with_one_error_line(self, tmp_path, settings):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mesh = icosphere(1)\n{settings}\nmax_iters = 3\noutdir = run\n")
        proc = run_module("optimize", "--config", str(cfg), cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == "error: the total loss at the start is nan\n"
        assert not (tmp_path / "run").exists()
