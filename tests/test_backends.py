"""Agreement between the jitted tape interpreters and their fallbacks.

Both tape interpreters execute the same opcode sequence with strict
IEEE semantics (no fastmath), so values and adjoints should match to
the last bit.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

pytest.importorskip("numba")

import metricmesh as mm
from metricmesh import kernels
from metricmesh.autodiff import Tape

from conftest import feasible_jittered


def record_curvature_energy(mesh, metric):
    """Tape whose output is a p=2 defect-style energy of the metric."""
    tape = Tape()
    traced = [tape.input(v) for v in metric.lengths]
    fe = mesh.face_edges
    energy = tape.const(0.0)
    for f in range(mesh.face_count):
        l_ij = traced[fe[f, 0]]
        l_jk = traced[fe[f, 1]]
        l_ki = traced[fe[f, 2]]
        alpha, beta, gamma = mm.interior_angles(l_jk, l_ki, l_ij)
        area = mm.triangle_area(l_ij, l_jk, l_ki)
        energy = energy + (alpha * alpha + beta * beta + gamma * gamma) / area
    return tape.program(energy)


@pytest.fixture(scope="module")
def recorded(icosphere1):
    mesh, emb = icosphere1
    metric = feasible_jittered(mesh, emb, seed=7, amount=0.1)
    prog = record_curvature_energy(mesh, metric)
    return prog, metric.lengths.copy()


class TestTapeKernelParity:
    def run_forward(self, fn, prog, x):
        values = np.empty(len(prog), dtype=np.float64)
        # raw kernel call: non-finites are expected in the overflow test
        with np.errstate(all="ignore"):
            fn(prog.ops, prog.arg1, prog.arg2, prog.aux, x, values)
        return values

    def test_forward_values_bitwise(self, recorded):
        prog, x = recorded
        v_py = self.run_forward(kernels.tape_forward_py, prog, x)
        v_nb = self.run_forward(kernels.tape_forward_nb, prog, x)
        np.testing.assert_array_equal(v_py, v_nb)
        assert np.isfinite(v_py[prog.root])

    def test_forward_values_bitwise_off_record_point(self, recorded):
        prog, x = recorded
        y = x * 1.13
        v_py = self.run_forward(kernels.tape_forward_py, prog, y)
        v_nb = self.run_forward(kernels.tape_forward_nb, prog, y)
        np.testing.assert_array_equal(v_py, v_nb)

    def test_backward_adjoints_bitwise(self, recorded):
        prog, x = recorded
        values = self.run_forward(kernels.tape_forward_py, prog, x)
        adj_py = np.zeros(len(prog), dtype=np.float64)
        adj_nb = np.zeros(len(prog), dtype=np.float64)
        adj_py[prog.root] = 1.0
        adj_nb[prog.root] = 1.0
        kernels.tape_backward_py(prog.ops, prog.arg1, prog.arg2, prog.aux, values, adj_py)
        kernels.tape_backward_nb(prog.ops, prog.arg1, prog.arg2, prog.aux, values, adj_nb)
        np.testing.assert_array_equal(adj_py, adj_nb)
        assert np.count_nonzero(adj_py) > len(prog) // 2

    def test_nonfinite_propagation_matches(self, recorded):
        # an overflowing input must produce the same inf/nan pattern in
        # both interpreters rather than raising in one of them
        prog, x = recorded
        bad = x.copy()
        bad[0] = 1e308
        v_py = self.run_forward(kernels.tape_forward_py, prog, bad)
        v_nb = self.run_forward(kernels.tape_forward_nb, prog, bad)
        np.testing.assert_array_equal(np.isnan(v_py), np.isnan(v_nb))
        finite = np.isfinite(v_py) & np.isfinite(v_nb)
        np.testing.assert_array_equal(v_py[finite], v_nb[finite])
        assert not finite.all()


class TestBackendSelection:
    def test_default_backend_is_numba(self):
        if os.environ.get("METRICMESH_BACKEND"):
            pytest.skip("backend forced by the environment")
        assert mm.backend_name() == "numba"
        assert kernels.tape_forward is kernels.tape_forward_nb

    def test_env_flag_selects_numpy(self):
        env = dict(os.environ, METRICMESH_BACKEND="numpy")
        out = subprocess.run(
            [sys.executable, "-c", "import metricmesh; print(metricmesh.backend_name())"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "numpy"

    def test_cli_runs_on_numpy_backend(self, tmp_path):
        env = dict(os.environ, METRICMESH_BACKEND="numpy")
        code = (
            "from metricmesh.cli import main; "
            f"raise SystemExit(main(['curvature', '--mesh', 'icosphere(0)', "
            f"'--from-embedding', '--outdir', {str(tmp_path)!r}]))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        lines = (tmp_path / "curvature.csv").read_text().strip().splitlines()
        assert len(lines) == 13
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(4.0 * np.pi, abs=1e-9)
