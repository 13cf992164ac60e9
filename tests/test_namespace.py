"""The ``metricmesh`` namespace: what ``__all__`` lists and what importing loads."""

import os
import subprocess
import sys
import types
from pathlib import Path

import metricmesh as mm

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code):
    """Standard output of ``code`` run in a fresh interpreter on this source tree."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_does_not_load_the_tape():
    # The tape is a test oracle; neither the package nor the CLI needs it.
    code = "import sys, metricmesh, metricmesh.cli; print('metricmesh.autodiff' in sys.modules)"
    assert run_python(code) == "False"


def test_projection_does_not_load_scipy():
    # scipy.spatial's KD-tree would prune the projection too, but importing
    # it adds tens of MB to the peak resident set of every run
    code = (
        "import sys, numpy as np, metricmesh as mm\n"
        "mesh, emb = mm.make_icosphere(1)\n"
        "mm.projection.project_points(np.ones((5, 3)), emb.coords, mesh.faces)\n"
        "print('scipy' in sys.modules)"
    )
    assert run_python(code) == "False"


def test_all_names_resolve():
    for name in mm.__all__:
        assert hasattr(mm, name), name


def test_all_has_no_duplicates():
    assert len(mm.__all__) == len(set(mm.__all__))


def test_every_public_name_is_listed():
    public = {
        name for name, value in vars(mm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(mm.__all__), sorted(public - set(mm.__all__))


def test_tape_names_left_the_namespace():
    for name in ("GradientResult", "Tape", "TapeProgram", "TracedScalar",
                 "evaluate_with_gradient", "finite_difference_gradient"):
        assert name not in mm.__all__ and not hasattr(mm, name)
    # the optimizer raises these two; only the tape raises TapeDomainError
    for name in ("TapeError", "TapeNonFiniteError"):
        assert name in mm.__all__


def test_test_only_exports_left_the_namespace():
    # only tests used them; the tests keep what they need as helpers
    for name in ("loss_gradient", "max_feasibility_deficit", "triangle_update", "TapeDomainError"):
        assert name not in mm.__all__ and not hasattr(mm, name)
    assert not hasattr(mm.optimize, "loss_gradient")
    assert not hasattr(mm.geodesic, "triangle_update")
    assert not hasattr(mm.geometry, "max_feasibility_deficit")
    assert not hasattr(mm.geometry, "_max_deficit")


def test_value_type_repeats_are_gone():
    # each repeated a field's shape or the constructor
    for owner, name in (
        (mm.Embedding, "vertex_count"),
        (mm.Embedding, "with_coords"),
        (mm.Dataset, "size"),
        (mm.Dataset, "dim"),
    ):
        assert not hasattr(owner, name), name
