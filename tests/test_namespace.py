"""The ``metricmesh`` namespace: what ``__all__`` lists and what importing loads."""

import os
import subprocess
import sys
import types
from pathlib import Path

import metricmesh as mm

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_the_tape():
    # The tape is a test oracle; neither the package nor the CLI needs it.
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, metricmesh, metricmesh.cli; print('metricmesh.autodiff' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    for name in ("TapeError", "TapeDomainError", "TapeNonFiniteError"):
        assert name in mm.__all__
