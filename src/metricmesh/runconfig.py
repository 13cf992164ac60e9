"""Run configuration files: flat key=value text, one setting per line.

Blank lines are skipped and ``#`` starts a comment anywhere on a line.
Unknown keys, duplicate keys, non-finite numbers and out-of-range values
are rejected with the offending line number. ``auto`` placeholders defer
quantities that depend on the mesh and metric to run time: the
feasibility margin and length floor scale with the mean edge length, and
the volume target becomes the initial total area.

Example::

    # ellipsoid fit
    mesh = icosphere(2)
    dataset = points.csv
    lambda = 1e-3
    mu_iso = 0.01
    max_iters = 500
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .optimize import LossConfig, StopRule

_TRUE = frozenset(("true", "1", "yes", "on"))
_FALSE = frozenset(("false", "0", "no", "off"))

# key -> (parser kind, default). "auto or float" keys keep the string
# "auto" as their default and resolve later.
_KEYS: dict[str, tuple[str, object]] = {
    "mesh": ("str", None),
    "dataset": ("str", None),
    "lambda": ("float", 1.0),
    "p": ("float", 2.0),
    "mu_dirichlet": ("float", 0.0),
    "mu_volume": ("float", 0.0),
    "mu_iso": ("float", 0.0),
    "v_target": ("auto_float", "auto"),
    "feas_margin": ("auto_float", "auto"),
    "min_length": ("auto_float", "auto"),
    "eta_init": ("float", 1e-2),
    "max_iters": ("int", 5000),
    "grad_tol": ("float", 1e-6),
    "loss_tol": ("float", 0.0),
    "seed": ("int", 0),
    "jitter": ("float", 0.0),
    "freeze_embedding": ("bool", False),
    "outdir": ("str", "out"),
}


@dataclass(frozen=True)
class RunSettings:
    """Parsed and range-checked configuration for one optimization run."""

    mesh: str
    dataset: str | None
    outdir: str
    seed: int
    jitter: float
    freeze_embedding: bool
    eta_init: float
    loss: LossConfig
    stop: StopRule


def _convert(kind: str, key: str, raw: str, line: int):
    if kind == "str":
        return raw
    if kind == "bool":
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"key '{key}' expects a boolean, got {raw!r}", line=line)
    if kind == "auto_float" and raw.lower() == "auto":
        return "auto"
    try:
        if kind == "int":
            return int(raw)
        return float(raw)
    except ValueError:
        noun = "an integer" if kind == "int" else "a number"
        raise ConfigError(f"key '{key}' expects {noun}, got {raw!r}", line=line) from None


def _check_range(key: str, value, line: int) -> None:
    def fail(requirement: str):
        raise ConfigError(f"key '{key}' must be {requirement}, got {value}", line=line)

    if isinstance(value, float) and not math.isfinite(value):
        fail("finite")
    if key in ("lambda", "mu_dirichlet", "mu_volume", "mu_iso", "grad_tol", "loss_tol"):
        if value < 0.0:
            fail(">= 0")
    elif key == "p":
        if value < 1.0:
            fail(">= 1")
    elif key in ("v_target", "feas_margin", "min_length"):
        if value != "auto" and value <= 0.0:
            fail("positive or 'auto'")
    elif key == "eta_init":
        if value <= 0.0:
            fail("positive")
    elif key in ("max_iters", "seed"):
        if value < 0:
            fail(">= 0")
    elif key == "jitter":
        if not 0.0 <= value < 1.0:
            fail("in [0, 1)")


def parse_config(text: str) -> RunSettings:
    """Parse configuration text; see the module docstring for the format."""
    values: dict[str, object] = {k: d for k, (_, d) in _KEYS.items()}
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}'", line=lineno)
        if key in seen:
            raise ConfigError(f"duplicate key '{key}'", line=lineno)
        seen.add(key)
        if not raw:
            raise ConfigError(f"key '{key}' has an empty value", line=lineno)
        value = _convert(_KEYS[key][0], key, raw, lineno)
        _check_range(key, value, lineno)
        values[key] = value

    if values["mesh"] is None:
        raise ConfigError("missing required key 'mesh'")

    loss = LossConfig(
        lambda_=values["lambda"],
        p=values["p"],
        mu_dirichlet=values["mu_dirichlet"],
        mu_volume=values["mu_volume"],
        mu_iso=values["mu_iso"],
        v_target=None if values["v_target"] == "auto" else values["v_target"],
        feas_margin=None if values["feas_margin"] == "auto" else values["feas_margin"],
        min_length=None if values["min_length"] == "auto" else values["min_length"],
    )
    stop = StopRule(
        max_iters=values["max_iters"],
        grad_tol=values["grad_tol"],
        loss_tol=values["loss_tol"],
    )
    return RunSettings(
        mesh=values["mesh"],
        dataset=values["dataset"],
        outdir=values["outdir"],
        seed=values["seed"],
        jitter=values["jitter"],
        freeze_embedding=values["freeze_embedding"],
        eta_init=values["eta_init"],
        loss=loss,
        stop=stop,
    )


def read_config(path) -> RunSettings:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
