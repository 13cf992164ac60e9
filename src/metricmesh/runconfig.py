"""Run configuration files: flat key=value text, one setting per line.

Blank lines are skipped and ``#`` starts a comment anywhere on a line.
Unknown keys, duplicate keys, malformed values and values out of range
are rejected with the offending line number. This module holds only the
file syntax: each key names one field of
:class:`~metricmesh.optimize.LossConfig`,
:class:`~metricmesh.optimize.StopRule` or :class:`RunSettings`, and those
classes own every default and every range. ``auto`` leaves the
feasibility margin, the length floor or the volume target unset;
:func:`~metricmesh.optimize.run_optimization` derives it from the start
metric.

Example::

    # ellipsoid fit
    mesh = icosphere(2)
    dataset = points.csv
    lambda = 1e-3
    mu_iso = 0.01
    max_iters = 500
"""

from __future__ import annotations

import dataclasses
import keyword
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .optimize import LossConfig, StopRule

_TRUE = frozenset(("true", "1", "yes", "on"))
_FALSE = frozenset(("false", "0", "no", "off"))


@dataclass(frozen=True)
class RunSettings:
    """Configuration for one optimization run; the CLI requires ``mesh``."""

    mesh: str | None = None
    dataset: str | None = None
    outdir: str = "out"
    seed: int = 0
    jitter: float = 0.0
    freeze_embedding: bool = False
    eta_init: float = 1e-2
    loss: LossConfig = field(default_factory=LossConfig)
    stop: StopRule = field(default_factory=StopRule)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if not (math.isfinite(self.eta_init) and self.eta_init > 0.0):
            raise ValueError(f"eta_init must be finite and positive, got {self.eta_init}")


# key -> (parser kind, owning class). The field is the key, with a
# trailing underscore where the key is a Python keyword. "auto_float"
# keys read "auto" as None.
_KEYS: dict[str, tuple[str, type]] = {
    "mesh": ("str", RunSettings),
    "dataset": ("str", RunSettings),
    "lambda": ("float", LossConfig),
    "p": ("float", LossConfig),
    "mu_dirichlet": ("float", LossConfig),
    "mu_volume": ("float", LossConfig),
    "mu_iso": ("float", LossConfig),
    "v_target": ("auto_float", LossConfig),
    "feas_margin": ("auto_float", LossConfig),
    "min_length": ("auto_float", LossConfig),
    "eta_init": ("float", RunSettings),
    "max_iters": ("int", StopRule),
    "grad_tol": ("float", StopRule),
    "loss_tol": ("float", StopRule),
    "seed": ("int", RunSettings),
    "jitter": ("float", RunSettings),
    "freeze_embedding": ("bool", RunSettings),
    "outdir": ("str", RunSettings),
}


def _field(key: str) -> str:
    return key + "_" if keyword.iskeyword(key) else key


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
        return None
    try:
        if kind == "int":
            return int(raw)
        return float(raw)
    except ValueError:
        noun = "an integer" if kind == "int" else "a number"
        raise ConfigError(f"key '{key}' expects {noun}, got {raw!r}", line=line) from None


def parse_config(text: str) -> RunSettings:
    """Parse configuration text; see the module docstring for the format."""
    given: dict[type, dict[str, object]] = {LossConfig: {}, StopRule: {}, RunSettings: {}}
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
        kind, owner = _KEYS[key]
        value = {_field(key): _convert(kind, key, raw, lineno)}
        try:
            owner(**value)
        except ValueError as exc:
            raise ConfigError(f"key '{key}': {exc}", line=lineno) from None
        given[owner].update(value)

    if "mesh" not in seen:
        raise ConfigError("missing required key 'mesh'")
    return RunSettings(
        **given[RunSettings], loss=LossConfig(**given[LossConfig]), stop=StopRule(**given[StopRule])
    )


def read_config(path) -> RunSettings:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def settings_echo(settings: RunSettings) -> dict:
    """Every setting by its config key, as a manifest records it."""
    flat = dataclasses.asdict(settings)
    for part in ("loss", "stop"):
        flat.update(flat.pop(part))
    return {name.rstrip("_"): value for name, value in flat.items()}
