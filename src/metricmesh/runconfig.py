"""Run configuration files: flat key=value text, one setting per line.

Blank lines are skipped and ``#`` starts a comment anywhere on a line.
Unknown keys, duplicate keys, malformed values and values out of range
are rejected with the offending line number, and so is a byte that is
not UTF-8. This module holds only the file syntax. The keys are the
fields of :class:`RunSettings`, :class:`~metricmesh.optimize.LossConfig`
and :class:`~metricmesh.optimize.StopRule` (``loss`` and ``stop`` aside),
without a keyword's trailing underscore: ``lambda`` sets ``lambda_``.
Each field's type decides how its value is read: text, a yes/no token,
an integer or a number. Those classes own every default and every range.
``auto`` leaves a field typed ``float | None`` unset: the feasibility
margin, the length floor or the volume target, which
:func:`~metricmesh.optimize.run_optimization` derives from the start
metric. There is no step setting: the run sizes its first trial step
to the start gradient.

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
import typing
from dataclasses import dataclass, field

from .errors import ConfigError, read_text
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
    loss: LossConfig = field(default_factory=LossConfig)
    stop: StopRule = field(default_factory=StopRule)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")


def _schema() -> dict[str, tuple[type, str, object]]:
    """config key -> (owning class, field name, field type); see the module docstring."""
    keys = {}
    for owner in (RunSettings, LossConfig, StopRule):
        hints = typing.get_type_hints(owner)
        for f in dataclasses.fields(owner):
            if f.name not in ("loss", "stop"):
                keys[f.name.rstrip("_")] = (owner, f.name, hints[f.name])
    return keys


_SCHEMA = _schema()


def _convert(hint, key: str, raw: str, line: int):
    """``raw`` as a value of the field type ``hint``; ``float | None`` reads ``auto`` as None."""
    if hint in (str, str | None):
        return raw
    if hint is bool:
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"key '{key}' expects a boolean, got {raw!r}", line=line)
    if hint == float | None and raw.lower() == "auto":
        return None
    try:
        return int(raw) if hint is int else float(raw)
    except ValueError:
        noun = "an integer" if hint is int else "a number"
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
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key '{key}'", line=lineno)
        if key in seen:
            raise ConfigError(f"duplicate key '{key}'", line=lineno)
        seen.add(key)
        if not raw:
            raise ConfigError(f"key '{key}' has an empty value", line=lineno)
        owner, name, hint = _SCHEMA[key]
        value = {name: _convert(hint, key, raw, lineno)}
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
    return parse_config(read_text(path, lambda line, why: ConfigError(why, line=line)))


def settings_echo(settings: RunSettings) -> dict:
    """Every setting by its config key, as a manifest records it."""
    parts = {RunSettings: settings, LossConfig: settings.loss, StopRule: settings.stop}
    return {key: getattr(parts[owner], name) for key, (owner, name, _) in _SCHEMA.items()}
