"""Reverse-mode scalar autodiff on a tape of recorded partials.

Recording is eager: every operation on a :class:`TracedScalar` appends
one node to its :class:`Tape`, holding the indices of the node's parents
and its local partial derivative with respect to each, computed from the
recorded values on the spot. :meth:`Tape.program` freezes the record and
:meth:`TapeProgram.value_and_grad` sweeps it once in reverse, for the
gradient at the recorded point. To differentiate at another point,
record again.

No module of the package imports this one, and ``import metricmesh``
does not load it. It is the reference that the tests check the
closed-form gradient in :mod:`.optimize` against.

Recording raises :class:`TapeDomainError` for an argument outside an
operation's domain and :class:`TapeNonFiniteError` for a value that
overflows. A partial with a pole at the recorded point, such as that of
``sqrt`` at 0, is recorded as ``inf``; the sweep then raises
:class:`TapeNonFiniteError` for the gradient it reaches.

Derivative conventions at non-smooth points are fixed and deterministic:
|x| takes the subgradient +1 at 0, and the arccos derivative at a
clamped argument uses the one-sided value at magnitude ``1 - 1e-12``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import TapeDomainError, TapeNonFiniteError

# arccos derivative is evaluated at arguments clamped to this magnitude so
# the one-sided value at the boundary stays finite.
ACOS_DERIV_CLAMP = 1.0 - 1e-12

# Traced arccos accepts arguments this far beyond [-1, 1] as rounding
# overshoot (clamped); anything larger is a genuine domain error.
ACOS_INPUT_SLACK = 1e-8


class Tape:
    """Append-only record of scalar operations, grown during tracing."""

    __slots__ = ("_parents", "_partials", "_inputs")

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._partials: list[tuple[float, ...]] = []
        self._inputs: list[int] = []

    def __len__(self) -> int:
        return len(self._parents)

    def input(self, value: float) -> "TracedScalar":
        """Register the next input slot, initialized with ``value``."""
        x = self._emit("input", float(value))
        self._inputs.append(x.index)
        return x

    def const(self, value: float) -> "TracedScalar":
        return self._emit("const", float(value))

    def _emit(self, name: str, value: float, parents=(), partials=()) -> "TracedScalar":
        if not math.isfinite(value):
            raise TapeNonFiniteError(
                f"operation '{name}' produced {value!r} at tape node {len(self)}"
            )
        self._parents.append(parents)
        self._partials.append(partials)
        return TracedScalar(self, len(self._parents) - 1, value)

    def program(self, root: "TracedScalar") -> "TapeProgram":
        """Freeze the record, to be differentiated at ``root``."""
        if root.tape is not self:
            raise ValueError("root was recorded on a different tape")
        return TapeProgram(
            parents=tuple(self._parents),
            partials=tuple(self._partials),
            input_nodes=tuple(self._inputs),
            root=root.index,
            value=root.value,
        )


class TracedScalar:
    """One scalar node on a tape; supports ordinary arithmetic operators."""

    __slots__ = ("tape", "index", "value")

    def __init__(self, tape: Tape, index: int, value: float):
        self.tape = tape
        self.index = index
        self.value = value

    def __repr__(self) -> str:
        return f"TracedScalar(node={self.index}, value={self.value!r})"

    def _unary(self, name: str, value: float, partial: float) -> "TracedScalar":
        return self.tape._emit(name, value, (self.index,), (partial,))

    def _binary(self, name, other, value, partial, other_partial) -> "TracedScalar":
        return self.tape._emit(
            name, value, (self.index, other.index), (partial, other_partial)
        )

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TracedScalar):
            return self._binary("add", other, self.value + other.value, 1.0, 1.0)
        return self._unary("add", self.value + float(other), 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TracedScalar):
            return self._binary("sub", other, self.value - other.value, 1.0, -1.0)
        return self._unary("sub", self.value - float(other), 1.0)

    def __rsub__(self, other):
        return self._unary("sub", float(other) - self.value, -1.0)

    def __mul__(self, other):
        if isinstance(other, TracedScalar):
            return self._binary("mul", other, self.value * other.value, other.value, self.value)
        c = float(other)
        return self._unary("mul", self.value * c, c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = value_of(other)
        if b == 0.0:
            raise TapeDomainError(f"division by zero at tape node {len(self.tape)}")
        value = self.value / b
        if isinstance(other, TracedScalar):
            return self._binary("div", other, value, 1.0 / b, -value / b)
        return self._unary("div", value, 1.0 / b)

    def __rtruediv__(self, other):
        if self.value == 0.0:
            raise TapeDomainError(f"division by zero at tape node {len(self.tape)}")
        value = float(other) / self.value
        return self._unary("div", value, -value / self.value)

    def __pow__(self, exponent):
        if isinstance(exponent, TracedScalar):
            raise TypeError("pow supports constant exponents only")
        c = float(exponent)
        v = self.value
        if v < 0.0 and c != round(c):
            raise TapeDomainError(
                f"pow of negative base {v!r} with non-integer exponent {c!r}"
            )
        if v == 0.0 and c < 0.0:
            raise TapeDomainError("pow of zero base with negative exponent")
        try:
            value = v**c
        except OverflowError:
            raise TapeNonFiniteError(f"pow overflowed at tape node {len(self.tape)}") from None
        try:
            partial = c * v ** (c - 1.0)
        except (ZeroDivisionError, OverflowError):  # a pole, as of x**0.5 at 0
            partial = math.inf
        return self._unary("pow", value, partial)

    def __neg__(self):
        return self._unary("neg", -self.value, -1.0)

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class TapeProgram:
    """A frozen record: each node's parents and partials, and the root's value."""

    parents: tuple[tuple[int, ...], ...]
    partials: tuple[tuple[float, ...], ...]
    input_nodes: tuple[int, ...]
    root: int
    value: float

    def __len__(self) -> int:
        return len(self.parents)

    @property
    def n_inputs(self) -> int:
        return len(self.input_nodes)

    def value_and_grad(self) -> tuple[float, np.ndarray]:
        """Root value and its gradient per input slot, by one reverse sweep.

        Raises TapeNonFiniteError when a gradient component is not finite,
        as when the sweep reaches a partial recorded at its pole.
        """
        adj = [0.0] * len(self.parents)
        adj[self.root] = 1.0
        for i in range(self.root, -1, -1):
            g = adj[i]
            if g != 0.0:
                for j, d in zip(self.parents[i], self.partials[i]):
                    adj[j] += g * d
        grad = np.array([adj[i] for i in self.input_nodes], dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(grad))
        if bad.size:
            raise TapeNonFiniteError(f"gradient is non-finite at input slot {int(bad[0])}")
        return self.value, grad


@dataclass(frozen=True)
class GradientResult:
    value: float
    gradient: np.ndarray


def evaluate_with_gradient(
    program: Callable[[list[TracedScalar]], TracedScalar],
    inputs: Sequence[float],
) -> GradientResult:
    """Record ``program`` at ``inputs`` and return value plus full gradient.

    The tape is private to this call and discarded afterward. ``program``
    receives one TracedScalar per input and must return the scalar output;
    a plain float return means the output ignored every input, giving a
    zero gradient.
    """
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    tape = Tape()
    out = program([tape.input(v) for v in x])
    if not isinstance(out, TracedScalar):
        return GradientResult(float(out), np.zeros(x.shape[0], dtype=np.float64))
    return GradientResult(*tape.program(out).value_and_grad())


def finite_difference_gradient(
    function: Callable[[np.ndarray], float],
    inputs: Sequence[float],
    step: float | None = None,
) -> np.ndarray:
    """Central finite differences, the independent oracle for the tape.

    ``step`` defaults to ``1e-6 * max(1, |x|_inf)``. Non-finite samples
    are collected and reported per coordinate instead of propagating NaN.
    """
    x = np.asarray(inputs, dtype=np.float64).copy()
    if step is None:
        step = 1e-6 * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    grad = np.empty_like(x)
    bad: list[str] = []
    for i in range(x.shape[0]):
        xi = x[i]
        x[i] = xi + step
        f_plus = float(function(x))
        x[i] = xi - step
        f_minus = float(function(x))
        x[i] = xi
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            bad.append(f"coordinate {i}: f(+h)={f_plus!r}, f(-h)={f_minus!r}")
            grad[i] = math.nan
        else:
            grad[i] = (f_plus - f_minus) / (2.0 * step)
    if bad:
        raise ValueError(
            "non-finite finite-difference samples:\n  " + "\n  ".join(bad)
        )
    return grad


# --------------------------------------------------------------------------
# Generic scalar math: dispatch on TracedScalar vs plain numbers so one
# formula can be evaluated on floats or recorded on a tape.


def sqrt(x):
    if isinstance(x, TracedScalar):
        if x.value < 0.0:
            raise TapeDomainError(f"sqrt of negative value {x.value!r}")
        value = math.sqrt(x.value)
        return x._unary("sqrt", value, 0.5 / value if value else math.inf)
    return math.sqrt(x)


def log(x):
    if isinstance(x, TracedScalar):
        if x.value <= 0.0:
            raise TapeDomainError(f"log of non-positive value {x.value!r}")
        return x._unary("log", math.log(x.value), 1.0 / x.value)
    return math.log(x)


def arccos(x):
    """arccos with the argument clamped to [-1, 1].

    Clamping guards rounding overshoot from the cosine rule; arguments
    beyond the slack are rejected as domain errors rather than silently
    clamped.
    """
    if isinstance(x, TracedScalar):
        u = x.value
        if abs(u) > 1.0 + ACOS_INPUT_SLACK:
            raise TapeDomainError(f"arccos argument {u!r} outside clamp slack")
        u = min(1.0, max(-1.0, u))
        w = min(ACOS_DERIV_CLAMP, max(-ACOS_DERIV_CLAMP, u))
        return x._unary("arccos", math.acos(u), -1.0 / math.sqrt(1.0 - w * w))
    return math.acos(min(1.0, max(-1.0, x)))


def absolute(x):
    """|x|; on the traced path the subgradient at 0 is +1."""
    if isinstance(x, TracedScalar):
        return x._unary("abs", abs(x.value), 1.0 if x.value >= 0.0 else -1.0)
    return abs(x)


def value_of(x) -> float:
    """Current numeric value of a traced or plain scalar."""
    return x.value if isinstance(x, TracedScalar) else float(x)
