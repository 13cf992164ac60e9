"""Reverse-mode scalar autodiff on an explicit operation tape.

Recording builds the computational graph eagerly: every arithmetic
operation on a :class:`TracedScalar` appends one node (opcode, parent
indices, constant payload, value) to its :class:`Tape`. A frozen
:class:`TapeProgram` can then be replayed at fresh inputs and swept
backward for the gradient by the two interpreters in this module, which
are the only code that reads the tape format. The optimizer does not use
the tape, and only the package ``__init__`` imports this module; it
serves as a public API and as the reference that the closed-form
gradient in :mod:`.optimize` is tested against.

Derivative conventions at non-smooth points are fixed and deterministic:
min/max ties route the adjoint to the first argument, and the arccos
derivative at a clamped argument uses the one-sided value at magnitude
``1 - 1e-12``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import TapeDomainError, TapeNonFiniteError

# Tape opcodes. The recorder below emits them and the interpreters replay
# them. Codes are stable within a process, never serialized.

OP_CONST = 0
OP_INPUT = 1
OP_ADD = 2
OP_SUB = 3
OP_MUL = 4
OP_DIV = 5
OP_NEG = 6
OP_SQRT = 7
OP_LOG = 8
OP_EXP = 9
OP_POWC = 10
OP_ACOS = 11
OP_MIN = 12
OP_MAX = 13
OP_ADDC = 14
OP_MULC = 15

OP_NAMES = (
    "const",
    "input",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "sqrt",
    "log",
    "exp",
    "pow",
    "arccos",
    "min",
    "max",
    "add",
    "mul",
)

# arccos derivative is evaluated at arguments clamped to this magnitude so
# the one-sided value at the boundary stays finite.
ACOS_DERIV_CLAMP = 1.0 - 1e-12

# Traced arccos accepts arguments this far beyond [-1, 1] as rounding
# overshoot (clamped); anything larger is a genuine domain error.
ACOS_INPUT_SLACK = 1e-8


class Tape:
    """Append-only record of scalar operations, grown during tracing."""

    __slots__ = ("_op", "_a", "_b", "_aux", "_val", "n_inputs")

    def __init__(self):
        self._op: list[int] = []
        self._a: list[int] = []
        self._b: list[int] = []
        self._aux: list[float] = []
        self._val: list[float] = []
        self.n_inputs = 0

    def __len__(self) -> int:
        return len(self._op)

    def input(self, value: float) -> "TracedScalar":
        """Register the next input slot, initialized with ``value``."""
        slot = self.n_inputs
        self.n_inputs += 1
        return self._emit(OP_INPUT, slot, -1, 0.0, float(value))

    def const(self, value: float) -> "TracedScalar":
        return self._emit(OP_CONST, -1, -1, float(value), float(value))

    def _emit(self, op: int, a: int, b: int, aux: float, value: float) -> "TracedScalar":
        if not math.isfinite(value):
            raise TapeNonFiniteError(
                f"operation '{OP_NAMES[op]}' produced {value!r} at tape node {len(self._op)}"
            )
        self._op.append(op)
        self._a.append(a)
        self._b.append(b)
        self._aux.append(aux)
        self._val.append(value)
        return TracedScalar(self, len(self._op) - 1, value)

    def program(self, root: "TracedScalar") -> "TapeProgram":
        """Freeze the tape into a replayable program rooted at ``root``."""
        if root.tape is not self:
            raise ValueError("root was recorded on a different tape")
        return TapeProgram(
            ops=np.asarray(self._op, dtype=np.int64),
            arg1=np.asarray(self._a, dtype=np.int64),
            arg2=np.asarray(self._b, dtype=np.int64),
            aux=np.asarray(self._aux, dtype=np.float64),
            n_inputs=self.n_inputs,
            root=root.index,
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

    # -- binary arithmetic --------------------------------------------------

    def __add__(self, other):
        t = self.tape
        if isinstance(other, TracedScalar):
            return t._emit(OP_ADD, self.index, other.index, 0.0, self.value + other.value)
        c = float(other)
        return t._emit(OP_ADDC, self.index, -1, c, self.value + c)

    __radd__ = __add__

    def __sub__(self, other):
        t = self.tape
        if isinstance(other, TracedScalar):
            return t._emit(OP_SUB, self.index, other.index, 0.0, self.value - other.value)
        c = float(other)
        return t._emit(OP_ADDC, self.index, -1, -c, self.value - c)

    def __rsub__(self, other):
        neg = self.__neg__()
        c = float(other)
        return self.tape._emit(OP_ADDC, neg.index, -1, c, c + neg.value)

    def __mul__(self, other):
        t = self.tape
        if isinstance(other, TracedScalar):
            return t._emit(OP_MUL, self.index, other.index, 0.0, self.value * other.value)
        c = float(other)
        return t._emit(OP_MULC, self.index, -1, c, self.value * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self.tape
        if isinstance(other, TracedScalar):
            if other.value == 0.0:
                raise TapeDomainError(
                    f"division by zero at tape node {len(t._op)}"
                )
            return t._emit(OP_DIV, self.index, other.index, 0.0, self.value / other.value)
        c = float(other)
        if c == 0.0:
            raise TapeDomainError(f"division by zero at tape node {len(t._op)}")
        return t._emit(OP_MULC, self.index, -1, 1.0 / c, self.value / c)

    def __rtruediv__(self, other):
        num = self.tape.const(float(other))
        if self.value == 0.0:
            raise TapeDomainError(f"division by zero at tape node {len(self.tape._op)}")
        return self.tape._emit(OP_DIV, num.index, self.index, 0.0, num.value / self.value)

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
        return self.tape._emit(OP_POWC, self.index, -1, c, value)

    def __neg__(self):
        return self.tape._emit(OP_NEG, self.index, -1, 0.0, -self.value)

    def __float__(self) -> float:
        return self.value


def _tape_forward(ops, arg1, arg2, aux, inputs, values):
    """Replay a recorded tape front to back, filling ``values``."""
    n = ops.shape[0]
    for i in range(n):
        op = ops[i]
        if op == OP_INPUT:
            v = inputs[arg1[i]]
        elif op == OP_CONST:
            v = aux[i]
        elif op == OP_ADD:
            v = values[arg1[i]] + values[arg2[i]]
        elif op == OP_SUB:
            v = values[arg1[i]] - values[arg2[i]]
        elif op == OP_MUL:
            v = values[arg1[i]] * values[arg2[i]]
        elif op == OP_DIV:
            v = values[arg1[i]] / values[arg2[i]]
        elif op == OP_NEG:
            v = -values[arg1[i]]
        elif op == OP_SQRT:
            # IEEE results instead of the raising math-module semantics:
            # replay never raises mid-sweep, and TapeProgram scans the
            # values afterwards to report the first non-finite node
            u = values[arg1[i]]
            v = math.sqrt(u) if u >= 0.0 else math.nan
        elif op == OP_LOG:
            u = values[arg1[i]]
            if u > 0.0:
                v = math.log(u)
            elif u == 0.0:
                v = -math.inf
            else:
                v = math.nan
        elif op == OP_EXP:
            u = values[arg1[i]]
            v = math.inf if u > 709.782712893384 else math.exp(u)
        elif op == OP_POWC:
            v = values[arg1[i]] ** aux[i]
        elif op == OP_ACOS:
            u = values[arg1[i]]
            if u > 1.0:
                u = 1.0
            elif u < -1.0:
                u = -1.0
            v = math.acos(u)
        elif op == OP_MIN:
            va = values[arg1[i]]
            vb = values[arg2[i]]
            v = va if va <= vb else vb
        elif op == OP_MAX:
            va = values[arg1[i]]
            vb = values[arg2[i]]
            v = va if va >= vb else vb
        elif op == OP_ADDC:
            v = values[arg1[i]] + aux[i]
        else:  # OP_MULC
            v = values[arg1[i]] * aux[i]
        values[i] = v


def _tape_backward(ops, arg1, arg2, aux, values, adj):
    """Reverse sweep accumulating adjoints; ``adj`` arrives seeded.

    Local partials are recomputed from the forward values, so the same
    tape can be replayed at fresh inputs before differentiating. Ties in
    min/max route the whole adjoint to the first argument.
    """
    n = ops.shape[0]
    for i in range(n - 1, -1, -1):
        g = adj[i]
        if g == 0.0:
            continue
        op = ops[i]
        if op == OP_ADD:
            adj[arg1[i]] += g
            adj[arg2[i]] += g
        elif op == OP_SUB:
            adj[arg1[i]] += g
            adj[arg2[i]] -= g
        elif op == OP_MUL:
            adj[arg1[i]] += g * values[arg2[i]]
            adj[arg2[i]] += g * values[arg1[i]]
        elif op == OP_DIV:
            vb = values[arg2[i]]
            adj[arg1[i]] += g / vb
            adj[arg2[i]] -= g * values[i] / vb
        elif op == OP_NEG:
            adj[arg1[i]] -= g
        elif op == OP_SQRT:
            adj[arg1[i]] += g * 0.5 / values[i]
        elif op == OP_LOG:
            adj[arg1[i]] += g / values[arg1[i]]
        elif op == OP_EXP:
            adj[arg1[i]] += g * values[i]
        elif op == OP_POWC:
            c = aux[i]
            adj[arg1[i]] += g * c * values[arg1[i]] ** (c - 1.0)
        elif op == OP_ACOS:
            u = values[arg1[i]]
            if u > ACOS_DERIV_CLAMP:
                u = ACOS_DERIV_CLAMP
            elif u < -ACOS_DERIV_CLAMP:
                u = -ACOS_DERIV_CLAMP
            adj[arg1[i]] -= g / math.sqrt(1.0 - u * u)
        elif op == OP_MIN:
            if values[arg1[i]] <= values[arg2[i]]:
                adj[arg1[i]] += g
            else:
                adj[arg2[i]] += g
        elif op == OP_MAX:
            if values[arg1[i]] >= values[arg2[i]]:
                adj[arg1[i]] += g
            else:
                adj[arg2[i]] += g
        elif op == OP_ADDC:
            adj[arg1[i]] += g
        elif op == OP_MULC:
            adj[arg1[i]] += g * aux[i]
        # OP_CONST / OP_INPUT have no parents.


@dataclass(frozen=True)
class TapeProgram:
    """Frozen tape, replayable at fresh inputs via the interpreters above."""

    ops: np.ndarray
    arg1: np.ndarray
    arg2: np.ndarray
    aux: np.ndarray
    n_inputs: int
    root: int

    def __len__(self) -> int:
        return int(self.ops.shape[0])

    def _forward(self, inputs: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(inputs, dtype=np.float64)
        if x.shape != (self.n_inputs,):
            raise ValueError(f"expected {self.n_inputs} inputs, got shape {x.shape}")
        values = np.empty(len(self), dtype=np.float64)
        with np.errstate(all="ignore"):  # non-finites are scanned and raised below
            _tape_forward(self.ops, self.arg1, self.arg2, self.aux, x, values)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            raise TapeNonFiniteError(
                f"operation '{OP_NAMES[self.ops[i]]}' produced a non-finite value "
                f"at tape node {i} during replay"
            )
        return values

    def value(self, inputs: np.ndarray) -> float:
        return float(self._forward(inputs)[self.root])

    def value_and_grad(self, inputs: np.ndarray) -> tuple[float, np.ndarray]:
        """Forward replay then reverse sweep; gradient is per input slot."""
        values = self._forward(inputs)
        adj = np.zeros(len(self), dtype=np.float64)
        adj[self.root] = 1.0
        with np.errstate(all="ignore"):
            _tape_backward(self.ops, self.arg1, self.arg2, self.aux, values, adj)
        input_nodes = np.flatnonzero(self.ops == OP_INPUT)
        grad = np.zeros(self.n_inputs, dtype=np.float64)
        grad[self.arg1[input_nodes]] = adj[input_nodes]
        if not np.isfinite(grad).all():
            slot = int(np.flatnonzero(~np.isfinite(grad))[0])
            raise TapeNonFiniteError(
                f"gradient is non-finite at input slot {slot}"
            )
        return float(values[self.root]), grad


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
    traced = [tape.input(v) for v in x]
    out = program(traced)
    if not isinstance(out, TracedScalar):
        return GradientResult(float(out), np.zeros(x.shape[0], dtype=np.float64))
    prog = tape.program(out)
    value, grad = prog.value_and_grad(x)
    return GradientResult(value, grad)


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
        return x.tape._emit(OP_SQRT, x.index, -1, 0.0, math.sqrt(x.value))
    return math.sqrt(x)


def log(x):
    if isinstance(x, TracedScalar):
        if x.value <= 0.0:
            raise TapeDomainError(f"log of non-positive value {x.value!r}")
        return x.tape._emit(OP_LOG, x.index, -1, 0.0, math.log(x.value))
    return math.log(x)


def exp(x):
    if isinstance(x, TracedScalar):
        try:
            value = math.exp(x.value)
        except OverflowError:
            raise TapeNonFiniteError(f"exp overflowed at tape node {len(x.tape)}") from None
        return x.tape._emit(OP_EXP, x.index, -1, 0.0, value)
    return math.exp(x)


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
        return x.tape._emit(OP_ACOS, x.index, -1, 0.0, math.acos(u))
    return math.acos(min(1.0, max(-1.0, x)))


def _promote_pair(a, b):
    if isinstance(a, TracedScalar) and not isinstance(b, TracedScalar):
        return a, a.tape.const(float(b))
    if isinstance(b, TracedScalar) and not isinstance(a, TracedScalar):
        return b.tape.const(float(a)), b
    return a, b


def minimum(a, b):
    """min(a, b); on the traced path ties take the first argument."""
    a, b = _promote_pair(a, b)
    if isinstance(a, TracedScalar):
        v = a.value if a.value <= b.value else b.value
        return a.tape._emit(OP_MIN, a.index, b.index, 0.0, v)
    return a if a <= b else b


def maximum(a, b):
    """max(a, b); on the traced path ties take the first argument."""
    a, b = _promote_pair(a, b)
    if isinstance(a, TracedScalar):
        v = a.value if a.value >= b.value else b.value
        return a.tape._emit(OP_MAX, a.index, b.index, 0.0, v)
    return a if a >= b else b


def clamp(x, lo, hi):
    """Composition min(max(x, lo), hi); boundary derivative follows x."""
    return minimum(maximum(x, lo), hi)


def absolute(x):
    """|x| as max(x, -x); the subgradient at 0 is +1 (first argument)."""
    if isinstance(x, TracedScalar):
        return maximum(x, -x)
    return abs(x)


def value_of(x) -> float:
    """Current numeric value of a traced or plain scalar."""
    return x.value if isinstance(x, TracedScalar) else float(x)
