"""Numeric inner loops: the autodiff tape interpreters and the projection.

The tape interpreters are numba-compiled when numba imports. The
environment variable ``METRICMESH_BACKEND`` picks their path once at
import time:

* unset or ``numba``: use the ``numba.njit`` interpreters when numba
  imports, otherwise fall back silently;
* ``numpy``: force the pure-Python interpreters.

Both interpreter variants stay importable regardless of the flag so they
can be cross-checked against each other. The batch closest-point
projection has one path, in numpy: an exact, bound-pruned search that
gives the same result, bit for bit, as a scan over every face.
"""

from __future__ import annotations

import math
import os

import numpy as np

BACKEND_ENV_VAR = "METRICMESH_BACKEND"

_requested = os.environ.get(BACKEND_ENV_VAR, "numba").strip().lower()

try:
    from numba import njit

    NUMBA_IMPORTABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    NUMBA_IMPORTABLE = False

USING_NUMBA = NUMBA_IMPORTABLE and _requested != "numpy"


def backend_name() -> str:
    """Name of the kernel path the library is routing through."""
    return "numba" if USING_NUMBA else "numpy"


# --------------------------------------------------------------------------
# Tape opcodes. The recorder in autodiff.py emits these; the interpreters
# below replay them. Codes are stable within a process, never serialized.

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
            # IEEE results instead of the raising math-module semantics, so
            # the interpreted and jitted paths agree; callers scan for
            # non-finites and report the offending node
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
    return 0


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
    return 0


tape_forward_py = _tape_forward
tape_backward_py = _tape_backward

if NUMBA_IMPORTABLE:
    # numpy error model: division by zero yields inf/nan exactly like the
    # pure-python interpreters, and the callers' finiteness scans report it
    tape_forward_nb = njit(cache=True, error_model="numpy")(_tape_forward)
    tape_backward_nb = njit(cache=True, error_model="numpy")(_tape_backward)
else:  # pragma: no cover
    tape_forward_nb = None
    tape_backward_nb = None

tape_forward = tape_forward_nb if USING_NUMBA else tape_forward_py
tape_backward = tape_backward_nb if USING_NUMBA else tape_backward_py


# --------------------------------------------------------------------------
# Closest point on a triangle, single and batched over (point, face) pairs.
#
# Classic region decomposition on the barycentric-coordinate plane. Works
# in any ambient dimension since only dot products of edge vectors enter.
# Degenerate (collinear) triangles fall back to the best edge projection.


def _closest_point_single(p, a, b, c):
    """Barycentric coordinates of the point on triangle abc closest to p."""
    n = p.shape[0]
    d1 = 0.0
    d2 = 0.0
    d3 = 0.0
    d4 = 0.0
    d5 = 0.0
    d6 = 0.0
    for k in range(n):
        ab = b[k] - a[k]
        ac = c[k] - a[k]
        ap = p[k] - a[k]
        bp = p[k] - b[k]
        cp = p[k] - c[k]
        d1 += ab * ap
        d2 += ac * ap
        d3 += ab * bp
        d4 += ac * bp
        d5 += ab * cp
        d6 += ac * cp
    if d1 <= 0.0 and d2 <= 0.0:
        return 1.0, 0.0, 0.0
    if d3 >= 0.0 and d4 <= d3:
        return 0.0, 1.0, 0.0
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        v = d1 / (d1 - d3)
        return 1.0 - v, v, 0.0
    if d6 >= 0.0 and d5 <= d6:
        return 0.0, 0.0, 1.0
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        w = d2 / (d2 - d6)
        return 1.0 - w, 0.0, w
    va = d3 * d6 - d4 * d5
    if va <= 0.0 and d4 - d3 >= 0.0 and d5 - d6 >= 0.0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return 0.0, 1.0 - w, w
    denom = va + vb + vc
    if denom > 0.0 and math.isfinite(denom):
        v = vb / denom
        w = vc / denom
        return 1.0 - v - w, v, w
    # Degenerate triangle: best of the three edge projections.
    best_sq = math.inf
    b0 = 1.0
    b1 = 0.0
    b2 = 0.0
    for e in range(3):
        if e == 0:
            u0, u1 = a, b
        elif e == 1:
            u0, u1 = b, c
        else:
            u0, u1 = c, a
        dd = 0.0
        dn = 0.0
        for k in range(n):
            ev = u1[k] - u0[k]
            dd += ev * ev
            dn += ev * (p[k] - u0[k])
        t = 0.0
        if dd > 0.0:
            t = dn / dd
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
        sq = 0.0
        for k in range(n):
            q = u0[k] + t * (u1[k] - u0[k])
            r = p[k] - q
            sq += r * r
        if sq < best_sq:
            best_sq = sq
            if e == 0:
                b0, b1, b2 = 1.0 - t, t, 0.0
            elif e == 1:
                b0, b1, b2 = 0.0, 1.0 - t, t
            else:
                b0, b1, b2 = t, 0.0, 1.0 - t
    return b0, b1, b2


def _closest_points(p, a, b, c):
    """Closest point on triangle (a_i, b_i, c_i) to p_i for every row i.

    Takes (M, n) arrays and returns (barycentric (M, 3), squared distance
    (M,)). Mirrors the branch order of ``_closest_point_single`` through a
    first-true-wins select, and hands interior rows with a degenerate
    denominator to it.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    bp = p - b
    cp = p - c
    d1 = np.einsum("ik,ik->i", ab, ap)
    d2 = np.einsum("ik,ik->i", ac, ap)
    d3 = np.einsum("ik,ik->i", ab, bp)
    d4 = np.einsum("ik,ik->i", ac, bp)
    d5 = np.einsum("ik,ik->i", ab, cp)
    d6 = np.einsum("ik,ik->i", ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d4 * d5
    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = np.where(d1 != d3, d1 / (d1 - d3), 0.0)
        w_ac = np.where(d2 != d6, d2 / (d2 - d6), 0.0)
        den_bc = (d4 - d3) + (d5 - d6)
        w_bc = np.where(den_bc != 0.0, (d4 - d3) / den_bc, 0.0)
        denom = va + vb + vc
        v_in = np.where(denom != 0.0, vb / denom, 0.0)
        w_in = np.where(denom != 0.0, vc / denom, 0.0)
    conds = [
        (d1 <= 0.0) & (d2 <= 0.0),
        (d3 >= 0.0) & (d4 <= d3),
        (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0),
        (d6 >= 0.0) & (d5 <= d6),
        (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0),
        (va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0),
    ]
    ones = np.ones(len(p))
    zeros = np.zeros(len(p))
    b0 = np.select(conds, [ones, zeros, 1.0 - v_ab, zeros, 1.0 - w_ac, zeros], 1.0 - v_in - w_in)
    b1 = np.select(conds, [zeros, ones, v_ab, zeros, zeros, 1.0 - w_bc], v_in)
    b2 = np.select(conds, [zeros, zeros, zeros, ones, w_ac, w_bc], w_in)
    interior = ~(conds[0] | conds[1] | conds[2] | conds[3] | conds[4] | conds[5])
    bad = interior & ~((denom > 0.0) & np.isfinite(denom))
    for i in np.flatnonzero(bad):
        b0[i], b1[i], b2[i] = _closest_point_single(p[i], a[i], b[i], c[i])
    r = p - (b0[:, None] * a + b1[:, None] * b + b2[:, None] * c)
    return np.stack((b0, b1, b2), axis=1), np.einsum("ik,ik->i", r, r)


def _sq_distances(x, y):
    """Squared distances between the broadcast rows of x and y.

    Summed coordinate by coordinate, so a point that equals a corner gets
    exactly that corner's distance to the centroid.
    """
    total = 0.0
    for k in range(x.shape[-1]):
        d = x[..., k] - y[..., k]
        total = total + d * d
    return total


# Points go through the bound stage in blocks of about this many point x
# face (or point x vertex) distances, which keeps the temporaries small.
_BLOCK_PAIRS = 1 << 14

# Relative slack on the pruning bound. It is far above the rounding in
# the distances that enter the bound, so a face that can win (or tie) is
# never dropped; the extra faces it admits cost next to nothing.
_PRUNE_SLACK = 1e-6


def project_points(points, coords, faces):
    """Closest point on the triangle mesh ``coords[faces]`` for every point.

    Returns (face index (N,), barycentric (N, 3), squared distance (N,)),
    the same arrays, bit for bit, as running ``_closest_points`` over every
    face and taking the first minimum: ties go to the lowest face index.

    Exact pruning: the distance ``reach`` from a point to the nearest
    vertex that some face uses bounds its distance to the closest face, so
    a face can win only if its bounding sphere (centroid, farthest corner
    ``r``) comes within ``reach`` of the point, ``|p - c| <= reach + r``.
    The kernel runs only on the (point, face) pairs that pass.

    The kernel's products are of fourth degree in the coordinates, so at
    large or small scale they overflow or underflow long before the
    coordinates do. Points and coordinates are therefore scaled by the
    power of two that brings the mesh to unit magnitude, which is exact,
    and the squared distances are scaled back.
    """
    _, k = np.frexp(np.abs(coords).max(initial=0.0))
    points = np.ldexp(points, -k)
    coords = np.ldexp(coords, -k)
    a = coords[faces[:, 0]]
    b = coords[faces[:, 1]]
    c = coords[faces[:, 2]]
    # an isolated vertex is on no face, so it bounds nothing
    used = coords[np.bincount(faces.ravel(), minlength=coords.shape[0]) > 0]
    centroid = (a + b + c) / 3.0
    radius = np.sqrt(np.maximum.reduce([_sq_distances(x, centroid) for x in (a, b, c)]))
    npts = points.shape[0]
    out_face = np.empty(npts, dtype=np.int64)
    out_bary = np.empty((npts, 3), dtype=np.float64)
    out_sq = np.empty(npts, dtype=np.float64)
    step = max(1, _BLOCK_PAIRS // max(faces.shape[0], used.shape[0]))
    for start in range(0, npts, step):
        block = points[start : start + step]
        reach = np.sqrt(_sq_distances(block[:, None], used).min(axis=1))
        bound = (reach[:, None] + radius[None, :]) * (1.0 + _PRUNE_SLACK)
        pi, fi = np.nonzero(np.sqrt(_sq_distances(block[:, None], centroid)) <= bound)
        bary, sq = _closest_points(block[pi], a[fi], b[fi], c[fi])
        order = np.lexsort((fi, sq, pi))
        best = order[np.flatnonzero(np.diff(pi[order], prepend=-1))]
        rows = slice(start, start + block.shape[0])
        out_face[rows] = fi[best]
        out_bary[rows] = bary[best]
        out_sq[rows] = sq[best]
    return out_face, out_bary, np.ldexp(out_sq, 2 * k)
