"""Scalar corner angles and Heron area, recordable on the autodiff tape.

The library computes these quantities once, vectorized over faces
(``face_corner_angles``, ``face_areas``). These per-triangle versions
accept plain floats or TracedScalars, so a test can record them on the
tape and use the result as an independent reference, for the
closed-form gradient and for the vectorized values.
"""

from metricmesh import autodiff as ad


def interior_angles(la, lb, lc):
    """Cosine-rule angles (alpha, beta, gamma) opposite sides (la, lb, lc)."""
    a2 = la * la
    b2 = lb * lb
    c2 = lc * lc
    alpha = ad.arccos((b2 + c2 - a2) / (2.0 * lb * lc))
    beta = ad.arccos((c2 + a2 - b2) / (2.0 * lc * la))
    gamma = ad.arccos((a2 + b2 - c2) / (2.0 * la * lb))
    return alpha, beta, gamma


def triangle_area(la, lb, lc):
    """Heron's formula in Kahan's stable ordering (largest side first)."""
    # Sort descending by current value; the formula itself is symmetric,
    # the ordering only controls cancellation.
    trip = sorted(((ad.value_of(x), x) for x in (la, lb, lc)), key=lambda t: -t[0])
    a, b, c = trip[0][1], trip[1][1], trip[2][1]
    return 0.25 * ad.sqrt((a + (b + c)) * (c - (a - b)) * ((c + (a - b)) * (a + (b - c))))
