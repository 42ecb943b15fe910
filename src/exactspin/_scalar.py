"""Scalar numeric kernels for the square well dynamics.

Plain-Python floating point.  :func:`swm_draw` is the only SWM update:
the engine (:mod:`exactspin.engine`) calls it for both lanes of every
event, so coupled lanes that present the same neighbour mean execute
identical IEEE operations and get bit-identical values.  The normal
quantile is the standard library's ``NormalDist().inv_cdf``: Wichura's
Algorithm AS 241 (Applied Statistics 37:477-484, 1988), accurate to
about 1e-16.
"""

from __future__ import annotations

import math
from statistics import NormalDist

_INV_SQRT2 = 0.7071067811865476

# Dyadic snapping grids.  Conditional means and update outputs are
# rounded to exact powers-of-two grids far coarser than erf/quantile
# rounding noise but far finer than any statistical tolerance.  Two
# nearly-coalesced trajectories then see bitwise-equal conditional
# laws (their updates coincide exactly), and distinct means differ by
# at least 2^-30, so the computed update order is reliable: without
# this, last-ulp mean gaps produce order inversions in the coupled
# dynamics.
MEAN_GRID = 1073741824.0  # 2^30
VALUE_GRID = 68719476736.0  # 2^36


def snap(x: float, grid: float) -> float:
    return math.floor(x * grid + 0.5) / grid


def norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z * _INV_SQRT2)


# defined on the open interval (0, 1); swm_draw clamps p into it
norm_ppf = NormalDist().inv_cdf


def cell_floor(x: float, tenk: float, w: float) -> float:
    """Index c of the float-grid cell [c*w, (c+1)*w) containing x.

    Returned as a float; corrected so the grid defined by the rounded
    products c*w is honoured exactly.
    """
    c = math.floor(x * tenk)
    while x < c * w:
        c -= 1.0
    while x >= (c + 1.0) * w:
        c += 1.0
    if c < -tenk:
        c = -tenk
    if c > tenk - 1.0:
        c = tenk - 1.0
    return c


def swm_draw(
    m: float,
    sig: float,
    tenk: float,
    w: float,
    eps: float,
    up: float,
    ur: float,
    um: float,
):
    """Two-stage digit-matching draw from the conditional spin law.

    ``sig`` is the conditional standard deviation (0 encodes the flat
    beta = 0 law).  Returns (value, cell, matched_flag) with cell a
    float-valued integer.  For a fixed randomness triple the map is
    monotone in m, and on the matching branch the value is a function
    of (cell, u_refine) alone.
    """
    m = snap(m, MEAN_GRID)
    # stage 1: inverse-CDF grand coupling picks the digit cell
    if sig == 0.0:
        x1 = -1.0 + 2.0 * up
    else:
        A = norm_cdf((-1.0 - m) / sig)
        B = norm_cdf((1.0 - m) / sig)
        p = A + up * (B - A)
        if p < 1e-300:
            p = 1e-300
        elif p > 1.0 - 1e-16:
            p = 1.0 - 1e-16
        x1 = m + sig * norm_ppf(p)
        if x1 < -1.0:
            x1 = -1.0
        elif x1 > 1.0:
            x1 = 1.0

    c = cell_floor(x1, tenk, w)

    # stage 2: matched refinement inside the cell
    if um >= eps:
        v = snap((c + ur) * w, VALUE_GRID)
        if v > 1.0:
            v = 1.0
        elif v < -1.0:
            v = -1.0
        return v, c, True

    a = c * w
    b = (c + 1.0) * w
    if sig == 0.0:
        fa = 0.0
        span = 1.0
    else:
        fa = norm_cdf((a - m) / sig)
        fb = norm_cdf((b - m) / sig)
        span = fb - fa
        if span <= 0.0:
            # cell so deep in the tail the normal CDF saturates; the
            # conditional is numerically flat there
            v = snap(a + (b - a) * ur, VALUE_GRID)
            return v, c, False
    lo = a
    hi = b
    inv_span = 1.0 / span
    inv_eps = 1.0 / eps
    for _ in range(60):
        # half a VALUE_GRID step: the snapped output is already fixed
        if hi - lo <= 7.275957614183426e-12:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if sig == 0.0:
            fcell = (mid - a) / (b - a)
        else:
            fcell = (norm_cdf((mid - m) / sig) - fa) * inv_span
        g = (fcell - (1.0 - eps) * (mid - a) / (b - a)) * inv_eps
        if g >= ur:
            hi = mid
        else:
            lo = mid
    v = snap(hi, VALUE_GRID)
    if v > 1.0:
        v = 1.0
    elif v < -1.0:
        v = -1.0
    return v, c, False
