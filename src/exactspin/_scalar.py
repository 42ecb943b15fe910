"""Scalar numeric kernels for the square well dynamics.

Plain-Python floating point.  :func:`swm_draw` is the only SWM update:
the engine (:mod:`exactspin.engine`) calls it once per lane, or once
for both lanes when their neighbour sums are equal, since the draw is a
pure function of its arguments; coupled lanes that present the same
neighbour mean get bit-identical values either way.  The normal
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


# defined on the open interval (0, 1); swm_draw clamps p into it
norm_ppf = NormalDist().inv_cdf

# module-level names for swm_draw's hot path
_floor = math.floor
_erfc = math.erfc


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

    The body is written out flat for speed: the mean and output
    snapping, the normal CDF ``Phi(z) = 0.5 * erfc(-z / sqrt(2))`` and
    the cell search are inline.  A negation is exact in IEEE arithmetic,
    so ``Phi((x - m) / sig)`` is computed as
    ``0.5 * erfc((m - x) / sig * _INV_SQRT2)``, the same bits.
    """
    m = _floor(m * MEAN_GRID + 0.5) / MEAN_GRID
    # stage 1: inverse-CDF grand coupling picks the digit cell
    if sig == 0.0:
        x1 = -1.0 + 2.0 * up
    else:
        A = 0.5 * _erfc((1.0 + m) / sig * _INV_SQRT2)
        B = 0.5 * _erfc((m - 1.0) / sig * _INV_SQRT2)
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

    # the float-grid cell [c*w, (c+1)*w) holding x1, honouring the
    # rounded products c*w exactly
    c = _floor(x1 * tenk)
    while x1 < c * w:
        c -= 1.0
    while x1 >= (c + 1.0) * w:
        c += 1.0
    if c < -tenk:
        c = -tenk
    if c > tenk - 1.0:
        c = tenk - 1.0

    # stage 2: matched refinement inside the cell
    if um >= eps:
        v = _floor((c + ur) * w * VALUE_GRID + 0.5) / VALUE_GRID
        if v > 1.0:
            v = 1.0
        elif v < -1.0:
            v = -1.0
        return v, c, True

    # unmatched: bisect for the least x in the cell with g(x) >= u_refine
    a = c * w
    b = (c + 1.0) * w
    width = b - a
    keep = 1.0 - eps
    inv_eps = 1.0 / eps
    lo = a
    hi = b
    if sig == 0.0:
        for _ in range(60):
            # half a VALUE_GRID step: the snapped output is already fixed
            if hi - lo <= 7.275957614183426e-12:
                break
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            x = mid - a
            if (x / width - keep * x / width) * inv_eps >= ur:
                hi = mid
            else:
                lo = mid
    else:
        fa = 0.5 * _erfc((m - a) / sig * _INV_SQRT2)
        span = 0.5 * _erfc((m - b) / sig * _INV_SQRT2) - fa
        if span <= 0.0:
            # cell so deep in the tail the normal CDF saturates; the
            # conditional is numerically flat there
            v = _floor((a + width * ur) * VALUE_GRID + 0.5) / VALUE_GRID
            return v, c, False
        inv_span = 1.0 / span
        for _ in range(60):
            if hi - lo <= 7.275957614183426e-12:
                break
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            fcell = (0.5 * _erfc((m - mid) / sig * _INV_SQRT2) - fa) * inv_span
            if (fcell - keep * (mid - a) / width) * inv_eps >= ur:
                hi = mid
            else:
                lo = mid
    v = _floor(hi * VALUE_GRID + 0.5) / VALUE_GRID
    if v > 1.0:
        v = 1.0
    elif v < -1.0:
        v = -1.0
    return v, c, False
