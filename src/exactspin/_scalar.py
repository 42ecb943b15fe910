"""Scalar numeric kernels for the square well dynamics.

Plain-Python floating point.  :func:`swm_draw` is the only SWM update:
the engine (:mod:`exactspin.engine`) calls it for both lanes of every
event, so coupled lanes that present the same neighbour mean execute
identical IEEE operations and get bit-identical values.
"""

from __future__ import annotations

import math

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


def norm_ppf(p: float) -> float:
    """Wichura's PPND16 inverse normal CDF (Algorithm AS 241)."""
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r
                    + 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r
                  + 1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r
                + 1.3314166789178437745e2) * r + 3.3871328727963666080e0)
        den = (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r
                    + 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r
                  + 5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r
                + 4.2313330701600911252e1) * r + 1.0)
        return q * num / den
    if q < 0.0:
        r = p
    else:
        r = 1.0 - p
    if r <= 0.0:
        r = 5e-324
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r = r - 1.6
        num = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r
                    + 2.41780725177450611770e-1) * r + 1.27045825245236838258e0) * r
                  + 3.64784832476320460504e0) * r + 5.76949722146069140550e0) * r
                + 4.63033784615654529590e0) * r + 1.42343711074968357734e0)
        den = (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r
                    + 1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r
                  + 6.89767334985100004550e-1) * r + 1.67638483018380384940e0) * r
                + 2.05319162663775882187e0) * r + 1.0)
    else:
        r = r - 5.0
        num = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r
                    + 1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r
                  + 2.96560571828504891230e-1) * r + 1.78482653991729133580e0) * r
                + 5.46378491116411436990e0) * r + 6.65790464350110377720e0)
        den = (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r
                    + 1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r
                  + 1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r
                + 5.99832206555887937690e-1) * r + 1.0)
    val = num / den
    if q < 0.0:
        val = -val
    return val


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
