"""Scalar numeric kernels for the square well dynamics.

Plain-Python floating point.  :func:`swm_draw` is the only SWM update:
the engine (:mod:`exactspin.engine`) calls it once per lane, or once
for both lanes when their neighbour sums are equal, since the draw is a
pure function of its arguments; coupled lanes that present the same
neighbour mean get bit-identical values either way.  The normal
quantile is the standard library's ``NormalDist().inv_cdf``: Wichura's
Algorithm AS 241 (Applied Statistics 37:477-484, 1988), accurate to
about 1e-16.

An unmatched draw's value is defined by a bisection, :func:`_bisect`,
which pins the root of the cell's refinement CDF g to 2^-37 in about
31 ``erfc`` calls.  :func:`swm_draw` returns that loop's output
without running it when a certificate proves it: g is monotone on the
cell (one ``exp``); Newton's root x has a bracket [x - d, x + d] whose
two float evaluations clear u_refine by 2E, where E = 2^-53 (9/span +
8)/eps bounds the float error of g if libm ``erfc`` is within 8 ulps;
no point of the loop's lattice, whose float mids drift by at most
N 2^-53 after N halvings, lies within 1e-14 of the bracket; and the
snapped lattice point above it is 2e-3 grid steps clear of a rounding
edge.  Otherwise the loop runs.  The output bits are the loop's either
way.
"""

from __future__ import annotations

import math
from statistics import _normal_dist_inv_cdf

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327

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


# the body of NormalDist().inv_cdf without its check that 0 < p < 1,
# which swm_draw's clamp ensures: the same bits, without a Python frame
_inv_cdf = _normal_dist_inv_cdf

# module-level names for swm_draw's hot path
_floor = math.floor
_erfc = math.erfc
_exp = math.exp
_frexp = math.frexp


def _bisect(m, sig, a, b, width, keep, inv_eps, ur, fa, inv_span):
    """The bisection for the least x in the cell [a, b] with g(x) >= ur.

    Halves [a, b] until it is at most 2^-37 wide and returns its upper
    end.  ``sig == 0`` is the flat law, F(x) = (x - a) / width; then
    ``fa`` is 0 and ``inv_span`` 1.
    """
    lo = a
    hi = b
    for _ in range(60):
        # half a VALUE_GRID step: the snapped output is already fixed
        if hi - lo <= 7.275957614183426e-12:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        x = mid - a
        if sig == 0.0:
            fcell = x / width
        else:
            fcell = (0.5 * _erfc((m - mid) / sig * _INV_SQRT2) - fa) * inv_span
        if (fcell - keep * x / width) * inv_eps >= ur:
            hi = mid
        else:
            lo = mid
    return hi


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

    An unmatched draw on the cell [a, b] returns snap(hi), where ``hi``
    is the end of :func:`_bisect`'s search for the least x with
    g(x) >= u_refine, g(x) = ((F(x) - F(a)) / span - (1 - eps) (x - a)
    / width) / eps, F the normal CDF and span = F(b) - F(a) (for the
    flat law F(x) = (x - a) / width and span = 1).  It gets ``hi``
    without the loop when four steps prove the loop's result:

    1. g, with the computed F(a), 1/span, 1 - eps and 1/eps, is
       monotone on the cell if the density at the end farther from m,
       times 1/span, exceeds (1 - eps)/width.  One ``exp`` checks this
       with a relative margin of 1e-9, far above its rounding error.
       A calibrated depth (:func:`exactspin.cftp.required_digits`)
       guarantees it; an uncalibrated one may fail it.
    2. Three Newton steps from a + u_refine * width give x.
    3. If libm ``erfc`` is within 8 ulps (glibc 2.36's came within 3.1
       of mpmath on 200,000 arguments in [-6, 27]) and span >= 2^-40,
       E = 2^-53 (9/span + 8)/eps bounds |g_float - g| on the cell.
       If g_float(x + d) >= u_refine + 2E and g_float(x - d) <
       u_refine - 2E, every mid outside [x - d, x + d] is decided as g
       itself decides it.
    4. After N halvings, N set by width / 2^-37, each float mid lies
       within N 2^-53 of a lattice point a + j width / 2^N (exactly on
       it for the k = 0 cells).  If no lattice point lies within 1e-14
       of the bracket, the loop ends at the lattice point above it; if
       that point is 2e-3 grid steps clear of a rounding edge of the
       snap, its snap is the loop's output, bit for bit.

    Otherwise the loop runs.
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
        x1 = m + sig * _inv_cdf(p, 0.0, 1.0)
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

    # unmatched: the least point of the bisection's lattice with
    # g >= u_refine, from a certified bracket or else from the loop
    a = c * w
    b = (c + 1.0) * w
    width = b - a
    keep = 1.0 - eps
    inv_eps = 1.0 / eps
    x = a + ur * width
    step = 0.0
    if sig == 0.0:
        # the flat law: F(x) = (x - a) / width, g linear
        fa = 0.0
        inv_span = 1.0
        slope = (1.0 - keep) * inv_eps / width
    else:
        fa = 0.5 * _erfc((m - a) / sig * _INV_SQRT2)
        span = 0.5 * _erfc((m - b) / sig * _INV_SQRT2) - fa
        if span <= 0.0:
            # cell so deep in the tail the normal CDF saturates; the
            # conditional is numerically flat there
            v = _floor((a + width * ur) * VALUE_GRID + 0.5) / VALUE_GRID
            return v, c, False
        inv_span = 1.0 / span
        kw = keep / width
        peak = _INV_SQRT_2PI / sig * inv_span
        z = (m - a if m - a > b - m else b - m) / sig
        slope = 0.0
        # (1) g is monotone on the cell when the density at the end
        # farther from m, times inv_span, exceeds keep / width
        if span > 9.094947017729282e-13 and _exp(-0.5 * z * z) * peak > 1.000000001 * kw:
            # (2) Newton from a + ur * width
            for _ in range(3):
                z = (x - m) / sig
                slope = (_exp(-0.5 * z * z) * peak - kw) * inv_eps
                if not slope > 0.0:
                    break
                step = (((0.5 * _erfc(-z * _INV_SQRT2) - fa) * inv_span
                         - keep * (x - a) / width) * inv_eps - ur) / slope
                x -= step
    hi = None
    if slope > 0.0:
        # (3) every mid outside [ym, yp] is decided as the loop decides it
        err = (9.0 * inv_span + 8.0) * inv_eps * 1.1102230246251565e-16
        # plus 1e-15, a few ulps of x: a flat law's err / slope can be
        # below them, and then x + d would round to x
        d = 3.0 * err / slope + step * step / width + 1e-15
        ym = x - d
        yp = x + d
        if sig == 0.0:
            fm = (ym - a) / width
            fp = (yp - a) / width
        else:
            fm = 0.5 * _erfc((m - ym) / sig * _INV_SQRT2)
            fp = 0.5 * _erfc((m - yp) / sig * _INV_SQRT2)
        if (a < ym and yp < b
                and ((fp - fa) * inv_span - keep * (yp - a) / width) * inv_eps >= ur + 2.0 * err
                and ((fm - fa) * inv_span - keep * (ym - a) / width) * inv_eps < ur - 2.0 * err):
            # (4) the loop's mids lie on the lattice a + j * s, s = width / 2^N;
            # N is certain only when width / 2^N clears 2^-37 on both
            # sides by more than the 2 N 2^-53 drift of the loop's width
            # k = 0: every mid is a multiple of 2^-37, computed exactly
            exact = width == 1.0 and (a == 0.0 or a == -1.0)
            if exact:
                s = 7.275957614183426e-12
            else:
                s = _frexp(width * 137438953472.0)[0]
                s = s * 7.275957614183426e-12 if 0.502 < s < 0.996 else 0.0
            if s > 0.0:
                j = _floor((ym - 1e-14 - a) / s)
                if j == _floor((yp + 1e-14 - a) / s):
                    p = a + (j + 1) * s
                    r = p * VALUE_GRID + 0.5
                    r -= _floor(r)
                    if exact or 0.002 < r < 0.998:
                        hi = p
    if hi is None:
        hi = _bisect(m, sig, a, b, width, keep, inv_eps, ur, fa, inv_span)
    v = _floor(hi * VALUE_GRID + 0.5) / VALUE_GRID
    if v > 1.0:
        v = 1.0
    elif v < -1.0:
        v = -1.0
    return v, c, False
