import json
import math
import random
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from exactspin import _scalar
from exactspin._scalar import MEAN_GRID, VALUE_GRID, snap, swm_draw
from exactspin.cftp import required_digits
from exactspin.randomness import mix64

from keyed import keyed_randomness
from oracle import swm_depth_scan

norm_ppf = NormalDist().inv_cdf


def norm_cdf(z):
    return 0.5 * math.erfc(-z * 0.7071067811865476)


def _cell_floor(x, tenk, w):
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


def _swm_draw_before(m, sig, tenk, w, eps, up, ur, um, seen):
    """``swm_draw`` as it was written before its body was flattened, with
    ``snap``, ``norm_cdf`` and the cell search as calls and the
    ``sig == 0`` test inside the bisection.  The oracle for the kernel's
    bits; ``seen`` collects the paths each draw took."""
    m = snap(m, MEAN_GRID)
    if sig == 0.0:
        seen.add("flat law")
        x1 = -1.0 + 2.0 * up
    else:
        A = norm_cdf((-1.0 - m) / sig)
        B = norm_cdf((1.0 - m) / sig)
        p = A + up * (B - A)
        if p < 1e-300:
            seen.add("p clamped up")
            p = 1e-300
        elif p > 1.0 - 1e-16:
            seen.add("p clamped down")
            p = 1.0 - 1e-16
        x1 = m + sig * norm_ppf(p)
        if x1 < -1.0:
            x1 = -1.0
        elif x1 > 1.0:
            x1 = 1.0

    c = _cell_floor(x1, tenk, w)

    if um >= eps:
        seen.add("matched")
        v = snap((c + ur) * w, VALUE_GRID)
        if v > 1.0:
            v = 1.0
        elif v < -1.0:
            v = -1.0
        return v, c, True

    seen.add("unmatched")
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
            seen.add("saturated cell")
            v = snap(a + (b - a) * ur, VALUE_GRID)
            return v, c, False
    lo = a
    hi = b
    inv_span = 1.0 / span
    inv_eps = 1.0 / eps
    for _ in range(60):
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


def _oracle_cases(n, rng):
    """n argument tuples for swm_draw: k = 0..4, flat and steep laws,
    means at and inside the spin range, eps near 0 and near 1, and
    uniforms at the ends of (0, 1] and at 0, which push p into both
    clamps."""
    tiny = 0.5 / (1 << 53)  # the smallest unit value of the streams
    for i in range(n):
        k = i % 5
        beta = rng.choice([0.0, 0.0, 0.01, 0.32, 1.0, 5.0, 50.0, 1000.0])
        degree = rng.choice([2, 4, 6])
        sig = 0.0 if beta == 0.0 else 1.0 / math.sqrt(2.0 * beta * degree)
        m = rng.choice([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                        -1.0, 1.0, -0.0, rng.uniform(0.9, 1.0) * rng.choice([-1, 1])])
        eps = rng.choice([rng.random(), 0.1, 1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-12])
        up = rng.choice([rng.random(), rng.random(), 0.0, tiny, 1.0, 1.0 - 2**-53])
        ur = rng.choice([rng.random(), rng.random(), tiny, 1.0])
        um = eps * rng.random() if rng.random() < 0.5 else rng.uniform(eps, 1.0)
        yield m, sig, float(10**k), 10.0**-k, eps, up, ur, um


def test_swm_draw_matches_pre_flattening_oracle_bit_for_bit():
    # the flattened kernel repeats the former body's IEEE operations:
    # value and cell compare by float.hex, on every path of the draw
    seen = set()
    n = 0
    for args in _oracle_cases(100_000, random.Random(2024)):
        v, c, matched = swm_draw(*args)
        v0, c0, matched0 = _swm_draw_before(*args, seen)
        assert (v.hex(), float(c).hex(), type(c), matched) == (
            v0.hex(), float(c0).hex(), type(c0), matched0), args
        n += 1
    assert n == 100_000
    assert seen == {"flat law", "p clamped up", "p clamped down", "matched",
                    "unmatched", "saturated cell"}


def _counting_loop(monkeypatch):
    """Route swm_draw's fallback loop through a counter; returns the count."""
    calls = [0]
    loop = _scalar._bisect

    def counted(*args):
        calls[0] += 1
        return loop(*args)

    monkeypatch.setattr(_scalar, "_bisect", counted)
    return calls


def _assert_oracle_bits(args):
    v, c, matched = swm_draw(*args)
    v0, c0, matched0 = _swm_draw_before(*args, set())
    assert (v.hex(), float(c).hex(), matched) == (v0.hex(), float(c0).hex(), matched0), args


def test_swm_draw_jump_matches_the_loop_at_calibrated_depths(monkeypatch):
    # unmatched draws at the calibrated depth and one deeper, where the
    # certified jump should replace the bisection loop: same bits as the
    # loop, and at least 90% of the draws never run it; beta = 0 is the
    # flat law, calibrated at depth 0
    loop_calls = _counting_loop(monkeypatch)
    rng = random.Random(16)
    n = 0
    for beta in (0.0, 0.05, 0.1, 0.32, 1.0, 2.0):
        for d in (1, 2, 3):
            sig = 0.0 if beta == 0.0 else 1.0 / math.sqrt(4.0 * beta * d)
            for eps in (0.05, 0.1, 0.3):
                k0 = required_digits("swm", beta, d, eps)
                for k in (k0, k0 + 1):
                    for _ in range(1200):
                        m = rng.choice([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                                        -1.0, 1.0])
                        args = (m, sig, float(10**k), 10.0**-k, eps, rng.random(),
                                rng.random(), eps * rng.random())
                        _assert_oracle_bits(args)
                        n += 1
    assert n >= 120_000
    assert loop_calls[0] <= 0.1 * n, loop_calls[0] / n


def _cell_law(m, sig, k, eps, c):
    """Cell c at digit depth k: its left end a, the spacing s = width / 2^N
    of the loop's last level (the first level at most 2^-37 wide), the
    loop's float g on the cell, and the stage-1 uniform that lands at
    the cell's centre."""
    w = 10.0**-k
    a, b = c * w, (c + 1.0) * w
    width = b - a
    fa = 0.5 * math.erfc((m - a) / sig * 0.7071067811865476)
    inv_span = 1.0 / (0.5 * math.erfc((m - b) / sig * 0.7071067811865476) - fa)
    keep, inv_eps = 1.0 - eps, 1.0 / eps

    def g(x):
        fcell = (0.5 * math.erfc((m - x) / sig * 0.7071067811865476) - fa) * inv_span
        return (fcell - keep * (x - a) / width) * inv_eps

    s = width
    while s > 2.0**-37:
        s *= 0.5
    lo, hi = norm_cdf((-1.0 - m) / sig), norm_cdf((1.0 - m) / sig)
    up = (norm_cdf((a + 0.5 * width - m) / sig) - lo) / (hi - lo)
    return a, s, g, up


def _snap_gap(p):
    r = p * VALUE_GRID + 0.5
    r -= math.floor(r)
    return min(r, 1.0 - r)


def test_swm_draw_falls_back_for_each_reason(monkeypatch):
    # u_refine = g(target) places the root where the certificate must
    # decline; each case has a control that takes the jump, and every
    # draw keeps the loop's bits
    loop_calls = _counting_loop(monkeypatch)
    m = snap(0.3, MEAN_GRID)
    beta, d, eps = 1.0, 2, 0.1
    sig = 1.0 / math.sqrt(4.0 * beta * d)
    k = required_digits("swm", beta, d, eps) + 1
    c = 2.0 * 10**(k - 1)  # the cell at x = 0.2
    a, s, g, up = _cell_law(m, sig, k, eps, c)

    def draws_with_loop(ur, **law):
        args = dict(m=m, sig=sig, tenk=float(10**k), w=10.0**-k, eps=eps, up=up,
                    ur=ur, um=0.0)
        args.update(law)
        before = loop_calls[0]
        assert not swm_draw(**args)[2]
        _assert_oracle_bits(tuple(args.values()))
        return loop_calls[0] > before

    j = next(i for i in range(2000, 6000) if _snap_gap(a + i * s) > 0.01)
    # a lattice point inside the bracket; the control sits between points
    assert draws_with_loop(g(a + j * s))
    assert not draws_with_loop(g(a + (j - 0.5) * s))
    # the lattice point above the bracket snaps within 2e-3 grid steps of
    # a rounding edge
    e = next(i for i in range(j, j + 5000) if _snap_gap(a + i * s) < 0.002)
    assert draws_with_loop(g(a + (e - 0.5) * s))
    assert not draws_with_loop(g(a + (e + 0.5) * s))
    # the bracket is not certified: the root sits at an end of the cell
    assert draws_with_loop(1.0)
    assert draws_with_loop(2.0**-54)
    # g is not monotone on [-1, 0) at beta = 2, d = 3, depth 0 (3 is
    # calibrated), though Newton's bracket would certify and clear the
    # lattice; the control is the calibrated cell
    steep = dict(m=snap(-0.52, MEAN_GRID), sig=1.0 / math.sqrt(24.0), tenk=1.0, w=1.0, up=0.23)
    assert draws_with_loop(0.47, **steep)
    assert not draws_with_loop(0.47)


def _draw(mean, beta, k, eps, iota):
    """swm_draw at a neighbour mean under the d = 2 (D = 4) law of beta."""
    sig = 0.0 if beta == 0.0 else 1.0 / math.sqrt(8.0 * beta)
    return swm_draw(mean, sig, float(10**k), 10.0**-k, eps,
                    iota.u_primary, iota.u_refine, iota.u_match)


def quad_cdf(mean, beta, degree, xs):
    """Quadrature oracle for the conditional CDF (no erf involved)."""
    grid = np.linspace(-1.0, 1.0, 200001)
    dens = np.exp(-beta * degree * (grid - mean) ** 2)
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5)])
    cum /= cum[-1]
    return np.interp(xs, grid, cum)


def ks_distance(samples, cdf_vals_at_sorted):
    n = len(samples)
    i = np.arange(1, n + 1)
    return max(
        np.max(np.abs(i / n - cdf_vals_at_sorted)),
        np.max(np.abs((i - 1) / n - cdf_vals_at_sorted)),
    )


def test_norm_ppf_matches_recorded_bits():
    # the quantile must keep the bits of the AS241 transcription the SWM
    # golden trajectories were recorded with, sign of zero included
    table = json.loads((Path(__file__).parent / "norm_ppf_bits.json").read_text())
    del table["about"]
    assert sum(map(len, table.values())) == 288
    for rows in table.values():
        for p, x in rows:
            assert norm_ppf(float.fromhex(p)).hex() == x, p
            # the binding swm_draw calls, without the range check
            assert _scalar._inv_cdf(float.fromhex(p), 0.0, 1.0).hex() == x, p


def test_norm_cdf_ppf_roundtrip():
    # near z = +6 the CDF sits within 1e-9 of 1 and the p -> 1-p
    # cancellation caps the attainable roundtrip accuracy
    for z in np.linspace(-6, 6, 101):
        assert abs(norm_ppf(norm_cdf(z)) - z) < 5e-8


@pytest.mark.parametrize("mean, beta, n", [
    (0.15, 1.0, 100000),
    (0.0, 0.5, 40000),
    (1.0, 1.0, 40000),
    (-0.6, 2.0, 40000),
    (0.3, 1e-9, 40000),
])
def test_swm_draw_matches_quadrature(mean, beta, n):
    # the two-stage draw (digit cell by inverse CDF, then the matched
    # refinement) samples the truncated normal law at its mean: KS
    # against the quadrature oracle, bound 0.01 >= 1.95/sqrt(n), the
    # 0.1% critical value; beta = 1e-9 is the near-flat law
    samples = np.array([_draw(mean, beta, 3, 0.1, keyed_randomness(mix64(i)))[0]
                        for i in range(n)])
    samples.sort()
    oracle = quad_cdf(mean, beta, 4, samples)
    assert ks_distance(samples, oracle) < 0.01


def test_update_monotone_in_neighbors():
    # a larger neighbour mean never gives a smaller value under the same
    # randomness, on either branch
    rng = random.Random(77)
    for trial in range(10000):
        beta = rng.choice([0.25, 0.5, 1.0])
        m_lo = rng.uniform(-1, 1)
        m_hi = rng.uniform(m_lo, 1.0)
        iota = keyed_randomness(mix64(trial * 13 + 1))
        assert _draw(m_lo, beta, 2, 0.15, iota)[0] <= _draw(m_hi, beta, 2, 0.15, iota)[0]


def test_update_matching_branch_consistency_across_configs():
    # fifty neighbour means sharing one matching iota: the value is the
    # canonical composition of (cell, u_refine), the same for every mean
    # that picks the same cell
    rng = random.Random(11)
    k, eps = 3, 0.2
    w = 10.0**-k
    done = 0
    key = 0
    while done < 40:
        key += 1
        iota = keyed_randomness(mix64(key))
        if iota.b_match(eps) == 1:
            continue
        done += 1
        by_cell = {}
        for _ in range(50):
            mean = sum(rng.uniform(-1, 1) for _ in range(4)) / 4
            v, c, matched = _draw(mean, 1.0, k, eps, iota)
            assert matched
            assert v == min(1.0, max(-1.0, snap((c + iota.u_refine) * w, VALUE_GRID)))
            assert by_cell.setdefault(c, v) == v


def test_matching_probability_independent_of_neighbors():
    # P(matched) = 1 - eps at each constant neighbour value, and under
    # shared randomness the flag is the same at both
    eps = 0.3
    n = 20000
    flags = {}
    for bc in (-1.0, 0.5):
        flags[bc] = [_draw(bc, 1.0, 2, eps, keyed_randomness(mix64(i)))[2] for i in range(n)]
        p = sum(flags[bc]) / n
        assert abs(p - (1 - eps)) < 3 * math.sqrt(eps * (1 - eps) / n)
    assert flags[-1.0] == flags[0.5]


def test_matched_flag_uncorrelated_with_cell():
    n = 20000
    cells = np.empty(n)
    matched = np.empty(n)
    for i in range(n):
        _, cells[i], matched[i] = _draw(0.3, 0.5, 2, 0.25, keyed_randomness(mix64(i)))
    corr = np.corrcoef(cells, matched)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n)


def test_calibrate_matching_zero_beta():
    assert required_digits("swm", 0.0, 2, 0.5) == 0


def test_calibrate_matching_frozen_value():
    # regression constant found by the routine itself
    assert required_digits("swm", 1.0, 2, 0.5) == 2


def test_calibrate_matching_monotone_in_eps():
    for beta, d in [(0.5, 2), (1.0, 2), (2.0, 3)]:
        ks = [required_digits("swm", beta, d, eps) for eps in (0.05, 0.1, 0.3, 0.6)]
        assert ks == sorted(ks, reverse=True)


def test_swm_depth_matches_the_cell_scan():
    # the closed form against the scan of every cell, on a grid of depths
    # 0..4 and at the 13 floats around each threshold beta where the
    # scan's depth passes k = 0..4: the threshold is found by walking in
    # ulps from the one the scan's last cell gives
    for beta in (0.0, 0.001, 0.01, 0.05, 0.1, 0.2, 0.32, 0.5, 1.0, 2.0):
        for d in (1, 2, 3):
            for eps in (0.01, 0.05, 0.1, 0.3, 0.9):
                assert required_digits("swm", beta, d, eps) == swm_depth_scan(beta, d, eps)
    for d in (1, 2, 3):
        for eps in (0.05, 0.1, 0.3):
            for k in range(5):
                last = float(np.linspace(-1.0, 1.0, 2 * 10**k + 1)[-2]) + 1.0
                beta = -math.log1p(-eps) / (2 * d * (4.0 - last * last))
                while swm_depth_scan(beta, d, eps) <= k:
                    beta = math.nextafter(beta, math.inf)
                while swm_depth_scan(math.nextafter(beta, 0.0), d, eps) > k:
                    beta = math.nextafter(beta, 0.0)
                probes = [beta]
                for _ in range(6):
                    probes = [math.nextafter(probes[0], 0.0), *probes,
                              math.nextafter(probes[-1], math.inf)]
                for beta in probes:
                    assert required_digits("swm", beta, d, eps) == swm_depth_scan(beta, d, eps)


def test_swm_depth_at_large_beta():
    # depths far past what a scan of every cell can hold in memory: the
    # exact worst drop beta D w (4 - w), w = 10^-k, fits the budget at
    # the returned depth and not one digit shallower; past 15 digits the
    # rule gives up
    d, eps = 2, 0.1
    budget = Fraction(-math.log1p(-eps))

    def drop(beta, k):
        w = Fraction(1, 10**k)
        return Fraction(beta) * 2 * d * w * (4 - w)

    for beta, k in ((1e5, 8), (1e8, 11), (1e12, 15)):
        assert required_digits("swm", beta, d, eps) == k
        assert drop(beta, k) <= budget < drop(beta, k - 1)
    with pytest.raises(RuntimeError):
        required_digits("swm", 1e16, d, eps)


def test_calibrated_depth_certifies_domination():
    # at the calibrated k every cell law dominates (1 - eps) times the
    # uniform law on its cell: the residual CDF
    # (F_cell(x) - (1 - eps) * (x - a) / w) / eps is monotone on the cell.
    # F_cell is the normal CDF renormalised to the cell, since the
    # truncation to [-1, 1] cancels inside it.
    beta, d, eps = 1.0, 2, 0.2
    k = required_digits("swm", beta, d, eps)
    w = 10.0**-k
    sig = 1.0 / math.sqrt(2.0 * beta * 2 * d)
    grid = 64
    for mean in (-1.0, -0.3, 0.5, 1.0):
        def cdf(x):
            return norm_cdf((x - mean) / sig)

        for cell in (-(10**k), -1, 0, 10**k - 1):
            a, b = cell * w, (cell + 1) * w
            fa, fb = cdf(a), cdf(b)
            assert fb > fa
            xs = [a + (b - a) * i / grid for i in range(grid + 1)]
            tilde = [
                ((cdf(x) - fa) / (fb - fa) - (1.0 - eps) * (x - a) / (b - a)) / eps
                for x in xs
            ]
            for lo, hi in zip(tilde, tilde[1:]):
                assert hi >= lo - 1e-12
