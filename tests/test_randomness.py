import math
import random
import statistics

import pytest

from exactspin._scalar import swm_draw
from exactspin.lattice import build_box
from exactspin.randomness import (
    digit_cell,
    digit_split,
    event_stream,
    mix64,
    monotone_inverse,
    randomness_from_key,
)


def test_event_stream_empty_window():
    box = build_box(2, 2)
    assert event_stream(box, 0.0, 0.0, seed=7) == []


def test_event_stream_sorted_and_in_window():
    box = build_box(2, 3)
    evs = event_stream(box, -5.0, 0.0, seed=11)
    times = [e.time for e in evs]
    assert times == sorted(times)
    assert all(-5.0 < t <= 0.0 for t in times)
    assert len(set(times)) == len(times)  # no collisions


def test_event_stream_poisson_mean():
    # single vertex, window length 4: counts over many replicas have the
    # Poisson(4) mean within 3 standard errors
    t = 4.0
    reps = 20000
    counts = [len(event_stream([(0, 0)], -t, 0.0, seed=s)) for s in range(reps)]
    mean = statistics.fmean(counts)
    stderr = math.sqrt(t / reps)
    assert abs(mean - t) < 3 * stderr
    var = statistics.pvariance(counts)
    assert abs(var - t) < 0.1 * t


def test_event_stream_restriction_consistency():
    box = build_box(2, 2)
    for seed in range(25):
        big = event_stream(box, -8.0, 0.0, seed=seed)
        small = event_stream(box, -3.0, 0.0, seed=seed)
        assert small == [e for e in big if e.time > -3.0]
        # spatial restriction: the sub-box's events are the big box's
        sub = build_box(2, 1)
        sub_events = event_stream(sub, -8.0, 0.0, seed=seed)
        assert sub_events == [e for e in big if e.vertex == (0, 0)]


def test_event_stream_fractional_windows_nest():
    big = event_stream([(3, 1)], -2.0, 0.0, seed=5)
    small = event_stream([(3, 1)], -1.25, -0.25, seed=5)
    assert small == [e for e in big if -1.25 < e.time <= -0.25]


def test_event_stream_reseed_changes_only_target_vertex():
    box = build_box(2, 2)
    base = event_stream(box, -4.0, 0.0, seed=3)
    res = event_stream(box, -4.0, 0.0, seed=3, reseed={(0, 0): 777})
    assert [e for e in base if e.vertex != (0, 0)] == [
        e for e in res if e.vertex != (0, 0)
    ]
    assert [e for e in base if e.vertex == (0, 0)] != [
        e for e in res if e.vertex == (0, 0)
    ]


def test_randomness_channels_in_unit_interval():
    for key in range(1000):
        r = randomness_from_key(mix64(key))
        for u in (r.u_primary, r.u_refine, r.u_match):
            assert 0.0 < u < 1.0


def test_b_match_probability():
    eps = 0.3
    n = 200000
    hits = sum(
        randomness_from_key(mix64(i)).b_match(eps) for i in range(n)
    )
    stderr = math.sqrt(eps * (1 - eps) / n)
    assert abs(hits / n - eps) < 3 * stderr


def test_digit_split_basic():
    f, r = digit_split(0.12345, 2)
    assert f == 0.12
    assert abs(r - 0.00345) < 1e-15
    assert 0 <= r < 10**-2


def test_digit_split_negative():
    f, r = digit_split(-0.005, 2)
    assert f == -0.01
    assert abs(r - 0.005) < 1e-15


def test_digit_split_k_zero():
    f, r = digit_split(2.75, 0)
    assert f == 2.0
    assert r == 0.75


def test_digit_split_boundary_floats_exact():
    # 0.3 as a float is strictly below 3/10: exact arithmetic must not
    # round it up
    assert digit_cell(0.3, 1) == 2
    assert digit_cell(0.1 + 0.2, 1) == 3
    assert digit_cell(1.0, 3) == 1000
    assert digit_cell(-1.0, 3) == -1000


def test_digit_split_rejects_large_k():
    with pytest.raises(ValueError):
        digit_split(0.5, 16)


def test_grand_inverse_cdf_uniform():
    inv = monotone_inverse(lambda x: x, 0.3, 0.0, 1.0)
    assert abs(inv - 0.3) < 1e-12


def test_grand_inverse_cdf_point_mass():
    cdf = lambda x: 0.0 if x < 0.5 else 1.0
    for u in (0.1, 0.5, 0.999):
        inv = monotone_inverse(cdf, u, 0.0, 1.0)
        assert abs(inv - 0.5) < 1e-12


def test_grand_inverse_cdf_monotone_in_u():
    cdf = lambda x: x**2
    prev = 0.0
    for i in range(1, 50):
        u = i / 50
        inv = monotone_inverse(cdf, u, 0.0, 1.0)
        assert inv >= prev
        prev = inv


def test_grand_inverse_cdf_respects_domination():
    # F >= G pointwise implies F^{-1}(u) <= G^{-1}(u) for every u
    rng = random.Random(2024)
    for _ in range(200):
        a = rng.uniform(0.3, 3.0)
        b = a + rng.uniform(0.0, 2.0)
        # x^(1/(1+b)) >= x^(1/(1+a)) on [0,1] when b >= a: G dominates F
        F = lambda x, a=a: min(1.0, max(0.0, x)) ** (1.0 / (1.0 + a))
        G = lambda x, b=b: min(1.0, max(0.0, x)) ** (1.0 / (1.0 + b))
        for _ in range(5):
            u = rng.random()
            assert monotone_inverse(G, u, 0.0, 1.0) <= monotone_inverse(
                F, u, 0.0, 1.0
            ) + 1e-15


# The matched refinement is stage 2 of ``swm_draw``: the draw inside the
# digit cell picked by stage 1.  Depth k = 1, so cells have width 0.1.
_TENK = 10.0
_W = 0.1


def _draw(mean, sig, eps, iota):
    return swm_draw(mean, sig, _TENK, _W, eps, iota.u_primary, iota.u_refine, iota.u_match)


def test_matched_refine_uniform_cell_is_law_independent():
    # the flat law (sig = 0) ignores the neighbour mean on both branches
    for key in range(200):
        iota = randomness_from_key(mix64(key))
        assert _draw(-0.7, 0.0, 0.4, iota) == _draw(0.6, 0.0, 0.4, iota)


def test_matched_refine_matching_branch_ignores_law():
    # with b_match == 0 the value is a function of (cell, u_refine) alone:
    # every law that picks the same cell returns the same point
    eps = 0.5
    shared = 0
    for key in range(200):
        iota = randomness_from_key(mix64(key))
        if iota.b_match(eps) == 1:
            continue
        by_cell = {}
        for mean in (-0.9, -0.2, 0.0, 0.3, 0.8):
            for sig in (0.0, 0.2, 0.6, 2.0):
                v, c, matched = _draw(mean, sig, eps, iota)
                assert matched
                shared += c in by_cell
                assert by_cell.setdefault(c, v) == v
    assert shared > 500


def test_matched_refine_matching_frequency():
    eps = 0.25
    n = 100000
    hits = 0
    for key in range(n):
        hits += _draw(0.2, 0.5, eps, randomness_from_key(mix64(key)))[2]
    p = hits / n
    stderr = math.sqrt(eps * (1 - eps) / n)
    assert abs(p - (1 - eps)) < 3 * stderr


def test_matched_refine_preserves_domination():
    # a higher neighbour mean gives a stochastically larger law; with the
    # same randomness the draw is ordered on both branches
    eps = 0.5
    for key in range(500):
        iota = randomness_from_key(mix64(key * 7 + 1))
        v_lo, _, _ = _draw(-0.3, 0.4, eps, iota)
        v_hi, _, _ = _draw(0.25, 0.4, eps, iota)
        assert v_lo <= v_hi
