import math
import random
import statistics
import warnings

import numpy as np
import pytest

from exactspin import randomness as R
from exactspin._scalar import swm_draw
from exactspin.lattice import build_box
from exactspin.randomness import (
    digit_cell,
    event_stream,
    mix64,
    monotone_inverse,
    vertex_key,
    window_blocks,
)

from keyed import keyed_randomness, ref_unit


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


# Scalar oracle for the array generator: the per-event Python loop it
# replaced, with Python ints and floats throughout.


def _ref_poisson(u):
    """Inverse-CDF Poisson(1) draw from one uniform, term by term."""
    p = math.exp(-1.0)
    cum = p
    k = 0
    while u > cum and k <= 60:
        k += 1
        p /= k
        cum += p
    return k


def _ref_block_events(vkeys, first_block, last_block, t_start, t_end):
    out = []
    for si, vkey in enumerate(vkeys):
        for block in range(first_block, last_block + 1):
            bkey = mix64(vkey ^ (block * 2 + 11))
            count = _ref_poisson(ref_unit(mix64(bkey ^ 0x1)))
            for slot in range(count):
                t = -(block + ref_unit(mix64(bkey ^ (0x2 + ((slot + 1) << 8)))))
                if t_start < t <= t_end:
                    key = mix64(vkey ^ ((block << 8) | slot))
                    r = keyed_randomness(key)
                    out.append((t, si, key, r.u_primary, r.u_refine, r.u_match))
    return out


def _exact(rows):
    """Rows of floats and ints, floats as float.hex, so == is bitwise."""
    return [tuple(x.hex() if isinstance(x, float) else x for x in r) for r in rows]


def test_array_mix_matches_mix64():
    rng = random.Random(6)
    xs = [0, 1 << 63, (1 << 64) - 1] + [rng.getrandbits(64) for _ in range(1000)]
    mixed = R._mix(np.array(xs, np.uint64))
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [mix64(x) for x in xs]
    units = R._unit(np.array(xs, np.uint64)).tolist()
    assert [u.hex() for u in units] == [ref_unit(x).hex() for x in xs]
    assert units[2] == 1.0  # the top 53 bits all set round up


@pytest.mark.parametrize(
    "vkeys, t_start, t_end",
    [
        ([vertex_key(3, (i, j)) for i in range(3) for j in range(3)], -7.25, -2.5),
        ([vertex_key(0, (0, 0)), vertex_key(0, (1, 0))], -16.0, -0.3),
        ([vertex_key(1, (2,))], -1.5, -1.5),
        ([vertex_key(1, (2,)), vertex_key(2, (2,))], -3.0, -3.0),
        ([vertex_key(4, (0,))], 0.0, 0.0),
        ([vertex_key(5, (i,)) for i in range(4)], -(2.0**20) - 6.75, -(2.0**20) + 0.5),
        ([(1 << 64) - 1, 1 << 63, (1 << 63) + 12345], -9.0, 0.0),
    ],
    ids=["fractional", "fractional-end", "empty-fraction", "empty-int", "empty-zero",
         "block-2^20", "keys-2^63"],
)
def test_block_events_match_scalar_oracle(vkeys, t_start, t_end):
    blocks = window_blocks(t_start, t_end)
    arrays = R.block_events(vkeys, *blocks, t_start, t_end)
    assert [a.dtype for a in arrays] == [
        np.float64, np.int64, np.uint64, np.float64, np.float64, np.float64
    ]
    got = list(zip(*(a.tolist() for a in arrays)))
    ref = _ref_block_events(vkeys, *blocks, t_start, t_end)
    assert _exact(got) == _exact(ref)
    if t_start < t_end:
        assert ref
        assert any(row[2] >= 1 << 63 for row in ref)


def test_event_stream_with_reseed_matches_scalar_oracle():
    box = build_box(2, 2)
    verts = box.vertices()
    reseed = {(0, 0): 777, (1, -1): (1 << 64) - 5}
    vkeys = [vertex_key(reseed.get(v, 9), v) for v in verts]
    ref = sorted(_ref_block_events(vkeys, *window_blocks(-6.5, -0.25), -6.5, -0.25),
                 key=lambda r: r[0])
    evs = event_stream(box, -6.5, -0.25, seed=9, reseed=reseed)
    got = [(e.time, verts.index(e.vertex), e.randomness.key, e.randomness.u_primary,
            e.randomness.u_refine, e.randomness.u_match) for e in evs]
    assert _exact(got) == _exact(ref)


def test_poisson_counts_at_table_boundaries():
    us = [math.nextafter(0.0, 1.0), 1.0, math.nextafter(1.0, 0.0)]
    for c in R._POISSON_CDF.tolist():
        us += [math.nextafter(c, 0.0), c, math.nextafter(c, 2.0)]
    counts = R._poisson_counts(np.array(us)).tolist()
    assert counts == [_ref_poisson(u) for u in us]
    # the summed cdf reaches 1.0 at k = 18, so u = 1.0 draws 18; only a
    # u above every entry would reach the cap of 61
    assert counts[1] == 18
    assert R._poisson_counts(np.array([math.nextafter(1.0, 2.0)])).tolist() == [61]
    assert _ref_poisson(math.nextafter(1.0, 2.0)) == 61


def test_event_stream_yields_python_values():
    # numpy scalars must not reach the object level: a numpy uint64 key
    # makes mix64 raise an overflow warning in edge_uniform
    box = build_box(2, 3)
    evs = event_stream(box, -5.5, 0.0, seed=12, reseed={(0, 0): (1 << 64) - 1})
    big = [e for e in evs if e.randomness.key >= 1 << 63]
    assert big
    for e in evs:
        r = e.randomness
        assert type(e.time) is float
        assert type(r.key) is int
        assert all(type(u) is float for u in (r.u_primary, r.u_refine, r.u_match))
        assert all(type(c) is int for c in e.vertex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in big:
            assert 0.0 < e.randomness.edge_uniform(3) <= 1.0


def test_keyed_randomness_matches_event_stream():
    # the test-side scalar formula gives every event its stream randomness
    evs = event_stream(build_box(2, 3), -6.0, 0.0, seed=21)
    assert any(e.randomness.key >= 1 << 63 for e in evs)
    for e in evs:
        assert keyed_randomness(e.randomness.key) == e.randomness


def test_randomness_channels_in_unit_interval():
    evs = event_stream(build_box(2, 4), -24.0, 0.0, seed=8)
    assert len(evs) > 1000
    for e in evs:
        r = e.randomness
        for u in (r.u_primary, r.u_refine, r.u_match):
            assert 0.0 < u < 1.0


def test_b_match_probability():
    eps = 0.3
    n = 200000
    hits = sum(
        keyed_randomness(mix64(i)).b_match(eps) for i in range(n)
    )
    stderr = math.sqrt(eps * (1 - eps) / n)
    assert abs(hits / n - eps) < 3 * stderr


def test_digit_split_basic():
    # digit_cell splits x after its k-th decimal digit: 0.12345 -> 12
    assert digit_cell(0.12345, 2) == 12
    assert 0.0 <= 0.12345 - digit_cell(0.12345, 2) * 10.0**-2 < 10.0**-2


def test_digit_split_negative():
    # floor, not truncation: -0.005 lies in the cell [-0.01, 0)
    assert digit_cell(-0.005, 2) == -1


def test_digit_split_k_zero():
    assert digit_cell(2.75, 0) == 2


def test_digit_split_boundary_floats_exact():
    # 0.3 as a float is strictly below 3/10: exact arithmetic must not
    # round it up
    assert digit_cell(0.3, 1) == 2
    assert digit_cell(0.1 + 0.2, 1) == 3
    assert digit_cell(1.0, 3) == 1000
    assert digit_cell(-1.0, 3) == -1000


def test_digit_split_rejects_large_k():
    with pytest.raises(ValueError):
        digit_cell(0.5, 16)


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
        iota = keyed_randomness(mix64(key))
        assert _draw(-0.7, 0.0, 0.4, iota) == _draw(0.6, 0.0, 0.4, iota)


def test_matched_refine_matching_branch_ignores_law():
    # with b_match == 0 the value is a function of (cell, u_refine) alone:
    # every law that picks the same cell returns the same point
    eps = 0.5
    shared = 0
    for key in range(200):
        iota = keyed_randomness(mix64(key))
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
        hits += _draw(0.2, 0.5, eps, keyed_randomness(mix64(key)))[2]
    p = hits / n
    stderr = math.sqrt(eps * (1 - eps) / n)
    assert abs(p - (1 - eps)) < 3 * stderr


def test_matched_refine_preserves_domination():
    # a higher neighbour mean gives a stochastically larger law; with the
    # same randomness the draw is ordered on both branches
    eps = 0.5
    for key in range(500):
        iota = keyed_randomness(mix64(key * 7 + 1))
        v_lo, _, _ = _draw(-0.3, 0.4, eps, iota)
        v_hi, _, _ = _draw(0.25, 0.4, eps, iota)
        assert v_lo <= v_hi
