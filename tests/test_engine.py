import math

import numpy as np
import pytest

from exactspin.cftp import MODEL_SWM, required_digits
from exactspin.engine import (
    MonotonicityError,
    SwmLattice,
    sorted_events,
    swm_sandwich,
)
from exactspin.lattice import build_box
from exactspin.randomness import event_stream
from exactspin.swm import SwmField, constant_field, swm_update


def test_engine_stream_matches_object_stream():
    box = build_box(2, 3)
    lat = SwmLattice(box.vertices())
    for seed in (0, 1, 12345):
        times, sidx, keys, up, ur, um = sorted_events(lat.vkeys(seed), -6.0, 0.0)
        evs = event_stream(box, -6.0, 0.0, seed)
        assert len(evs) == times.size
        for i, e in enumerate(evs):
            assert e.time == times[i]
            assert e.vertex == lat.vertices[sidx[i]]
            assert e.randomness.key == keys[i]
            assert e.randomness.u_primary == up[i]
            assert e.randomness.u_refine == ur[i]
            assert e.randomness.u_match == um[i]


def test_engine_stream_reseed_matches():
    box = build_box(2, 2)
    lat = SwmLattice(box.vertices())
    reseed = {(0, 0): 999, (1, 1): 1000}
    times, sidx, _, up, _, _ = sorted_events(lat.vkeys(3, reseed), -4.0, 0.0)
    evs = event_stream(box, -4.0, 0.0, 3, reseed=reseed)
    assert [e.time for e in evs] == list(times)
    assert [e.randomness.u_primary for e in evs] == list(up)


def test_sandwich_trivial_window():
    box = build_box(2, 2)
    lat = SwmLattice(box.vertices())
    res = swm_sandwich(lat, beta=1.0, k=3, eps=0.1, t_start=0.0, t_end=0.0, seed=1)
    assert np.all(res.top == 1.0)
    assert np.all(res.bot == -1.0)


def test_sandwich_order_always_held():
    box = build_box(2, 3)
    lat = SwmLattice(box.vertices())
    for seed in range(30):
        res = swm_sandwich(lat, beta=0.5, k=2, eps=0.15, t_start=-8.0, t_end=0.0, seed=seed)
        assert np.all(res.top >= res.bot)


def test_sandwich_single_update_matches_swm_update():
    # the engine's first update at a site equals the object-level op
    box = build_box(2, 2)
    lat = SwmLattice(box.vertices())
    seed = 77
    evs = event_stream(box, -2.0, 0.0, seed)
    assert evs
    res = swm_sandwich(lat, beta=1.0, k=3, eps=0.1, t_start=-2.0, t_end=evs[0].time, seed=seed)
    first = evs[0]
    field = SwmField(
        box,
        {v: 1.0 for v in box.vertices()},
        {v: 1.0 for v in box.exterior_boundary()},
        beta=1.0,
    )
    expect = swm_update(field, first.vertex, first.randomness, k=3, eps=0.1)
    assert res.top[lat.index[first.vertex]] == expect


def test_evolve_single_trajectory_stays_in_range():
    box = build_box(2, 3)
    lat = SwmLattice(box.vertices())
    init = np.zeros(lat.size)
    # a single trajectory is a sandwich with both lanes started equal:
    # coinciding inputs give bitwise-equal updates, so the lanes stay equal
    res = swm_sandwich(lat, 0.5, 2, 0.15, -10.0, 0.0, 5, bc_top=0.0, bc_bot=0.0,
                       init_top=init, init_bot=init)
    assert np.array_equal(res.top, res.bot)
    assert np.all(np.abs(res.top) <= 1.0)
    # deterministic in the seed
    res2 = swm_sandwich(lat, 0.5, 2, 0.15, -10.0, 0.0, 5, bc_top=0.0, bc_bot=0.0,
                        init_top=init, init_bot=init)
    assert np.array_equal(res.top, res2.top)


def test_evolve_respects_boundary_map():
    box = build_box(2, 2)
    lat = SwmLattice(box.vertices())
    init = np.zeros(lat.size)
    zmap = {y: 0.9 for y in box.exterior_boundary()}
    res = swm_sandwich(lat, 2.0, 2, 0.15, -30.0, 0.0, 9, bc_top=zmap, bc_bot=zmap,
                       init_top=init, init_bot=init)
    assert np.array_equal(res.top, res.bot)
    # strong positive boundary pulls the field up
    assert res.top.mean() > 0.2


def _evolve_pair(hi: SwmField, lo: SwmField, t_start, t_end, seed):
    """Both fields run through the window's events as the two lanes of
    one sandwich, under the fields' (shared) boundary map."""
    lat = SwmLattice(hi.region.vertices())
    k = required_digits(MODEL_SWM, hi.beta, hi.region.d, 0.1)
    res = swm_sandwich(
        lat, hi.beta, k, 0.1, t_start, t_end, seed,
        bc_top=hi.boundary, bc_bot=lo.boundary,
        init_top=np.array([hi.values[v] for v in lat.vertices]),
        init_bot=np.array([lo.values[v] for v in lat.vertices]),
    )
    return ({v: float(res.top[lat.index[v]]) for v in lat.vertices},
            {v: float(res.bot[lat.index[v]]) for v in lat.vertices})


def test_equal_lanes_empty_window_is_identity():
    region = build_box(2, 2)
    field = constant_field(region, beta=0.5, value=0.25, bc=0.0)
    top, bot = _evolve_pair(field, field, 0.0, 0.0, seed=5)
    assert top == bot == field.values


def test_equal_lanes_single_event_changes_one_site():
    region = build_box(2, 2)
    field = constant_field(region, beta=0.5, value=0.0, bc=0.0)
    evs = event_stream(region, -4.0, 0.0, seed=3)
    first = evs[0]
    top, bot = _evolve_pair(field, field, -4.0, first.time, seed=3)
    assert top == bot
    changed = [v for v in region.vertices() if top[v] != field.values[v]]
    assert changed == [first.vertex]


def test_lanes_monotone_in_initial():
    import random

    region = build_box(2, 2)
    rng = random.Random(1)
    for seed in range(200):
        lo_vals = {v: rng.uniform(-1, 1) for v in region.vertices()}
        hi_vals = {v: rng.uniform(lo_vals[v], 1.0) for v in region.vertices()}
        bmap = {y: 0.0 for y in region.exterior_boundary()}
        lo = SwmField(region, lo_vals, bmap, 0.5)
        hi = SwmField(region, hi_vals, bmap, 0.5)
        out_hi, out_lo = _evolve_pair(hi, lo, -2.0, 0.0, seed)
        for v in region.vertices():
            assert out_lo[v] <= out_hi[v]


def test_mixed_monitoring_beta_zero_couples():
    # at beta = 0 every update couples a site exactly, so after a long
    # padding the core agrees through the slab
    box = build_box(2, 8)
    lat = SwmLattice(box.vertices())
    core = lat.mask(lambda v: max(abs(v[0]), abs(v[1])) < 4)
    got = 0
    trials = 10
    for seed in range(trials):
        res = swm_sandwich(
            lat, beta=0.0, k=0, eps=0.5, t_start=-14.0, t_end=0.0, seed=seed,
            core_mask=core, slab_lo=-4.0,
        )
        got += res.mixed_ok
    assert got >= 8


def test_mixed_monitoring_fails_without_padding():
    # zero padding: the core still carries the initial disagreement
    box = build_box(2, 4)
    lat = SwmLattice(box.vertices())
    core = lat.mask(lambda v: max(abs(v[0]), abs(v[1])) < 2)
    res = swm_sandwich(
        lat, beta=0.0, k=0, eps=0.5, t_start=-4.0, t_end=0.0, seed=0,
        core_mask=core, slab_lo=-4.0 + 1e-9,
    )
    assert res.mixed_ok is False


def test_origin_records():
    box = build_box(2, 2)
    lat = SwmLattice(box.vertices())
    res = swm_sandwich(
        lat, beta=0.5, k=2, eps=0.15, t_start=-6.0, t_end=0.0, seed=4,
        origin=(0, 0),
    )
    evs = [e for e in event_stream(box, -6.0, 0.0, 4) if e.vertex == (0, 0)]
    assert len(res.origin_records) == len(evs)
    assert [t for t, _ in res.origin_records] == [e.time for e in evs]
    for _, eq in res.origin_records:
        assert eq in (0, 1)


def test_nested_window_monotonicity_of_extremal_runs():
    # R^{Lambda,-t}(top) decreases as t grows, R(bottom) increases
    box = build_box(2, 3)
    lat = SwmLattice(box.vertices())
    seed = 21
    prev_top = None
    prev_bot = None
    for t in (1.0, 2.0, 4.0, 8.0):
        res = swm_sandwich(lat, beta=0.5, k=2, eps=0.15, t_start=-t, t_end=0.0, seed=seed)
        if prev_top is not None:
            assert np.all(res.top <= prev_top + 1e-15)
            assert np.all(res.bot >= prev_bot - 1e-15)
        prev_top, prev_bot = res.top, res.bot


def test_sandwich_rejects_windows_event_stream_rejects():
    # one window rule, t_start <= t_end <= 0: a window reaching past time
    # 0, or running backwards, used to pass through the engine silently
    box = build_box(2, 2)
    lat = SwmLattice(box.vertices())
    for t_start, t_end in ((-1.0, 3.0), (-1.0, -3.0)):
        with pytest.raises(ValueError):
            event_stream(box, t_start, t_end, seed=1)
        with pytest.raises(ValueError):
            swm_sandwich(lat, 0.5, 2, 0.15, t_start, t_end, seed=1)


def test_swapped_lanes_raise_monotonicity_error():
    # bottom started above top: the first update at any site inverts the
    # sandwich order there, and the error names that site
    box = build_box(2, 2)
    lat = SwmLattice(box.vertices())
    for seed in range(5):
        first = event_stream(box, -2.0, 0.0, seed)[0]
        with pytest.raises(MonotonicityError) as err:
            swm_sandwich(lat, 1.0, 2, 0.1, -2.0, 0.0, seed, bc_top=-1.0, bc_bot=1.0,
                         init_top=np.full(lat.size, -1.0), init_bot=np.full(lat.size, 1.0))
        assert str(first.vertex) in str(err.value)
