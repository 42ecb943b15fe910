import math
import random
from bisect import bisect_left

import numpy as np
import pytest

from exactspin import engine
from exactspin._scalar import swm_draw
from exactspin.cftp import MODEL_SWM, required_digits
from exactspin.engine import (
    MonotonicityError,
    SwmLattice,
    sorted_events,
    swm_sandwich,
)
from exactspin.lattice import build_box, neighbors
from exactspin.randomness import event_stream

from oracle import boundary_sums, exterior_boundary, recorded_origin, swm_chunk_run


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


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("seed", range(4))
def test_first_update_is_swm_draw_at_neighbour_mean(d, seed):
    # random lanes and boundary maps, run through the engine's update
    # loop to the first event: its site takes swm_draw at the mean of its
    # 2d neighbours (in-box lane values and boundary values alike) with
    # sigma = 1/sqrt(2 beta D), bit for bit, and no other site moves.
    # Values are multiples of 2^-20, so every neighbour sum is exact in
    # any order.
    rng = random.Random(seed * 10 + d)
    box = build_box(d, 2)
    lat = SwmLattice(box.vertices())
    beta = (0.0, 0.5, 1.0, 2.0)[seed]
    eps = 0.5  # half the draws refine by bisection, which reads the mean
    k = required_digits(MODEL_SWM, beta, d, eps)

    def grid_value(lo):
        return rng.randint(math.ceil(lo * 2**20), 2**20) / 2**20

    lo_vals = {v: grid_value(-1.0) for v in box.vertices()}
    hi_vals = {v: grid_value(lo_vals[v]) for v in box.vertices()}
    lo_bc = {y: grid_value(-1.0) for y in exterior_boundary(box)}
    hi_bc = {y: grid_value(lo_bc[y]) for y in exterior_boundary(box)}
    first = event_stream(box, -2.0, 0.0, seed)[0]
    res = swm_chunk_run(
        lat, beta, k, eps, -2.0, first.time, seed,
        [hi_vals[v] for v in lat.vertices], [lo_vals[v] for v in lat.vertices],
        boundary_sums(lat, hi_bc), boundary_sums(lat, lo_bc),
    )
    deg = 2 * d
    sig = 0.0 if beta == 0.0 else 1.0 / math.sqrt(2.0 * beta * deg)
    iota = first.randomness
    for out, vals, bc in ((res.top, hi_vals, hi_bc), (res.bot, lo_vals, lo_bc)):
        mean = sum(vals[w] if w in vals else bc[w] for w in neighbors(first.vertex)) / deg
        expect = swm_draw(mean, sig, float(10**k), 10.0**-k, eps,
                          iota.u_primary, iota.u_refine, iota.u_match)[0]
        for v in lat.vertices:
            assert out[lat.index[v]] == (expect if v == first.vertex else vals[v])


def test_evolve_single_trajectory_stays_in_range():
    box = build_box(2, 3)
    lat = SwmLattice(box.vertices())
    zeros = [0.0] * lat.size
    # a single trajectory is a sandwich with both lanes started equal:
    # coinciding inputs give bitwise-equal updates, so the lanes stay equal
    res = swm_chunk_run(lat, 0.5, 2, 0.15, -10.0, 0.0, 5, zeros, zeros, zeros, zeros)
    assert np.array_equal(res.top, res.bot)
    assert np.all(np.abs(res.top) <= 1.0)
    # deterministic in the seed
    res2 = swm_chunk_run(lat, 0.5, 2, 0.15, -10.0, 0.0, 5, zeros, zeros, zeros, zeros)
    assert np.array_equal(res.top, res2.top)


def test_evolve_respects_boundary_map():
    box = build_box(2, 2)
    lat = SwmLattice(box.vertices())
    zeros = [0.0] * lat.size
    bsum = boundary_sums(lat, {y: 0.9 for y in exterior_boundary(box)})
    res = swm_chunk_run(lat, 2.0, 2, 0.15, -30.0, 0.0, 9, zeros, zeros, bsum, bsum)
    assert np.array_equal(res.top, res.bot)
    # strong positive boundary pulls the field up
    assert res.top.mean() > 0.2


def _evolve_pair(region, beta, hi, lo, bc_hi, bc_lo, t_start, t_end, seed):
    """The value maps ``hi`` and ``lo`` run through the window's events as
    the two lanes of one sandwich, under the boundary maps ``bc_hi`` and
    ``bc_lo`` on ``exterior_boundary(region)``."""
    lat = SwmLattice(region.vertices())
    k = required_digits(MODEL_SWM, beta, region.d, 0.1)
    res = swm_chunk_run(
        lat, beta, k, 0.1, t_start, t_end, seed,
        [hi[v] for v in lat.vertices], [lo[v] for v in lat.vertices],
        boundary_sums(lat, bc_hi), boundary_sums(lat, bc_lo),
    )
    return ({v: float(res.top[lat.index[v]]) for v in lat.vertices},
            {v: float(res.bot[lat.index[v]]) for v in lat.vertices})


def test_equal_lanes_empty_window_is_identity():
    region = build_box(2, 2)
    values = dict.fromkeys(region.vertices(), 0.25)
    zeta = dict.fromkeys(exterior_boundary(region), 0.0)
    top, bot = _evolve_pair(region, 0.5, values, values, zeta, zeta, 0.0, 0.0, seed=5)
    assert top == bot == values


def test_equal_lanes_single_event_changes_one_site():
    region = build_box(2, 2)
    values = dict.fromkeys(region.vertices(), 0.0)
    evs = event_stream(region, -4.0, 0.0, seed=3)
    first = evs[0]
    zeta = dict.fromkeys(exterior_boundary(region), 0.0)
    top, bot = _evolve_pair(region, 0.5, values, values, zeta, zeta, -4.0, first.time, seed=3)
    assert top == bot
    changed = [v for v in region.vertices() if top[v] != values[v]]
    assert changed == [first.vertex]


def test_lanes_monotone_in_initial():
    # ordered starts under ordered, different boundary maps stay ordered:
    # the update loop raises MonotonicityError at the first event that
    # inverts a site, and the final lanes are ordered everywhere
    rng = random.Random(1)
    for d in (1, 2):
        region = build_box(d, 2)
        ext = exterior_boundary(region)
        for seed in range(200):
            lo = {v: rng.uniform(-1, 1) for v in region.vertices()}
            hi = {v: rng.uniform(lo[v], 1.0) for v in region.vertices()}
            bc_lo = {y: rng.uniform(-1, 1) for y in ext}
            bc_hi = {y: rng.uniform(bc_lo[y], 1.0) for y in ext}
            out_hi, out_lo = _evolve_pair(region, 0.5, hi, lo, bc_hi, bc_lo, -2.0, 0.0, seed)
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
    # the recorder sees every update at the origin, and the last one sets
    # the origin's final lanes
    box = build_box(2, 2)
    lat = SwmLattice(box.vertices())
    res, records = recorded_origin(lambda: swm_sandwich(
        lat, beta=0.5, k=2, eps=0.15, t_start=-6.0, t_end=0.0, seed=4), (0, 0))
    evs = [e for e in event_stream(box, -6.0, 0.0, 4) if e.vertex == (0, 0)]
    assert len(records) == len(evs)
    assert [t for t, _ in records] == [e.time for e in evs]
    for _, eq in records:
        assert eq in (0, 1)
    i = lat.index[(0, 0)]
    assert records[-1][1] == (res.top[i] == res.bot[i])


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
    low, high = [-1.0] * lat.size, [1.0] * lat.size
    bsum_low = [-1.0 * n for n in lat.n_out]
    bsum_high = [1.0 * n for n in lat.n_out]
    for seed in range(5):
        first = event_stream(box, -2.0, 0.0, seed)[0]
        with pytest.raises(MonotonicityError) as err:
            swm_chunk_run(lat, 1.0, 2, 0.1, -2.0, 0.0, seed, low, high, bsum_low, bsum_high)
        assert str(first.vertex) in str(err.value)


@pytest.mark.parametrize("d, radius", [(1, 3), (2, 3), (3, 2)])
def test_swm_lattice_counts_out_of_box_neighbours(d, radius):
    # n_out[i] is the number of exterior boundary sites next to site i,
    # which each contribute the boundary constant to its sum
    box = build_box(d, radius)
    lat = SwmLattice(box.vertices())
    ext = exterior_boundary(box)
    for v in lat.vertices:
        near = sum(1 for y in ext if sum(abs(a - b) for a, b in zip(y, v)) == 1)
        assert lat.n_out[lat.index[v]] == near
    assert sum(lat.n_out) > 0


def _dependency_oracle(lat, events, targets):
    """Number of events the targets' final values depend on, as the
    fixed point of: an event is kept when it is the last event at its
    site before a read of that site; a read is the window's end at a
    target, or a kept event at a neighbour."""
    times = {v: [] for v in lat.vertices}
    for e in events:
        times[e.vertex].append(e.time)
    reads = {(v, math.inf) for v in targets}
    while True:
        kept = set()
        for v, r in reads:
            i = bisect_left(times[v], r)
            if i:
                kept.add((v, times[v][i - 1]))
        grown = reads | {(u, t) for v, t in kept for u in neighbors(v) if u in times}
        if grown == reads:
            return len(kept)
        reads = grown


def _cone_oracle(lat, events, targets):
    """Number of events in the targets' monotone backward cone, an upper
    bound on the dependency set: a site is live until the last time a
    neighbour's kept event reads it (to the end for a target), and an
    event is kept when it falls while its site is live."""
    until = {v: (math.inf if v in targets else -math.inf) for v in lat.vertices}
    while True:
        kept = [e for e in events if e.time < until[e.vertex]]
        grown = dict(until)
        for e in kept:
            for u in neighbors(e.vertex):
                if u in grown:
                    grown[u] = max(grown[u], e.time)
        if grown == until:
            return len(kept)
        until = grown


def _hex_at(res, lat, sites):
    return [(res.top[lat.index[v]].hex(), res.bot[lat.index[v]].hex()) for v in sites]


@pytest.mark.parametrize("d, radius", [(1, 6), (2, 3), (3, 2)])
@pytest.mark.parametrize("beta", [0.0, 0.32, 1.0])
def test_targeted_run_matches_full_lanes(d, radius, beta):
    # the targets' values have the full run's bits, under constant and
    # mixed boundaries, a reseed and an offset, and so does every kept
    # event at the first target (its records are a subset of the full
    # run's); every other site is NaN, and exactly the events the
    # targets depend on run, never more than the monotone cone
    box = build_box(d, radius)
    lat = SwmLattice(box.vertices())
    k = required_digits(MODEL_SWM, beta, d, 0.1)
    corner = (radius - 1,) + (1 - radius,) * (d - 1)
    cases = [
        dict(boundary=None, targets=[(0,) * d]),
        dict(boundary=1.0, targets=[corner]),
        dict(boundary=0.5, targets=[(1,) * d, corner]),
        dict(boundary=-0.3, targets=[(0,) * d], reseed={(0,) * d: 77, (1,) + (0,) * (d - 1): 78}),
        dict(boundary=1.0, targets=[(1,) + (0,) * (d - 1)], offset=(5,) * d),
    ]
    shrunk = below_cone = 0
    for seed, case in enumerate(cases):
        targets = case.pop("targets")
        for t in (1.0, 4.0, 12.0):
            full, full_rec = recorded_origin(
                lambda: swm_sandwich(lat, beta, k, 0.1, -t, 0.0, seed, **case), targets[0])
            cone, cone_rec = recorded_origin(
                lambda: swm_sandwich(lat, beta, k, 0.1, -t, 0.0, seed, targets=targets, **case),
                targets[0])
            assert _hex_at(cone, lat, targets) == _hex_at(full, lat, targets)
            assert set(cone_rec) <= set(full_rec)
            assert cone_rec[-1:] == full_rec[-1:]
            others = [lat.index[v] for v in lat.vertices if v not in targets]
            assert np.isnan(cone.top[others]).all() and np.isnan(cone.bot[others]).all()
            if "offset" not in case:
                events = event_stream(box, -t, 0.0, seed, reseed=case.get("reseed"))
                assert cone.event_count == _dependency_oracle(lat, events, targets)
                monotone = _cone_oracle(lat, events, targets)
                assert cone.event_count <= monotone
                below_cone += cone.event_count < monotone
            shrunk += cone.event_count < full.event_count
    assert shrunk and below_cone


def test_targeted_run_prunes_only_the_last_chunk(monkeypatch):
    # a window split into several memory chunks: earlier chunks run in
    # full, the last one runs what the target depends on, and the target
    # keeps its bits
    box = build_box(2, 3)
    lat = SwmLattice(box.vertices())
    target = [(1, -1)]
    full, full_rec = recorded_origin(
        lambda: swm_sandwich(lat, 0.32, 2, 0.1, -12.0, 0.0, 4), target[0])
    one_chunk = swm_sandwich(lat, 0.32, 2, 0.1, -12.0, 0.0, 4, targets=target)
    monkeypatch.setattr(engine, "_CHUNK_EVENTS", 2.5 * lat.size)  # 2.5 time units
    chunks = []
    real_chunk = engine._swm_chunk

    def counted(*args):
        chunks.append(None)
        return real_chunk(*args)

    monkeypatch.setattr(engine, "_swm_chunk", counted)
    split, split_rec = recorded_origin(
        lambda: swm_sandwich(lat, 0.32, 2, 0.1, -12.0, 0.0, 4, targets=target), target[0])
    assert len(chunks) == 5
    assert _hex_at(split, lat, target) == _hex_at(full, lat, target)
    # the full earlier chunks record every update there, the last chunk its kept ones
    assert [r for r in split_rec if r[0] <= -2.0] == [r for r in full_rec if r[0] <= -2.0]
    assert set(split_rec) <= set(full_rec)
    last = event_stream(box, -2.0, 0.0, 4)
    assert split.event_count == len(event_stream(box, -12.0, -2.0, 4)) + _dependency_oracle(
        lat, last, target)
    assert one_chunk.event_count < split.event_count < full.event_count


def test_targets_reject_a_core_mask():
    box = build_box(2, 2)
    lat = SwmLattice(box.vertices())
    core = lat.mask(lambda v: v == (0, 0))
    with pytest.raises(ValueError, match="core_mask"):
        swm_sandwich(lat, 0.5, 2, 0.15, -2.0, 0.0, 1, core_mask=core, slab_lo=-1.0,
                     targets=[(0, 0)])
