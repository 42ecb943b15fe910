import math

import numpy as np
import pytest

from exactspin.cftp import (
    MODEL_SWM,
    MODEL_XY,
    CftpResult,
    WindowSpec,
    apply_window,
    auto_window,
    cftp_sample,
    coupling_probability,
    sandwich_run,
)
from exactspin.lattice import build_box
from exactspin.oracle import instance_from_box, quadrature_cdf, rejection_sample
from exactspin.swm import SwmField, constant_field
from exactspin.xy import BC_PLUS_ONE, XyTriple, box_graph, xy_extremes, xy_leq


def test_window_validates_calibration():
    region = build_box(2, 2)
    with pytest.raises(ValueError):
        WindowSpec(region, -4.0, 0.0, MODEL_SWM, beta=1.0, k=1, eps=0.1)
    for t_start, t_end in ((1.0, 1.0), (-1.0, -2.0), (-1.0, 0.5)):
        with pytest.raises(ValueError):
            WindowSpec(region, t_start, t_end, MODEL_SWM, beta=1.0, k=3, eps=0.1)
    WindowSpec(region, -1.0, -1.0, MODEL_SWM, beta=1.0, k=3, eps=0.1)
    auto_window(region, -4.0, 0.0, MODEL_SWM, beta=1.0, eps=0.1)


def test_apply_window_empty_is_identity():
    region = build_box(2, 2)
    field = constant_field(region, beta=0.5, value=0.25, bc=0.0)
    window = auto_window(region, 0.0, 0.0, MODEL_SWM, beta=0.5)
    out = apply_window(field, window, seed=5)
    assert out.values == field.values


def test_apply_window_single_event_changes_one_site():
    from exactspin.randomness import event_stream

    region = build_box(2, 2)
    field = constant_field(region, beta=0.5, value=0.0, bc=0.0)
    evs = event_stream(region, -4.0, 0.0, seed=3)
    first = evs[0]
    window = auto_window(region, -4.0, first.time, MODEL_SWM, beta=0.5)
    out = apply_window(field, window, seed=3)
    changed = [v for v in region.vertices() if out.values[v] != field.values[v]]
    assert changed == [first.vertex]


def test_apply_window_monotone_in_initial():
    import random

    region = build_box(2, 2)
    rng = random.Random(1)
    for seed in range(200):
        lo_vals = {v: rng.uniform(-1, 1) for v in region.vertices()}
        hi_vals = {v: rng.uniform(lo_vals[v], 1.0) for v in region.vertices()}
        bmap = {y: 0.0 for y in region.exterior_boundary()}
        lo = SwmField(region, lo_vals, bmap, 0.5)
        hi = SwmField(region, hi_vals, bmap, 0.5)
        window = auto_window(region, -2.0, 0.0, MODEL_SWM, beta=0.5)
        out_lo = apply_window(lo, window, seed)
        out_hi = apply_window(hi, window, seed)
        for v in region.vertices():
            assert out_lo.values[v] <= out_hi.values[v]


def test_sandwich_zero_window_is_extremal():
    region = build_box(2, 2)
    window = auto_window(region, 0.0, 0.0, MODEL_SWM, beta=1.0)
    pair = sandwich_run(window, seed=1)
    assert all(v == 1.0 for v in pair.top.values.values())
    assert all(v == -1.0 for v in pair.bot.values.values())


def test_sandwich_order_and_records_swm():
    region = build_box(2, 3)
    window = auto_window(region, -6.0, 0.0, MODEL_SWM, beta=0.5)
    for seed in range(20):
        pair = sandwich_run(window, seed, origin=(0, 0))
        for v in region.vertices():
            assert pair.top.values[v] >= pair.bot.values[v]
        for _, eq in pair.origin_records:
            assert eq in (0, 1)


def test_sandwich_order_xy():
    region = build_box(2, 2)
    window = auto_window(region, -3.0, 0.0, MODEL_XY, beta=0.8, eps=0.15)
    for seed in range(5):
        pair = sandwich_run(window, seed)
        assert xy_leq(pair.bot, pair.top)


def test_sandwich_coalescence_fraction_grows_beta_zero():
    region = build_box(2, 3)
    fractions = []
    for T in (1.0, 4.0):
        done = 0
        tot = 0
        for seed in range(20):
            window = auto_window(region, -T, 0.0, MODEL_SWM, beta=0.0, eps=0.5, k=0)
            pair = sandwich_run(window, seed)
            for v in region.vertices():
                done += pair.coalesced(v)
                tot += 1
        fractions.append(done / tot)
    assert fractions[1] > fractions[0]


def test_cftp_single_vertex_matches_quadrature():
    region = build_box(2, 1)
    inst = instance_from_box(region, beta=1.0, zeta=0.0)
    n = 4000
    samples = np.empty(n)
    for i in range(n):
        res = cftp_sample(region, [(0, 0)], MODEL_SWM, beta=1.0, seed=i, boundary=0.0)
        assert res.ok
        samples[i] = res.values[(0, 0)]
    samples.sort()
    F = quadrature_cdf(inst, (0, 0), samples)
    i = np.arange(1, n + 1)
    ks = max(np.max(np.abs(i / n - F)), np.max(np.abs((i - 1) / n - F)))
    assert ks < 0.02


def test_cftp_values_stable_under_window_doubling():
    # fixed zeta boundary: a coalesced value never changes when the
    # window is extended further into the past
    region = build_box(2, 2)
    for seed in range(40):
        res = cftp_sample(region, [(0, 0)], MODEL_SWM, beta=0.5, seed=seed, boundary=0.0)
        assert res.ok
        t2 = res.window_t * 4
        window = auto_window(region, -t2, 0.0, MODEL_SWM, beta=0.5, boundary=0.0)
        pair = sandwich_run(window, seed)
        assert pair.top.values[(0, 0)] == res.values[(0, 0)]


def test_cftp_values_stable_under_region_enlargement():
    # extremal frozen exterior (the theorem's setting): once the
    # extremal trajectories meet at a site, enlarging the box or the
    # window cannot move the value
    region = build_box(2, 4)
    big = build_box(2, 6)
    beta, T = 0.25, 24.0
    hits = 0
    for seed in range(30):
        window = auto_window(region, -T, 0.0, MODEL_SWM, beta=beta)
        pair = sandwich_run(window, seed)
        if not pair.coalesced((0, 0)):
            continue
        hits += 1
        val = pair.top.values[(0, 0)]
        window_long = auto_window(region, -4 * T, 0.0, MODEL_SWM, beta=beta)
        assert sandwich_run(window_long, seed).top.values[(0, 0)] == val
        window_big = auto_window(big, -T, 0.0, MODEL_SWM, beta=beta)
        pair_big = sandwich_run(window_big, seed)
        assert pair_big.top.values[(0, 0)] == val
    assert hits >= 8  # the regime must actually exercise the property


def test_cftp_3x3_mean_matches_rejection_oracle():
    region = build_box(2, 2)
    beta = 0.5
    n = 1500
    vals = np.empty(n)
    for i in range(n):
        res = cftp_sample(region, [(0, 0)], MODEL_SWM, beta=beta, seed=i, boundary=0.3)
        assert res.ok
        vals[i] = res.values[(0, 0)]
    inst = instance_from_box(region, beta=beta, zeta=0.3)
    idx = inst.vertices.index((0, 0))
    ref = rejection_sample(inst, 60000, seed=77)[:, idx]
    se = math.sqrt(vals.var(ddof=1) / n + ref.var(ddof=1) / len(ref))
    assert abs(vals.mean() - ref.mean()) < 3 * se


def test_cftp_timeout_is_explicit():
    region = build_box(2, 2)
    res = cftp_sample(
        region, [(0, 0)], MODEL_SWM, beta=0.5, seed=1, boundary=0.0, t_max=0.5
    )
    assert res.timed_out and res.values is None
    js = res.to_json()
    assert "timed_out" in js


def test_cftp_xy_small_box():
    region = build_box(2, 1)
    res = cftp_sample(
        region, [(0, 0)], MODEL_XY, beta=0.7, seed=4, boundary=BC_PLUS_ONE, eps=0.15
    )
    assert res.ok
    assert 0.0 <= res.values[(0, 0)]["alpha"] <= math.pi / 2


def test_coupling_probability_zero_length():
    est = coupling_probability(
        n=2, t=1.0, s=1.0, d=2, model=MODEL_SWM, beta=0.5, replicas=10, seed0=1
    )
    assert est.probability == 1.0


def test_coupling_probability_monotone_in_time():
    ests = []
    for t in (1.0, 4.0, 16.0):
        ests.append(
            coupling_probability(
                n=2, t=t, s=0.0, d=2, model=MODEL_SWM, beta=0.5,
                replicas=150, seed0=9,
            )
        )
    for a, b in zip(ests, ests[1:]):
        assert b.probability <= a.probability + 3 * (a.stderr + b.stderr)


def test_truncated_coupling_is_easier():
    for t in (2.0, 6.0):
        full = coupling_probability(
            n=2, t=t, s=0.0, d=2, model=MODEL_SWM, beta=0.5, replicas=200, seed0=3
        )
        trunc = coupling_probability(
            n=2, t=t, s=0.0, d=2, model=MODEL_SWM, beta=0.5, replicas=200,
            seed0=3, truncation=1,
        )
        assert trunc.probability <= full.probability + 1e-12


def test_coupling_long_time_union_bound():
    # P[NC(n,n,>=dn)] <= 100 dn P[NC(n,(1-d)n)] + margin, 3 sigma slack
    n, delta = 4, 0.5
    lhs = coupling_probability(
        n=n, t=float(n), s=delta * n, d=2, model=MODEL_SWM, beta=0.5,
        replicas=200, seed0=5, throughout=True,
    )
    rhs = coupling_probability(
        n=n, t=(1 - delta) * n, s=0.0, d=2, model=MODEL_SWM, beta=0.5,
        replicas=200, seed0=6,
    )
    bound = 100 * delta * n * rhs.probability
    slack = 3 * (lhs.stderr + 100 * delta * n * rhs.stderr)
    assert lhs.probability <= bound + slack
