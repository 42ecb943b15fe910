import itertools
import math

import numpy as np
import pytest

from exactspin import cftp
from exactspin.cftp import (
    MODEL_SWM,
    MODEL_XY,
    CftpResult,
    WindowSpec,
    auto_window,
    cftp_sample,
    check_boundary,
    coupling_probability,
    required_digits,
    sandwich_run,
    xy_sandwich_steps,
)
from exactspin.engine import MonotonicityError, SwmLattice, swm_sandwich
from exactspin.lattice import build_box
from exactspin.randomness import event_stream
from exactspin.xy import BC_PLUS_I, BC_PLUS_ONE, XyTriple, box_graph, xy_extremes

from oracle import (
    angle_law_cdf,
    instance_from_box,
    origin_equal_throughout,
    quadrature_cdf,
    recorded_origin,
    rejection_sample,
    xy_equal_throughout,
    xy_leq,
)


def test_window_validates_calibration():
    region = build_box(2, 2)
    with pytest.raises(ValueError):
        WindowSpec(region, -4.0, 0.0, MODEL_SWM, beta=1.0, k=1, eps=0.1)
    for t_start, t_end in ((1.0, 1.0), (-1.0, -2.0), (-1.0, 0.5)):
        with pytest.raises(ValueError):
            WindowSpec(region, t_start, t_end, MODEL_SWM, beta=1.0, k=3, eps=0.1)
    # digit depths past 15 would hang the float cell search; negative
    # beta has no Gibbs law, and a NaN or infinite one none either (NaN
    # calibrated to k = 0, inf made the SWM scan grow without end)
    for model, beta, k in ((MODEL_SWM, 0.5, 16), (MODEL_XY, 0.5, 16), (MODEL_SWM, 0.5, -1),
                           (MODEL_SWM, -0.5, 3), (MODEL_XY, -0.5, 3)):
        with pytest.raises(ValueError):
            WindowSpec(region, -4.0, 0.0, model, beta=beta, k=k, eps=0.1)
    for model in (MODEL_SWM, MODEL_XY):
        for beta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="beta"):
                WindowSpec(region, -4.0, 0.0, model, beta=beta, k=3, eps=0.1)
            with pytest.raises(ValueError, match="beta"):
                auto_window(region, -1.0, 0.0, model, beta)
    with pytest.raises(ValueError):
        cftp_sample(region, [(0, 0)], MODEL_SWM, 0.5, seed=1, boundary=0.0, k=16)
    WindowSpec(region, -1.0, -1.0, MODEL_SWM, beta=1.0, k=3, eps=0.1)
    WindowSpec(region, -1.0, 0.0, MODEL_SWM, beta=1.0, k=15, eps=0.1)
    auto_window(region, -4.0, 0.0, MODEL_SWM, beta=1.0, eps=0.1)


def test_auto_window_is_the_window_constructor():
    assert cftp.auto_window is WindowSpec


@pytest.mark.parametrize("model, boundary", [(MODEL_SWM, None), (MODEL_XY, BC_PLUS_ONE)])
def test_window_stores_the_calibrated_depth(model, boundary):
    region = build_box(1, 2)
    window = WindowSpec(region, -1.0, 0.0, model, 0.1, boundary=boundary)
    assert window.k == required_digits(model, 0.1, 1, 0.1)
    pair = sandwich_run(window, seed=1)
    assert pair.event_count > 0
    k = required_digits(model, 0.1, 1, 0.1) + 1
    assert WindowSpec(region, -1.0, 0.0, model, 0.1, boundary=boundary, k=k).k == k


@pytest.mark.parametrize("k", [2.5, True, 3.0])
def test_depth_that_is_not_an_int_is_rejected(k):
    # 10^2.5 cells per unit would sample outside the depth certificate
    region = build_box(1, 2)
    for model in (MODEL_SWM, MODEL_XY):
        with pytest.raises(ValueError, match="digit depth"):
            WindowSpec(region, -1.0, 0.0, model, 0.1, k=k)
    for t_max in (0.5, 2.0**20):  # checked even when no round runs
        with pytest.raises(ValueError, match="digit depth"):
            cftp_sample(region, [(0,)], MODEL_SWM, 0.1, 1, boundary=0.0, k=k, t_max=t_max)


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
        pair, records = recorded_origin(lambda: sandwich_run(window, seed), (0, 0))
        for v in region.vertices():
            assert pair.top.values[v] >= pair.bot.values[v]
        assert records
        for _, eq in records:
            assert eq in (0, 1)


def test_sandwich_order_xy():
    region = build_box(2, 2)
    window = auto_window(region, -3.0, 0.0, MODEL_XY, beta=0.8, eps=0.15)
    for seed in range(5):
        pair = sandwich_run(window, seed)
        assert xy_leq(pair.bot, pair.top)


def test_xy_swapped_lanes_raise_monotonicity_error():
    # the lanes passed the wrong way round: the first update inverts the
    # angle order at its site, and the error names that site
    region = build_box(2, 2)
    graph = box_graph(region)
    for seed in range(5):
        lo, hi = xy_extremes(graph, 1.0)
        events = event_stream(region, -2.0, 0.0, seed)
        with pytest.raises(MonotonicityError) as err:
            for _ in xy_sandwich_steps(lo, hi, events, 2, 0.1):
                pass
        assert str(events[0].vertex) in str(err.value)


def test_xy_aliased_lanes_raise_value_error():
    # lanes are updated in place: a shared triple, or a shared alpha, omega
    # or eta dict, would take every update twice and pass the order check
    region = build_box(2, 2)
    graph = box_graph(region)
    events = event_stream(region, -2.0, 0.0, 3)
    lo, hi = xy_extremes(graph, 1.0, bc=BC_PLUS_ONE)
    before = (dict(lo.alpha), dict(lo.omega), dict(lo.eta))
    sharing = [
        lo,
        XyTriple(graph, lo.alpha, dict(hi.omega), dict(hi.eta), 1.0),
        XyTriple(graph, dict(hi.alpha), lo.omega, dict(hi.eta), 1.0),
        XyTriple(graph, dict(hi.alpha), dict(hi.omega), lo.eta, 1.0),
    ]
    for other in sharing:
        for top, bot in ((other, lo), (lo, other)):
            with pytest.raises(ValueError, match="share"):
                xy_sandwich_steps(top, bot, events, 2, 0.1)
    assert (lo.alpha, lo.omega, lo.eta) == before
    # distinct lanes run, and are stepped in place
    steps = list(xy_sandwich_steps(hi, lo, events, 2, 0.1))
    assert steps == list(events)
    assert xy_leq(lo, hi) and lo.alpha != before[0]


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
        assert not res.timed_out
        samples[i] = res.values[(0, 0)]
    samples.sort()
    F = quadrature_cdf(inst, (0, 0), samples)
    i = np.arange(1, n + 1)
    ks = max(np.max(np.abs(i / n - F)), np.max(np.abs((i - 1) / n - F)))
    assert ks < 0.02


@pytest.mark.parametrize("label, seed0, c", [(BC_PLUS_ONE, 100000, np.cos),
                                             (BC_PLUS_I, 200000, np.sin)])
def test_xy_cftp_angle_law_is_the_annealed_boundary(label, seed0, c):
    # one site between two boundary leaves: the label fixes the leaves'
    # angle, and each leaf's sign is summed on its own, so the angle law
    # is cosh(beta c(x))^2, not the cosh(2 beta c(x)) of two fixed spins
    region, beta, n = build_box(1, 1), 1.0, 4000
    alpha = np.empty(n)
    for i in range(n):
        res = cftp_sample(region, [(0,)], MODEL_XY, beta, seed0 + i, boundary=label)
        assert not res.timed_out
        alpha[i] = res.values[(0,)]["alpha"]
    alpha.sort()
    i = np.arange(1, n + 1)

    def ks(log_density):
        F = angle_law_cdf(log_density, alpha)
        return max(np.max(np.abs(i / n - F)), np.max(np.abs((i - 1) / n - F)))

    critical = 1.95 / math.sqrt(n)  # the KS distance's 0.1% critical value
    assert ks(lambda x: 2.0 * np.log(np.cosh(beta * c(x)))) < critical
    assert ks(lambda x: np.log(np.cosh(2.0 * beta * c(x)))) > critical


def test_cftp_values_stable_under_window_doubling():
    # fixed zeta boundary: a coalesced value never changes when the
    # window is extended further into the past
    region = build_box(2, 2)
    for seed in range(40):
        res = cftp_sample(region, [(0, 0)], MODEL_SWM, beta=0.5, seed=seed, boundary=0.0)
        assert not res.timed_out
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
        assert not res.timed_out
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
    assert res.window_t == 0.0  # a cap below 1 lets no window run
    js = res.to_json()
    assert "timed_out" in js


@pytest.mark.parametrize("t_max", [float("nan"), float("inf"), 0.0, -4.0])
def test_cftp_rejects_bad_t_max(t_max):
    with pytest.raises(ValueError, match="t_max"):
        cftp_sample(build_box(1, 2), [(0,)], MODEL_SWM, beta=0.5, seed=1, t_max=t_max)


@pytest.mark.parametrize("model, boundary", [
    (MODEL_SWM, 5.0), (MODEL_SWM, -3.0), (MODEL_SWM, True), (MODEL_SWM, "+1"),
    (MODEL_SWM, math.nan), (MODEL_SWM, math.inf), (MODEL_XY, 1.0), (MODEL_XY, True),
    (MODEL_XY, "1"),
])
def test_window_rejects_a_boundary_the_model_cannot_hold(model, boundary):
    # the window checks it, so neither a sample nor a lane is ever made
    with pytest.raises(ValueError, match="boundary"):
        auto_window(build_box(1, 2), -1.0, 0.0, model, 0.5, boundary=boundary)
    with pytest.raises(ValueError, match="boundary"):
        cftp_sample(build_box(1, 2), [(0,)], model, 0.5, 1, boundary=boundary)


def test_window_admits_every_boundary_the_model_holds():
    for model, boundaries in ((MODEL_SWM, (-1, 0.25, 1.0)), (MODEL_XY, (BC_PLUS_ONE, "+i"))):
        check_boundary(model, None)  # the extremal sandwich
        for boundary in boundaries:
            assert not cftp_sample(build_box(1, 2), [(0,)], model, 0.5, 1,
                                   boundary=boundary).timed_out
    # an int boundary is the float of the same value, bit for bit
    assert (cftp_sample(build_box(1, 2), [(0,)], MODEL_SWM, 0.5, 1, boundary=-1).values
            == cftp_sample(build_box(1, 2), [(0,)], MODEL_SWM, 0.5, 1, boundary=-1.0).values)


def test_cftp_xy_small_box():
    region = build_box(2, 1)
    res = cftp_sample(
        region, [(0, 0)], MODEL_XY, beta=0.7, seed=4, boundary=BC_PLUS_ONE, eps=0.15
    )
    assert not res.timed_out
    assert 0.0 <= res.values[(0, 0)]["alpha"] <= math.pi / 2


def test_coupling_probability_zero_length():
    # t == s leaves the extremal starts apart at time -s in every mode:
    # an empty window, or a slab that opens with the run
    for model, t in itertools.product((MODEL_SWM, MODEL_XY), (0.0, 2.0, 3.0)):
        for mode in ({}, {"throughout": True}, {"truncation": 2}):
            est = coupling_probability(n=2, t=t, s=t, d=2, model=model, beta=0.5,
                                       replicas=5, seed0=1, **mode)
            assert est.probability == 1.0, (model, t, mode)


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


@pytest.mark.parametrize("d", [1, 2])
def test_nested_box_sandwich_lies_inside_smaller_box_sandwich(d):
    # events are keyed per vertex, so on one seed the radius-4 run sees
    # the radius-3 run's events plus its own shell's; inside the radius-3
    # box its lanes start within [-1, 1] where the smaller run freezes
    # +-1, and the monotone update keeps them between the smaller run's
    # lanes at every site: NC(4, t) is contained in NC(3, t) pathwise
    small, large = build_box(d, 3), build_box(d, 4)
    w_small = auto_window(small, -8.0, 0.0, MODEL_SWM, 0.32)
    w_large = auto_window(large, -8.0, 0.0, MODEL_SWM, 0.32)
    origin = (0,) * d
    coupled = [0, 0]
    for seed in range(400):
        p3 = sandwich_run(w_small, seed)
        p4 = sandwich_run(w_large, seed)
        for v in small.vertices():
            assert p4.top.values[v] <= p3.top.values[v], (seed, v)
            assert p4.bot.values[v] >= p3.bot.values[v], (seed, v)
        coupled[0] += p3.coalesced(origin)
        coupled[1] += p4.coalesced(origin)
        assert p4.coalesced(origin) or not p3.coalesced(origin)
    assert 0 < coupled[0] < coupled[1]


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


@pytest.mark.parametrize("model, d, beta", [(MODEL_SWM, 2, 0.02), (MODEL_XY, 2, 0.5)])
def test_coupling_throughout_a_zero_slab_is_coupling_at_time_zero(model, d, beta):
    # for s = 0 both estimators read the same event, equality at the
    # origin at time 0; an XY origin couples only when its angle and
    # every incident bond agree, not its first bond alone
    kw = dict(n=2, t=3.0, s=0.0, d=d, model=model, beta=beta, replicas=150, seed0=7)
    at_time = coupling_probability(**kw)
    assert coupling_probability(throughout=True, **kw) == at_time
    assert 0.0 < at_time.probability < 1.0


@pytest.mark.parametrize("model", [MODEL_SWM, MODEL_XY])
def test_coupling_throughout_rejects_truncation(model):
    # the slab monitor compares exact equality, so a truncation it would
    # ignore is refused; the event at time -s still takes one
    kw = dict(n=2, t=4.0, s=1.0, d=1, model=model, beta=0.1, replicas=5, seed0=3)
    with pytest.raises(ValueError, match="truncation"):
        coupling_probability(throughout=True, truncation=1, **kw)
    assert 0.0 <= coupling_probability(truncation=1, **kw).probability <= 1.0


def test_xy_coupling_at_a_vertex_reads_every_incident_bond():
    # with and without truncation: a pair that agrees at the origin stops
    # agreeing when any one of its incident bonds differs
    window = auto_window(build_box(2, 2), -8.0, 0.0, MODEL_XY, beta=0.5)
    origin = (0, 0)
    pair = next(p for p in (sandwich_run(window, seed) for seed in range(20))
                if p.coalesced(origin))
    edges = pair.top.graph.incident[origin]
    assert len(edges) == 4
    for e in edges:
        for bond in (pair.bot.omega, pair.bot.eta):
            bond[e] ^= 1
            for truncation in (None, 1, 3):
                assert not pair.top.equal_at(pair.bot, origin, truncation)
            bond[e] ^= 1
    for truncation in (None, 1, 3):
        assert pair.top.equal_at(pair.bot, origin, truncation)


@pytest.mark.parametrize("n, t, s, beta", [(3, 6.0, 3.0, 0.3), (3, 4.0, 1.0, 1.0)])
def test_xy_coupling_throughout_matches_a_check_after_every_event(n, t, s, beta):
    # a neighbour's update rewrites the origin's incident bonds, so the
    # event must be checked after every event, not only at the origin's;
    # one replica per call compares the event seed by seed
    region, k = build_box(1, n), required_digits(MODEL_XY, beta, 1, 0.1)
    nc = []
    for seed0 in range(200):
        est = coupling_probability(n=n, t=t, s=s, d=1, model=MODEL_XY, beta=beta,
                                   replicas=1, seed0=seed0, throughout=True)
        nc.append(est.probability)
        assert est.probability == (not xy_equal_throughout(
            region, beta, k, 0.1, t, s, seed0 * 1000003, (0,))), seed0
    assert 0 < sum(nc) < len(nc)


@pytest.mark.parametrize("d, n, beta, s", [(1, 2, 0.1, 1.5), (2, 2, 0.02, 1.0),
                                           (3, 1, 0.02, 1.0)])
def test_swm_coupling_throughout_matches_the_origin_records(d, n, beta, s):
    # the slab monitor with the origin as its core decides the same event
    # as the per-update records at the origin: an SWM site changes only
    # at its own updates; one replica per call compares seed by seed
    t = 4.0
    window = auto_window(build_box(d, n), -t, 0.0, MODEL_SWM, beta)
    nc = []
    for seed0 in range(150):
        est = coupling_probability(n=n, t=t, s=s, d=d, model=MODEL_SWM, beta=beta,
                                   replicas=1, seed0=seed0, throughout=True)
        nc.append(est.probability)
        _, records = recorded_origin(lambda: sandwich_run(window, seed0 * 1000003), (0,) * d)
        assert est.probability == (not origin_equal_throughout(records, s, False)), seed0
    assert 0 < sum(nc) < len(nc)


def _full_lanes(monkeypatch):
    """Make cftp's own sandwich runs ignore ``targets``; returns the list
    of the targets its callers asked for."""
    asked = []
    real = cftp.sandwich_run

    def full(window, seed, targets=None):
        asked.append(targets)
        return real(window, seed)

    monkeypatch.setattr(cftp, "sandwich_run", full)
    return asked


# settings on which sampled values, certificates and windows must keep their bits
CFTP_CASES = [
    (MODEL_SWM, build_box(1, 6), [(0,)], 0.32, 1.0),
    (MODEL_SWM, build_box(2, 4), [(0, 0), (2, -3)], 0.2, 0.5),
    (MODEL_SWM, build_box(2, 3), [(1, 1)], 1.0, -0.3),
    (MODEL_SWM, build_box(3, 2), [(0, 0, 0)], 0.0, None),
    (MODEL_XY, build_box(1, 3), [(0,)], 0.5, "+1"),
    (MODEL_XY, build_box(1, 2), [(1,), (0,)], 1.0, "+i"),
    (MODEL_XY, build_box(2, 2), [(0, 0)], 1.0, "+1"),
    (MODEL_XY, build_box(2, 2), [(1, -1), (0, 1)], 0.0, "+i"),
    (MODEL_XY, build_box(2, 2), [(0, 1)], 0.5, "+i"),
]


def _value_bits(x):
    """A sampled value's bits: the SWM spin, or the whole XY record."""
    if isinstance(x, float):
        return x.hex()
    return x["alpha"].hex(), x["omega"], x["eta"]


def _result_bits(res):
    values = None if res.values is None else {v: _value_bits(x) for v, x in res.values.items()}
    return values, res.certificate, res.window_t, res.timed_out, res.to_json()


def test_cftp_sample_on_the_cone_matches_full_lanes(monkeypatch):
    # values, certificates and windows keep their bits, for both models
    def samples():
        return [_result_bits(cftp_sample(box, target, model, beta, seed, boundary=bc))
                for model, box, target, beta, bc in CFTP_CASES for seed in range(8)]

    cone = samples()
    asked = _full_lanes(monkeypatch)
    assert samples() == cone
    assert {tuple(a) for a in asked} == {tuple(case[2]) for case in CFTP_CASES}


@pytest.mark.parametrize("model, box, targets, beta, boundary, seeds", [
    (MODEL_SWM, build_box(2, 4), [(0, 0)], 0.32, 1.0, range(8)),
    (MODEL_SWM, build_box(1, 6), [(0,)], 0.32, None, range(1, 9)),
    (MODEL_SWM, build_box(2, 3), [(0, 0), (2, -1)], 0.5, 0.0, range(8)),
    (MODEL_XY, build_box(2, 2), [(0, 0)], 1.0, BC_PLUS_ONE, range(4)),
    (MODEL_XY, build_box(1, 3), [(0,)], 0.5, BC_PLUS_I, range(8)),
])
def test_coalescence_is_monotone_in_the_window(model, box, targets, beta, boundary, seeds):
    # the premise of cftp_sample's warm start: a target coalesced at
    # window t is coalesced, with the same bits, at every longer window
    def coalesced_bits(seed, t):
        window = WindowSpec(box, -t, 0.0, model, beta, boundary=boundary)
        pair = sandwich_run(window, seed, targets=targets)
        return {v: _value_bits(pair.top.value_at(v)) for v in targets if pair.coalesced(v)}

    for seed in seeds:
        seen, t = {}, 1.0
        while len(seen) < len(targets):
            assert t <= 64.0, "the setting must certify"
            bits = coalesced_bits(seed, t)
            assert all(bits.get(v) == b for v, b in seen.items()), (seed, t)
            seen, t = bits, 2.0 * t
        certified = t / 2.0
        while t <= 4.0 * certified:
            assert coalesced_bits(seed, t) == seen, (seed, t)
            t *= 2.0


def test_warm_started_cftp_matches_the_cold_scan(monkeypatch):
    # whatever window an earlier call certified, every result is that of
    # the scan from t = 1: values, certificates (in order), windows and
    # timeouts with their partial certificates
    memo = {}
    monkeypatch.setattr(cftp, "_last_window", memo)
    partial = 0
    for model, box, target, beta, bc in CFTP_CASES:
        def sample(seed, t_max=2.0**20, last=None):
            memo.clear()
            if last is not None:
                memo[key] = last
            res = cftp_sample(box, target, model, beta, seed, boundary=bc, t_max=t_max)
            return _result_bits(res)

        sample(0)
        (key,) = memo  # this case's memo key
        for seed in range(8):
            last = (1.0, 2.0, 8.0, 64.0)[seed % 4]
            cold = sample(seed)
            assert sample(seed, last=last) == cold, (model, target, seed, last)
            # the cold scan's certificate order: by the window each target coalesced at
            assert list(cold[1].values()) == sorted(cold[1].values())
            for t_max in (4.0, 0.5):
                cold = sample(seed, t_max)
                assert sample(seed, t_max, last=64.0) == cold, (model, target, seed, t_max)
                partial += cold[3] and 0 < len(cold[1]) < len(target)
    assert partial  # a multi-target timeout with a partial certificate was checked


def test_warm_call_runs_the_window_below_its_certificate(monkeypatch):
    # a cold call runs the full schedule 1, 2, ..., T; a repeated call
    # starts at T / 2 and runs [T / 2, T]; the next seed starts at half
    # the window the last call certified
    monkeypatch.setattr(cftp, "_last_window", {})
    real = cftp.sandwich_run
    windows = []

    def counted(window, seed, targets=None):
        windows.append(-window.t_start)
        return real(window, seed, targets=targets)

    monkeypatch.setattr(cftp, "sandwich_run", counted)
    for model, box, bc in ((MODEL_SWM, build_box(2, 4), 1.0), (MODEL_XY, build_box(1, 3), "+i")):
        target, last = [(0,) * box.d], None
        for seed in range(4):
            del windows[:]
            warm_first = cftp_sample(box, target, model, 0.5, seed, boundary=bc)
            if last is not None:
                assert windows[0] == max(1.0, last / 2.0)
            cftp._last_window.clear()
            del windows[:]
            cold = cftp_sample(box, target, model, 0.5, seed, boundary=bc)
            T = cold.window_t
            assert cold == warm_first
            assert windows == [2.0**i for i in range(int(math.log2(T)) + 1)]
            del windows[:]
            assert cftp_sample(box, target, model, 0.5, seed, boundary=bc) == cold
            assert windows == ([T / 2.0] if T > 1.0 else []) + [T]
            last = T
    # the memo holds at most 64 parameter sets: a new one past that clears it
    cftp._last_window.update({i: 64.0 for i in range(64)})
    cftp_sample(build_box(1, 3), [(1,)], MODEL_SWM, 0.5, 0, boundary=1.0)
    assert len(cftp._last_window) == 1


def test_targets_that_are_not_tuples_of_ints_raise_value_error():
    # (True, 0) would read site (1, 0) under another label, and a list
    # cannot key a certificate
    box = build_box(2, 2)
    window = auto_window(box, -2.0, 0.0, MODEL_SWM, beta=0.3, boundary=1.0)
    for targets in ([(True, 0)], [(0.0, 0)], [[0, 0]], [(0, 0), (1, 0.0)]):
        with pytest.raises(ValueError, match="target"):
            cftp_sample(box, targets, MODEL_SWM, 0.3, 1, boundary=1.0)
        with pytest.raises(ValueError, match="target"):
            sandwich_run(window, seed=1, targets=targets)


def test_coupling_probability_on_the_cone_matches_full_lanes(monkeypatch):
    settings = [
        dict(model=MODEL_SWM, n=2, t=4.0, s=0.0, d=2, beta=0.02),
        dict(model=MODEL_SWM, n=3, t=6.0, s=2.0, d=2, beta=0.1, truncation=1),
        dict(model=MODEL_SWM, n=2, t=4.0, s=1.0, d=1, beta=0.1, throughout=True),
        dict(model=MODEL_SWM, n=2, t=4.0, s=0.0, d=3, beta=0.01),
        dict(model=MODEL_XY, n=2, t=3.0, s=0.0, d=2, beta=0.5),
        dict(model=MODEL_XY, n=3, t=4.0, s=1.0, d=1, beta=1.0, throughout=True),
    ]
    real = cftp.sandwich_run
    shrunk = {MODEL_SWM: [], MODEL_XY: []}

    def checked(window, seed, targets=None):
        # the origin's value matches the full-lane run's bits, and no
        # other SWM site can be read
        origin = (0,) * window.region.d
        pair = real(window, seed, targets=targets)
        ref = real(window, seed)
        assert targets == [origin]
        for lane, ref_lane in ((pair.top, ref.top), (pair.bot, ref.bot)):
            if window.model == MODEL_SWM:
                assert list(lane.values) == [origin]
                assert lane.values[origin].hex() == ref_lane.values[origin].hex()
            else:
                assert lane.alpha[origin].hex() == ref_lane.alpha[origin].hex()
                for e in lane.graph.incident[origin]:
                    assert (lane.omega[e], lane.eta[e]) == (ref_lane.omega[e], ref_lane.eta[e])
        shrunk[window.model].append(pair.event_count < ref.event_count)
        return pair

    def estimates():
        return [coupling_probability(replicas=30, seed0=7, **kw) for kw in settings]

    monkeypatch.setattr(cftp, "sandwich_run", checked)
    cone = estimates()
    # the throughout settings run the slab monitor, not sandwich_run
    assert len(shrunk[MODEL_SWM]) == 90 and any(shrunk[MODEL_SWM])
    assert len(shrunk[MODEL_XY]) == 30 and any(shrunk[MODEL_XY])
    monkeypatch.undo()
    _full_lanes(monkeypatch)
    assert estimates() == cone
    assert all(0.0 < e.probability < 1.0 for e in cone)


@pytest.mark.parametrize("d, center, anchor", [(1, (6,), (4,)), (2, (4, -2), (5, -1))])
def test_targeted_run_on_a_centred_box_is_the_offset_origin_run(d, center, anchor):
    # a centred box lists and keys its sites as the origin lattice does
    # under offset = center, so a targeted, reseeded run on it gives the
    # anchor the bits of the engine's offset run
    reseed = {anchor: 99, center: (1 << 64) - 3, tuple(c + 1 for c in center): 7}
    window = auto_window(build_box(d, 3, center), -6.0, 0.0, MODEL_SWM, beta=0.3)
    lat = SwmLattice(build_box(d, 3).vertices())
    i = lat.index[tuple(a - c for a, c in zip(anchor, center))]
    values = set()
    for rs in (None, reseed):
        pair = sandwich_run(window, seed=11, targets=[anchor], reseed=rs)
        res = swm_sandwich(lat, window.beta, window.k, window.eps, -6.0, 0.0, 11,
                           reseed=rs, offset=center)
        assert pair.top.value_at(anchor).hex() == float(res.top[i]).hex()
        assert pair.bot.value_at(anchor).hex() == float(res.bot[i]).hex()
        values.add(pair.top.value_at(anchor))
    assert len(values) == 2  # the anchor's own line was reseeded


def test_xy_reseeded_run_steps_the_reseeded_stream():
    region = build_box(2, 2)
    reseed = {(0, 0): 5, (1, -1): (1 << 64) - 9}
    window = auto_window(region, -5.0, 0.0, MODEL_XY, beta=0.5)
    pair = sandwich_run(window, seed=3, reseed=reseed)
    lo, hi = xy_extremes(box_graph(region), 0.5)
    for _ in xy_sandwich_steps(hi, lo, event_stream(region, -5.0, 0.0, 3, reseed),
                               window.k, window.eps):
        pass
    for lane, ref in ((pair.top, hi), (pair.bot, lo)):
        assert {v: a.hex() for v, a in lane.alpha.items()} == {
            v: a.hex() for v, a in ref.alpha.items()}
        assert (lane.omega, lane.eta) == (ref.omega, ref.eta)
    assert pair.top.alpha != sandwich_run(window, seed=3).top.alpha


@pytest.mark.parametrize("model, boundary", [(MODEL_SWM, 0.0), (MODEL_XY, None)])
def test_lanes_equal_at_a_vertex_are_equal_to_every_depth(model, boundary):
    region = build_box(2, 2)
    window = auto_window(region, -4.0, 0.0, model, beta=0.3, boundary=boundary)
    equal = 0
    for seed in range(6):
        pair = sandwich_run(window, seed)
        for v in region.vertices():
            if pair.top.equal_at(pair.bot, v):
                equal += 1
                assert pair.coalesced(v)
                assert all(pair.top.equal_at(pair.bot, v, k) for k in range(16))
                assert pair.top.value_at(v) == pair.bot.value_at(v)
    assert equal


@pytest.mark.parametrize("model, boundary", [(MODEL_SWM, 1.0), (MODEL_XY, BC_PLUS_ONE)])
def test_cftp_values_are_the_lanes_value_at(model, boundary):
    region, target = build_box(2, 2), [(0, 0), (1, 0)]
    for seed in range(3):
        res = cftp_sample(region, target, model, beta=0.5, seed=seed, boundary=boundary)
        window = auto_window(region, -res.window_t, 0.0, model, 0.5, boundary=boundary)
        pair = sandwich_run(window, seed, targets=target)
        assert res.values == {v: pair.top.value_at(v) for v in target}


def test_coalesced_outside_the_targets_raises_key_error():
    window = auto_window(build_box(2, 2), -4.0, 0.0, MODEL_SWM, beta=0.5)
    pair = sandwich_run(window, seed=3, targets=[(1, 0)])
    pair.coalesced((1, 0))
    with pytest.raises(KeyError):
        pair.coalesced((0, 0))
    assert list(pair.top.values) == list(pair.bot.values) == [(1, 0)]


def test_empty_target_and_bad_coupling_inputs_raise_value_error():
    box = build_box(1, 2)
    with pytest.raises(ValueError, match="target"):
        cftp_sample(box, [], MODEL_SWM, beta=0.5, seed=1)
    for t, replicas in ((math.inf, 10), (2.0, 0), (2.0, -3), (2.0, 2.5), (2.0, True)):
        with pytest.raises(ValueError):
            coupling_probability(n=2, t=t, s=0.0, d=1, model=MODEL_SWM, beta=0.5,
                                 replicas=replicas, seed0=1)
    # t == s runs no dynamics but checks the parameters all the same
    for bad in (dict(model="ising", beta=0.5), dict(model=MODEL_SWM, beta=-3.0),
                dict(model=MODEL_XY, beta=0.5, eps=7.0), dict(model=MODEL_SWM, beta=0.5, k=-4),
                dict(model="ising", beta=-3.0, truncation=99, eps=7.0, k=-4)):
        with pytest.raises(ValueError):
            coupling_probability(n=2, t=1.0, s=1.0, d=1, replicas=5, seed0=0, **bad)


def test_targets_outside_the_region_raise_value_error():
    for model in (MODEL_SWM, MODEL_XY):
        window = auto_window(build_box(2, 2), -2.0, 0.0, model, beta=0.5)
        for targets in ([(5, 5)], [(0, 0), (2, 0)], [(0, 0, 0)]):
            with pytest.raises(ValueError, match="outside the region"):
                sandwich_run(window, seed=1, targets=targets)
            with pytest.raises(ValueError, match="outside the region"):
                cftp_sample(window.region, targets, model, beta=0.5, seed=1)


def test_xy_rounds_share_one_graph_and_match_a_cold_build(monkeypatch):
    region = build_box(2, 2)

    def rounds():
        return [sandwich_run(auto_window(region, -t, 0.0, MODEL_XY, 1.0, boundary=BC_PLUS_ONE),
                             seed=5) for t in (1.0, 2.0)]

    def bits(pair):
        return [({v: a.hex() for v, a in lane.alpha.items()}, lane.omega, lane.eta)
                for lane in (pair.top, pair.bot)] + [pair.event_count]

    cached = rounds()
    assert cached[0].top.graph is cached[1].top.graph is cached[1].bot.graph
    monkeypatch.setattr(cftp, "_region_graph", box_graph)
    cold = rounds()
    assert cold[0].top.graph is not cold[1].top.graph
    assert [bits(p) for p in cold] == [bits(p) for p in cached]
