import math
import random

import numpy as np
import pytest

from exactspin import cftp as cftp_mod
from exactspin import xy as xy_mod
from exactspin.cftp import auto_window, required_digits, sandwich_run, xy_sandwich_steps
from exactspin.lattice import build_box
from exactspin._scalar import VALUE_GRID, snap
from exactspin.randomness import (
    UpdateEvent, UpdateRandomness, event_stream, mix64, monotone_inverse,
)
from exactspin.xy import (
    _XS,
    _conditional_open_prob,
    _lane_groups,
    BC_PLUS_I,
    BC_PLUS_ONE,
    HALF_PI,
    AngleLawHandle,
    XyGraph,
    XyTriple,
    box_graph,
    xy_angle_law,
    xy_angle_update,
    xy_edge_update,
    xy_extremes,
    xy_full_update,
)

from keyed import keyed_randomness
from oracle import (
    almost_markov_support,
    component_representative,
    enumerate_xy,
    neighbour_groups,
    percolation_components,
    xy_angle_density_oracle,
    xy_leq,
    xy_reconstruct_spins,
    xy_two_vertex_expectation,
)


def _iota(key):
    return keyed_randomness(mix64(key))


def _uniforms(tau, u, iota):
    """The event's edge uniforms, slot by slot, as the sandwich loop
    hashes them once for both lanes."""
    return [iota.edge_uniform(s) for s in range(2 * len(tau.graph.incident[u]))]


def _law_log_density(law):
    """The grid log density the law's CDF is built from."""
    return xy_mod._log_density(law.beta, law.cos_sums, law.sin_sums)


def _random_triple(graph, beta, rng):
    alpha = {n: rng.uniform(0, HALF_PI) for n in graph.nodes}
    omega = {e: rng.randint(0, 1) for e in graph.edges}
    eta = {e: rng.randint(0, 1) for e in graph.edges}
    return XyTriple(graph, alpha, omega, eta, beta)


def _ordered_pair(graph, beta, rng):
    lo = _random_triple(graph, beta, rng)
    hi = lo.copy()
    for n in graph.nodes:
        hi.alpha[n] = rng.uniform(lo.alpha[n], HALF_PI)
    for e in graph.edges:
        if lo.omega[e] == 1 and rng.random() < 0.5:
            hi.omega[e] = 0
        else:
            hi.omega[e] = lo.omega[e]
        if lo.eta[e] == 0 and rng.random() < 0.5:
            hi.eta[e] = 1
        else:
            hi.eta[e] = lo.eta[e]
    assert xy_leq(lo, hi)
    return lo, hi


def test_extremes_are_ordered():
    g = box_graph(build_box(2, 2))
    lo, hi = xy_extremes(g, beta=1.0)
    assert xy_leq(lo, hi)
    assert not xy_leq(hi, lo)


def test_box_graph_leaf_split():
    g = box_graph(build_box(2, 2))
    assert len(g.free) == 9
    # each side contributes 3 leaves: 12 boundary contacts in total
    assert len(g.frozen) == 12
    assert len(g.edges) == 12 + 12


def test_frozen_nodes_must_be_leaves():
    u, v = (0,), (1,)
    leaf, other = ("b", (2,), v), ("b", (3,), v)
    g = XyGraph(free=[u, v], edges=[(u, v), (v, leaf)], frozen=[leaf])
    assert g.frozen == [leaf]
    assert g.free_adjacent == {u: [(v, (u, v))], v: [(u, (u, v))], leaf: []}
    # a frozen node takes no update, in the sandwich loop either
    lo, hi = xy_extremes(g, 1.0, bc=BC_PLUS_ONE)
    with pytest.raises(ValueError, match="frozen"):
        list(xy_sandwich_steps(hi, lo, [UpdateEvent(leaf, -0.5, _iota(1))], k=1, eps=0.1))
    with pytest.raises(ValueError, match="leaf"):
        XyGraph(free=[u, v], edges=[(u, v)], frozen=[leaf])  # degree 0
    with pytest.raises(ValueError, match="leaf"):  # degree 2: u - leaf - v
        XyGraph(free=[u, v], edges=[(u, leaf), (leaf, v)], frozen=[leaf])
    with pytest.raises(ValueError, match="leaf"):  # degree 2: two free ends
        XyGraph(free=[u, v], edges=[(u, leaf), (v, leaf), (u, other)], frozen=[leaf, other])
    with pytest.raises(ValueError, match="loop"):
        XyGraph(free=[u], edges=[(u, u)])
    # box graphs leaf-split every boundary contact
    for d, radius in ((1, 1), (2, 2), (3, 2)):
        g = box_graph(build_box(d, radius))
        assert all(len(g.incident[n]) == 1 for n in g.frozen)


def test_groups_match_the_full_search():
    # the free-node search against the search over every node, on random
    # bond fields of box graphs, at every free u, for both bond kinds
    rng = random.Random(5)
    fields = checked = 0
    for d in (1, 2):
        for radius in (1, 2, 3):
            g = box_graph(build_box(d, radius))
            for _ in range(1000 // (2 * d * radius)):
                p = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
                tau = _random_triple(g, 1.0, rng)
                for bond in (tau.omega, tau.eta):
                    for e in bond:
                        bond[e] = int(rng.random() < p)
                    fields += 1
                    for u in g.free:
                        assert xy_mod._groups(tau, u, bond) == neighbour_groups(tau, u, bond)
                        checked += 1
    assert fields >= 2000 and checked > 10000


def test_angle_law_no_neighbors_is_uniform():
    g = XyGraph(free=[(0,)], edges=[])
    tau = XyTriple(g, {(0,): 0.3}, {}, {}, beta=2.0)
    law = xy_angle_law(tau, (0,), _lane_groups(tau, (0,)))
    assert law.cos_sums == () and law.sin_sums == ()
    for u in (0.1, 0.5, 0.9):
        assert abs(law.inverse(u) - u * HALF_PI) < 1e-9


def test_angle_law_single_neighbor_formula():
    g = XyGraph(free=[(0,), (1,)], edges=[((0,), (1,))])
    tau = XyTriple(
        g, {(0,): 0.3, (1,): 0.0}, {g.edges[0]: 0}, {g.edges[0]: 0}, beta=1.2
    )
    law = xy_angle_law(tau, (0,), _lane_groups(tau, (0,)))
    assert law.cos_sums == (1.0,)
    assert law.sin_sums == (0.0,)
    # density proportional to cosh(beta cos x), on the production grid
    logd = _law_log_density(law)
    for i in (0, 255, 891, 1656, len(_XS) - 1):
        x = float(_XS[i])
        expect = math.log(2 * math.cosh(1.2 * math.cos(x))) + math.log(2.0)
        assert abs(logd[i] - expect) < 1e-12


def test_angle_law_group_structure():
    # triangle: u with neighbors v1, v2; omega-edge between v1 and v2
    u, v1, v2 = (0,), (1,), (2,)
    g = XyGraph(free=[u, v1, v2], edges=[(u, v1), (u, v2), (v1, v2)])
    e12 = tuple(sorted([v1, v2]))
    alpha = {u: 0.5, v1: 0.4, v2: 0.8}
    base = {e: 0 for e in g.edges}
    linked = dict(base)
    linked[(v1, v2)] = 1
    t_linked = XyTriple(g, alpha, linked, dict(base), beta=0.9)
    t_split = XyTriple(g, alpha, dict(base), dict(base), beta=0.9)
    law_linked = xy_angle_law(t_linked, u, _lane_groups(t_linked, u))
    law_split = xy_angle_law(t_split, u, _lane_groups(t_split, u))
    a, b = math.cos(0.4), math.cos(0.8)
    assert law_linked.cos_sums == (a + b,)
    assert sorted(law_split.cos_sums) == sorted((a, b))
    i = 782  # grid point near x = 0.6
    x = float(_XS[i])
    got = _law_log_density(law_linked)[i] - _law_log_density(law_split)[i]
    cu = 0.9 * math.cos(x)
    expect = math.log(2 * math.cosh(cu * (a + b))) - math.log(
        4 * math.cosh(cu * a) * math.cosh(cu * b)
    )
    assert abs(got - expect) < 1e-12


def test_angle_law_matches_enumeration_oracle():
    # 3-path v1 - u - v2 plus edge data: oracle sums the full density
    u, v1, v2 = (1,), (0,), (2,)
    g = XyGraph(free=[v1, u, v2], edges=[(v1, u), (u, v2)])
    rng = random.Random(5)
    for trial in range(5):
        tau = _random_triple(g, beta=1.1, rng=rng)
        law = xy_angle_law(tau, u, _lane_groups(tau, u))
        idx = np.arange(0, len(_XS), 64)
        xs = _XS[idx]
        # oracle: enumerate over u's incident edges with the full
        # coordinate density (prefactor included)
        dens = xy_angle_density_oracle(
            g, {v1: tau.alpha[v1], v2: tau.alpha[v2]}, u, 1.1, xs
        )
        logd = _law_log_density(law)[idx]
        ratio = np.log(dens) - logd
        assert ratio.max() - ratio.min() < 1e-9


def test_angle_update_beta_zero():
    g = box_graph(build_box(2, 2))
    rng = random.Random(7)
    for key in range(50):
        tau = _random_triple(g, beta=0.0, rng=rng)
        iota = _iota(key)
        val = xy_angle_update(tau, (0, 0), iota, k=1, eps=0.3, groups=_lane_groups(tau, (0, 0)))
        cell = int(val / (HALF_PI / 10))
        expect = (cell + iota.u_refine) * (HALF_PI / 10)
        assert abs(val - expect) < 1e-8


def test_angle_update_rejects_a_digit_depth_outside_0_15():
    # the matched and the unmatched draw both reach digit_cell's check
    g = box_graph(build_box(2, 1))
    tau = _random_triple(g, beta=1.0, rng=random.Random(3))
    groups = _lane_groups(tau, (0, 0))
    for u_match in (0.9, 0.01):
        iota = UpdateRandomness(0.4, 0.5, u_match)
        for k in (-1, 16):
            with pytest.raises(ValueError, match="digit depth"):
                xy_angle_update(tau, (0, 0), iota, k=k, eps=0.1, groups=groups)


def test_angle_update_monotone():
    g = box_graph(build_box(2, 2))
    rng = random.Random(13)
    violations = 0
    for key in range(4000):
        lo, hi = _ordered_pair(g, 0.9, rng)
        iota = _iota(key)
        a = xy_angle_update(lo, (0, 0), iota, k=2, eps=0.15, groups=_lane_groups(lo, (0, 0)))
        b = xy_angle_update(hi, (0, 0), iota, k=2, eps=0.15, groups=_lane_groups(hi, (0, 0)))
        if a > b:
            violations += 1
    assert violations == 0


def test_angle_update_distribution_matches_oracle():
    u, v1, v2 = (1,), (0,), (2,)
    g = XyGraph(free=[v1, u, v2], edges=[(v1, u), (u, v2)])
    alpha = {v1: 0.9, u: 0.1, v2: 0.4}
    tau = XyTriple(
        g,
        dict(alpha),
        {e: 0 for e in g.edges},
        {e: 0 for e in g.edges},
        beta=1.0,
    )
    n = 30000
    samples = np.empty(n)
    for i in range(n):
        samples[i] = xy_angle_update(tau, u, _iota(i), k=2, eps=0.1, groups=_lane_groups(tau, u))
    samples.sort()
    xs = np.linspace(0, HALF_PI, 4001)
    dens = xy_angle_density_oracle(g, {v1: 0.9, v2: 0.4}, u, 1.0, xs)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]))])
    cum /= cum[-1]
    F = np.interp(samples, xs, cum)
    i = np.arange(1, n + 1)
    ks = max(np.max(np.abs(i / n - F)), np.max(np.abs((i - 1) / n - F)))
    assert ks < 0.015


def test_edge_update_cos_zero_forces_closed():
    g = XyGraph(free=[(0,), (1,)], edges=[((0,), (1,))])
    e = g.edges[0]
    tau = XyTriple(g, {(0,): HALF_PI, (1,): HALF_PI}, {e: 1}, {e: 1}, beta=1.5)
    u = (0,)
    for key in range(200):
        om, et = xy_edge_update(tau, u, _uniforms(tau, u, _iota(key)), _lane_groups(tau, u))
        assert om[e] == 0  # cos factors vanish
        assert et[e] >= 0  # eta unconstrained here


def test_edge_update_two_vertex_marginal():
    g = XyGraph(free=[(0,), (1,)], edges=[((0,), (1,))])
    e = g.edges[0]
    alpha = {(0,): 0.5, (1,): 1.1}
    beta = 1.3
    tau = XyTriple(g, alpha, {e: 0}, {e: 0}, beta)
    law = enumerate_xy(g, alpha, beta)
    n = 50000
    om_hits = et_hits = 0
    u = (0,)
    for key in range(n):
        om, et = xy_edge_update(tau, u, _uniforms(tau, u, _iota(key)), _lane_groups(tau, u))
        om_hits += om[e]
        et_hits += et[e]
    for hits, expect in ((om_hits, law.omega_marginal(e)), (et_hits, law.eta_marginal(e))):
        p = hits / n
        se = math.sqrt(expect * (1 - expect) / n)
        assert abs(p - expect) < 4 * se


def test_edge_update_star_joint_matches_enumeration():
    # u with two neighbours: the sequential conditional must reproduce
    # the exact joint law of both incident edges
    u, v1, v2 = (0,), (1,), (2,)
    g = XyGraph(free=[u, v1, v2], edges=[(u, v1), (u, v2)])
    alpha = {u: 0.7, v1: 0.2, v2: 1.2}
    beta = 1.1
    tau = XyTriple(g, alpha, {e: 0 for e in g.edges}, {e: 0 for e in g.edges}, beta)
    law = enumerate_xy(g, alpha, beta)
    e1, e2 = g.edges
    counts = {}
    n = 60000
    for key in range(n):
        om, _ = xy_edge_update(tau, u, _uniforms(tau, u, _iota(key)), _lane_groups(tau, u))
        cfg = (om[e1], om[e2])
        counts[cfg] = counts.get(cfg, 0) + 1
    for cfg, prob in law.omega_probs.items():
        got = counts.get(cfg, 0) / n
        se = math.sqrt(max(prob * (1 - prob), 1e-9) / n)
        assert abs(got - prob) < 4 * se + 1e-4


def test_edge_update_monotone():
    g = box_graph(build_box(2, 2))
    rng = random.Random(99)
    for key in range(4000):
        lo, hi = _ordered_pair(g, 1.0, rng)
        # share the fresh angle stage: impose ordered angles at u
        lo.alpha[(0, 0)] = 0.4
        hi.alpha[(0, 0)] = 0.9
        iota = _iota(key)
        u = (0, 0)
        om_lo, et_lo = xy_edge_update(lo, u, _uniforms(lo, u, iota), _lane_groups(lo, u))
        om_hi, et_hi = xy_edge_update(hi, u, _uniforms(hi, u, iota), _lane_groups(hi, u))
        for e in om_lo:
            assert om_lo[e] >= om_hi[e]
            assert et_lo[e] <= et_hi[e]


def test_full_update_preserves_order():
    g = box_graph(build_box(2, 2))
    rng = random.Random(31)
    for key in range(1500):
        lo, hi = _ordered_pair(g, 0.8, rng)
        iota = _iota(key)
        new_lo = xy_full_update(lo, (0, 0), iota, k=2, eps=0.15,
            groups=_lane_groups(lo, (0, 0)), uniforms=_uniforms(lo, (0, 0), iota))
        new_hi = xy_full_update(hi, (0, 0), iota, k=2, eps=0.15,
            groups=_lane_groups(hi, (0, 0)), uniforms=_uniforms(hi, (0, 0), iota))
        assert xy_leq(new_lo, new_hi)


def _triple_bits(tau):
    return ([(n, a.hex()) for n, a in tau.alpha.items()], dict(tau.omega), dict(tau.eta))


def test_shared_lane_update_equals_two_updates(monkeypatch):
    # lanes that agree on u's neighbour groups and on alpha over N(u) but
    # differ elsewhere (alpha at u and beyond N(u), u's own bonds, far
    # bonds): the sandwich's one shared update must give both lanes the
    # bits of two separate updates
    calls = []
    original = cftp_mod.xy_full_update

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(cftp_mod, "xy_full_update", counting)
    g = box_graph(build_box(2, 3))
    rng = random.Random(41)
    tried = 0
    for key in range(400):
        a = _random_triple(g, 1.0, rng)
        b = a.copy()
        u = rng.choice(g.free)
        near = set(g.neighbors_of(u))
        for n in g.nodes:
            if n not in near and rng.random() < 0.7:
                b.alpha[n] = rng.uniform(0, HALF_PI)
        for e in g.edges:
            if e in g.incident[u] or rng.random() < 0.1:
                b.omega[e] = rng.randint(0, 1)
                b.eta[e] = rng.randint(0, 1)
        if _lane_groups(a, u) != _lane_groups(b, u):
            continue
        tried += 1
        assert _triple_bits(a) != _triple_bits(b)
        iota = _iota(key)
        hi, lo = a.copy(), b.copy()
        calls.clear()
        for _ in xy_sandwich_steps(hi, lo, [UpdateEvent(u, -0.5, iota)], k=2, eps=0.15):
            pass
        assert calls == [u]  # one update served both lanes
        for lane, tau in ((hi, a), (lo, b)):
            xy_full_update(tau, u, iota, k=2, eps=0.15,
                groups=_lane_groups(tau, u), uniforms=_uniforms(tau, u, iota))
            assert _triple_bits(lane) == _triple_bits(tau)
    assert tried >= 100


def _separate_lane_steps(hi, lo, events, k, eps):
    """The XY sandwich loop without sharing: each lane runs its own update
    with its own neighbour groups, from the full search, and its own
    ``edge_uniform`` calls."""
    for ev in events:
        u, iota = ev.vertex, ev.randomness
        for tau in (hi, lo):
            groups = (neighbour_groups(tau, u, tau.omega), neighbour_groups(tau, u, tau.eta))
            xy_full_update(tau, u, iota, k, eps, groups, _uniforms(tau, u, iota))


@pytest.mark.parametrize("boundary", [BC_PLUS_ONE, BC_PLUS_I, None])
@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0])
def test_sandwich_steps_match_separate_lane_updates(monkeypatch, beta, boundary):
    # group reuse, shared edge uniforms and shared updates leave both
    # lanes with the bits of two separate updates per event
    calls = [0]
    original = xy_mod._groups

    def counting(tau, u, bond):
        calls[0] += 1
        return original(tau, u, bond)

    monkeypatch.setattr(xy_mod, "_groups", counting)
    region = build_box(2, 2)
    g = box_graph(region)
    window = auto_window(region, -8.0, 0.0, "xy", beta, boundary=boundary)
    n_events = 0
    for seed in range(3):
        seed += 100 * int(10 * beta) + 10 * {BC_PLUS_ONE: 0, BC_PLUS_I: 1, None: 2}[boundary]
        events = event_stream(region, window.t_start, window.t_end, seed)
        n_events += len(events)
        lo, hi = xy_extremes(g, beta, bc=boundary)
        lo_ref, hi_ref = lo.copy(), hi.copy()
        for _ in xy_sandwich_steps(hi, lo, events, window.k, window.eps):
            pass
        _separate_lane_steps(hi_ref, lo_ref, events, window.k, window.eps)
        for lane, ref in ((hi, hi_ref), (lo, lo_ref)):
            assert _triple_bits(lane) == _triple_bits(ref), seed
    # 4 searches per event, less those the lower lane took from the upper;
    # at beta 2 the free-boundary lanes need not agree off u's edges by t = 0
    assert calls[0] <= 4 * n_events
    assert calls[0] < 4 * n_events or (beta, boundary) == (2.0, None)


def test_cdf_is_np_interp_bit_for_bit():
    rng = random.Random(5)
    h = float(_XS[1])
    nodes = [float(x) for x in _XS]
    for trial in range(30):
        law = AngleLawHandle(
            cos_sums=tuple(rng.uniform(0, 3) for _ in range(rng.randint(0, 3))),
            sin_sums=tuple(rng.uniform(0, 3) for _ in range(rng.randint(0, 3))),
            beta=rng.choice([0.0, 0.5, 1.0, 4.0]),
        )
        F = law.cdf_grid()
        xs = [rng.uniform(-h, HALF_PI + h) for _ in range(300)]
        for x in rng.sample(nodes, 30) + [nodes[0], nodes[-1]]:
            xs += [x, math.nextafter(x, -1.0), math.nextafter(x, 2.0)]
        xs += [-1.0, -0.0, 2.0, HALF_PI, math.pi]
        for c in range(0, 1000, 37):  # digit-cell bounds at depth 3
            xs += [(c / 1000.0) * HALF_PI, ((c + 1) / 1000.0) * HALF_PI]
        for x in xs:
            assert law.cdf(x).hex() == float(np.interp(x, _XS, F)).hex(), x


def _compensated_sum(xs):
    """``sum()`` of floats on Python >= 3.12 (Neumaier's compensation)."""
    f, c = 0 + xs[0], 0.0
    for x in xs[1:]:
        t = f + x
        c += (f - t) + x if abs(f) >= abs(x) else (x - t) + f
        f = t
    return f + c if c and math.isfinite(c) else f


def test_group_sum_is_a_left_fold():
    # a three-member omega group whose left-fold cosine sum differs in the
    # last bit from the compensated sum() of Python >= 3.12: the law must
    # read the left fold on every Python
    u, v1, v2, v3 = (0,), (1,), (2,), (3,)
    g = XyGraph(free=[u, v1, v2, v3], edges=[(u, v1), (u, v2), (u, v3), (v1, v2), (v2, v3)])
    bonds = {e: int(u not in e) for e in g.edges}
    alpha = {u: 0.2, v1: 1.23, v2: 0.48, v3: 0.75}
    tau = XyTriple(g, alpha, dict(bonds), {e: 0 for e in g.edges}, beta=1.0)
    groups = _lane_groups(tau, u)
    assert groups[0] == [[v1, v2, v3]]
    cosines = [math.cos(alpha[v]) for v in (v1, v2, v3)]
    got = xy_angle_law(tau, u, groups).cos_sums[0]
    assert got.hex() == "0x1.f3f2aa26cdf22p+0"
    assert got == (cosines[0] + cosines[1]) + cosines[2]
    assert got != _compensated_sum(cosines)


@pytest.mark.parametrize("beta", [-0.5, float("nan"), float("inf"), float("-inf")])
def test_triple_rejects_bad_beta(beta):
    g = XyGraph(free=[(0,)], edges=[])
    with pytest.raises(ValueError, match="beta"):
        XyTriple(g, {(0,): 0.3}, {}, {}, beta=beta)


def test_almost_markov_support_closed_bonds():
    g = box_graph(build_box(2, 3))
    lo, _ = xy_extremes(g, beta=1.0)
    tau = lo.copy()
    for e in g.edges:
        tau.omega[e] = 0
        tau.eta[e] = 0
    verts, edges = almost_markov_support(tau, (0, 0))
    assert verts == set(g.neighbors_of((0, 0)))


def test_almost_markov_support_follows_cluster():
    g = box_graph(build_box(2, 3))
    tau = XyTriple(
        g,
        {n: 0.5 for n in g.nodes},
        {e: 0 for e in g.edges},
        {e: 0 for e in g.edges},
        beta=1.0,
    )
    # open an omega path (0,1)-(1,1)-(2,1)... wait from neighbor (0,1) outward
    path = [((0, 1), (1, 1)), ((1, 1), (2, 1))]
    for e in path:
        tau.omega[tuple(sorted(e))] = 1
    verts, _ = almost_markov_support(tau, (0, 0))
    assert (2, 1) in verts


def test_almost_markov_update_insensitive_outside_support():
    g = box_graph(build_box(2, 3))
    rng = random.Random(17)
    for key in range(100):
        tau = _random_triple(g, 1.0, rng)
        verts, edges = almost_markov_support(tau, (0, 0))
        far_vert = (2, 2)
        if far_vert in verts:
            continue
        pert = tau.copy()
        pert.alpha[far_vert] = rng.uniform(0, HALF_PI)
        # perturb an edge outside the support as well
        for e in g.edges:
            if e not in edges and far_vert in e:
                pert.omega[e] = 1 - pert.omega[e]
                break
        # support must be recomputed equal, else the perturbation was inside
        v2, _ = almost_markov_support(pert, (0, 0))
        if v2 != verts:
            continue
        iota = _iota(key)
        a1 = xy_angle_update(tau, (0, 0), iota, k=2, eps=0.15, groups=_lane_groups(tau, (0, 0)))
        a2 = xy_angle_update(pert, (0, 0), iota, k=2, eps=0.15, groups=_lane_groups(pert, (0, 0)))
        assert a1 == a2
        t1, t2 = tau.copy(), pert.copy()
        t1.alpha[(0, 0)] = a1
        t2.alpha[(0, 0)] = a2
        u = (0, 0)
        om1, et1 = xy_edge_update(t1, u, _uniforms(t1, u, iota), _lane_groups(t1, u))
        om2, et2 = xy_edge_update(t2, u, _uniforms(t2, u, iota), _lane_groups(t2, u))
        assert om1 == om2 and et1 == et2


def test_reconstruct_alpha_zero():
    g = XyGraph(free=[(0,), (1,)], edges=[((0,), (1,))])
    e = g.edges[0]
    tau = XyTriple(g, {(0,): 0.0, (1,): 0.0}, {e: 1}, {e: 0}, beta=1.0)
    comp = percolation_components(g, tau.omega)[0]
    rep = component_representative(comp)
    spins = xy_reconstruct_spins(tau, {rep: -1}, {(0,): 1, (1,): 1})
    assert spins[(0,)] == spins[(1,)] == -1.0


def test_reconstruct_diagonal():
    g = XyGraph(free=[(0,)], edges=[])
    tau = XyTriple(g, {(0,): math.pi / 4}, {}, {}, beta=1.0)
    spins = xy_reconstruct_spins(tau, {(0,): 1}, {(0,): 1})
    assert abs(spins[(0,)] - (1 + 1j) / math.sqrt(2)) < 1e-15


def test_reconstruct_unit_modulus():
    g = box_graph(build_box(2, 2))
    rng = random.Random(3)
    tau = _random_triple(g, 1.0, rng)
    om_coins = {
        component_representative(c): rng.choice([-1, 1])
        for c in percolation_components(g, tau.omega)
    }
    et_coins = {
        component_representative(c): rng.choice([-1, 1])
        for c in percolation_components(g, tau.eta)
    }
    spins = xy_reconstruct_spins(tau, om_coins, et_coins)
    for n in g.free:
        assert abs(abs(spins[n]) - 1.0) < 1e-15


def test_two_vertex_spin_law_matches_xy_model():
    # run the composite update to equilibrium on the free two-vertex
    # graph, reconstruct spins, and compare E[sigma_0 conj(sigma_1)]
    # with quadrature of the original XY density
    beta = 1.0
    g = XyGraph(free=[(0,), (1,)], edges=[((0,), (1,))])
    e = g.edges[0]
    rng = random.Random(23)
    lo, _ = xy_extremes(g, beta)
    tau = lo.copy()
    n = 20000
    burn = 50
    acc = 0.0
    count = 0
    key = 0
    for sweep in range(n + burn):
        for u in ((0,), (1,)):
            key += 1
            tau = xy_full_update(tau, u, _iota(key), k=2, eps=0.1,
                groups=_lane_groups(tau, u), uniforms=_uniforms(tau, u, _iota(key)))
        if sweep >= burn:
            om_coins = {
                component_representative(c): rng.choice([-1, 1])
                for c in percolation_components(g, tau.omega)
            }
            et_coins = {
                component_representative(c): rng.choice([-1, 1])
                for c in percolation_components(g, tau.eta)
            }
            spins = xy_reconstruct_spins(tau, om_coins, et_coins)
            acc += (spins[(0,)] * spins[(1,)].conjugate()).real
            count += 1
    got = acc / count
    expect = xy_two_vertex_expectation(beta, lambda a, b: a * np.conj(b)).real
    # samples are correlated across sweeps: generous 5 sigma of the iid bound
    se = math.sqrt(1.0 / count)
    assert abs(got - expect) < 5 * se + 0.01


def test_holley_dominance_of_angle_laws():
    g = box_graph(build_box(2, 2))
    rng = random.Random(41)
    xs = np.linspace(0, HALF_PI, 10001)
    for _ in range(100):
        lo, hi = _ordered_pair(g, 1.0, rng)
        f_lo = xy_angle_law(lo, (0, 0), _lane_groups(lo, (0, 0)))
        f_hi = xy_angle_law(hi, (0, 0), _lane_groups(hi, (0, 0)))
        F_lo = np.interp(xs, np.linspace(0, HALF_PI, 2049), f_lo.cdf_grid())
        F_hi = np.interp(xs, np.linspace(0, HALF_PI, 2049), f_hi.cdf_grid())
        assert np.all(F_hi <= F_lo + 1e-9)


def test_calibrate_matching_xy():
    assert required_digits("xy", 0.0, 2, 0.3) == 0
    ks = [required_digits("xy", 1.0, 2, eps) for eps in (0.05, 0.15, 0.5)]
    assert ks == sorted(ks, reverse=True)
    k = required_digits("xy", 1.0, 2, 0.15)
    assert 4 * 2 * 1.0 * HALF_PI * 10.0**-k <= -math.log1p(-0.15)
    with pytest.raises(RuntimeError):
        required_digits("xy", 1e15, 2, 0.1)


# Digit depths recorded from the earlier calibration, which confirmed the
# Lipschitz rule numerically on the grid log densities of four extremal
# angle laws before accepting a depth.  Rows are (d, eps), columns
# _DEPTH_BETAS.
_DEPTH_BETAS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0)
_RECORDED_DEPTHS = {
    (1, 0.01): (1, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4),
    (1, 0.05): (1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3),
    (1, 0.1): (0, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3),
    (1, 0.15): (0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3),
    (1, 0.3): (0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3),
    (1, 0.5): (0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2),
    (2, 0.01): (2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5),
    (2, 0.05): (1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4),
    (2, 0.1): (1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3),
    (2, 0.15): (0, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3),
    (2, 0.3): (0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3),
    (2, 0.5): (0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3),
    (3, 0.01): (2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 5),
    (3, 0.05): (1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4, 4),
    (3, 0.1): (1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4),
    (3, 0.15): (1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3),
    (3, 0.3): (0, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3),
    (3, 0.5): (0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3),
}
# (beta, d, eps, k) for every calibration the tests and the benchmark make
_RECORDED_IN_USE = [
    (0.0, 1, 0.1, 0), (0.0, 2, 0.3, 0), (1.0, 2, 0.5, 2), (1.0, 2, 0.15, 2),
    (1.0, 2, 0.1, 3), (1.0, 2, 0.05, 3), (2.0, 1, 0.1, 3), (0.5, 1, 0.5, 1),
    (0.5, 1, 0.1, 2), (0.7, 2, 0.15, 2), (0.7, 2, 0.1, 2), (0.8, 2, 0.15, 2),
    (0.2, 1, 0.1, 2),
]


def _depth_cases():
    for (d, eps), ks in _RECORDED_DEPTHS.items():
        for beta, k in zip(_DEPTH_BETAS, ks):
            yield beta, d, eps, k
    yield from _RECORDED_IN_USE


def test_calibrate_matching_xy_matches_recorded_depths():
    cases = list(_depth_cases())
    assert len(cases) == 234 + 13
    for beta, d, eps, k in cases:
        assert required_digits("xy", beta, d, eps) == k, (beta, d, eps)


def test_calibrated_depth_bounds_log_density_within_every_cell():
    # the property the depth certifies: inside each digit cell the log
    # density of the extremal laws (one omega or eta group holding all 2d
    # neighbours, all singletons, one group per field) moves by at most
    # -log(1 - eps); checked on 33 points per cell, both ends included
    t = np.linspace(0.0, 1.0, 33)
    for beta, d, eps, _ in _depth_cases():
        k = required_digits("xy", beta, d, eps)
        if k > 3:
            continue
        xs = ((np.arange(10**k)[:, None] + t) / 10.0**k) * HALF_PI
        cos_x, sin_x = np.cos(xs), np.sin(xs)
        for cos_sums, sin_sums in (((2.0 * d,), ()), ((), (2.0 * d,)),
                                   ((1.0,) * 2 * d, (1.0,) * 2 * d), ((d,), (d,))):
            ys = [beta * s * cos_x for s in cos_sums] + [beta * s * sin_x for s in sin_sums]
            logf = sum(np.logaddexp(y, -y) for y in ys)
            spread = logf.max(axis=1) - logf.min(axis=1)
            assert spread.max() <= -math.log1p(-eps) + 1e-12, (beta, d, eps, k)


def _uncached_log_density(beta, cos_sums, sin_sums):
    out = np.zeros(len(_XS))
    for s in cos_sums:
        y = beta * s * np.cos(_XS)
        out += np.logaddexp(y, -y)
    for s in sin_sums:
        y = beta * s * np.sin(_XS)
        out += np.logaddexp(y, -y)
    return out


def _uncached_cdf(beta, cos_sums, sin_sums):
    logf = _uncached_log_density(beta, cos_sums, sin_sums)
    f = np.exp(logf - logf.max())
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]))])
    return cum / cum[-1]


def test_memoised_angle_law_matches_uncached_formula():
    rng = random.Random(2)
    laws = [((), ()), ((0.0,), (0.0,)), ((0.0, 0.0), ()), ((1e-300, 5e-324), (1e-17,)),
            ((0.7, 0.7, 0.7), (0.7,)), ((2.0,), ()), ((), (2.0,))]
    for _ in range(40):
        pool = [rng.uniform(0, 3) for _ in range(3)]
        laws.append((tuple(rng.choice(pool) for _ in range(rng.randint(0, 4))),
                     tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))))
    # every law twice, in shuffled order: the second visit reads the caches
    order = laws + laws
    rng.shuffle(order)
    for beta in (0.0, 0.45, 1.0, 3.7):
        for cos_sums, sin_sums in order:
            h = AngleLawHandle(cos_sums=cos_sums, sin_sums=sin_sums, beta=beta)
            logd = _law_log_density(h)
            assert logd.tobytes() == _uncached_log_density(beta, cos_sums, sin_sums).tobytes()
            cdf = h.cdf_grid()
            assert cdf.tobytes() == _uncached_cdf(beta, cos_sums, sin_sums).tobytes()
            assert h.cdf_grid() is cdf


def test_memoised_arrays_are_read_only():
    h = AngleLawHandle(cos_sums=(0.3, 1.2), sin_sums=(0.9,), beta=1.0)
    cdf = h.cdf_grid()
    with pytest.raises(ValueError):
        cdf[5] = 0.0
    with pytest.raises(ValueError):
        xy_mod._log_cosh_term(0.3, 0)[0] = 0.0
    # the log density is a fresh sum: changing it leaves the next one alone
    logd = _law_log_density(h)
    logd[:] = 0.0
    assert _law_log_density(h).tobytes() == _uncached_log_density(1.0, (0.3, 1.2), (0.9,)).tobytes()


def test_angle_law_caches_stay_within_their_caps():
    caches = (xy_mod._log_cosh_term, xy_mod._fast_cdf)
    caps = [c.cache_info().maxsize for c in caches]
    assert caps == [16, 4]
    window = auto_window(build_box(2, 2), -8.0, 0.0, "xy", beta=1.0, boundary="+1")
    for seed in range(3):
        sandwich_run(window, seed)
    for cache, cap in zip(caches, caps):
        info = cache.cache_info()
        assert info.misses > cap  # the run went past the cap
        assert info.currsize <= cap


def _set_based_open_prob(p_list, target_blocks, u_linked_blocks, n_blocks):
    m = len(p_list)
    w_open = 0.0
    w_closed = 0.0
    for mask in range(1 << m):
        w = 1.0
        linked = set(u_linked_blocks)
        for i in range(m):
            if mask >> i & 1:
                w *= p_list[i]
                linked.add(target_blocks[i])
            else:
                w *= 1.0 - p_list[i]
        comps = n_blocks + 1 - len(linked)
        w *= 2.0**comps
        if mask & 1:
            w_open += w
        else:
            w_closed += w
    total = w_open + w_closed
    if total <= 0.0:
        return 0.0
    return w_open / total


def test_open_prob_matches_set_based_enumeration():
    rng = random.Random(11)
    for trial in range(3000):
        m = rng.randint(1, 5)
        n_blocks = rng.randint(1, m + 1)
        p_list = [rng.choice([0.0, 1.0, 1e-17, rng.random(), rng.random()]) for _ in range(m)]
        blocks = [rng.randrange(n_blocks) for _ in range(m)]
        linked = {b for b in range(n_blocks) if rng.random() < 0.3}
        mask = sum(1 << b for b in linked)
        got = _conditional_open_prob(p_list, blocks, mask, n_blocks)
        assert got.hex() == _set_based_open_prob(p_list, blocks, linked, n_blocks).hex()
    info = xy_mod._link_scales.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def _edge_weight_p(beta, au, av, kind):
    """The FK weight of an edge, as ``xy_edge_update`` formed it per
    neighbour and kind before it hoisted beta cos(au) and beta sin(au)."""
    if kind == "omega":
        x = beta * math.cos(au) * math.cos(av)
    else:
        x = beta * math.sin(au) * math.sin(av)
    return min(1.0, max(0.0, -math.expm1(-2.0 * x)))


def _edge_update_before(tau, u, uniforms, groups):
    """``xy_edge_update`` as it was before the FK bracket rule: every
    incident edge runs the exact enumeration."""
    graph = tau.graph
    incident = graph.incident[u]
    nbrs = graph.neighbors_of(u)
    beta, alpha, au = tau.beta, tau.alpha, tau.alpha[u]
    new_omega, new_eta = {}, {}
    for kind, kind_groups, out, slot0 in (
        ("omega", groups[0], new_omega, 0),
        ("eta", groups[1], new_eta, 1),
    ):
        block_of = {}
        for gi, g in enumerate(kind_groups):
            for t in g:
                block_of[t] = gi
        n_blocks = len(kind_groups)
        p_all = [_edge_weight_p(beta, au, alpha[v], kind) for v in nbrs]
        blocks = tuple(block_of[v] for v in nbrs)
        u_linked = 0
        for i, e in enumerate(incident):
            prob = _conditional_open_prob(p_all[i:], blocks[i:], u_linked, n_blocks)
            uval = uniforms[2 * i + slot0]
            bit = 1 if uval < prob else 0
            out[e] = bit
            if bit:
                u_linked |= 1 << blocks[i]
    return new_omega, new_eta


_DELTA = 1e-12  # the rule's margin, as in xy._BRACKET_DELTA


def test_open_prob_lies_in_fk_bracket():
    # P(open) lies in [p/(2-p), p] for the decided edge's weight p, and
    # wherever the rule decides an edge its bit is the enumeration's
    assert xy_mod._BRACKET_DELTA == _DELTA
    rng = random.Random(17)
    decided = deferred = 0
    for _ in range(4000):
        m = rng.randint(1, 6)
        n_blocks = rng.randint(1, m + 1)
        p_list = [rng.choice([0.0, 1.0, 1e-17, rng.random()]) for _ in range(m)]
        blocks = [rng.randrange(n_blocks) for _ in range(m)]
        mask = sum(1 << b for b in range(n_blocks) if rng.random() < 0.3)
        prob = _conditional_open_prob(p_list, blocks, mask, n_blocks)
        p = p_list[0]
        lo, hi = p / (2.0 - p), p
        assert lo - _DELTA / 10 <= prob <= hi + _DELTA / 10, (p_list, blocks, mask, n_blocks)
        probes = [prob, math.nextafter(prob, 0.0), math.nextafter(prob, 2.0), rng.random()]
        for end in (lo, hi):
            probes += [end + f * _DELTA for f in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
        for uval in probes:
            if not 0.0 < uval <= 1.0:
                continue
            bit = xy_mod._bracket_bit(uval, p, _DELTA)
            if bit is None:
                deferred += 1
            else:
                decided += 1
                assert bit == (1 if uval < prob else 0), (uval, p_list, blocks, mask)
            # an infinite margin defers every edge to the enumeration
            assert xy_mod._bracket_bit(uval, p, math.inf) is None
    assert decided > 10000 and deferred > 10000


@pytest.mark.parametrize("radius", [2, 3])
@pytest.mark.parametrize("boundary", [BC_PLUS_ONE, BC_PLUS_I])
@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0])
def test_edge_update_matches_full_enumeration(monkeypatch, beta, boundary, radius):
    # every lane update of a sandwich run gives the enumeration's edges
    # from the uniforms the loop hashed once for the event
    checked = []
    original = xy_mod.xy_edge_update

    def compared(tau, u, uniforms, groups):
        got = original(tau, u, uniforms, groups)
        assert got == _edge_update_before(tau, u, uniforms, groups)
        checked.append(u)
        return got

    monkeypatch.setattr(xy_mod, "xy_edge_update", compared)
    window = auto_window(build_box(2, radius), -3.0, 0.0, "xy", beta=beta, boundary=boundary)
    for seed in range(2):
        sandwich_run(window, seed)
    assert len(checked) > 100

    # uniforms within 2 delta of either end of each edge's bracket
    g = box_graph(build_box(2, radius))
    rng = random.Random(f"{beta}:{boundary}:{radius}")
    for _ in range(150):
        tau = _random_triple(g, beta, rng)
        for n in g.frozen:
            tau.alpha[n] = xy_mod.boundary_angle(boundary)
        u = rng.choice(g.free)
        groups = _lane_groups(tau, u)
        uniforms = []
        for v in g.neighbors_of(u):
            for kind in ("omega", "eta"):  # slots 2 i and 2 i + 1
                p = _edge_weight_p(beta, tau.alpha[u], tau.alpha[v], kind)
                end = rng.choice([p / (2.0 - p), p])
                uval = end + rng.choice([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]) * _DELTA
                uniforms.append(min(1.0, max(2.0**-53, uval)))
        assert xy_edge_update(tau, u, uniforms, groups) == _edge_update_before(tau, u, uniforms, groups)


def _grid_bound(law):
    h = _XS[1] - _XS[0]
    L = law.beta * (sum(law.cos_sums) + sum(law.sin_sums))
    return h * h * (1 + L) ** 2 * math.exp(L * h) / 2


@pytest.mark.parametrize("beta, a_v", [(1.0, 0.6), (4.0, HALF_PI / 2), (2.5, 0.0)])
def test_angle_cdf_grid_within_stated_bound(beta, a_v):
    # two nodes, one edge: the conditional law of the angle at u is the
    # oracle's summed density; Simpson on a 16x finer grid is its CDF
    u, v = (0,), (1,)
    g = XyGraph(free=[u, v], edges=[(u, v)])
    tau = XyTriple(g, {u: 0.3, v: a_v}, {g.edges[0]: 0}, {g.edges[0]: 0}, beta=beta)
    law = xy_angle_law(tau, u, _lane_groups(tau, u))
    fine = np.linspace(0.0, HALF_PI, 16 * (len(_XS) - 1) + 1)
    dens = xy_angle_density_oracle(g, {v: a_v}, u, beta, fine)
    step = fine[1] - fine[0]
    pieces = step / 3 * (dens[:-2:2] + 4 * dens[1:-1:2] + dens[2::2])
    exact = np.concatenate([[0.0], np.cumsum(pieces)])
    exact /= exact[-1]
    xs = fine[::2]
    err = np.max(np.abs(np.interp(xs, _XS, law.cdf_grid()) - exact))
    bound = _grid_bound(law)
    assert bound < 1e-4
    assert err <= bound



def _random_law(rng):
    """A law as ``xy_angle_law`` builds it: beta in [0, 8], d in {1, 2, 3},
    and the 2d neighbours split into up to four omega- and four eta-groups
    (angles 0 and pi/2 give zero sums)."""
    d = rng.choice([1, 2, 3])
    angles = [rng.choice([0.0, HALF_PI, rng.uniform(0.0, HALF_PI)]) for _ in range(2 * d)]

    def sums(f):
        groups = [[] for _ in range(rng.randint(0, min(4, 2 * d)))]
        for a in angles:
            if groups:
                rng.choice(groups).append(a)
        return tuple(math.fsum(f(a) for a in g) for g in groups)

    return AngleLawHandle(cos_sums=sums(math.cos), sin_sums=sums(math.sin),
                          beta=rng.uniform(0.0, 8.0))


def _fast_handle(law):
    """The law's handle on the cosh-product grid ``matched_cell`` reads."""
    F = xy_mod._fast_cdf(law.beta, law.cos_sums, law.sin_sums)
    return AngleLawHandle(law.cos_sums, law.sin_sums, law.beta, F)


def test_matched_cell_is_none_or_the_exact_cell():
    rng = random.Random(11)
    delta = xy_mod._CELL_DELTA
    certified = draws = 0

    def check(law, u, k):
        got = law.matched_cell(u, k)
        assert got is None or got == xy_mod._cell_search(law.inverse(u), k), (law, u, k)
        return got is not None

    for _ in range(60):
        law = _random_law(rng)
        fast = _fast_handle(law)
        for k in range(7):
            for _ in range(10):
                certified += check(law, rng.random(), k)
                draws += 1
            # u within delta of F_fast at an interior cell's ends is never
            # certified; between delta and 2 delta it may be
            c = xy_mod._cell_search(law.inverse(rng.random()), k)
            if not 0 < c < 10**k - 1:
                continue
            for end in map(fast.cdf, xy_mod._angle_cell_bounds(c, k)):
                for t in (-0.9, -0.5, 0.0, 0.5, 0.9):
                    assert law.matched_cell(end + t * delta, k) is None
                for t in (-2.0, -1.5, -1.0, 1.0, 1.5, 2.0):
                    check(law, end + t * delta, k)
    assert certified >= 0.99 * draws


def test_fast_cdf_is_within_a_thousandth_of_delta():
    rng = random.Random(12)
    worst = 0.0
    for _ in range(200):
        law = _random_law(rng)
        F = xy_mod._fast_cdf(law.beta, law.cos_sums, law.sin_sums)
        worst = max(worst, float(np.max(np.abs(F - law.cdf_grid()))))
    assert worst <= xy_mod._CELL_DELTA / 1000


def test_matched_cell_overflow_guard():
    # beta * (sum of the sums) = 750 > 700: the cosh product could overflow
    hot = AngleLawHandle(cos_sums=(4.0,), sin_sums=(3.5,), beta=100.0)
    assert xy_mod._fast_cdf(hot.beta, hot.cos_sums, hot.sin_sums) is None
    assert all(hot.matched_cell(u, 2) is None for u in (0.0, 0.3, 0.9))
    # just under the guard the product stays finite (warnings are errors)
    warm = AngleLawHandle(cos_sums=(3.5, 3.5), sin_sums=(), beta=99.99)
    assert np.isfinite(_fast_handle(warm).cdf_grid()).all()
    for u in (0.0, 0.3, 0.9, 0.999):
        got = warm.matched_cell(u, 2)
        assert got is None or got == xy_mod._cell_search(warm.inverse(u), 2)


def _inverse_before(F, u):
    """``AngleLawHandle.inverse`` as it was, in numpy-scalar arithmetic."""
    i = int(np.searchsorted(F, u, side="left"))
    if i <= 0:
        return 0.0
    if i > len(_XS) - 1:
        return HALF_PI
    f0, f1 = F[i - 1], F[i]
    x0, x1 = _XS[i - 1], _XS[i]
    if f1 <= f0:
        return float(x1)
    return float(x0 + (x1 - x0) * (u - f0) / (f1 - f0))


def test_inverse_is_the_numpy_scalar_formula_bit_for_bit():
    rng = random.Random(13)
    laws = [_random_law(rng) for _ in range(30)]
    laws.append(AngleLawHandle(cos_sums=(6.0,), sin_sums=(), beta=200.0))  # flat tail
    for law in laws:
        F = law.cdf_grid()
        us = [rng.random() for _ in range(200)] + [0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0]
        for f in rng.sample(F.tolist(), 20):
            us += [f, math.nextafter(f, -1.0), math.nextafter(f, 2.0)]
        for u in us:
            assert law.inverse(u).hex() == _inverse_before(F, u).hex(), u


def _unmatched_cases(rng, beta, laws, per_law):
    """(law, a, b, eps, u_refine) cases of the unmatched refinement: laws
    as ``xy_angle_law`` builds them at this beta on d = 1, 2 or 3, the
    calibrated depth, cells from random primary uniforms."""
    for _ in range(laws):
        d = rng.choice([1, 2, 3])
        angles = [rng.choice([0.0, HALF_PI, rng.uniform(0.0, HALF_PI)]) for _ in range(2 * d)]

        def sums(f):
            groups = [[] for _ in range(rng.randint(1, 2 * d))]
            for a in angles:
                rng.choice(groups).append(a)
            return tuple(math.fsum(f(a) for a in g) for g in groups)

        law = AngleLawHandle(cos_sums=sums(math.cos), sin_sums=sums(math.sin), beta=beta)
        eps = rng.choice([0.05, 0.1, 0.2])
        k = required_digits("xy", beta, d, eps)
        for _ in range(per_law):
            c = xy_mod._cell_search(law.inverse(rng.random()), k)
            yield (law, *xy_mod._angle_cell_bounds(c, k), eps, rng.random())


def _certified_or_loop(law, a, b, eps, ur):
    """(certified value or None, the bisection's value) on one case."""
    fa = law.cdf(a)
    span = law.cdf(b) - fa
    residual = xy_mod._cell_residual(law, a, b, fa, span, eps)
    want = snap(monotone_inverse(residual, ur, a, b), VALUE_GRID)
    return xy_mod._certified_root(law, residual, ur, a, b, span, eps), want


@pytest.mark.parametrize("beta", [1.0, 4.0])
def test_certified_unmatched_inverse_is_the_bisection(beta):
    # on 10,000 random cases per beta the certificate returns the loop's
    # bits or declines; it declines 0.16% of them (31 at beta 1, 32 at
    # beta 4 on 20,000 cases with another seed when it was written)
    rng = random.Random(f"unmatched:{beta}")
    cases = declined = 0
    for law, a, b, eps, ur in _unmatched_cases(rng, beta, laws=200, per_law=50):
        if law.cdf(b) - law.cdf(a) <= 0.0:
            continue  # no mass: the draw is uniform on the cell, no bisection
        got, want = _certified_or_loop(law, a, b, eps, ur)
        assert got is None or got == want, (law, a, b, eps, ur)
        cases += 1
        declined += got is None
    assert cases >= 9900
    assert declined < 0.01 * cases


@pytest.mark.parametrize("beta", [1.0, 4.0])
def test_certified_unmatched_inverse_near_snap_edges_and_grid_nodes(beta):
    # roots placed within 1e-13 of a rounding edge of the VALUE_GRID snap
    # or of an F_grid node, and the neighbouring floats of that u_refine:
    # the certificate must decline wherever it cannot prove the loop's bits
    rng = random.Random(f"edges:{beta}")
    xs = xy_mod._XS_LIST
    certified = declined = 0
    for law, a, b, eps, ur in _unmatched_cases(rng, beta, laws=100, per_law=10):
        fa = law.cdf(a)
        span = law.cdf(b) - fa
        if span <= 0.0:
            continue
        y = a + ur * (b - a)
        if rng.random() < 0.5:
            y = (math.floor(y * VALUE_GRID) + 0.5) / VALUE_GRID
        else:
            y = min(xs, key=lambda x: abs(x - y))
        y += rng.choice([-1.0, 1.0]) * rng.choice([0.0, 1e-16, 1e-15, 1e-14, 1e-13])
        if not a < y < b:
            continue
        u0 = xy_mod._cell_residual(law, a, b, fa, span, eps)(y)
        for u in (math.nextafter(u0, 0.0), u0, math.nextafter(u0, 2.0)):
            if 0.0 < u <= 1.0:
                got, want = _certified_or_loop(law, a, b, eps, u)
                assert got is None or got == want, (law, a, b, eps, u)
                certified += got is not None
                declined += got is None
    assert certified > 1000 and declined > 300
