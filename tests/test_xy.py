import math
import random

import numpy as np
import pytest

from exactspin.lattice import build_box
from exactspin.oracle import enumerate_xy, xy_angle_density_oracle, xy_two_vertex_expectation
from exactspin.randomness import mix64
from exactspin.xy import (
    _XS,
    BC_PLUS_I,
    BC_PLUS_ONE,
    HALF_PI,
    AngleLawHandle,
    XyGraph,
    XyTriple,
    almost_markov_support,
    box_graph,
    calibrate_matching_xy,
    percolation_components,
    component_representative,
    xy_angle_law,
    xy_angle_update,
    xy_edge_update,
    xy_extremes,
    xy_full_update,
    xy_leq,
    xy_reconstruct_spins,
)

from keyed import keyed_randomness


def _iota(key):
    return keyed_randomness(mix64(key))


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


def test_angle_law_no_neighbors_is_uniform():
    g = XyGraph(free=[(0,)], edges=[])
    tau = XyTriple(g, {(0,): 0.3}, {}, {}, beta=2.0)
    law = xy_angle_law(tau, (0,))
    assert law.cos_sums == () and law.sin_sums == ()
    for u in (0.1, 0.5, 0.9):
        assert abs(law.inverse(u) - u * HALF_PI) < 1e-9


def test_angle_law_single_neighbor_formula():
    g = XyGraph(free=[(0,), (1,)], edges=[((0,), (1,))])
    tau = XyTriple(
        g, {(0,): 0.3, (1,): 0.0}, {g.edges[0]: 0}, {g.edges[0]: 0}, beta=1.2
    )
    law = xy_angle_law(tau, (0,))
    assert law.cos_sums == (1.0,)
    assert law.sin_sums == (0.0,)
    # density proportional to cosh(beta cos x), on the production grid
    logd = law.log_density_grid()
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
    law_linked = xy_angle_law(t_linked, u)
    law_split = xy_angle_law(t_split, u)
    a, b = math.cos(0.4), math.cos(0.8)
    assert law_linked.cos_sums == (a + b,)
    assert sorted(law_split.cos_sums) == sorted((a, b))
    i = 782  # grid point near x = 0.6
    x = float(_XS[i])
    got = law_linked.log_density_grid()[i] - law_split.log_density_grid()[i]
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
        law = xy_angle_law(tau, u)
        idx = np.arange(0, len(_XS), 64)
        xs = _XS[idx]
        # oracle: enumerate over u's incident edges with the full
        # coordinate density (prefactor included)
        dens = xy_angle_density_oracle(
            g, {v1: tau.alpha[v1], v2: tau.alpha[v2]}, u, 1.1, xs
        )
        logd = law.log_density_grid()[idx]
        ratio = np.log(dens) - logd
        assert ratio.max() - ratio.min() < 1e-9


def test_angle_update_beta_zero():
    g = box_graph(build_box(2, 2))
    rng = random.Random(7)
    for key in range(50):
        tau = _random_triple(g, beta=0.0, rng=rng)
        iota = _iota(key)
        val = xy_angle_update(tau, (0, 0), iota, k=1, eps=0.3)
        cell = int(val / (HALF_PI / 10))
        expect = (cell + iota.u_refine) * (HALF_PI / 10)
        assert abs(val - expect) < 1e-8


def test_angle_update_monotone():
    g = box_graph(build_box(2, 2))
    rng = random.Random(13)
    violations = 0
    for key in range(4000):
        lo, hi = _ordered_pair(g, 0.9, rng)
        iota = _iota(key)
        a = xy_angle_update(lo, (0, 0), iota, k=2, eps=0.15)
        b = xy_angle_update(hi, (0, 0), iota, k=2, eps=0.15)
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
        samples[i] = xy_angle_update(tau, u, _iota(i), k=2, eps=0.1)
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
    for key in range(200):
        om, et = xy_edge_update(tau, (0,), _iota(key))
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
    for key in range(n):
        om, et = xy_edge_update(tau, (0,), _iota(key))
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
        om, _ = xy_edge_update(tau, u, _iota(key))
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
        om_lo, et_lo = xy_edge_update(lo, (0, 0), iota)
        om_hi, et_hi = xy_edge_update(hi, (0, 0), iota)
        for e in om_lo:
            assert om_lo[e] >= om_hi[e]
            assert et_lo[e] <= et_hi[e]


def test_full_update_preserves_order():
    g = box_graph(build_box(2, 2))
    rng = random.Random(31)
    for key in range(1500):
        lo, hi = _ordered_pair(g, 0.8, rng)
        iota = _iota(key)
        new_lo = xy_full_update(lo, (0, 0), iota, k=2, eps=0.15)
        new_hi = xy_full_update(hi, (0, 0), iota, k=2, eps=0.15)
        assert xy_leq(new_lo, new_hi)


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
        a1 = xy_angle_update(tau, (0, 0), iota, k=2, eps=0.15)
        a2 = xy_angle_update(pert, (0, 0), iota, k=2, eps=0.15)
        assert a1 == a2
        t1, t2 = tau.copy(), pert.copy()
        t1.alpha[(0, 0)] = a1
        t2.alpha[(0, 0)] = a2
        om1, et1 = xy_edge_update(t1, (0, 0), iota)
        om2, et2 = xy_edge_update(t2, (0, 0), iota)
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
            tau = xy_full_update(tau, u, _iota(key), k=2, eps=0.1)
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
        f_lo = xy_angle_law(lo, (0, 0))
        f_hi = xy_angle_law(hi, (0, 0))
        F_lo = np.interp(xs, np.linspace(0, HALF_PI, 2049), f_lo.cdf_grid())
        F_hi = np.interp(xs, np.linspace(0, HALF_PI, 2049), f_hi.cdf_grid())
        assert np.all(F_hi <= F_lo + 1e-9)


def test_calibrate_matching_xy():
    assert calibrate_matching_xy(0.0, 2, 0.3) == 0
    ks = [calibrate_matching_xy(1.0, 2, eps) for eps in (0.05, 0.15, 0.5)]
    assert ks == sorted(ks, reverse=True)
    k = calibrate_matching_xy(1.0, 2, 0.15)
    assert 4 * 2 * 1.0 * HALF_PI * 10.0**-k <= -math.log1p(-0.15)
