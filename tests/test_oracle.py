import math

import numpy as np

from exactspin.lattice import build_box
from exactspin.xy import HALF_PI, XyGraph

from oracle import (
    angle_law_cdf,
    enumerate_xy,
    instance_from_box,
    quadrature_cdf,
    rejection_sample,
    xy_two_vertex_expectation,
)


def test_rejection_beta_zero_uniform():
    inst = instance_from_box(build_box(2, 2), beta=0.0, zeta=0.0)
    samples = rejection_sample(inst, 20000, seed=3)
    assert samples.shape == (20000, 9)
    assert abs(samples.mean()) < 0.01
    assert abs((samples**2).mean() - 1.0 / 3.0) < 0.01


def test_rejection_matches_quadrature_cdf():
    inst = instance_from_box(build_box(2, 1), beta=1.0, zeta=0.5)
    samples = np.sort(rejection_sample(inst, 100000, seed=9)[:, 0])
    F = quadrature_cdf(inst, (0, 0), samples)
    n = len(samples)
    i = np.arange(1, n + 1)
    ks = max(np.max(np.abs(i / n - F)), np.max(np.abs((i - 1) / n - F)))
    assert ks < 0.01


def test_angle_law_cdf_closed_forms():
    xs = np.linspace(0.0, HALF_PI, 101)
    assert np.allclose(angle_law_cdf(lambda x: 0.0 * x, xs), xs / HALF_PI, atol=1e-12)
    # density cos x on [0, pi/2]: CDF sin x, under 2^16 trapezoids to ~1e-10
    assert np.allclose(angle_law_cdf(lambda x: np.log(np.cos(x)), xs), np.sin(xs), atol=1e-9)


def _single_edge_graph():
    return XyGraph(free=[(0,), (1,)], edges=[((0,), (1,))])


def test_enumerate_single_edge_closed_form():
    g = _single_edge_graph()
    alpha = {(0,): 0.4, (1,): 0.9}
    beta = 1.1
    law = enumerate_xy(g, alpha, beta)
    p = -math.expm1(-2 * beta * math.cos(0.4) * math.cos(0.9))
    expected = p / (p + 2 * (1 - p))
    e = g.edges[0]
    assert abs(law.omega_marginal(e) - expected) < 1e-12
    q = -math.expm1(-2 * beta * math.sin(0.4) * math.sin(0.9))
    assert abs(law.eta_marginal(e) - q / (q + 2 * (1 - q))) < 1e-12


def test_enumerate_single_edge_zero_cos():
    g = _single_edge_graph()
    alpha = {(0,): HALF_PI, (1,): 0.7}
    law = enumerate_xy(g, alpha, beta=1.0)
    # cos(pi/2) is ~6e-17 in floats, so the marginal is zero to rounding
    assert law.omega_marginal(g.edges[0]) < 1e-15


def test_enumerate_normalization_and_factorization():
    g = XyGraph(
        free=[(0,), (1,), (2,)],
        edges=[((0,), (1,)), ((1,), (2,)), ((0,), (2,))],
    )
    alpha = {(0,): 0.3, (1,): 1.0, (2,): 0.6}
    law = enumerate_xy(g, alpha, beta=0.9)
    assert abs(sum(law.omega_probs.values()) - 1.0) < 1e-12
    assert abs(sum(law.eta_probs.values()) - 1.0) < 1e-12


def test_two_vertex_expectation_limits():
    # beta = 0: spins independent uniform, E[s0 conj(s1)] = 0
    val = xy_two_vertex_expectation(0.0, lambda a, b: a * np.conj(b))
    assert abs(val) < 1e-12
    # positive correlation at beta > 0, real by symmetry
    val = xy_two_vertex_expectation(1.0, lambda a, b: a * np.conj(b))
    assert val.real > 0.1
    assert abs(val.imag) < 1e-12
