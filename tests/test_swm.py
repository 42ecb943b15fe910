import math
import random
import statistics as stats

import numpy as np
import pytest

from exactspin import _scalar
from exactspin._scalar import norm_cdf, norm_ppf
from exactspin.lattice import build_box
from exactspin.randomness import mix64
from exactspin.swm import (
    SwmField,
    TruncatedNormalLaw,
    calibrate_matching,
    constant_field,
    swm_conditional,
    swm_update,
    swm_update_parts,
)

from keyed import keyed_randomness


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


def test_norm_ppf_matches_stdlib():
    from statistics import NormalDist

    nd = NormalDist()
    for p in [1e-12, 1e-6, 0.01, 0.3, 0.5, 0.777, 0.99, 1 - 1e-6, 1 - 1e-12]:
        assert abs(norm_ppf(p) - nd.inv_cdf(p)) < 1e-9 * max(1.0, abs(nd.inv_cdf(p)))


def test_norm_cdf_ppf_roundtrip():
    # near z = +6 the CDF sits within 1e-9 of 1 and the p -> 1-p
    # cancellation caps the attainable roundtrip accuracy
    for z in np.linspace(-6, 6, 101):
        assert abs(norm_ppf(norm_cdf(z)) - z) < 5e-8


def test_conditional_symmetric():
    field = constant_field(build_box(2, 2), beta=1.0, value=0.0, bc=0.0)
    law = swm_conditional(field, (0, 0))
    assert law.mean == 0.0
    assert abs(law.cdf(0.0) - 0.5) < 1e-14


def test_conditional_parameters():
    field = constant_field(build_box(2, 2), beta=1.0, value=1.0, bc=1.0)
    law = swm_conditional(field, (0, 0))
    assert law.mean == 1.0
    assert abs(law.sigma**2 - 1.0 / 8.0) < 1e-15


def test_conditional_rejects_exterior_site():
    field = constant_field(build_box(2, 2), beta=1.0, value=0.0, bc=0.0)
    with pytest.raises(ValueError):
        swm_conditional(field, (5, 5))


def test_conditional_mean_monotone_in_neighbors():
    box = build_box(2, 2)
    field = constant_field(box, beta=0.7, value=0.0, bc=0.0)
    law0 = swm_conditional(field, (0, 0))
    law1 = swm_conditional(field.with_value((0, 1), 0.5), (0, 0))
    assert law1.mean > law0.mean
    assert law1.mean == law0.mean + 0.5 / 4.0


def test_tiny_beta_law_is_nearly_uniform():
    law = TruncatedNormalLaw(mean=0.3, beta=1e-9, degree=4)
    xs = np.linspace(-1, 1, 2001)
    uniform = 0.5 * (xs + 1.0)
    gap = np.abs([law.cdf(float(x)) for x in xs] - uniform).max()
    assert gap < 1e-6
    # and matches the quadrature oracle of the actual density
    oracle = quad_cdf(0.3, 1e-9, 4, xs)
    gap2 = np.abs([law.cdf(float(x)) for x in xs] - oracle).max()
    assert gap2 < 1e-6


def test_cdf_matches_quadrature_oracle():
    for mean, beta in [(0.0, 0.5), (1.0, 1.0), (-0.6, 2.0)]:
        law = TruncatedNormalLaw(mean=mean, beta=beta, degree=4)
        xs = np.linspace(-1, 1, 501)
        oracle = quad_cdf(mean, beta, 4, xs)
        got = np.array([law.cdf(float(x)) for x in xs])
        assert np.abs(got - oracle).max() < 1e-7


def _field_with(box, beta, assignment):
    field = constant_field(box, beta=beta, value=0.0, bc=0.0)
    for v, x in assignment.items():
        field = field.with_value(v, x)
    return field


def test_update_markov_property():
    # changing a non-neighbour spin leaves the update bit-identical
    box = build_box(2, 3)
    rng = random.Random(55)
    for trial in range(200):
        beta = rng.choice([0.0, 0.5, 1.0])
        base = _field_with(
            box, beta, {v: rng.uniform(-1, 1) for v in box.vertices()}
        )
        far = base.with_value((2, 2), rng.uniform(-1, 1))
        iota = keyed_randomness(mix64(trial))
        a = swm_update(base, (0, 0), iota, k=3, eps=0.1)
        b = swm_update(far, (0, 0), iota, k=3, eps=0.1)
        assert a == b


def test_update_monotone_in_neighbors():
    box = build_box(2, 2)
    rng = random.Random(77)
    violations = 0
    for trial in range(10000):
        beta = rng.choice([0.25, 0.5, 1.0])
        lo_vals = {v: rng.uniform(-1, 1) for v in box.vertices()}
        hi_vals = {
            v: min(1.0, lo_vals[v] + rng.uniform(0, 1 - max(-1.0, lo_vals[v])) * rng.random())
            for v in box.vertices()
        }
        lo = _field_with(box, beta, lo_vals)
        hi = _field_with(box, beta, hi_vals)
        iota = keyed_randomness(mix64(trial * 13 + 1))
        a = swm_update(lo, (0, 0), iota, k=2, eps=0.15)
        b = swm_update(hi, (0, 0), iota, k=2, eps=0.15)
        if a > b:
            violations += 1
    assert violations == 0


def test_update_matching_branch_consistency_across_configs():
    # fifty neighbour configurations sharing one matching iota: the
    # refinement offset is bit-identical and the value is the canonical
    # composition of (cell, offset)
    box = build_box(2, 2)
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
        offsets = set()
        for _ in range(50):
            field = _field_with(
                box, 1.0, {v: rng.uniform(-1, 1) for v in box.vertices()}
            )
            parts = swm_update_parts(field, (0, 0), iota, k, eps)
            assert parts.matched
            offsets.add(parts.refine_offset)
            compose = _scalar.snap(
                (parts.cell + iota.u_refine) * w, _scalar.VALUE_GRID
            )
            assert parts.value == min(1.0, max(-1.0, compose))
        assert len(offsets) == 1


def test_update_distribution_matches_quadrature():
    box = build_box(2, 2)
    field = _field_with(box, 1.0, {(0, 1): 0.8, (1, 0): -0.2})
    law = swm_conditional(field, (0, 0))
    n = 100000
    samples = np.empty(n)
    for i in range(n):
        samples[i] = swm_update(field, (0, 0), keyed_randomness(mix64(i)), 3, 0.1)
    samples.sort()
    oracle = quad_cdf(law.mean, 1.0, 4, samples)
    assert ks_distance(samples, oracle) < 0.01


def test_matching_probability_independent_of_neighbors():
    box = build_box(2, 2)
    eps = 0.3
    n = 20000
    for bc in (-1.0, 0.5):
        field = constant_field(box, beta=1.0, value=bc, bc=bc)
        hits = sum(
            swm_update_parts(field, (0, 0), keyed_randomness(mix64(i)), 2, eps).matched
            for i in range(n)
        )
        p = hits / n
        assert abs(p - (1 - eps)) < 3 * math.sqrt(eps * (1 - eps) / n)


def test_matched_flag_uncorrelated_with_cell():
    box = build_box(2, 2)
    field = constant_field(box, beta=0.5, value=0.3, bc=0.3)
    n = 20000
    cells = np.empty(n)
    matched = np.empty(n)
    for i in range(n):
        parts = swm_update_parts(field, (0, 0), keyed_randomness(mix64(i)), 2, 0.25)
        cells[i] = parts.cell
        matched[i] = parts.matched
    corr = np.corrcoef(cells, matched)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n)


def test_calibrate_matching_zero_beta():
    assert calibrate_matching(0.0, 2, 0.5) == 0


def test_calibrate_matching_frozen_value():
    # regression constant found by the routine itself
    assert calibrate_matching(1.0, 2, 0.5) == 2


def test_calibrate_matching_monotone_in_eps():
    for beta, d in [(0.5, 2), (1.0, 2), (2.0, 3)]:
        ks = [calibrate_matching(beta, d, eps) for eps in (0.05, 0.1, 0.3, 0.6)]
        assert ks == sorted(ks, reverse=True)


def test_calibrated_depth_certifies_domination():
    # at the calibrated k every cell law dominates (1 - eps) times the
    # uniform law on its cell: the residual CDF
    # (F_cell(x) - (1 - eps) * (x - a) / w) / eps is monotone on the cell
    beta, d, eps = 1.0, 2, 0.2
    k = calibrate_matching(beta, d, eps)
    w = 10.0**-k
    grid = 64
    for mean in (-1.0, -0.3, 0.5, 1.0):
        law = TruncatedNormalLaw(mean=mean, beta=beta, degree=2 * d)
        for cell in (-(10**k), -1, 0, 10**k - 1):
            a, b = cell * w, (cell + 1) * w
            fa, fb = law.cdf(a), law.cdf(b)
            assert fb > fa
            xs = [a + (b - a) * i / grid for i in range(grid + 1)]
            tilde = [
                ((law.cdf(x) - fa) / (fb - fa) - (1.0 - eps) * (x - a) / (b - a)) / eps
                for x in xs
            ]
            for lo, hi in zip(tilde, tilde[1:]):
                assert hi >= lo - 1e-12
