import math
import random

import pytest

from exactspin.coarse import CoarseParams, DegenerateSampleError, cell_is_mixed, tail_fit


@pytest.mark.parametrize("L, expected", [(2, 0.8786), (1, 0.6465)])
def test_cell_is_mixed_beta_zero_closed_form(L, expected):
    # at beta = 0 every draw ignores the neighbours, so top and bottom
    # agree at a site from its first update on: a cell is mixed iff each
    # of its (2 n_L - 1)^d core sites is updated during the run-in of
    # length n_L, which has probability (1 - e^{-n_L})^{(2 n_L - 1)^d}
    params = CoarseParams(model="swm", beta=0.0, d=1, L=L, delta=0.5)
    nL = params.n_L
    p = (1.0 - math.exp(-nL)) ** ((2 * nL - 1) ** params.d)
    assert abs(p - expected) < 1e-4
    n = 2000
    hits = 0
    for seed in range(n):
        # vary the cell too, so the offset and slab placement are exercised
        cell = (-(seed % 3), (seed % 5 - 2,))
        hits += cell_is_mixed(cell, params, seed)
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(hits / n - p) < 4.0 * sigma


def test_tail_fit_recovers_geometric_rate():
    # X geometric on {0, 1, ...} with success p: log P[X > n] = (n + 1) log(1 - p)
    p = 0.3
    rng = random.Random(7)
    sizes = []
    for _ in range(20000):
        x = 0
        while rng.random() >= p:
            x += 1
        sizes.append(x)
    fit = tail_fit(sizes)
    assert abs(fit.rate - (-math.log(1.0 - p))) < 0.05 * -math.log(1.0 - p)
    assert fit.r_squared > 0.95


def test_tail_fit_rejects_too_few_samples():
    with pytest.raises(ValueError):
        tail_fit([0, 1, 2, 3] * 24, min_samples=100)


def test_tail_fit_rejects_all_equal_samples():
    with pytest.raises(DegenerateSampleError):
        tail_fit([4] * 200)
