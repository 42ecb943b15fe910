import json
import math
import random

import pytest

from exactspin.cftp import required_digits
from exactspin.coarse import (
    CoarseParams,
    DecouplingReport,
    DegenerateSampleError,
    ThetaField,
    _box_crossing,
    cell_is_good,
    cell_is_mixed,
    decoupling_check,
    local_set,
    sample_cluster_and_localset_sizes,
    tail_fit,
)
from exactspin.lattice import BoxRegion, CellWindow, build_box
from exactspin.xy import box_graph


@pytest.mark.parametrize("model, L, expected, n", [
    pytest.param("swm", 2, 0.8786, 2000, id="2-0.8786"),
    pytest.param("swm", 1, 0.6465, 2000, id="1-0.6465"),
    pytest.param("xy", 1, 0.6465, 1000, id="xy-1-0.6465"),
])
def test_cell_is_mixed_beta_zero_closed_form(model, L, expected, n):
    # at beta = 0 every draw ignores the neighbours (an XY update also
    # closes the site's edges and draws a flat angle), so top and bottom
    # agree at a site from its first update on: a cell is mixed iff each
    # of its (2 n_L - 1)^d core sites is updated during the run-in of
    # length n_L, which has probability (1 - e^{-n_L})^{(2 n_L - 1)^d}
    params = CoarseParams(model=model, beta=0.0, d=1, L=L, delta=0.5)
    nL = params.n_L
    p = (1.0 - math.exp(-nL)) ** ((2 * nL - 1) ** params.d)
    assert abs(p - expected) < 1e-4
    hits = 0
    for seed in range(n):
        # vary the cell too, so the offset and slab placement are exercised
        cell = (-(seed % 3), (seed % 5 - 2,))
        hits += cell_is_mixed(cell, params, seed)
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(hits / n - p) < 4.0 * sigma


def test_coarse_params_reject_bad_depth_and_beta():
    # the rule WindowSpec applies: k in [0, 15] and, at beta = 2.0, not
    # below the calibrated floor of 3 (uncertified matching otherwise)
    for model in ("swm", "xy"):
        for beta, k in ((0.5, 16), (0.5, -1), (-0.5, None), (-0.5, 2), (2.0, 0),
                        (math.nan, None), (math.nan, 2), (math.inf, None), (math.inf, 2)):
            with pytest.raises(ValueError):
                CoarseParams(model=model, beta=beta, d=1, L=1, delta=0.5, k=k)
        CoarseParams(model=model, beta=0.5, d=1, L=1, delta=0.5, k=15)
        CoarseParams(model=model, beta=0.0, d=1, L=1, delta=0.5)


@pytest.mark.parametrize("k", [2.5, True, 3.0])
def test_coarse_params_reject_a_depth_that_is_not_an_int(k):
    for model in ("swm", "xy"):
        with pytest.raises(ValueError, match="digit depth"):
            CoarseParams(model, 0.1, 1, 2, 0.5, k=k)


def test_coarse_params_store_the_depth_they_run_at():
    for model in ("swm", "xy"):
        params = CoarseParams(model, 0.5, 1, 2, 0.5)
        assert params.k == params.digits == required_digits(model, 0.5, 1, 0.1)
        assert CoarseParams(model, 0.5, 1, 2, 0.5, k=15).digits == 15


def test_counts_must_be_positive_ints():
    params = CoarseParams("swm", 0.0, 1, 1, 0.5)
    for count in (-3, 0, 2.5, True):
        with pytest.raises(ValueError, match="trials"):
            decoupling_check((0,), params, seed=7, trials=count)
        with pytest.raises(ValueError, match="samples"):
            sample_cluster_and_localset_sizes(params, seed=7, samples=count)


def test_coarse_params_reject_eps_outside_unit_interval():
    # the same rule as WindowSpec: eps = 0 would match every draw and
    # eps >= 1 none, whatever the digit depth
    for model in ("swm", "xy"):
        for eps in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="eps"):
                CoarseParams(model=model, beta=0.5, d=1, L=1, delta=0.5, eps=eps, k=2)
        CoarseParams(model=model, beta=0.5, d=1, L=1, delta=0.5, eps=0.5, k=2)


def test_lattice_dimension_must_be_a_positive_int():
    # the depth's drop is proportional to d, so d <= 0 would certify
    # k = 0 for any beta; a non-integer d names no lattice
    for model in ("swm", "xy"):
        for d in (0, -1, 1.5, 2.0):
            with pytest.raises(ValueError, match="dimension"):
                required_digits(model, 0.5, d, 0.1)
            with pytest.raises(ValueError, match="dimension"):
                CoarseParams(model=model, beta=0.1, d=d, L=1, delta=0.5)
        assert required_digits(model, 0.5, 1, 0.1) >= 1
        CoarseParams(model=model, beta=0.1, d=1, L=1, delta=0.5)


@pytest.mark.parametrize("make, args", [
    pytest.param(make, args, id=f"{make.__name__}{args}") for make, args in [
        (build_box, (1, 2.5)), (build_box, (1, True)), (build_box, (1, 2, (0.5,))),
        (build_box, (2, 2, (0, False))), (BoxRegion, (2.0, 2, (0, 0))),
        (BoxRegion, (True, 2, (0,))), (CellWindow, (-3, 0, 1.5, 1)),
        (CellWindow, (-3.0, 0, 1, 1)), (CellWindow, (-3, 0.0, 1, 1)),
        (CellWindow, (-3, 0, True, 1)), (CellWindow, (-3, 0, 1, 0)),
        (CellWindow, (-3, 0, 1, 1.0)), (CoarseParams, ("swm", 0.1, 1, 2.0, 0.5)),
        (CoarseParams, ("swm", 0.1, 1, 1.5, 0.5)), (CoarseParams, ("xy", 0.1, 1, True, 0.5)),
        (CoarseParams, ("swm", 0.1, True, 2, 0.5)),
        (build_box, (2.0, 2)),
    ]
])
def test_geometry_that_is_not_an_int_is_rejected_at_construction(make, args):
    # a float or a bool would construct, then fail in vertices(), cells()
    # or a cell run; d = 0 would give cells with an empty x
    with pytest.raises(ValueError):
        make(*args)


def _bonds(graph, open_pairs):
    """0/1 bond map on graph.edges with exactly the given site pairs open."""
    wanted = {frozenset(p) for p in open_pairs}
    return {e: int(frozenset(e) in wanted) for e in graph.edges}


def test_box_crossing_straight_row():
    # a d=2 zone of radius 3 around the origin; the closed L-box with
    # L = 1 is the 3x3 block |v| <= 1
    graph = box_graph(build_box(2, 3))
    center, L = (0, 0), 1
    assert _box_crossing(graph, {e: 1 for e in graph.edges}, center, L)
    assert not _box_crossing(graph, {e: 0 for e in graph.edges}, center, L)
    row = [((-1, 0), (0, 0)), ((0, 0), (1, 0))]
    assert _box_crossing(graph, _bonds(graph, row), center, L)
    # the same row one site short of the far face x = 1
    assert not _box_crossing(graph, _bonds(graph, row[:1]), center, L)
    # open bonds leaving the L-box do not count as a crossing
    outside = [((1, 0), (2, 0)), ((2, 0), (2, 1))]
    assert not _box_crossing(graph, _bonds(graph, row[:1] + outside), center, L)


@pytest.mark.parametrize("seed", range(5))
def test_local_set_of_mixed_anchor_is_its_zone(seed):
    # at beta = 0, d = 1, L = 2, delta = 0.5 (n_L = 4) the anchor cell is
    # mixed on these seeds, so the local set is the projection of the
    # anchor cell's own zone: the 15 sites of the radius-8 box
    params = CoarseParams(model="swm", beta=0.0, d=1, L=2, delta=0.5)
    theta = ThetaField(CellWindow(j_min=-3, j_max=0, x_radius=3, d=1), params, seed)
    ls = local_set((0,), theta)
    assert theta.value((0, (0,))) == 1
    assert ls.cluster == frozenset()
    assert ls.shield == frozenset({(0, (0,))})
    assert ls.vertices == frozenset(build_box(1, 8).vertices())
    assert ls.size == 15


def test_theta_field_good_reads_cell_is_good():
    # XY at beta = 0 closes every edge, so good cells are the mixed ones;
    # the field must still hold cell_is_good's bit at every cell
    params = CoarseParams(model="xy", beta=0.0, d=1, L=1, delta=0.5)
    window = CellWindow(j_min=-1, j_max=0, x_radius=1, d=1)
    for seed in range(4):
        theta = ThetaField(window, params, seed, good=True)
        for cell in window.cells():
            assert theta.value(cell) == cell_is_good(cell, params, seed)
        assert json.loads(theta.to_json())["good"] is True
    swm = CoarseParams(model="swm", beta=0.0, d=1, L=1, delta=0.5)
    with pytest.raises(ValueError):
        ThetaField(window, swm, 0, good=True)


@pytest.mark.parametrize("model", ["swm", "xy"])
def test_theta_field_rejects_a_window_of_another_dimension(model):
    # a d = 1 window over d = 2 cells would shift every zone by a
    # broadcast offset (SWM) or fail late (XY); the field refuses it
    for d, window_d in ((2, 1), (1, 2)):
        params = CoarseParams(model=model, beta=0.1, d=d, L=1, delta=0.5)
        window = CellWindow(j_min=-1, j_max=0, x_radius=1, d=window_d)
        with pytest.raises(ValueError, match="dimension"):
            ThetaField(window, params, 0)


def test_theta_field_to_json():
    params = CoarseParams(model="swm", beta=0.0, d=1, L=2, delta=0.5)
    window = CellWindow(j_min=-2, j_max=0, x_radius=1, d=1)
    theta = ThetaField(window, params, seed=3)
    rec = json.loads(theta.to_json())
    assert rec["window"] == {"j_min": -2, "j_max": 0, "x_radius": 1, "d": 1}
    assert rec["params"] == {"model": "swm", "beta": 0.0, "L": 2, "delta": 0.5,
                             "eps": 0.1, "k": params.digits}
    assert rec["seed"] == 3 and rec["good"] is False
    cells = [((c["j"], tuple(c["x"])), c["bit"]) for c in rec["cells"]]
    assert cells == [(cell, cell_is_mixed(cell, params, 3)) for cell in sorted(window.cells())]


def test_local_set_to_json():
    # seed 0 leaves the anchor cell mixed, as in
    # test_local_set_of_mixed_anchor_is_its_zone: empty cluster, and the
    # anchor's 15-site zone as local set
    params = CoarseParams(model="swm", beta=0.0, d=1, L=2, delta=0.5)
    theta = ThetaField(CellWindow(j_min=-3, j_max=0, x_radius=3, d=1), params, 0)
    ls = local_set((0,), theta)
    rec = json.loads(ls.to_json())
    assert rec["anchor"] == [0]
    assert rec["size"] == len(rec["vertices"]) == len(ls.vertices) == 15
    assert rec["vertices"] == sorted([list(v) for v in ls.vertices])
    assert rec["cluster"] == []


@pytest.mark.parametrize("mode, expected", [("outside", 20), ("inside", 0)])
def test_decoupling_check_beta_zero(mode, expected):
    # at beta = 0 the anchor's value is a function of the uniforms of its
    # own last update alone: re-randomizing outside the local set (which
    # holds the anchor) never moves it, re-randomizing inside always does
    params = CoarseParams(model="swm", beta=0.0, d=1, L=2, delta=0.5)
    report = decoupling_check((0,), params, seed=7, trials=20, mode=mode)
    assert report.trials == 20
    assert type(report.identical) is int
    assert report.identical == expected
    # a draw whose local set reached the window edge was retried
    assert report.window_errors >= 1


@pytest.mark.parametrize("mode, expected", [
    ("outside", DecouplingReport(20, 20, 3, 160)),
    ("inside", DecouplingReport(20, 0, 3, 620)),
])
def test_decoupling_check_swm_reports_are_pinned(mode, expected):
    # the engine's offset run on the origin lattice gives these reports
    # too: a centred box lists and keys its sites the same way
    params = CoarseParams(model="swm", beta=0.1, d=1, L=2, delta=0.25)
    assert decoupling_check((0,), params, seed=7, trials=20, mode=mode) == expected


@pytest.mark.parametrize("params, anchor, seed, trials, expected", [
    (CoarseParams("swm", 0.05, 1, 2, 0.5), (0,), 7, 20, DecouplingReport(20, 0, 13, 318)),
    (CoarseParams("swm", 0.1, 1, 2, 0.25), (3,), 5, 10, DecouplingReport(10, 0, 2, 310)),
])
def test_decoupling_check_inside_counts_an_uncoalesced_rerun(params, anchor, seed, trials,
                                                             expected):
    # re-randomizing the local set can leave the anchor uncoalesced in
    # the window: that trial's value is not the base value, not an abort
    report = decoupling_check(anchor, params, seed=seed, trials=trials, mode="inside")
    assert report == expected


@pytest.mark.parametrize("mode, expected", [("outside", 5), ("inside", 0)])
def test_decoupling_check_xy_beta_zero(mode, expected):
    # at beta = 0 every XY update closes its site's edges and draws a
    # flat angle from its own uniforms, so the anchor's value (angle and
    # incident bonds) is fixed by its own last update: re-randomizing
    # outside the local set never moves it, inside always does
    params = CoarseParams(model="xy", beta=0.0, d=1, L=2, delta=0.5)
    report = decoupling_check((0,), params, seed=7, trials=5, mode=mode)
    assert report.trials == 5
    assert report.identical == expected


def test_sample_cluster_and_localset_sizes_beta_zero():
    # at beta = 0 an anchor cell that is mixed has an empty cluster and
    # its zone, the 15 sites of the radius-8 box, as local set; draws
    # that reach the window edge are counted, not sampled (how many
    # depends on whether the time-0 face is a window edge)
    params = CoarseParams(model="swm", beta=0.0, d=1, L=2, delta=0.5)
    cs, ls, errors = sample_cluster_and_localset_sizes(params, seed=7, samples=60)
    assert len(cs) == len(ls) == 60 - errors
    assert cs and all(size == 15 for c, size in zip(cs, ls) if c == 0)
    assert sample_cluster_and_localset_sizes(params, seed=7, samples=60) == (cs, ls, errors)


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
        tail_fit([0, 1, 2, 3] * 24)


def test_tail_fit_rejects_all_equal_samples():
    with pytest.raises(DegenerateSampleError):
        tail_fit([4] * 200)
