"""Bit-exact trajectory digests on fixed seeds.

Coupled lanes must see bitwise-equal randomness and conditional laws, so
any change to event generation, ordering or the update kernel that moves
one bit of a trajectory shows up here.  The SWM digests were recorded
from the engine before its event generator was rewritten, the XY ones
before the XY lane loop was shared between CFTP and coarse cells (the
``+i`` pair and the beta > 0 cell bits before the XY lanes were updated
in place and the angle law memoised); none may be updated to follow a
change in the numbers.  One was re-recorded for a change in what is
counted, not in any trajectory: ``offset_core`` after ``event_count``
stopped counting the events a monitored run never processed (seed 17
exits at slab entry and now reports its 398 run-in events, not 501;
setting its count back to 501 gives the old digest ``1287d56c...``).

The per-update equality records at one site that the digests hash were
once returned by the engine and ``sandwich_run``.  They now come from
the tests: ``oracle.recorded_origin`` watches the SWM runs, and the XY
digests step the lanes through the window's events themselves, checking
that they end on ``sandwich_run``'s lanes.  The hex strings are the
recorded ones.

``mapping_boundary`` was recorded when ``swm_sandwich`` took a
vertex-to-value boundary map.  It takes constants only now, so the case
runs the extremal starts through the engine's update loop,
``engine._swm_chunk``, by ``oracle.swm_chunk_run``, with the map folded
into per-site sums left to right; its hex string is unchanged.
"""

import hashlib

import pytest

from exactspin.cftp import MODEL_XY, auto_window, sandwich_run, xy_sandwich_steps
from exactspin.coarse import CoarseParams, cell_is_good, cell_is_mixed
from exactspin.engine import SwmLattice, swm_sandwich
from exactspin.lattice import build_box
from exactspin.randomness import event_stream
from exactspin.xy import xy_extremes

from oracle import boundary_sums, exterior_boundary, recorded_origin, swm_chunk_run


def _digest(items) -> str:
    h = hashlib.sha256()
    for x in items:
        if isinstance(x, float):
            h.update(x.hex().encode())
        else:
            h.update(repr(x).encode())
        h.update(b";")
    return h.hexdigest()


def _run_digest(*runs) -> str:
    items = []
    for res, records in runs:
        items += [float(x) for x in res.top]
        items += [float(x) for x in res.bot]
        for t, eq in records:
            items += [float(t), int(eq)]
        items += [res.event_count, res.mixed_ok]
    return _digest(items)


def _plain():
    lat = SwmLattice(build_box(2, 4).vertices())
    return [recorded_origin(lambda: swm_sandwich(lat, 0.5, 2, 0.15, -8.0, 0.0, seed=3), (0, 0))]


def _reseed():
    lat = SwmLattice(build_box(2, 4).vertices())
    reseed = {(0, 0): 999, (1, -1): 12345, (3, 3): 7}
    return [recorded_origin(lambda: swm_sandwich(lat, 0.5, 2, 0.15, -8.0, -0.5, seed=3,
                                                 reseed=reseed), (1, -1))]


def _offset_core():
    # seed 17 leaves the core split at slab entry (early exit), seed 18
    # keeps it coalesced through the slab
    lat = SwmLattice(build_box(2, 4).vertices())
    core = lat.mask(lambda v: max(abs(c) for c in v) < 2)
    return [
        recorded_origin(lambda: swm_sandwich(lat, 0.05, 1, 0.1, -12.0, -2.0, seed=seed,
                                             core_mask=core, slab_lo=-4.0, offset=(8, -4)),
                        (0, 0))
        for seed in (17, 18)
    ]


def _mapping_boundary():
    box = build_box(2, 3)
    lat = SwmLattice(box.vertices())
    ext = exterior_boundary(box)
    top = {y: 0.75 - 0.1 * i / len(ext) for i, y in enumerate(ext)}
    bot = {y: -0.25 + 0.05 * (i % 3) for i, y in enumerate(ext)}
    return [recorded_origin(lambda: swm_chunk_run(
        lat, 1.0, 2, 0.2, -6.0, 0.0, 12345, [1.0] * lat.size, [-1.0] * lat.size,
        boundary_sums(lat, top), boundary_sums(lat, bot)), (1, 0))]


GOLDEN = {
    "plain": (
        _plain, "f2b4bd8ff17da7f479c8d61e9c42664ebd949ffcbd7d7e786a8ac94f646fa986"),
    "reseed": (
        _reseed, "fccc1ca406d89e522f2912186d39f81523ec84e5492a16df681deb9b325aa046"),
    "offset_core": (
        _offset_core, "c2ccd683ad10279759fed2ffd6eaf0d29fbd135a16195023718703690e3f3ab3"),
    "mapping_boundary": (
        _mapping_boundary, "5c9dd1dc2e72209cf8d85bba17d4b55340110f26130545be05bed03d98c05c71"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_sandwich_digest(case):
    run, expected = GOLDEN[case]
    assert _run_digest(*run()) == expected


def test_event_stream_digest():
    items = []
    for e in event_stream(build_box(2, 2), -5.0, -0.5, seed=11, reseed={(0, 1): 4}):
        r = e.randomness
        items += [e.time, e.vertex, r.u_primary, r.u_refine, r.u_match, r.key]
    expected = "0480d8a00c60bfc2096b69b68da54d8e954cb1140d1ca45672bc57ba3576f5b7"
    assert _digest(items) == expected


def _xy_pairs_digest(beta, boundary) -> str:
    window = auto_window(build_box(2, 2), -6.0, 0.0, MODEL_XY, beta=beta, boundary=boundary)
    items = []
    for seed in (4, 5):
        pair = sandwich_run(window, seed)
        g = pair.top.graph
        lo, hi = xy_extremes(g, beta, bc=boundary)
        records = []
        for ev in xy_sandwich_steps(hi, lo, event_stream(window.region, -6.0, 0.0, seed),
                                    window.k, window.eps):
            if ev.vertex == (0, 0):
                records += [float(ev.time), int(hi.equal_at(lo, (0, 0)))]
        for tau, lane in ((pair.top, hi), (pair.bot, lo)):
            assert {n: a.hex() for n, a in tau.alpha.items()} == {
                n: a.hex() for n, a in lane.alpha.items()}
            assert (tau.omega, tau.eta) == (lane.omega, lane.eta)
            items += [tau.alpha[n] for n in g.nodes]
            items += [tau.omega[e] for e in g.edges]
            items += [tau.eta[e] for e in g.edges]
        items += records
        items.append(pair.event_count)
    return _digest(items)


def test_xy_sandwich_digest():
    expected = "b095314d3d2e52cdf278ec8484703cc633f5d4feec9e64f92f344c8762585b00"
    assert _xy_pairs_digest(1.0, "+1") == expected


def test_xy_sandwich_digest_plus_i():
    # frozen angle pi/2: the boundary enters the sin sums (eta groups)
    expected = "214691ab8631633a591e017f7e95fb8c730d80314d6562c925331926b9596b5a"
    assert _xy_pairs_digest(0.7, "+i") == expected


def test_xy_cell_bits_digest():
    params = CoarseParams(model="xy", beta=0.0, d=1, L=1, delta=0.5)
    cases = [((-(s % 3), (s % 5 - 2,)), s) for s in range(60)]
    mixed = [cell_is_mixed(cell, params, seed) for cell, seed in cases]
    good = [cell_is_good(cell, params, seed) for cell, seed in cases]
    assert 0 < sum(mixed) < len(cases) and 0 < sum(good) < len(cases)
    expected = "3245c105207b244f70a97f8a6fe4565825058d2d004f321d8a8ce0f13b86006d"
    assert _digest(mixed + good) == expected


def test_xy_cell_bits_digest_positive_beta():
    # beta > 0 runs the angle law and the edge enumeration with non-trivial
    # weights; the bit counts are not pinned, only the bits
    params = CoarseParams(model="xy", beta=0.2, d=1, L=1, delta=0.5)
    cases = [((-(s % 3), (s % 5 - 2,)), s) for s in range(60)]
    mixed = [cell_is_mixed(cell, params, seed) for cell, seed in cases]
    good = [cell_is_good(cell, params, seed) for cell, seed in cases]
    expected = "451aad56e71649f70c91639b93e8e787b733e5d9d0413bcb55d53f3b02e37323"
    assert _digest(mixed + good) == expected
