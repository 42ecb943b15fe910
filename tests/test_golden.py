"""Bit-exact trajectory digests on fixed seeds.

Coupled lanes must see bitwise-equal randomness and conditional laws, so
any change to event generation, ordering or the update kernel that moves
one bit of a trajectory shows up here.  The digests were recorded from
the engine before its event generator was rewritten and must never be
updated to follow a change in the numbers.
"""

import hashlib

import pytest

from exactspin.engine import SwmLattice, swm_sandwich
from exactspin.lattice import build_box
from exactspin.randomness import event_stream


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
    for res in runs:
        items += [float(x) for x in res.top]
        items += [float(x) for x in res.bot]
        for t, eq in res.origin_records:
            items += [float(t), int(eq)]
        items += [res.event_count, res.mixed_ok]
    return _digest(items)


def _plain():
    lat = SwmLattice(build_box(2, 4).vertices())
    return [swm_sandwich(lat, 0.5, 2, 0.15, -8.0, 0.0, seed=3, origin=(0, 0))]


def _reseed():
    lat = SwmLattice(build_box(2, 4).vertices())
    reseed = {(0, 0): 999, (1, -1): 12345, (3, 3): 7}
    return [swm_sandwich(lat, 0.5, 2, 0.15, -8.0, -0.5, seed=3, reseed=reseed,
                         origin=(1, -1))]


def _offset_core():
    # seed 17 leaves the core split at slab entry (early exit), seed 18
    # keeps it coalesced through the slab
    lat = SwmLattice(build_box(2, 4).vertices())
    core = lat.mask(lambda v: max(abs(c) for c in v) < 2)
    return [
        swm_sandwich(lat, 0.05, 1, 0.1, -12.0, -2.0, seed=seed, core_mask=core,
                     slab_lo=-4.0, offset=(8, -4), origin=(0, 0))
        for seed in (17, 18)
    ]


def _mapping_boundary():
    box = build_box(2, 3)
    lat = SwmLattice(box.vertices())
    ext = box.exterior_boundary()
    top = {y: 0.75 - 0.1 * i / len(ext) for i, y in enumerate(ext)}
    bot = {y: -0.25 + 0.05 * (i % 3) for i, y in enumerate(ext)}
    return [swm_sandwich(lat, 1.0, 2, 0.2, -6.0, 0.0, seed=12345,
                         bc_top=top, bc_bot=bot, origin=(1, 0))]


GOLDEN = {
    "plain": (
        _plain, "f2b4bd8ff17da7f479c8d61e9c42664ebd949ffcbd7d7e786a8ac94f646fa986"),
    "reseed": (
        _reseed, "fccc1ca406d89e522f2912186d39f81523ec84e5492a16df681deb9b325aa046"),
    "offset_core": (
        _offset_core, "1287d56c6c0f7c2f44dc7c4f58e62a0003f9cda7c2089c54dbb6eef711882285"),
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
