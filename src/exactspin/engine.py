"""Trajectory engine for square well dynamics.

Square well spins live in [-1, 1] with energy the sum of squared
nearest-neighbour differences; the single-site law is a normal with mean
the neighbour average and variance 1/(2*beta*D), D the lattice degree,
conditioned to [-1, 1].  Its one update, :func:`exactspin._scalar.swm_draw`,
is certified by the depth :func:`exactspin.cftp.required_digits`.

Events are numpy arrays from start to sort: the one generator,
:func:`exactspin.randomness.block_events`, hashes the whole window at
once, so the engine sees exactly the events of the object-level
:func:`exactspin.randomness.event_stream`, and a stable ``argsort``
puts them in time order.  The lanes start at the extremal fields +1
and -1 under a frozen boundary: +1 and -1, or one ``boundary`` value
in both.  A site's boundary sum is then its out-of-box degree times that
constant.  The update loop is plain Python: the two lanes and the
neighbour table are Python lists and each chunk's sorted events are
converted to Python values a slice at a time.  Each update sums the
site's boundary sum and in-box neighbours inline and hands their mean to
:func:`exactspin._scalar.swm_draw`, the one SWM update, so the kernel
only ever sees Python floats; when the two lanes' sums agree, one draw
serves both.  Per-site stream keys come from one array hash,
:func:`exactspin.randomness.vertex_keys`.  The run's final lanes are
returned as arrays.  A caller that reads only some sites names them as
``targets``.  A backward scan over the last chunk's events then keeps
only the events the targets' final values read, directly or through
kept events at their neighbours: an update never reads its own site,
so an event overwritten before a neighbour reads it is dropped.  Only
the kept events run, with the same bits at the targets, and the other
sites come back as NaN (see :func:`swm_sandwich`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import _scalar
from .lattice import Vertex, neighbors
from .randomness import block_events, check_window, vertex_keys, window_blocks


# the generation layer, under its own name so it can be timed apart
_gen_events = block_events


def sorted_events(vkeys: Sequence[int], t_start: float, t_end: float):
    """The sites' events on (t_start, t_end] in time order, as
    (times, site_idx, keys, u_primary, u_refine, u_match) arrays."""
    first_block, last_block = window_blocks(t_start, t_end)
    arrays = list(_gen_events(vkeys, first_block, last_block, t_start, t_end))
    order = np.argsort(arrays[0], kind="stable")
    for i in range(len(arrays)):
        arrays[i] = arrays[i][order]  # frees each unsorted array in turn
    return tuple(arrays)


_swm_draw = _scalar.swm_draw


class MonotonicityError(RuntimeError):
    """The sandwich order was violated at an update (hard failure)."""


def _swm_chunk(lattice, top, bot, events, bsum_t, bsum_b, law, core, neq, check):
    """Step both lanes in place through one chunk of time-ordered events.

    ``events`` yields (time, site, u_primary, u_refine, u_match) and
    ``law`` is (sig, tenk, w, eps, 1/degree).  An event whose lanes have
    equal neighbour sums takes one draw for both, since the draw is a
    pure function of its arguments; otherwise each lane takes its own
    draw and the pair is checked for order.  Returns the number of
    ``core`` sites where the lanes differ.  With ``check`` set the chunk
    stops at the first event that leaves the core split, so a nonzero
    return then means an early exit.
    """
    nbrs = lattice.nbrs
    sig, tenk, w, eps, inv_deg = law
    for t, vi, up, ur, um in events:
        st = bsum_t[vi]
        sb = bsum_b[vi]
        for nj in nbrs[vi]:
            st += top[nj]
            sb += bot[nj]
        if st == sb:
            # equal sums give the lanes the same arguments: one draw
            vt = vb = _swm_draw(st * inv_deg, sig, tenk, w, eps, up, ur, um)[0]
        else:
            vt = _swm_draw(st * inv_deg, sig, tenk, w, eps, up, ur, um)[0]
            vb = _swm_draw(sb * inv_deg, sig, tenk, w, eps, up, ur, um)[0]
            if vt < vb:
                raise MonotonicityError(
                    f"sandwich order violated at site {lattice.vertices[vi]}, time {t}"
                )
        if core[vi]:
            neq += (vt != vb) - (top[vi] != bot[vi])
        top[vi] = vt
        bot[vi] = vb
        if check and neq:
            return neq
    return neq


class SwmLattice:
    """Precomputed geometry for engine runs on a finite vertex set.

    Per site: the in-box neighbour indices, in ``neighbors`` order, which
    fixes the order of the update's sums, and ``n_out``, the number of
    neighbours outside the set.  Each of those holds the lane's frozen
    boundary constant, so ``n_out * zeta`` is the site's boundary sum.
    """

    def __init__(self, vertices: Sequence[Vertex]):
        self.vertices: List[Vertex] = sorted(set(vertices))
        if not self.vertices:
            raise ValueError("empty vertex set")
        self.d = len(self.vertices[0])
        self.index: Dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}
        self.coords = np.array(self.vertices, np.int64)
        self.nbrs: List[Tuple[int, ...]] = []
        self.n_out: List[int] = []
        for v in self.vertices:
            near = neighbors(v)
            inside = tuple(self.index[u] for u in near if u in self.index)
            self.nbrs.append(inside)
            self.n_out.append(len(near) - len(inside))

    @property
    def size(self) -> int:
        return len(self.vertices)

    def vkeys(
        self,
        seed: int,
        reseed: Optional[Mapping[Vertex, int]] = None,
        offset: Optional[Vertex] = None,
    ) -> List[int]:
        """Per-site stream keys; ``offset`` shifts every vertex, letting a
        centered lattice stand in for a translate of itself."""
        coords = self.coords
        if offset is not None:
            coords = coords + np.array(offset, np.int64)
        if reseed is None:
            masters = [seed] * self.size
        else:
            masters = [reseed.get(v, seed) for v in map(tuple, coords.tolist())]
        return vertex_keys(masters, coords)

    def mask(self, predicate) -> np.ndarray:
        return np.array([bool(predicate(v)) for v in self.vertices], dtype=np.bool_)


def _event_values(times, sidx, up, ur, um):
    """A chunk's sorted event arrays as (time, site, u_primary, u_refine,
    u_match) Python values.  Converted about a thousand events at a
    time, so the lists stay small next to the arrays (a float list costs
    four times the array) and peak memory stays that of the arrays."""
    step = 1024
    for i in range(0, times.size, step):
        s = slice(i, i + step)
        yield from zip(times[s].tolist(), sidx[s].tolist(), up[s].tolist(),
                       ur[s].tolist(), um[s].tolist())


def _cone_mask(nbrs, sidx, targets) -> np.ndarray:
    """Which of the time-ordered events at sites ``sidx`` the final
    values at the site indices ``targets`` depend on.

    The scan runs from the last event to the first with a live set that
    starts as ``targets``.  An event at a live site is kept: it takes its
    own site out of the live set, since no update reads its site's old
    value, and makes its neighbours live.  An event elsewhere is
    overwritten before anything kept reads it, so it is dropped.
    """
    keep = bytearray(sidx.size)
    live = [False] * len(nbrs)
    for i in targets:
        live[i] = True
    for end in range(sidx.size, 0, -1024):
        p = end
        for s in reversed(sidx[max(0, end - 1024):end].tolist()):
            p -= 1
            if live[s]:
                keep[p] = 1
                live[s] = False
                for nj in nbrs[s]:
                    live[nj] = True
    return np.frombuffer(keep, np.bool_)


# a memory chunk spans _CHUNK_EVENTS / (number of sites) time units,
# about that many events at unit rate per site
_CHUNK_EVENTS = 2.0e6


def _chunk_bounds(
    t_start: float, t_end: float, span: float, cut: float
) -> Iterator[Tuple[float, float]]:
    """Consecutive (lo, hi] pieces of (t_start, t_end], none longer than
    ``span`` and none straddling ``cut``."""
    lo = t_start
    while lo < t_end:
        hi = min(t_end, lo + span)
        if lo < cut < hi:
            hi = cut
        yield lo, hi
        lo = hi


@dataclass
class SwmRunResult:
    top: np.ndarray
    bot: np.ndarray
    mixed_ok: Optional[bool]
    event_count: int  # events processed; an early exit ends the count


def swm_sandwich(
    lattice: SwmLattice,
    beta: float,
    k: int,
    eps: float,
    t_start: float,
    t_end: float,
    seed: int,
    boundary: Optional[float] = None,
    reseed: Optional[Mapping[Vertex, int]] = None,
    core_mask: Optional[np.ndarray] = None,
    slab_lo: float = math.inf,
    offset: Optional[Vertex] = None,
    targets: Optional[Sequence[Vertex]] = None,
) -> SwmRunResult:
    """Coupled top/bottom trajectories over region x (t_start, t_end].

    The lanes start at the extremal fields +1 and -1.  Every out-of-box
    neighbour of a site holds the lane's frozen boundary constant: +1 and
    -1 when ``boundary`` is None, else ``boundary`` in both lanes.

    When ``core_mask``/``slab_lo`` are given the run doubles as a mixed
    cell evaluation: ``mixed_ok`` reports whether top and bottom agree
    on the core at the slab entry time and after every in-slab event
    (the run exits early on the first failure).  A one-site core makes
    it the coupling event that the lanes agree at that site throughout
    the slab.

    ``targets`` names the only sites the caller reads.  The last memory
    chunk then runs only the events those sites depend on
    (:func:`_cone_mask`); earlier chunks run in full.  A kept event
    reads each neighbour's latest value, which the backward scan marks
    live; the first event the scan then meets at that neighbour is the
    one that wrote the value, and it is kept, or else the value is the
    chunk's start.  So the targets' values and the lanes and order
    check of every kept event have the bits of the full run; a dropped
    event's order check does not run.  The other sites come back as NaN
    and ``event_count`` counts the kept events.  ``targets`` with a
    ``core_mask`` raises ValueError: the monitor reads every event.
    """
    check_window(t_start, t_end)
    if targets is not None and core_mask is not None:
        raise ValueError("targets exclude a core_mask")
    S = lattice.size
    deg = 2 * lattice.d
    top = [1.0] * S
    bot = [-1.0] * S
    zeta_t, zeta_b = (1.0, -1.0) if boundary is None else (float(boundary),) * 2
    bsum_t = [n * zeta_t for n in lattice.n_out]
    bsum_b = [n * zeta_b for n in lattice.n_out]
    sig = 0.0 if beta == 0.0 else 1.0 / math.sqrt(2.0 * beta * deg)
    law = (sig, float(10**k), 10.0**-k, eps, 1.0 / deg)
    vkeys = lattice.vkeys(seed, reseed, offset=offset)
    monitoring = core_mask is not None
    core = np.asarray(core_mask).tolist() if monitoring else [False] * S
    if not monitoring:
        slab_lo = math.inf
    neq = sum(1 for a, b, c in zip(top, bot, core) if c and a != b)
    cone = None if targets is None else [lattice.index[v] for v in targets]
    span = max(1.0, _CHUNK_EVENTS / S)
    nev = 0
    for lo, hi in _chunk_bounds(t_start, t_end, span, slab_lo):
        in_slab = lo >= slab_lo
        if in_slab and neq:
            break  # the core is split at slab entry
        times, sidx, _, up, ur, um = sorted_events(vkeys, lo, hi)
        if cone is not None and hi == t_end:
            keep = _cone_mask(lattice.nbrs, sidx, cone)
            times, sidx, up, ur, um = (a[keep] for a in (times, sidx, up, ur, um))
        nev += times.size
        events = _event_values(times, sidx, up, ur, um)
        neq = _swm_chunk(lattice, top, bot, events, bsum_t, bsum_b, law, core, neq, in_slab)
        if in_slab and neq:
            nev -= sum(1 for _ in events)  # the events after the exit never ran
            break
    mixed_ok = neq == 0 if monitoring else None  # covers slabs containing no event
    top, bot = np.array(top), np.array(bot)
    if cone is not None:
        stale = np.ones(S, np.bool_)
        stale[cone] = False
        top[stale] = bot[stale] = np.nan
    return SwmRunResult(top, bot, mixed_ok=mixed_ok, event_count=nev)
