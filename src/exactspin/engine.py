"""Array-based trajectory engine for square well dynamics.

Plain Python over numpy arrays.  Events come from the one generator,
:func:`exactspin.randomness.block_events`, so the engine sees exactly
the events of the object-level :func:`exactspin.randomness.event_stream`;
the update kernel is :func:`exactspin._scalar.swm_draw`, the same one
the object-level update calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import _scalar
from .lattice import Vertex, neighbors
from .randomness import block_events, vertex_key, window_blocks


def _gen_events(vkeys, first_block, last_block, t_start, t_end):
    """Events on (t_start, t_end] for all sites, unsorted.

    Returns (times, site_idx, keys, u_primary, u_refine, u_match) as
    numpy arrays over the generator's typed arrays.
    """
    times, sidx, keys, up, ur, um = block_events(
        vkeys, first_block, last_block, t_start, t_end
    )
    return (
        np.frombuffer(times, np.float64),
        np.frombuffer(sidx, np.int64),
        np.frombuffer(keys, np.uint64),
        np.frombuffer(up, np.float64),
        np.frombuffer(ur, np.float64),
        np.frombuffer(um, np.float64),
    )


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


def _swm_chunk(
    top,
    bot,
    times,
    sidx,
    up,
    ur,
    um,
    nbr,
    bsum_t,
    bsum_b,
    inv_deg,
    sig,
    tenk,
    w,
    eps,
    core_mask,
    slab_lo,
    entered,
    neq_core,
    origin_idx,
    rec_time,
    rec_eq,
):
    """Evolve one chunk of the sandwich; returns (status, entered, neq, nrec).

    status: -1 ok, -2 core equality failed inside/entering the slab,
    i >= 0 the event index of a sandwich-order violation.
    """
    nrec = 0
    deg = nbr.shape[1]
    for i in range(times.size):
        t = times[i]
        if entered == 0 and t > slab_lo:
            if neq_core > 0:
                return -2, 1, neq_core, nrec
            entered = 1
        vi = sidx[i]
        st = bsum_t[vi]
        sb = bsum_b[vi]
        for j in range(deg):
            nj = nbr[vi, j]
            if nj >= 0:
                st += top[nj]
                sb += bot[nj]
        vt, ct, mt = _swm_draw(st * inv_deg, sig, tenk, w, eps, up[i], ur[i], um[i])
        vb, cb, mb = _swm_draw(sb * inv_deg, sig, tenk, w, eps, up[i], ur[i], um[i])
        if vt < vb:
            return i, entered, neq_core, nrec
        if core_mask[vi]:
            was_eq = top[vi] == bot[vi]
            now_eq = vt == vb
            if was_eq and not now_eq:
                neq_core += 1
            elif now_eq and not was_eq:
                neq_core -= 1
        top[vi] = vt
        bot[vi] = vb
        if entered == 1 and neq_core > 0:
            return -2, entered, neq_core, nrec
        if vi == origin_idx:
            rec_time[nrec] = t
            rec_eq[nrec] = 1 if vt == vb else 0
            nrec += 1
    return -1, entered, neq_core, nrec


class MonotonicityError(RuntimeError):
    """The sandwich order was violated at an update (hard failure)."""


class SwmLattice:
    """Precomputed geometry for engine runs on a finite vertex set."""

    def __init__(self, vertices: Sequence[Vertex]):
        self.vertices: List[Vertex] = sorted(set(vertices))
        if not self.vertices:
            raise ValueError("empty vertex set")
        self.d = len(self.vertices[0])
        self.index: Dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}
        S = len(self.vertices)
        deg = 2 * self.d
        self.nbr = np.full((S, deg), -1, np.int64)
        self.boundary_sites: List[List[Vertex]] = [[] for _ in range(S)]
        for i, v in enumerate(self.vertices):
            for j, wv in enumerate(neighbors(v)):
                k = self.index.get(wv)
                if k is None:
                    self.boundary_sites[i].append(wv)
                else:
                    self.nbr[i, j] = k
        self.bcount = np.array(
            [len(b) for b in self.boundary_sites], dtype=np.float64
        )

    @property
    def size(self) -> int:
        return len(self.vertices)

    def bsum(self, zeta) -> np.ndarray:
        """Per-site sum of boundary values under the boundary condition.

        ``zeta`` is a constant or a mapping vertex -> value.
        """
        if isinstance(zeta, Mapping):
            return np.array(
                [sum(zeta[y] for y in b) for b in self.boundary_sites],
                dtype=np.float64,
            )
        return self.bcount * float(zeta)

    def vkeys(
        self,
        seed: int,
        reseed: Optional[Mapping[Vertex, int]] = None,
        offset: Optional[Vertex] = None,
    ) -> List[int]:
        """Per-site stream keys; ``offset`` shifts every vertex, letting a
        centered lattice stand in for a translate of itself."""
        out = []
        for v in self.vertices:
            if offset is not None:
                v = tuple(a + b for a, b in zip(v, offset))
            master = seed if reseed is None else reseed.get(v, seed)
            out.append(vertex_key(master, v))
        return out

    def mask(self, predicate) -> np.ndarray:
        return np.array([bool(predicate(v)) for v in self.vertices], dtype=np.bool_)


def _chunk_bounds(t_start: float, t_end: float, span: float) -> List[Tuple[float, float]]:
    bounds = []
    lo = t_start
    while lo < t_end:
        hi = min(t_end, lo + span)
        bounds.append((lo, hi))
        lo = hi
    return bounds


@dataclass
class SwmRunResult:
    top: np.ndarray
    bot: np.ndarray
    mixed_ok: Optional[bool]
    origin_records: List[Tuple[float, int]] = field(default_factory=list)
    event_count: int = 0


def swm_sandwich(
    lattice: SwmLattice,
    beta: float,
    k: int,
    eps: float,
    t_start: float,
    t_end: float,
    seed: int,
    bc_top=1.0,
    bc_bot=-1.0,
    init_top: Optional[np.ndarray] = None,
    init_bot: Optional[np.ndarray] = None,
    reseed: Optional[Mapping[Vertex, int]] = None,
    core_mask: Optional[np.ndarray] = None,
    slab_lo: float = math.inf,
    origin: Optional[Vertex] = None,
    offset: Optional[Vertex] = None,
) -> SwmRunResult:
    """Coupled top/bottom trajectories over region x (t_start, t_end].

    When ``core_mask``/``slab_lo`` are given the run doubles as a mixed
    cell evaluation: ``mixed_ok`` reports whether top and bottom agree
    on the core at the slab entry time and after every in-slab event
    (the run exits early on the first failure).  ``origin`` collects the
    per-update equality record at one site for coupling statistics.
    """
    S = lattice.size
    deg = 2 * lattice.d
    top = np.full(S, 1.0) if init_top is None else init_top.astype(np.float64).copy()
    bot = np.full(S, -1.0) if init_bot is None else init_bot.astype(np.float64).copy()
    bsum_t = lattice.bsum(bc_top)
    bsum_b = lattice.bsum(bc_bot)
    sig = 0.0 if beta == 0.0 else 1.0 / math.sqrt(2.0 * beta * deg)
    tenk = float(10**k)
    w = 10.0**-k
    vkeys = lattice.vkeys(seed, reseed, offset=offset)
    monitoring = core_mask is not None
    if core_mask is None:
        core_mask = np.zeros(S, np.bool_)
    neq_core = int(np.count_nonzero((top != bot) & core_mask))
    entered = 0 if monitoring else 1
    if not monitoring:
        slab_lo = math.inf
    origin_idx = -1 if origin is None else lattice.index[origin]
    records: List[Tuple[float, int]] = []
    span = max(1.0, 2.0e6 / S)
    nev = 0
    status = -1
    for lo, hi in _chunk_bounds(t_start, t_end, span):
        times, sidx, _, up, ur, um = sorted_events(vkeys, lo, hi)
        nev += times.size
        if origin_idx >= 0:
            rec_time = np.empty(times.size, np.float64)
            rec_eq = np.empty(times.size, np.int8)
        else:
            rec_time = np.empty(0, np.float64)
            rec_eq = np.empty(0, np.int8)
        status, entered, neq_core, nrec = _swm_chunk(
            top, bot, times, sidx, up, ur, um,
            lattice.nbr, bsum_t, bsum_b, 1.0 / deg, sig, tenk, w, eps,
            core_mask, slab_lo, entered, neq_core,
            origin_idx, rec_time, rec_eq,
        )
        for i in range(nrec):
            records.append((float(rec_time[i]), int(rec_eq[i])))
        if status >= 0:
            v = lattice.vertices[int(sidx[status])]
            raise MonotonicityError(
                f"sandwich order violated at site {v}, time {times[status]}"
            )
        if status == -2:
            return SwmRunResult(top, bot, mixed_ok=False,
                                origin_records=records, event_count=nev)
    mixed_ok: Optional[bool] = None
    if monitoring:
        mixed_ok = neq_core == 0  # covers slabs containing no event
    return SwmRunResult(top, bot, mixed_ok=mixed_ok,
                        origin_records=records, event_count=nev)
