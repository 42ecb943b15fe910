"""Space-time coarse-graining: mixed cells, local sets, decoupling.

A coarse cell (j, x) owns the fine time slab (L(j-1), Lj] and the
spatial core of radius n_L = ceil(L/delta) around Lx.  It is mixed when
the extremal trajectories evolved on the radius-2n_L box, started n_L
before the slab, agree on the core at the slab entry and after every
in-slab event.  The field of these bits drives everything downstream:
star 0-clusters, their shielding layer, spatial local sets, and the
decoupling property that re-randomizing all events outside a local set
leaves the sampled value at its anchor bit-identical.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .cftp import MODEL_SWM, MODEL_XY, required_digits
from .engine import SwmLattice, swm_sandwich
from .lattice import (
    Cell,
    CellWindow,
    WindowTooSmallError,
    cluster_touches_boundary,
    star_boundary,
    star_zero_cluster,
)
from .randomness import event_stream, mix64, vertex_key
from .xy import XyGraph, box_graph, xy_extremes, xy_full_update


@dataclass(frozen=True)
class CoarseParams:
    """Parameters of the coarse-grained cell process."""

    model: str
    beta: float
    d: int
    L: int
    delta: float
    eps: float = 0.1
    k: Optional[int] = None

    def __post_init__(self):
        if self.model not in (MODEL_SWM, MODEL_XY):
            raise ValueError(f"unknown model {self.model!r}")
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")

    @property
    def n_L(self) -> int:
        return math.ceil(self.L / self.delta)

    @property
    def digits(self) -> int:
        if self.k is not None:
            return self.k
        return required_digits(self.model, self.beta, self.d, self.eps)

    def slab(self, j: int) -> Tuple[float, float]:
        return (float(self.L * (j - 1)), float(self.L * j))

    def run_start(self, j: int) -> float:
        return float(self.L * (j - 1) - self.n_L)

    def fine_center(self, x: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(self.L * xi for xi in x)

    def cell_of_vertex(self, v: Tuple[int, ...]) -> Cell:
        x = tuple((vi + self.L // 2) // self.L for vi in v)
        return (0, x)


@lru_cache(maxsize=32)
def _centered_lattice(d: int, radius: int) -> SwmLattice:
    from .lattice import build_box

    return SwmLattice(build_box(d, radius).vertices())


@lru_cache(maxsize=32)
def _core_mask_cached(d: int, radius: int, core: int) -> np.ndarray:
    lat = _centered_lattice(d, radius)
    return lat.mask(lambda v: max(abs(c) for c in v) < core)


def cell_is_mixed(cell: Cell, params: CoarseParams, seed: int) -> int:
    """1 iff the extremal dynamics agree on the cell's core through its slab."""
    if params.model == MODEL_SWM:
        return _swm_cell_bit(cell, params, seed, check_crossings=False)
    return _xy_cell_bit(cell, params, seed, check_crossings=False)


def cell_is_good(cell: Cell, params: CoarseParams, seed: int) -> int:
    """Mixed and, for the XY model, free of omega/eta crossings of the
    inner L-box at every in-slab event time."""
    if params.model != MODEL_XY:
        raise ValueError("good cells are defined for the XY model only")
    return _xy_cell_bit(cell, params, seed, check_crossings=True)


def _swm_cell_bit(cell: Cell, params: CoarseParams, seed: int, check_crossings: bool) -> int:
    j, x = cell
    nL = params.n_L
    lat = _centered_lattice(params.d, 2 * nL)
    core = _core_mask_cached(params.d, 2 * nL, nL)
    slab_lo, slab_hi = params.slab(j)
    res = swm_sandwich(
        lat,
        params.beta,
        params.digits,
        params.eps,
        t_start=params.run_start(j),
        t_end=slab_hi,
        seed=seed,
        core_mask=core,
        slab_lo=slab_lo,
        offset=params.fine_center(x),
    )
    return 1 if res.mixed_ok else 0


def _box_crossing(graph: XyGraph, bond: Mapping, center, radius: int) -> bool:
    """Open path joining opposite faces of the closed box |v - c| <= radius."""
    d = len(center)
    inside = lambda v: (
        isinstance(v, tuple)
        and len(v) == d
        and all(abs(v[i] - center[i]) <= radius for i in range(d))
    )
    for axis in range(d):
        starts = [
            v
            for v in graph.free
            if inside(v) and v[axis] - center[axis] == -radius
        ]
        goal = lambda v: v[axis] - center[axis] == radius
        seen = set(starts)
        stack = list(starts)
        hit = False
        while stack and not hit:
            cur = stack.pop()
            if goal(cur):
                hit = True
                break
            for e in graph.incident[cur]:
                if not bond.get(e, 0):
                    continue
                other = graph.other(e, cur)
                if other in seen or not inside(other):
                    continue
                seen.add(other)
                stack.append(other)
        if hit:
            return True
    return False


def _xy_cell_bit(cell: Cell, params: CoarseParams, seed: int, check_crossings: bool) -> int:
    j, x = cell
    nL = params.n_L
    center = params.fine_center(x)
    from .lattice import build_box

    zone = build_box(params.d, 2 * nL, center)
    graph = box_graph(zone)
    lo, hi = xy_extremes(graph, params.beta)
    slab_lo, slab_hi = params.slab(j)
    k = params.digits

    core_verts = [
        v for v in graph.free if max(abs(a - c) for a, c in zip(v, center)) < nL
    ]
    core_edges = [
        e
        for e in graph.edges
        if all(
            not graph.is_frozen[n]
            and max(abs(a - c) for a, c in zip(n, center)) < nL
            for n in e
        )
    ]

    def core_equal() -> bool:
        return all(hi.alpha[v] == lo.alpha[v] for v in core_verts) and all(
            hi.omega[e] == lo.omega[e] and hi.eta[e] == lo.eta[e]
            for e in core_edges
        )

    def crossing_free() -> bool:
        if not check_crossings:
            return True
        return not (
            _box_crossing(graph, hi.omega, center, params.L)
            or _box_crossing(graph, hi.eta, center, params.L)
        )

    entered = False
    events = event_stream(zone, params.run_start(j), slab_hi, seed)
    for ev in events:
        if not entered and ev.time > slab_lo:
            if not (core_equal() and crossing_free()):
                return 0
            entered = True
        hi = xy_full_update(hi, ev.vertex, ev.randomness, k, params.eps)
        lo = xy_full_update(lo, ev.vertex, ev.randomness, k, params.eps)
        if entered:
            if not (core_equal() and crossing_free()):
                return 0
    if not entered:
        return 1 if (core_equal() and crossing_free()) else 0
    return 1


class ThetaField:
    """Lazy 0/1 field of mixed (or good, XY) cells over a window."""

    def __init__(
        self,
        window: CellWindow,
        params: CoarseParams,
        seed: int,
        good: bool = False,
    ):
        if good and params.model != MODEL_XY:
            raise ValueError("good cells exist for the XY model only")
        self.window = window
        self.params = params
        self.seed = seed
        self.good = good
        self.values: Dict[Cell, int] = {}

    def value(self, cell: Cell) -> int:
        if not self.window.contains(cell):
            raise ValueError(f"cell {cell} outside the window")
        if cell not in self.values:
            if self.good:
                bit = cell_is_good(cell, self.params, self.seed)
            else:
                bit = cell_is_mixed(cell, self.params, self.seed)
            self.values[cell] = bit
        return self.values[cell]

    def ensure_all(self) -> None:
        for cell in self.window.cells():
            self.value(cell)

    def density(self) -> float:
        self.ensure_all()
        return sum(self.values.values()) / self.window.size

    def nn_pair_counts(self) -> Dict[Tuple[int, int], int]:
        """Joint frequencies over nearest-neighbour cell pairs."""
        self.ensure_all()
        counts = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
        for cell in self.window.cells():
            j, x = cell
            for nb in [(j + 1, x)] + [
                (j, tuple(xi + (1 if i == axis else 0) for i, xi in enumerate(x)))
                for axis in range(len(x))
            ]:
                if self.window.contains(nb):
                    counts[(self.values[cell], self.values[nb])] += 1
        return counts

    def to_json(self) -> str:
        self.ensure_all()
        return json.dumps(
            {
                "window": {
                    "j_min": self.window.j_min,
                    "j_max": self.window.j_max,
                    "x_radius": self.window.x_radius,
                    "d": self.window.d,
                },
                "params": {
                    "model": self.params.model,
                    "beta": self.params.beta,
                    "L": self.params.L,
                    "delta": self.params.delta,
                    "eps": self.params.eps,
                    "k": self.params.digits,
                },
                "seed": self.seed,
                "good": self.good,
                "cells": [
                    {"j": j, "x": list(x), "bit": bit}
                    for (j, x), bit in sorted(self.values.items())
                ],
            }
        )


@dataclass
class LocalSet:
    """Connected spatial set certifying where the anchor's value lives."""

    anchor: Tuple[int, ...]
    vertices: FrozenSet[Tuple[int, ...]]
    cluster: FrozenSet[Cell]
    shield: FrozenSet[Cell]
    params: CoarseParams

    @property
    def size(self) -> int:
        return len(self.vertices)

    def to_json(self) -> str:
        return json.dumps(
            {
                "anchor": list(self.anchor),
                "size": self.size,
                "cluster": [[j, list(x)] for (j, x) in sorted(self.cluster)],
                "vertices": sorted(list(v) for v in self.vertices),
            }
        )


def local_set(v: Tuple[int, ...], theta: ThetaField, params: CoarseParams) -> LocalSet:
    """The spatial local set of the vertex v under the theta field.

    The star 0-cluster of v's cell plus its shielding layer of mixed
    cells determines the value at (0, v); the local set is the spatial
    projection of their dependence zones.  When the cell itself is
    mixed the minimal local set is the projection of its own zone.
    Raises WindowTooSmallError when the 0-cluster reaches the window
    edge (the caller must enlarge the window).
    """
    cell_v = params.cell_of_vertex(v)
    if theta.value(cell_v) == 1:
        cluster: Set[Cell] = set()
        shield = {cell_v}
    else:
        cluster = star_zero_cluster(theta, cell_v)
        if cluster_touches_boundary(cluster, theta.window):
            raise WindowTooSmallError(
                f"0-cluster of {cell_v} reaches the window edge"
            )
        shield = star_boundary(cluster, theta.window) | cluster
    nL = params.n_L
    verts: Set[Tuple[int, ...]] = set()
    for (j, x) in shield:
        center = params.fine_center(x)
        ranges = [range(c - 2 * nL + 1, c + 2 * nL) for c in center]
        for w in itertools.product(*ranges):
            verts.add(tuple(w))
    assert v in verts
    return LocalSet(
        anchor=v,
        vertices=frozenset(verts),
        cluster=frozenset(cluster),
        shield=frozenset(shield),
        params=params,
    )


_RESEED_TAG = 0x5EED5EED


def _fresh_master(seed: int, w: Tuple[int, ...]) -> int:
    return vertex_key(mix64(seed ^ _RESEED_TAG), w)


@dataclass
class DecouplingReport:
    trials: int
    identical: int
    window_errors: int
    resampled_events: int

    @property
    def pass_fraction(self) -> float:
        return self.identical / self.trials if self.trials else float("nan")


def decoupling_check(
    v: Tuple[int, ...],
    params: CoarseParams,
    seed: int,
    trials: int,
    mode: str = "outside",
    window: Optional[CellWindow] = None,
    margin: int = 2,
) -> DecouplingReport:
    """Re-randomize events and compare the exactly-sampled value at v.

    ``outside`` mode re-randomizes every event whose spatial location
    lies outside the local set of v: the value at v must be
    bit-identical in every trial.  ``inside`` mode re-randomizes the
    events inside the local set instead, as a sanity check that the
    value genuinely depends on them (the report then counts how often
    it stayed identical).
    """
    if params.model != MODEL_SWM:
        raise NotImplementedError("decoupling harness runs the square well model")
    if mode not in ("outside", "inside"):
        raise ValueError("mode must be 'outside' or 'inside'")
    if window is None:
        window = CellWindow(j_min=-3, j_max=0, x_radius=3, d=params.d)
    identical = 0
    window_errors = 0
    resampled_total = 0
    done = 0
    trial = 0
    while done < trials:
        trial += 1
        if trial > 20 * trials:
            raise RuntimeError("too many window-too-small retries")
        seed_i = mix64(seed ^ (trial * 0x9E37)) & ((1 << 62) - 1)
        theta = ThetaField(window, params, seed_i)
        try:
            ls = local_set(v, theta, params)
        except WindowTooSmallError:
            window_errors += 1
            continue
        done += 1
        # simulation region: bounding box of the local set plus margin
        nL = params.n_L
        center = params.fine_center(params.cell_of_vertex(v)[1])
        reach = max(
            max(abs(a - c) for a, c in zip(w, center)) for w in ls.vertices
        )
        radius = reach + margin * params.L + 1
        lat = _centered_lattice(params.d, radius)
        j_min = min((j for (j, _) in ls.shield), default=0)
        T = params.L * (1 - j_min) + nL

        def value_at(reseed):
            res = swm_sandwich(
                lat,
                params.beta,
                params.digits,
                params.eps,
                t_start=-float(T),
                t_end=0.0,
                seed=seed_i,
                reseed=reseed,
                offset=center,
            )
            idx = lat.index[tuple(a - c for a, c in zip(v, center))]
            if res.top[idx] != res.bot[idx]:
                raise RuntimeError(
                    "anchor failed to coalesce inside its shielded window"
                )
            return res.top[idx]

        base = value_at(None)
        reseed = {}
        for w0 in lat.vertices:
            w = tuple(a + c for a, c in zip(w0, center))
            inside = w in ls.vertices
            if (mode == "outside" and not inside) or (mode == "inside" and inside):
                reseed[w] = _fresh_master(seed_i, w)
        resampled_total += len(reseed)
        redone = value_at(reseed)
        identical += redone == base
    return DecouplingReport(
        trials=done,
        identical=identical,
        window_errors=window_errors,
        resampled_events=resampled_total,
    )


# ---------------------------------------------------------------------------
# Tail statistics
# ---------------------------------------------------------------------------


class DegenerateSampleError(ValueError):
    """All sizes equal: no tail to fit."""


@dataclass
class TailFit:
    rate: float  # decay rate (positive when the tail falls)
    prefactor: float
    r_squared: float
    points: int


def tail_fit(sizes: Sequence[int], min_samples: int = 100) -> TailFit:
    """Least squares on log survival: log P[X > n] ~ intercept - rate*n."""
    sizes = list(sizes)
    if len(sizes) < min_samples:
        raise ValueError(f"need at least {min_samples} samples")
    arr = np.asarray(sizes, dtype=float)
    if np.all(arr == arr[0]):
        raise DegenerateSampleError("all sizes equal")
    n_max = int(arr.max())
    ns = []
    logp = []
    total = len(arr)
    for n in range(0, n_max):
        surv = float((arr > n).sum()) / total
        if surv <= 0.0:
            break
        ns.append(n)
        logp.append(math.log(surv))
    if len(ns) < 2:
        raise DegenerateSampleError("survival support too short to fit")
    ns_a = np.array(ns, dtype=float)
    lp = np.array(logp)
    slope, intercept = np.polyfit(ns_a, lp, 1)
    pred = slope * ns_a + intercept
    ss_res = float(np.sum((lp - pred) ** 2))
    ss_tot = float(np.sum((lp - lp.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return TailFit(rate=-slope, prefactor=math.exp(intercept), r_squared=r2, points=len(ns))


def sample_cluster_and_localset_sizes(
    params: CoarseParams,
    seed: int,
    samples: int,
    window: Optional[CellWindow] = None,
) -> Tuple[List[int], List[int], int]:
    """(|C*| samples, |L_v| samples, window_errors) at spatial anchors.

    Each sample uses a fresh master seed and anchors at the origin
    cell; the theta field is evaluated lazily so typical high-density
    draws cost a single cell evaluation.
    """
    if window is None:
        window = CellWindow(j_min=-3, j_max=0, x_radius=3, d=params.d)
    v = (0,) * params.d
    cs: List[int] = []
    ls_sizes: List[int] = []
    errors = 0
    for i in range(samples):
        seed_i = mix64(seed ^ (i * 0xC0FFEE + 1)) & ((1 << 62) - 1)
        theta = ThetaField(window, params, seed_i)
        try:
            ls = local_set(v, theta, params)
        except WindowTooSmallError:
            errors += 1
            continue
        cs.append(len(ls.cluster))
        ls_sizes.append(ls.size)
    return cs, ls_sizes, errors
