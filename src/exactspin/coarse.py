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

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .cftp import (
    MODEL_SWM,
    MODEL_XY,
    WindowSpec,
    _region_graph,
    _xy_monitor,
    check_params,
    sandwich_run,
)
from .engine import SwmLattice, swm_sandwich
from .lattice import (
    BoxRegion,
    Cell,
    CellWindow,
    WindowTooSmallError,
    _check_int,
    build_box,
    cluster_touches_boundary,
    star_boundary,
    star_zero_cluster,
)
from .randomness import event_stream, mix64, vertex_key
from .xy import XyGraph, xy_extremes


@dataclass(frozen=True)
class CoarseParams:
    """Parameters of the coarse-grained cell process; ``k`` holds the digit
    depth :func:`exactspin.cftp.check_params` returns (calibrated for None)."""

    model: str
    beta: float
    d: int
    L: int
    delta: float
    eps: float = 0.1
    k: Optional[int] = None

    def __post_init__(self):
        _check_int("L", self.L, 1)
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        k = check_params(self.model, self.beta, self.d, self.eps, self.k)
        object.__setattr__(self, "k", k)

    @property
    def n_L(self) -> int:
        return math.ceil(self.L / self.delta)

    @property
    def digits(self) -> int:
        return self.k

    def slab(self, j: int) -> Tuple[float, float]:
        return (float(self.L * (j - 1)), float(self.L * j))

    def run_start(self, j: int) -> float:
        return float(self.L * (j - 1) - self.n_L)

    def fine_center(self, x: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(self.L * xi for xi in x)

    def zone(self, x: Tuple[int, ...]) -> BoxRegion:
        """Radius-2n_L box around Lx on which the cell's dynamics run."""
        return build_box(self.d, 2 * self.n_L, self.fine_center(x))

    def core(self, x: Tuple[int, ...]) -> BoxRegion:
        """Radius-n_L box around Lx on which the extremal runs must agree."""
        return build_box(self.d, self.n_L, self.fine_center(x))

    def cell_of_vertex(self, v: Tuple[int, ...]) -> Cell:
        x = tuple((vi + self.L // 2) // self.L for vi in v)
        return (0, x)


@lru_cache(maxsize=32)
def _zone_lattice(params: CoarseParams) -> Tuple[SwmLattice, np.ndarray]:
    """Zone lattice and core mask of the cells at x = 0; a cell at x runs
    on them shifted by fine_center(x)."""
    origin = (0,) * params.d
    lat = SwmLattice(params.zone(origin).vertices())
    return lat, lat.mask(params.core(origin).contains)


def cell_is_mixed(cell: Cell, params: CoarseParams, seed: int) -> int:
    """1 iff the extremal dynamics agree on the cell's core through its slab."""
    if params.model == MODEL_SWM:
        return _swm_cell_bit(cell, params, seed)
    return _xy_cell_bit(cell, params, seed, good=False)


def cell_is_good(cell: Cell, params: CoarseParams, seed: int) -> int:
    """Mixed and, for the XY model, free of omega/eta crossings of the
    inner L-box at every in-slab event time."""
    if params.model != MODEL_XY:
        raise ValueError("good cells are defined for the XY model only")
    return _xy_cell_bit(cell, params, seed, good=True)


def _swm_cell_bit(cell: Cell, params: CoarseParams, seed: int) -> int:
    j, x = cell
    lat, core = _zone_lattice(params)
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
    inside = set(build_box(len(center), radius + 1, center).vertices())
    inside.intersection_update(graph.free)
    for axis, c in enumerate(center):
        stack = [v for v in inside if v[axis] == c - radius]
        seen = set(stack)
        while stack:
            cur = stack.pop()
            if cur[axis] == c + radius:
                return True
            for e in graph.incident[cur]:
                if not bond.get(e, 0):
                    continue
                other = graph.other(e, cur)
                if other in inside and other not in seen:
                    seen.add(other)
                    stack.append(other)
    return False


def _xy_cell_bit(cell: Cell, params: CoarseParams, seed: int, good: bool) -> int:
    j, x = cell
    center = params.fine_center(x)
    zone = params.zone(x)
    graph = _region_graph(zone)
    lo, hi = xy_extremes(graph, params.beta)
    slab_lo, slab_hi = params.slab(j)

    core_verts = params.core(x).vertices()
    core_set = set(core_verts)
    core_edges = [e for e in graph.edges if e[0] in core_set and e[1] in core_set]

    def holds(hi, lo) -> bool:
        if not (
            all(hi.alpha[v] == lo.alpha[v] for v in core_verts)
            and all(hi.omega[e] == lo.omega[e] and hi.eta[e] == lo.eta[e] for e in core_edges)
        ):
            return False
        return not good or not (
            _box_crossing(graph, hi.omega, center, params.L)
            or _box_crossing(graph, hi.eta, center, params.L)
        )

    events = event_stream(zone, params.run_start(j), slab_hi, seed)
    return int(_xy_monitor(hi, lo, events, slab_lo, params.digits, params.eps, holds))


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
        if window.d != params.d:
            raise ValueError(f"window dimension {window.d} differs from params.d = {params.d}")
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


def local_set(v: Tuple[int, ...], theta: ThetaField) -> LocalSet:
    """The spatial local set of the vertex v under the theta field.

    The star 0-cluster of v's cell plus its shielding layer of mixed
    cells determines the value at (0, v); the local set is the spatial
    projection of their dependence zones.  When the cell itself is
    mixed the minimal local set is the projection of its own zone.
    Raises WindowTooSmallError when the 0-cluster reaches the window
    edge (the caller must enlarge the window).
    """
    params = theta.params
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
    verts: Set[Tuple[int, ...]] = set()
    for (_, x) in shield:
        verts.update(params.zone(x).vertices())
    assert v in verts
    return LocalSet(
        anchor=v,
        vertices=frozenset(verts),
        cluster=frozenset(cluster),
        shield=frozenset(shield),
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


def decoupling_check(
    v: Tuple[int, ...],
    params: CoarseParams,
    seed: int,
    trials: int,
    mode: str = "outside",
) -> DecouplingReport:
    """Re-randomize events and compare the exactly-sampled value at v.

    Both models run through :func:`exactspin.cftp.sandwich_run`, and
    the value compared is the lane's ``value_at(v)``: the spin for the
    square well model; for XY the angle and the omega/eta bonds of every
    edge at v.  ``outside`` mode re-randomizes every event whose spatial
    location lies outside the local set of v: the value at v must be
    bit-identical in every trial.  ``inside`` mode re-randomizes the
    events inside the local set instead, as a sanity check that the
    value genuinely depends on them (the report then counts how often
    it stayed identical).  There a rerun that does not coalesce
    at v counts as not identical; elsewhere that raises RuntimeError.
    """
    if mode not in ("outside", "inside"):
        raise ValueError("mode must be 'outside' or 'inside'")
    _check_int("trials", trials, 1)
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
            ls = local_set(v, theta)
        except WindowTooSmallError:
            window_errors += 1
            continue
        done += 1
        # simulation region: bounding box of the local set plus two cells
        center = params.fine_center(params.cell_of_vertex(v)[1])
        reach = max(
            max(abs(a - c) for a, c in zip(w, center)) for w in ls.vertices
        )
        j_min = min((j for (j, _) in ls.shield), default=0)
        T = params.L * (1 - j_min) + params.n_L
        run = WindowSpec(build_box(params.d, reach + 2 * params.L + 1, center), -float(T),
                         0.0, params.model, params.beta, eps=params.eps, k=params.k)

        def value_at(reseed):
            pair = sandwich_run(run, seed_i, targets=[v], reseed=reseed)
            if pair.coalesced(v):
                return pair.top.value_at(v)
            if mode == "inside" and reseed is not None:
                return None  # new events inside the local set; not the base value
            raise RuntimeError("anchor failed to coalesce inside its shielded window")

        base = value_at(None)
        reseed = {w: _fresh_master(seed_i, w) for w in run.region.vertices()
                  if (w in ls.vertices) == (mode == "inside")}
        resampled_total += len(reseed)
        identical += value_at(reseed) == base
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


def tail_fit(sizes: Sequence[int]) -> TailFit:
    """Least squares on log survival: log P[X > n] ~ intercept - rate*n."""
    sizes = list(sizes)
    if len(sizes) < 100:
        raise ValueError("need at least 100 samples")
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
) -> Tuple[List[int], List[int], int]:
    """(|C*| samples, |L_v| samples, window_errors) at spatial anchors.

    Each sample uses a fresh master seed and anchors at the origin
    cell; the theta field is evaluated lazily so typical high-density
    draws cost a single cell evaluation.
    """
    _check_int("samples", samples, 1)
    window = CellWindow(j_min=-3, j_max=0, x_radius=3, d=params.d)
    v = (0,) * params.d
    cs: List[int] = []
    ls_sizes: List[int] = []
    errors = 0
    for i in range(samples):
        seed_i = mix64(seed ^ (i * 0xC0FFEE + 1)) & ((1 << 62) - 1)
        theta = ThetaField(window, params, seed_i)
        try:
            ls = local_set(v, theta)
        except WindowTooSmallError:
            errors += 1
            continue
        cs.append(len(ls.cluster))
        ls_sizes.append(ls.size)
    return cs, ls_sizes, errors
