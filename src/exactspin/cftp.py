"""Coupling from the past: sandwich runs, exact sampling, coupling events.

Updates compose over space-time windows through the shared event
streams; top and bottom trajectories start from the extremal
configurations and are folded through identical randomness.  Once they
agree at a site the value is the exact Gibbs sample there and cannot
change under any enlargement of the window, which the doubling
procedure exploits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import swm as swm_mod
from . import xy as xy_mod
from .engine import MonotonicityError, SwmLattice, swm_sandwich
from .lattice import BoxRegion, Vertex
from .randomness import digit_cell, event_stream
from .swm import SwmField
from .xy import XyTriple, box_graph, xy_extremes, xy_full_update

MODEL_SWM = "swm"
MODEL_XY = "xy"


@lru_cache(maxsize=None)
def _swm_k_floor(beta: float, d: int, eps: float) -> int:
    return swm_mod.calibrate_matching(beta, d, eps)


@lru_cache(maxsize=None)
def _xy_k_floor(beta: float, d: int, eps: float) -> int:
    return xy_mod.calibrate_matching_xy(beta, d, eps)


def required_digits(model: str, beta: float, d: int, eps: float) -> int:
    if model == MODEL_SWM:
        return _swm_k_floor(beta, d, eps)
    if model == MODEL_XY:
        return _xy_k_floor(beta, d, eps)
    raise ValueError(f"unknown model {model!r}")


@dataclass(frozen=True)
class WindowSpec:
    """A space-time dynamics window with its model parameters."""

    region: BoxRegion
    t_start: float
    t_end: float
    model: str
    beta: float
    k: int
    eps: float
    boundary: Optional[object] = None  # swm: zeta value; xy: bc string

    def __post_init__(self):
        if not self.t_start <= self.t_end <= 0:
            raise ValueError("need t_start <= t_end <= 0")
        if self.model not in (MODEL_SWM, MODEL_XY):
            raise ValueError(f"unknown model {self.model!r}")
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        floor = required_digits(self.model, self.beta, self.region.d, self.eps)
        if self.k < floor:
            raise ValueError(
                f"digit depth k={self.k} below the calibrated floor {floor} "
                f"for beta={self.beta}, eps={self.eps}"
            )


def auto_window(
    region: BoxRegion,
    t_start: float,
    t_end: float,
    model: str,
    beta: float,
    eps: float = 0.1,
    boundary=None,
    k: Optional[int] = None,
) -> WindowSpec:
    """WindowSpec with the digit depth resolved by calibration."""
    if k is None:
        k = required_digits(model, beta, region.d, eps)
    return WindowSpec(region, t_start, t_end, model, beta, k, eps, boundary)


@dataclass
class SandwichPair:
    """Coupled extremal trajectories over one window."""

    window: WindowSpec
    top: object  # SwmField | XyTriple
    bot: object
    origin_records: List[Tuple[float, int]] = field(default_factory=list)
    event_count: int = 0

    def coalesced(self, v: Vertex) -> bool:
        if self.window.model == MODEL_SWM:
            return self.top.values[v] == self.bot.values[v]
        if self.top.alpha[v] != self.bot.alpha[v]:
            return False
        g = self.top.graph
        return all(
            self.top.omega[e] == self.bot.omega[e]
            and self.top.eta[e] == self.bot.eta[e]
            for e in g.incident[v]
        )


def _swm_pair_fields(window: WindowSpec, lat: SwmLattice, top, bot) -> Tuple[SwmField, SwmField]:
    zeta_top = window.boundary if window.boundary is not None else 1.0
    zeta_bot = window.boundary if window.boundary is not None else -1.0
    ext = window.region.exterior_boundary()

    def mk(arr, zeta):
        if isinstance(zeta, Mapping):
            bmap = {y: float(zeta[y]) for y in ext}
        else:
            bmap = {y: float(zeta) for y in ext}
        vals = {v: float(arr[lat.index[v]]) for v in lat.vertices}
        return SwmField(window.region, vals, bmap, window.beta)

    return mk(top, zeta_top), mk(bot, zeta_bot)


def sandwich_run(
    window: WindowSpec, seed: int, origin: Optional[Vertex] = None,
    reseed: Optional[Mapping[Vertex, int]] = None,
) -> SandwichPair:
    """Evolve both extremal starts under the identical event stream.

    The sandwich order is asserted after every update (hard failure on
    violation).  With ``origin`` given, the pair records the equality
    indicator at that vertex after each of its updates.
    """
    if window.model == MODEL_SWM:
        lat = SwmLattice(window.region.vertices())
        bc_top = window.boundary if window.boundary is not None else 1.0
        bc_bot = window.boundary if window.boundary is not None else -1.0
        res = swm_sandwich(
            lat,
            window.beta,
            window.k,
            window.eps,
            window.t_start,
            window.t_end,
            seed,
            bc_top=bc_top,
            bc_bot=bc_bot,
            origin=origin,
            reseed=reseed,
        )
        top, bot = _swm_pair_fields(window, lat, res.top, res.bot)
        return SandwichPair(
            window, top, bot,
            origin_records=res.origin_records, event_count=res.event_count,
        )

    graph = box_graph(window.region)
    lo, hi = xy_extremes(graph, window.beta, bc=window.boundary)
    events = event_stream(
        window.region, window.t_start, window.t_end, seed, reseed=reseed
    )
    records: List[Tuple[float, int]] = []
    for ev in events:
        hi = xy_full_update(hi, ev.vertex, ev.randomness, window.k, window.eps)
        lo = xy_full_update(lo, ev.vertex, ev.randomness, window.k, window.eps)
        u = ev.vertex
        if hi.alpha[u] < lo.alpha[u]:
            raise MonotonicityError(f"angle order violated at {u}, t={ev.time}")
        for e in graph.incident[u]:
            if lo.omega[e] < hi.omega[e] or lo.eta[e] > hi.eta[e]:
                raise MonotonicityError(f"edge order violated at {e}, t={ev.time}")
        if origin is not None and u == origin:
            eq = (
                hi.alpha[u] == lo.alpha[u]
                and all(
                    hi.omega[e] == lo.omega[e] and hi.eta[e] == lo.eta[e]
                    for e in graph.incident[u]
                )
            )
            records.append((ev.time, 1 if eq else 0))
    return SandwichPair(window, hi, lo, origin_records=records, event_count=len(events))


def apply_window(initial, window: WindowSpec, seed: int):
    """Fold the window's ordered event list through the model's update."""
    if window.model == MODEL_SWM:
        if not isinstance(initial, SwmField):
            raise TypeError("swm windows evolve SwmField configurations")
        lat = SwmLattice(window.region.vertices())
        from .engine import swm_evolve

        init = np.array([initial.values[v] for v in lat.vertices])
        out = swm_evolve(
            lat, window.beta, window.k, window.eps,
            window.t_start, window.t_end, seed, init, zeta=initial.boundary,
        )
        vals = {v: float(out[lat.index[v]]) for v in lat.vertices}
        return SwmField(window.region, vals, dict(initial.boundary), window.beta)
    if not isinstance(initial, XyTriple):
        raise TypeError("xy windows evolve XyTriple configurations")
    tau = initial.copy()
    for ev in event_stream(window.region, window.t_start, window.t_end, seed):
        tau = xy_full_update(tau, ev.vertex, ev.randomness, window.k, window.eps)
    return tau


@dataclass
class CftpResult:
    """An exact sample (or explicit timeout) from the coupling procedure."""

    model: str
    target: List[Vertex]
    values: Optional[Dict[Vertex, object]]
    window_t: float
    timed_out: bool
    certificate: Dict[Vertex, float]
    seed: int

    @property
    def ok(self) -> bool:
        return not self.timed_out

    def to_json(self) -> str:
        def _enc(x):
            if isinstance(x, dict):
                return {str(k): _enc(v) for k, v in x.items()}
            return x

        return json.dumps(
            {
                "model": self.model,
                "target": [list(v) for v in self.target],
                "values": None if self.values is None else _enc(self.values),
                "window_t": self.window_t,
                "timed_out": self.timed_out,
                "certificate": {str(k): v for k, v in self.certificate.items()},
                "seed": self.seed,
            }
        )


def cftp_sample(
    region: BoxRegion,
    target: Sequence[Vertex],
    model: str,
    beta: float,
    seed: int,
    boundary=None,
    k: Optional[int] = None,
    eps: float = 0.1,
    t_max: float = 2.0**20,
) -> CftpResult:
    """Exact Gibbs sample on the target via backward-doubling windows.

    Runs the sandwich over [-t, 0] for t = 1, 2, 4, ... reusing the
    same event realization (streams are restriction-consistent) until
    the extremal trajectories agree on the target at time 0.  Exceeding
    ``t_max`` yields an explicit timeout result, never a silent sample.
    """
    target = list(target)
    for v in target:
        if not region.contains(v):
            raise ValueError(f"target vertex {v} outside the region")
    cert: Dict[Vertex, float] = {}
    t = 1.0
    while t <= t_max:
        window = auto_window(
            region, -t, 0.0, model, beta, eps=eps, boundary=boundary, k=k
        )
        pair = sandwich_run(window, seed)
        done = True
        for v in target:
            if pair.coalesced(v):
                cert.setdefault(v, t)
            else:
                done = False
        if done:
            if model == MODEL_SWM:
                vals = {v: pair.top.values[v] for v in target}
            else:
                vals = {}
                for v in target:
                    g = pair.top.graph
                    vals[v] = {
                        "alpha": pair.top.alpha[v],
                        "omega": {str(e): pair.top.omega[e] for e in g.incident[v]},
                        "eta": {str(e): pair.top.eta[e] for e in g.incident[v]},
                    }
            return CftpResult(
                model=model, target=target, values=vals, window_t=t,
                timed_out=False, certificate=cert, seed=seed,
            )
        t *= 2.0
    return CftpResult(
        model=model, target=target, values=None, window_t=t / 2.0,
        timed_out=True, certificate=cert, seed=seed,
    )


@dataclass
class CouplingEstimate:
    probability: float
    stderr: float
    replicas: int
    censored: int = 0


def _origin_equal_throughout(
    records: List[Tuple[float, int]], s: float, initial_equal: bool
) -> bool:
    """Equality at the origin at every time in [-s, 0] given the
    per-update equality records of the full run."""
    eq = initial_equal
    for t, e in records:
        if t <= -s:
            eq = bool(e)
        else:
            if not eq:
                return False
            eq = bool(e)
    return eq


def coupling_probability(
    n: int,
    t: float,
    s: float,
    d: int,
    model: str,
    beta: float,
    replicas: int,
    seed0: int,
    truncation: Optional[int] = None,
    eps: float = 0.1,
    k: Optional[int] = None,
    throughout: bool = False,
) -> CouplingEstimate:
    """Monte Carlo estimate of P[NC(n, t, s)] at the origin.

    ``truncation`` compares only the first ``truncation`` digits of the
    spin (the k-truncated event).  ``throughout`` estimates the event
    that coupling holds at every time in [-s, 0] instead of at -s only.
    Extremal boundary conditions frozen outside the box, matching the
    sandwich construction.
    """
    if not (0.0 <= s <= t):
        raise ValueError("need 0 <= s <= t")
    region = build_box_cached(d, n)
    origin = (0,) * d
    hits = 0
    for r in range(replicas):
        seed = (seed0 * 1000003 + r) & ((1 << 63) - 1)
        if t == s:
            hits += 1  # zero-length dynamics: extremal starts differ
            continue
        window = auto_window(
            region, -float(t), -float(s) if not throughout else 0.0,
            model, beta, eps=eps, k=k,
        )
        pair = sandwich_run(window, seed, origin=origin)
        if throughout:
            eq = _origin_equal_throughout(pair.origin_records, s, False)
            nc = not eq
        else:
            nc = not _pair_equal_at(pair, origin, truncation)
        hits += nc
    p = hits / replicas
    se = math.sqrt(max(p * (1 - p), 1e-12) / replicas)
    return CouplingEstimate(probability=p, stderr=se, replicas=replicas)


def _pair_equal_at(pair: SandwichPair, v: Vertex, truncation: Optional[int]) -> bool:
    if pair.window.model == MODEL_SWM:
        a, b = pair.top.values[v], pair.bot.values[v]
        if truncation is None:
            return a == b
        return digit_cell(a, truncation) == digit_cell(b, truncation)
    # xy: the distinguished vertex/edge pair
    g = pair.top.graph
    a, b = pair.top.alpha[v], pair.bot.alpha[v]
    if truncation is None:
        if a != b:
            return False
    else:
        ka = digit_cell(a / xy_mod.HALF_PI, truncation)
        kb = digit_cell(b / xy_mod.HALF_PI, truncation)
        if ka != kb:
            return False
    e0 = g.incident[v][0]
    return pair.top.omega[e0] == pair.bot.omega[e0] and pair.top.eta[e0] == pair.bot.eta[e0]


@lru_cache(maxsize=None)
def build_box_cached(d: int, n: int) -> BoxRegion:
    from .lattice import build_box

    return build_box(d, n)
