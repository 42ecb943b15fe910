"""Coupling from the past: sandwich runs, exact sampling, coupling events.

Updates compose over space-time windows through the shared event
streams; top and bottom trajectories start from the extremal
configurations and are folded through identical randomness.  Once they
agree at a site the value is the exact Gibbs sample there and cannot
change under any enlargement of the window: a longer window's lanes
stay between the shorter window's.  The doubling procedure exploits
this twice: it stops at the first window of 1, 2, 4, ... at which the
targets coalesce, and, since that window does not depend on where the
scan starts, it starts at half the window that the last call with the
same parameters certified (:func:`cftp_sample`).  The event that the
lanes agree at a site throughout a time slab is decided by the slab
monitor of the mixed cells: the engine's core mask for SWM,
:func:`_xy_monitor` for XY.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from . import xy as xy_mod
from .engine import MonotonicityError, SwmLattice, swm_sandwich
from .lattice import BoxRegion, Vertex, _check_int, build_box
from .randomness import (MAX_DIGITS, UpdateEvent, check_digits, check_window, digit_cell,
                         event_stream)
from .xy import XyGraph, XyTriple, _lane_groups, box_graph, xy_extremes, xy_full_update

MODEL_SWM = "swm"
MODEL_XY = "xy"


@lru_cache(maxsize=None, typed=True)  # d = 2.0 must not hit the entry of d = 2
def required_digits(model: str, beta: float, d: int, eps: float) -> int:
    """The least digit depth k <= MAX_DIGITS at which the log density of
    every cell law drops by at most -log(1 - eps) across its digit cell,
    so that it dominates (1 - eps) times the uniform law on the cell: the
    certificate of the matched refinement.  The model decides the drop:

    - SWM: the law exp(-beta D (x - m)^2) on [-1, 1], D = 2d, m in
      [-1, 1], drops by beta D (hi^2 - lo^2) across a cell, hi and lo its
      largest and smallest distance to m.  The drop is largest at the cell
      farthest from an extremal mean, where hi = 2 and lo is the distance
      to its inner edge, computed as ``numpy.linspace(-1, 1, 2 * 10**k + 1)``
      does: fl(i * step) - 1 (``tests/oracle.swm_depth_scan`` checks all).
    - XY: a group term log 2cosh(beta s c(x)), c = cos or sin, has slope
      at most beta s, s the group's size; the omega and the eta groups
      each partition the 2d neighbours, so the slope is at most 4 d beta
      across a cell (pi/2) 10^-k wide.
    """
    _check_law(model, beta, d, eps)
    budget = -math.log1p(-eps)
    for k in range(MAX_DIGITS + 1):
        if model == MODEL_SWM:
            n = 2 * 10**k
            step = 2.0 / n  # the end cells' inner edges: (n - 1) step - 1, step - 1
            lo = min(((n - 1) * step - 1.0) + 1.0, 1.0 - (step - 1.0))
            drop = beta * (2 * d) * (4.0 - lo * lo)
        else:
            drop = 4.0 * d * beta * (xy_mod.HALF_PI * 10.0**-k)
        if drop <= budget:
            return k
    raise RuntimeError("no digit depth up to 15 certifies the domination")


def _check_law(model: str, beta: float, d: int, eps: float) -> None:
    """Reject a model, beta, dimension d or eps the dynamics cannot run."""
    if model not in (MODEL_SWM, MODEL_XY):
        raise ValueError(f"unknown model {model!r}")
    _check_int("lattice dimension d", d, 1)
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")


def check_params(model: str, beta: float, d: int, eps: float, k: Optional[int]) -> int:
    """The digit depth the dynamics run at, after rejecting a model, beta,
    dimension d, eps or digit depth k they cannot run.

    ``k = None`` takes the calibrated depth; a given k must pass
    ``check_digits`` and reach the calibrated floor, below which the
    matched refinement is not certified.
    """
    floor = required_digits(model, beta, d, eps)
    if k is None:
        return floor
    check_digits(k)
    if k < floor:
        raise ValueError(
            f"digit depth k={k} below the calibrated floor {floor} "
            f"for beta={beta}, eps={eps}"
        )
    return k


def check_boundary(model: str, boundary) -> None:
    """Reject a frozen boundary the model cannot hold: None always passes, SWM
    takes an int or float (not a bool) in [-1, 1], XY a ``boundary_angle`` label."""
    if boundary is None:
        return
    if model == MODEL_XY:
        xy_mod.boundary_angle(boundary)
    elif (isinstance(boundary, bool) or not isinstance(boundary, (int, float))
          or not -1.0 <= boundary <= 1.0):
        raise ValueError(f"an SWM boundary is a spin value in [-1, 1], got {boundary!r}")


@dataclass(frozen=True)
class WindowSpec:
    """A space-time dynamics window with its model parameters; ``k`` holds
    the digit depth :func:`check_params` returns (calibrated for None)."""

    region: BoxRegion
    t_start: float
    t_end: float
    model: str
    beta: float
    eps: float = 0.1
    boundary: Optional[object] = None  # swm: spin value; xy: label; see check_boundary
    k: Optional[int] = None

    def __post_init__(self):
        check_window(self.t_start, self.t_end)
        k = check_params(self.model, self.beta, self.region.d, self.eps, self.k)
        object.__setattr__(self, "k", k)
        check_boundary(self.model, self.boundary)


auto_window = WindowSpec  # the name the benchmark harness calls


@dataclass
class SandwichPair:
    """Coupled extremal trajectories over one window.

    The lanes, ``SwmField`` or ``XyTriple``, compare themselves at a
    vertex (``equal_at``) and report their value there (``value_at``).
    """

    top: object
    bot: object
    event_count: int

    def coalesced(self, v: Vertex) -> bool:
        return self.top.equal_at(self.bot, v)


def xy_sandwich_steps(
    hi: XyTriple, lo: XyTriple, events: Iterable[UpdateEvent], k: int, eps: float
) -> Iterator[UpdateEvent]:
    """Step the coupled XY lanes in place through ``events``, yielding each event.

    Both lanes take the update at the event's vertex with the event's
    randomness, with the bits of two separate updates (``_xy_steps``).
    The sandwich order (angle of lo <= angle of hi at the vertex, omega
    of lo >= omega of hi and eta of lo <= eta of hi on its edges) is
    asserted after every update: a violation raises MonotonicityError.
    Lanes that share a triple or one of its dicts raise ValueError here,
    before any step: they would take each update twice and pass the
    order check trivially.
    """
    if hi is lo or hi.alpha is lo.alpha or hi.omega is lo.omega or hi.eta is lo.eta:
        raise ValueError("the XY lanes must not share a triple or its dicts")
    return _xy_steps(hi, lo, events, k, eps)


def _xy_steps(hi, lo, events, k, eps):
    """The loop of :func:`xy_sandwich_steps`; lo takes what hi computed
    wherever its own work would give the same bits:

    - the 2 deg(u) edge uniforms, hashed once: they read only the
      event's key and slot;
    - hi's omega (or eta) groups, when the lanes' field agrees on every
      free edge off u's: groups read no other bond (``xy._groups``).  The
      loop counts the free edges where the fields differ; an event
      changes bonds on u's edges only;
    - hi's whole update, when the lanes have the same groups, alpha on
      N(u) and beta: the update reads nothing else.
    """
    graph = hi.graph
    incident, adjacent, free_adjacent = graph.incident, graph.adjacent, graph.free_adjacent
    hi_alpha, hi_omega, hi_eta = hi.alpha, hi.omega, hi.eta
    lo_alpha, lo_omega, lo_eta = lo.alpha, lo.omega, lo.eta
    same_graph = graph is lo.graph
    same_law = same_graph and hi.beta == lo.beta
    groups = xy_mod._groups
    # each free edge once, from its lower end in the graph's order
    free_edges = [e for v in graph.free for _, e in free_adjacent[v] if e[0] == v]
    n_om = sum(hi_omega[e] != lo_omega[e] for e in free_edges)
    n_et = sum(hi_eta[e] != lo_eta[e] for e in free_edges)
    for ev in events:
        u = ev.vertex
        iota = ev.randomness
        own = free_adjacent[u]
        for _, e in own:
            n_om -= hi_omega[e] != lo_omega[e]
            n_et -= hi_eta[e] != lo_eta[e]
        uniforms = [iota.edge_uniform(s) for s in range(2 * len(incident[u]))]
        g_hi = _lane_groups(hi, u)
        g_lo = (g_hi[0] if same_graph and not n_om else groups(lo, u, lo_omega),
                g_hi[1] if same_graph and not n_et else groups(lo, u, lo_eta))
        shared = same_law and g_hi == g_lo and all(
            hi_alpha[v] == lo_alpha[v] for v, _ in adjacent[u]
        )
        xy_full_update(hi, u, iota, k, eps, g_hi, uniforms)
        if shared:
            lo_alpha[u] = hi_alpha[u]
            for e in incident[u]:
                lo_omega[e] = hi_omega[e]
                lo_eta[e] = hi_eta[e]
        else:
            xy_full_update(lo, u, iota, k, eps, g_lo, uniforms)
        if hi_alpha[u] < lo_alpha[u]:
            raise MonotonicityError(f"angle order violated at {u}, t={ev.time}")
        for e in incident[u]:
            if lo_omega[e] < hi_omega[e] or lo_eta[e] > hi_eta[e]:
                raise MonotonicityError(f"edge order violated at {e}, t={ev.time}")
        for _, e in own:
            n_om += hi_omega[e] != lo_omega[e]
            n_et += hi_eta[e] != lo_eta[e]
        yield ev


def _xy_monitor(hi, lo, events, slab_lo, k, eps, holds) -> bool:
    """Whether ``holds(hi, lo)`` is true of the XY lanes stepped through
    ``events`` at time ``slab_lo`` and after every later event.

    Events come in time order: those at or before ``slab_lo`` are a
    run-in prefix, checked once at its end; the run stops at the first
    later event after which the check fails.
    """
    n_run_in = sum(1 for ev in events if ev.time <= slab_lo)
    for _ in xy_sandwich_steps(hi, lo, events[:n_run_in], k, eps):
        pass
    if not holds(hi, lo):
        return False
    for _ in xy_sandwich_steps(hi, lo, events[n_run_in:], k, eps):
        if not holds(hi, lo):
            return False
    return True


@dataclass
class SwmField:
    """The spins of one lane at the end of a run, each in [-1, 1]."""

    values: Dict[Vertex, float]

    def __post_init__(self):
        for v, x in self.values.items():
            if not -1.0 <= x <= 1.0:
                raise ValueError(f"spin at {v} outside [-1, 1]")

    def equal_at(self, other: "SwmField", v: Vertex, k: Optional[int] = None) -> bool:
        """Equal spin at v; with ``k``, the same depth-k digit cell."""
        a, b = self.values[v], other.values[v]
        return a == b if k is None else digit_cell(a, k) == digit_cell(b, k)

    def value_at(self, v: Vertex) -> float:
        """The spin at v."""
        return self.values[v]


def _swm_pair_fields(lat: SwmLattice, top, bot, sites) -> Tuple[SwmField, SwmField]:
    """The engine's final lanes at ``sites`` as vertex-keyed spin records."""
    idx = [lat.index[v] for v in sites]
    return (SwmField(dict(zip(sites, top[idx].tolist()))),
            SwmField(dict(zip(sites, bot[idx].tolist()))))


@lru_cache(maxsize=32)
def _region_lattice(region: BoxRegion) -> SwmLattice:
    """The engine lattice of a region, built once and shared by every
    doubling round, replica and decoupling check on it."""
    return SwmLattice(region.vertices())


@lru_cache(maxsize=32)
def _region_graph(region: BoxRegion) -> XyGraph:
    """The XY graph of a region, built once and shared, read-only, by
    every doubling round, replica and cell run on it."""
    return box_graph(region)


def _check_targets(region: BoxRegion, targets: Sequence[Vertex]) -> None:
    """Reject a target that is not a tuple of ints (``(True, 0)`` would
    read site ``(1, 0)`` under another label) or lies outside the region."""
    for v in targets:
        if not isinstance(v, tuple):
            raise ValueError(f"a target vertex is a tuple of ints, got {v!r}")
        for c in v:
            _check_int("a target coordinate", c)
        if len(v) != region.d or not region.contains(v):
            raise ValueError(f"target vertex {v} outside the region")


def sandwich_run(
    window: WindowSpec,
    seed: int,
    targets: Optional[Sequence[Vertex]] = None,
    reseed: Optional[Mapping[Vertex, int]] = None,
) -> SandwichPair:
    """Evolve both extremal starts under the identical event stream.

    ``reseed`` swaps the master seed of the listed vertices, as in
    :func:`exactspin.randomness.event_stream`.

    The sandwich order is asserted after every update (hard failure on
    violation).  ``targets`` names the only sites the caller reads; one
    outside the region raises ValueError.  SWM then runs just the events
    they depend on (:func:`exactspin.engine.swm_sandwich`) and its pair
    holds only the targets, so reading another site raises KeyError.  An
    XY update reads connectivity across the whole graph but neither its
    vertex's angle nor its bonds, so XY drops an event when the window's
    next event, at the same vertex, overwrites it unread; every vertex
    of its pair keeps the full run's bits at the window's end.
    """
    if targets is not None:
        _check_targets(window.region, targets)
    if window.model == MODEL_SWM:
        lat = _region_lattice(window.region)
        res = swm_sandwich(
            lat,
            window.beta,
            window.k,
            window.eps,
            window.t_start,
            window.t_end,
            seed,
            boundary=window.boundary,
            reseed=reseed,
            targets=targets,
        )
        sites = lat.vertices if targets is None else list(targets)
        top, bot = _swm_pair_fields(lat, res.top, res.bot, sites)
        return SandwichPair(top, bot, event_count=res.event_count)

    graph = _region_graph(window.region)
    lo, hi = xy_extremes(graph, window.beta, bc=window.boundary)
    events = event_stream(window.region, window.t_start, window.t_end, seed, reseed)
    if targets is not None:
        events = [ev for ev, nxt in zip(events, events[1:])
                  if ev.vertex != nxt.vertex] + events[-1:]
    for _ in xy_sandwich_steps(hi, lo, events, window.k, window.eps):
        pass
    return SandwichPair(hi, lo, event_count=len(events))


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": self.model,
                "target": [list(v) for v in self.target],
                "values": None if self.values is None
                else {str(v): x for v, x in self.values.items()},
                "window_t": self.window_t,
                "timed_out": self.timed_out,
                "certificate": {str(k): v for k, v in self.certificate.items()},
                "seed": self.seed,
            }
        )


# The window the last successful call certified, per parameter set and
# target list: where the next call's scan starts, never what it returns.
_last_window: Dict[tuple, float] = {}
_LAST_WINDOW_KEYS = 64


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

    Runs the sandwich over [-t, 0] for windows t of the doubling sequence
    1, 2, 4, ... reusing the same event realization (streams are
    restriction-consistent), and returns the lanes' values at the least
    window at which they agree on every target at time 0.

    Coalescence at a target is monotone in t: the lanes of the 2t window
    start between the extremes at -t, see the same events on (-t, 0] as
    the t window, and keep the sandwich order, so they stay between its
    lanes.  A target that coalesces at t keeps its value at every longer
    window, so the scan may start anywhere in the sequence.  It starts
    at half the window that the last successful call with the same
    parameters and targets certified (at 1 on the first call), runs the
    windows below while some target still coalesces there, and the
    windows above until every target does.  The result is that of the
    scan from 1: ``certificate[v]`` is the least window of the sequence
    at which v coalesces, ``window_t`` the largest entry, and ``values``
    come from the window ``window_t``.

    Exceeding ``t_max`` yields an explicit timeout result, never a silent
    sample; its ``window_t`` is the longest window of the sequence up to
    ``t_max``, 0.0 when ``t_max`` < 1 lets none run, and its certificate
    holds the targets that coalesced by then.  A NaN, infinite or
    non-positive ``t_max`` raises ValueError.
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be finite and > 0, got {t_max!r}")
    target = list(target)
    if not target:
        raise ValueError("empty target")
    _check_targets(region, target)
    # checks the parameters also when t_max < 1 lets no round run
    k = WindowSpec(region, 0.0, 0.0, model, beta, eps=eps, boundary=boundary, k=k).k
    first: Dict[Vertex, float] = {}  # the least window run at which v coalesced
    values: Dict[float, Dict[Vertex, object]] = {}  # windows at which all did

    def coalesces(t: float) -> bool:
        """Run window t; whether some target coalesced there."""
        window = WindowSpec(region, -t, 0.0, model, beta, eps=eps, boundary=boundary, k=k)
        pair = sandwich_run(window, seed, targets=target)
        hit = [v for v in target if pair.coalesced(v)]
        for v in hit:
            first[v] = min(first.get(v, t), t)
        if len(hit) == len(target):
            values[t] = {v: pair.top.value_at(v) for v in target}
        return bool(hit)

    key = (region, model, beta, eps, boundary, k, tuple(target))
    t = 0.0
    if t_max >= 1.0:
        top = 2.0 ** (math.frexp(t_max)[1] - 1)  # the longest window <= t_max
        t = min(max(1.0, _last_window.get(key, 1.0) / 2.0), top)
        if coalesces(t):
            below = t
            while below > 1.0 and coalesces(below / 2.0):
                below /= 2.0
        while t not in values and t < top:
            t *= 2.0
            coalesces(t)
    cert = {v: first[v] for v in sorted((v for v in target if v in first), key=first.get)}
    if t not in values:
        return CftpResult(
            model=model, target=target, values=None, window_t=t,
            timed_out=True, certificate=cert, seed=seed,
        )
    window_t = max(cert.values())
    if key not in _last_window and len(_last_window) >= _LAST_WINDOW_KEYS:
        _last_window.clear()
    _last_window[key] = window_t
    return CftpResult(
        model=model, target=target, values=values[window_t], window_t=window_t,
        timed_out=False, certificate=cert, seed=seed,
    )


@dataclass
class CouplingEstimate:
    probability: float
    stderr: float
    replicas: int


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

    Coupling at a vertex is the lanes' equality there: the spin for
    SWM; for XY the angle and the omega/eta bonds of every incident edge.
    ``truncation`` compares only the first ``truncation`` digits of the
    spin or angle (the k-truncated event).  ``throughout`` estimates the
    event that coupling holds at every time in [-s, 0] instead of at -s
    only: the lanes run to time 0 under the slab monitor of the mixed
    cells with the origin as the core, which compares exact equality, so
    ``throughout`` with ``truncation`` raises ValueError.  Extremal
    boundary conditions frozen outside the box, matching the sandwich
    construction.
    """
    if not (0.0 <= s <= t and math.isfinite(t)):
        raise ValueError("need 0 <= s <= t < inf")
    if throughout and truncation is not None:
        raise ValueError("throughout compares exact equality: truncation must be None")
    _check_int("replicas", replicas, 1)
    region = build_box(d, n)
    origin = (0,) * d
    hits = 0
    for r in range(replicas):
        seed = (seed0 * 1000003 + r) & ((1 << 63) - 1)
        window = WindowSpec(
            region, -float(t), 0.0 if throughout else -float(s), model, beta, eps=eps, k=k,
        )
        if throughout:
            coupled = _coupled_throughout(window, seed, -float(s), origin)
        else:
            pair = sandwich_run(window, seed, targets=[origin])
            coupled = pair.top.equal_at(pair.bot, origin, truncation)
        hits += not coupled
    p = hits / replicas
    se = math.sqrt(max(p * (1 - p), 1e-12) / replicas)
    return CouplingEstimate(probability=p, stderr=se, replicas=replicas)


def _coupled_throughout(window: WindowSpec, seed: int, slab_lo: float, v: Vertex) -> bool:
    """Whether the lanes agree at v at time ``slab_lo`` and after every
    later event of the window."""
    if window.model == MODEL_SWM:
        lat = _region_lattice(window.region)
        res = swm_sandwich(lat, window.beta, window.k, window.eps, window.t_start,
                           window.t_end, seed, core_mask=lat.mask(lambda u: u == v),
                           slab_lo=slab_lo)
        return res.mixed_ok
    lo, hi = xy_extremes(_region_graph(window.region), window.beta)
    events = event_stream(window.region, window.t_start, window.t_end, seed)
    return _xy_monitor(hi, lo, events, slab_lo, window.k, window.eps,
                       lambda a, b: a.equal_at(b, v))
