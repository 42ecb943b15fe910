"""The XY model in its monotone coordinate representation.

A configuration is a triple (alpha, omega, eta): angles in [0, pi/2]
per vertex plus two edge percolations.  The partial order is
alpha <= alpha', omega >= omega', eta <= eta' componentwise.  Spins
are sigma = xi*cos(alpha) + i*zeta*sin(alpha) with sign coins per
percolation component; no sampler output reports sigma yet, so that
reconstruction is a test reference (``tests/oracle.py``).

A single-site update resamples the angle from its conditional density
(a product of cosh terms over the omega- and eta-connectivity groups
of the neighbours), through a 2048-interval grid interpolant of its CDF
whose distance from the exact CDF is bounded in ``AngleLawHandle``.  A
matched draw reads its digit cell off a SIMD cosh-product CDF on the
same grid when u lies 1e-9 inside the cell there, which certifies the
exact CDF's cell (``AngleLawHandle.matched_cell``).  Then the incident
edges are resampled one at a time from their exact conditionals with
the not-yet-resampled incident edges summed out.  That conditional lies
in the FK bracket [p/(2-p), p] of the edge's weight p, so a uniform
outside the bracket widened by 1e-12 decides the edge without the 2^m
enumeration, with the same bit.  An unmatched draw's refinement
returns the bisection's bits from a certified closed-form root when it
can (``_certified_root``).  Boundary contacts are frozen leaves (one
edge each): no connectivity passes through them.  A boundary label
fixes their angles but not their signs, which the group terms sum
contact by contact, so "+1" and "+i" sample the annealed +-1 and +-i
boundaries, not fixed boundary spins (``boundary_angle``).

``xy_full_update`` changes its triple in place.  The log-cosh terms and
the cosh-product CDF grids are memoised in small LRU caches of read-only
arrays, keyed on the exact floats the uncached formula reads, so a hit
returns the same bits; so are the edge enumeration's powers of two.

An update at u reads only alpha on N(u), u's (omega, eta) neighbour
groups, beta and the event's randomness, and the groups read only the
bonds between free nodes off u's edges.  So the sandwich loop
(``cftp._xy_steps``) hashes an event's edge uniforms once for both
lanes, hands the lower lane the upper lane's omega or eta groups when
the lanes agree on those bonds, and runs one update for both when they
agree on all the inputs: the bits of two separate updates.

Group sums are explicit left folds, not ``sum()``: from Python 3.12
``sum()`` of floats is compensated (Neumaier), which changes the last
bit of some sums of three or more terms and so the trajectories.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ._scalar import VALUE_GRID, snap
from .lattice import BoxRegion, neighbors
from .randomness import UpdateRandomness, digit_cell, monotone_inverse

HALF_PI = math.pi / 2.0

_GRID_N = 2048
_XS = np.linspace(0.0, HALF_PI, _GRID_N + 1)
_XS_LIST: List[float] = _XS.tolist()
_CELL_DELTA = 1e-9  # margin of AngleLawHandle.matched_cell's certificate
_FIELDS = np.stack((np.cos(_XS), np.sin(_XS)))


def _node_key(node):
    if isinstance(node, tuple) and node and node[0] == "b":
        return (1, node[1], node[2])
    return (0, node)


class XyGraph:
    """Finite graph with free vertices and frozen boundary leaves."""

    def __init__(self, free: Sequence, edges: Sequence[Tuple], frozen: Iterable = ()):
        self.free: List = sorted(free, key=_node_key)
        self.frozen: List = sorted(frozen, key=_node_key)
        free_set = set(self.free)
        frozen_set = set(self.frozen)
        if free_set & frozen_set:
            raise ValueError("a node cannot be both free and frozen")
        self.nodes: List = self.free + self.frozen
        node_set = set(self.nodes)
        self.edges: List[Tuple] = []
        seen = set()
        for (a, b) in edges:
            e = (a, b) if _node_key(a) <= _node_key(b) else (b, a)
            if e in seen:
                continue
            if a == b or a not in node_set or b not in node_set:
                raise ValueError(f"edge {e} is a loop or references unknown node")
            seen.add(e)
            self.edges.append(e)
        self.edges.sort(key=lambda e: (_node_key(e[0]), _node_key(e[1])))
        self.incident: Dict[object, List[Tuple]] = {n: [] for n in self.nodes}
        for e in self.edges:  # so each incident list is in edge order
            a, b = e
            self.incident[a].append(e)
            self.incident[b].append(e)
        if any(len(self.incident[n]) != 1 for n in self.frozen):
            raise ValueError("a frozen node must be a leaf: one edge")
        self.is_frozen = {n: (n in frozen_set) for n in self.nodes}
        # (neighbour, edge) pairs in incident-edge order, and their free part
        self.adjacent: Dict[object, List[Tuple]] = {
            n: [(self.other(e, n), e) for e in self.incident[n]] for n in self.nodes
        }
        self.free_adjacent: Dict[object, List[Tuple]] = {
            n: [(v, e) for v, e in self.adjacent[n] if v in free_set] if n in free_set else []
            for n in self.nodes
        }

    def other(self, edge: Tuple, node) -> object:
        a, b = edge
        return b if node == a else a

    def neighbors_of(self, node) -> List:
        return [v for v, _ in self.adjacent[node]]


def box_graph(region: BoxRegion) -> XyGraph:
    """The box's graph with each boundary contact leaf-split: the edge from
    a free v to an outside neighbour w ends in its own frozen leaf
    ("b", w, v), whose sign the angle law sums (``boundary_angle``)."""
    free = region.vertices()
    free_set = set(free)
    edges = []
    frozen = []
    for v in free:
        for w in neighbors(v):
            if w in free_set:
                if _node_key(v) <= _node_key(w):
                    edges.append((v, w))
            else:
                leaf = ("b", w, v)
                frozen.append(leaf)
                edges.append((v, leaf))
    return XyGraph(free, edges, frozen)


BC_PLUS_ONE = "+1"  # frozen angle 0: each contact an annealed spin +-1
BC_PLUS_I = "+i"  # frozen angle pi/2: each contact an annealed spin +-i


def boundary_angle(bc: str) -> float:
    """The angle a boundary label freezes on every boundary leaf.

    The leaf's sign is not frozen: its singleton group enters the
    neighbour's angle law as 2cosh(beta c(x)), c(x) = cos x or sin x,
    the sum over both signs.  So a vertex with m contacts under "+1"
    weighs cosh(beta cos x)^m, not the cosh(m beta cos x) of a fixed
    spin +1 on them all.
    """
    if bc == BC_PLUS_ONE:
        return 0.0
    if bc == BC_PLUS_I:
        return HALF_PI
    raise ValueError(f"unknown boundary condition {bc!r}")


@dataclass
class XyTriple:
    """A coordinate-representation configuration on a finite graph."""

    graph: XyGraph
    alpha: Dict[object, float]
    omega: Dict[Tuple, int]
    eta: Dict[Tuple, int]
    beta: float

    def __post_init__(self):
        if set(self.alpha) != set(self.graph.nodes):
            raise ValueError("alpha must cover every node")
        if set(self.omega) != set(self.graph.edges) or set(self.eta) != set(
            self.graph.edges
        ):
            raise ValueError("omega and eta must cover every edge")
        for x in self.alpha.values():
            if not 0.0 <= x <= HALF_PI:
                raise ValueError("angles live in [0, pi/2]")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")

    def copy(self) -> "XyTriple":
        return XyTriple(
            self.graph, dict(self.alpha), dict(self.omega), dict(self.eta), self.beta
        )

    def equal_at(self, other: "XyTriple", v, k: Optional[int] = None) -> bool:
        """Equal angle at v (with ``k``, the same depth-k digit cell of
        angle / (pi/2)) and equal omega and eta on every edge at v."""
        a, b = self.alpha[v], other.alpha[v]
        if k is not None:
            a, b = digit_cell(a / HALF_PI, k), digit_cell(b / HALF_PI, k)
        return a == b and all(self.omega[e] == other.omega[e] and self.eta[e] == other.eta[e]
                              for e in self.graph.incident[v])

    def value_at(self, v) -> Dict[str, object]:
        """The angle at v and the bonds of its edges, keyed by ``str(e)``."""
        edges = self.graph.incident[v]
        return {"alpha": self.alpha[v], "omega": {str(e): self.omega[e] for e in edges},
                "eta": {str(e): self.eta[e] for e in edges}}


def xy_extremes(graph: XyGraph, beta: float, bc: Optional[str] = None) -> Tuple[XyTriple, XyTriple]:
    """(minimal, maximal) configurations; frozen angles follow bc if given,
    the annealed boundary of ``boundary_angle``.

    Without a boundary condition the frozen nodes take their extremal
    angles per lane (the global extremal configurations).
    """
    lo_alpha = {n: 0.0 for n in graph.nodes}
    hi_alpha = {n: HALF_PI for n in graph.nodes}
    if bc is not None:
        ang = boundary_angle(bc)
        for n in graph.frozen:
            lo_alpha[n] = ang
            hi_alpha[n] = ang
    lo = XyTriple(graph, lo_alpha, {e: 1 for e in graph.edges}, {e: 0 for e in graph.edges}, beta)
    hi = XyTriple(graph, hi_alpha, {e: 0 for e in graph.edges}, {e: 1 for e in graph.edges}, beta)
    return lo, hi


# ---------------------------------------------------------------------------
# Neighbour connectivity groups
# ---------------------------------------------------------------------------


def _groups(tau: XyTriple, u, bond: Dict[Tuple, int]) -> List[List]:
    """Partition of N(u) into components of the bond percolation on the
    graph without u: groups in the order of their first target, targets
    in incident order.  The search walks edges between free nodes only.
    A frozen node is a leaf (``XyGraph``), so as a target its one edge is
    u's: it is a singleton group and no connectivity runs through it."""
    graph = tau.graph
    free_adjacent = graph.free_adjacent
    label = {u: -1}
    groups: List[List] = []
    for t, _ in graph.adjacent[u]:
        gi = label.get(t)
        if gi is not None:
            groups[gi].append(t)
            continue
        groups.append([t])
        gi = label[t] = len(groups) - 1
        stack = [t]
        while stack:
            for other, e in free_adjacent[stack.pop()]:
                if bond[e] and other not in label:
                    label[other] = gi
                    stack.append(other)
    return groups


@lru_cache(maxsize=16)
def _log_cosh_term(bs: float, which: int) -> np.ndarray:
    """log 2cosh(bs * c(x)) on the grid, c = cos (which 0) or sin (which 1).

    Read-only and memoised: frozen boundary neighbours present the same
    ``beta * s`` on every update, and so do the two lanes once coalesced.
    """
    y = bs * _FIELDS[which]
    out = np.logaddexp(y, -y)
    out.flags.writeable = False
    return out


def _log_density(beta: float, cos_sums: Tuple[float, ...], sin_sums: Tuple[float, ...]) -> np.ndarray:
    out = np.zeros(_GRID_N + 1)
    for s in cos_sums:
        out += _log_cosh_term(beta * s, 0)
    for s in sin_sums:
        out += _log_cosh_term(beta * s, 1)
    return out


def _trapezoid_cdf(f: np.ndarray) -> np.ndarray:
    """The normalised trapezoid cumulative of grid density f, read-only."""
    out = np.empty(_GRID_N + 1)
    out[0] = 0.0
    cum = out[1:]
    np.add(f[1:], f[:-1], out=cum)
    cum *= 0.5
    np.cumsum(cum, out=cum)
    out /= out[-1]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=4)
def _fast_cdf(beta: float, cos_sums: Tuple[float, ...], sin_sums: Tuple[float, ...]) -> Optional[np.ndarray]:
    """The trapezoid CDF from SIMD cosh products (groups with s = 0 are a
    constant factor, dropped), memoised; None if L > 700 could overflow."""
    if beta * (sum(cos_sums) + sum(sin_sums)) > 700.0:
        return None
    terms = [(0, beta * s) for s in cos_sums if s] + [(1, beta * s) for s in sin_sums if s]
    rows = _FIELDS[[which for which, _ in terms]]
    rows *= np.array([bs for _, bs in terms]).reshape(-1, 1)
    return _trapezoid_cdf(np.cosh(rows, out=rows).prod(axis=0))


@dataclass
class AngleLawHandle:
    """Conditional angle density: prod over groups of 2cosh terms.

    ``cos_sums`` holds sum of cos(alpha) over each omega-group of the
    neighbours, ``sin_sums`` sums of sin(alpha) over each eta-group.
    The CDF is the piecewise-linear interpolant of the trapezoid
    cumulative of the density on a fixed 2048-interval grid, so the law
    sampled is that interpolant F_grid, not the exact law F.  With grid
    step h = pi/4096 and L = beta * (sum(cos_sums) + sum(sin_sums)), a
    bound on the derivative of log f,

        sup_x |F_grid(x) - F(x)| <= h^2 (1 + L)^2 exp(L h) / 2

    whenever the right side is at most 0.01, plus float rounding below
    1e-12.  (Per interval the trapezoid rule is off by at most
    h^2 (2L^2 + L) exp(L h) / 12 of the interval's mass, since
    |(log f)''| <= L^2 + L; normalising doubles that, and linear
    interpolation of F adds h^2 L (L + 2/pi) / 8, as max f / int f is at
    most L + 2/pi.)  That is 1.7e-6 at L = 1.4 and 2.4e-5 at L = 8.
    ``matched_cell`` certifies a matched draw's cell on a cosh-product
    grid within 1e-11 of F_grid, so only the other draws build F_grid.
    """

    cos_sums: Tuple[float, ...]
    sin_sums: Tuple[float, ...]
    beta: float
    _cdf_grid: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def cdf_grid(self) -> np.ndarray:
        if self._cdf_grid is None:
            f = _log_density(self.beta, self.cos_sums, self.sin_sums)
            f -= f.max()
            np.exp(f, out=f)
            self._cdf_grid = _trapezoid_cdf(f)
        return self._cdf_grid

    def cdf(self, x: float) -> float:
        """F_grid(x) in Python floats, bit for bit ``np.interp(x, _XS, F)``
        for every non-NaN x: the end values outside the grid, else
        (F_j+1 - F_j)/(x_j+1 - x_j) * (x - x_j) + F_j on [x_j, x_j+1)."""
        F = self.cdf_grid()
        xs = _XS_LIST
        if x <= xs[0]:
            return F.item(0)
        if x >= xs[-1]:
            return F.item(-1)
        j = bisect_right(xs, x) - 1
        x0 = xs[j]
        f0 = F.item(j)
        if x == x0:
            return f0
        slope = (F.item(j + 1) - f0) / (xs[j + 1] - x0)
        return slope * (x - x0) + f0

    def inverse(self, u: float) -> float:
        F = self.cdf_grid()
        i = int(np.searchsorted(F, u, side="left"))
        if i <= 0:
            return 0.0
        if i > _GRID_N:
            return HALF_PI
        f0, f1 = F.item(i - 1), F.item(i)
        x0, x1 = _XS_LIST[i - 1], _XS_LIST[i]
        if f1 <= f0:
            return x1
        return x0 + (x1 - x0) * (u - f0) / (f1 - f0)

    def matched_cell(self, u: float, k: int) -> Optional[int]:
        """The depth-k digit cell [a, b) of ``inverse(u)``, or None: it is
        read off F_fast (``_fast_cdf``) by this handle's arithmetic and
        returned only if u >= F_fast(a) + delta and u <= F_fast(b) - delta,
        delta = 1e-9 (end cells skip the outer check).  Per node the two
        grids' densities differ by rho <= (m + 16)(L + m + 1) 2^-53 (m
        groups; a few ulp per libm or SIMD factor, the log sum's roundings)
        and each cumsum adds at most 2048 roundings, so |F_fast - F_grid|
        <= 2 rho + 8200 * 2^-53: 1e-12 at m = L = 8, 6e-12 at m = 16,
        L = 700.  So u lies delta/2 inside F_grid(a) and F_grid(b), at least
        3e-13 of angle (F_grid rises at most 1 per step), far above the
        inverse's rounding: ``inverse(u)`` is in [a, b) too."""
        F = _fast_cdf(self.beta, self.cos_sums, self.sin_sums)
        if F is None:
            return None
        fast = AngleLawHandle(self.cos_sums, self.sin_sums, self.beta, F)
        c = _cell_search(fast.inverse(u), k)
        a, b = _angle_cell_bounds(c, k)
        lower_ok = c == 0 or u >= fast.cdf(a) + _CELL_DELTA
        upper_ok = c == 10**k - 1 or u <= fast.cdf(b) - _CELL_DELTA
        return c if lower_ok and upper_ok else None


Groups = Tuple[List[List], List[List]]


def _lane_groups(tau: XyTriple, u) -> Groups:
    """The (omega, eta) groups of N(u).  They never read u's incident
    edges or any angle, so one pair serves the angle and the edge stage."""
    return _groups(tau, u, tau.omega), _groups(tau, u, tau.eta)


def xy_angle_law(tau: XyTriple, u, groups: Groups) -> AngleLawHandle:
    """The conditional law of the angle at u given the rest of the triple.

    Reads alpha on N(u) and the omega/eta connectivity groups of the
    neighbours in the graph without u (the update's almost-Markov
    support), passed in as ``groups`` from :func:`_lane_groups`.
    """
    if tau.graph.is_frozen[u]:
        raise ValueError("cannot resample a frozen boundary node")
    omega_groups, eta_groups = groups
    return AngleLawHandle(
        cos_sums=_group_sums(omega_groups, math.cos, tau.alpha),
        sin_sums=_group_sums(eta_groups, math.sin, tau.alpha),
        beta=tau.beta,
    )


def _group_sums(groups: List[List], f, alpha: Dict[object, float]) -> Tuple[float, ...]:
    """f(alpha) summed over each group, as a left fold in group order."""
    out = []
    for g in groups:
        s = 0.0
        for v in g:
            s += f(alpha[v])
        out.append(s)
    return tuple(out)


def _angle_cell_bounds(c: int, k: int) -> Tuple[float, float]:
    tenk = 10.0**k
    return (c / tenk) * HALF_PI, ((c + 1) / tenk) * HALF_PI


def _cell_search(x: float, k: int) -> int:
    """The depth-k digit cell [a, b) that holds x, end cells clamping."""
    c = digit_cell(x / HALF_PI, k)  # raises on a k that check_digits rejects
    top = 10**k - 1
    c = max(0, min(top, c))
    a, b = _angle_cell_bounds(c, k)
    while x < a and c > 0:
        c -= 1
        a, b = _angle_cell_bounds(c, k)
    while x >= b and c < top:
        c += 1
        a, b = _angle_cell_bounds(c, k)
    return c


def xy_angle_update(
    tau: XyTriple, u, iota: UpdateRandomness, k: int, eps: float, groups: Groups
) -> float:
    """Two-stage digit-matching draw of the new angle at u.

    Digit cells partition [0, pi/2] into 10^k equal slots (digits of
    the normalized coordinate).  Monotone in the triple for fixed
    randomness; on the matching branch the value depends only on
    (cell, u_refine), so ``matched_cell`` may supply the cell.
    """
    law = xy_angle_law(tau, u, groups)
    matched = iota.b_match(eps) == 0
    c = law.matched_cell(iota.u_primary, k) if matched else None
    if c is None:
        c = _cell_search(law.inverse(iota.u_primary), k)
    a, b = _angle_cell_bounds(c, k)
    fa, fb = (0.0, 0.0) if matched else (law.cdf(a), law.cdf(b))
    span = fb - fa
    if span <= 0.0:  # matched, or a cell of no mass: uniform on the cell
        v = snap(a + (b - a) * iota.u_refine, VALUE_GRID)
        return min(HALF_PI, max(0.0, v))

    residual = _cell_residual(law, a, b, fa, span, eps)
    v = _certified_root(law, residual, iota.u_refine, a, b, span, eps)
    if v is None:
        v = snap(monotone_inverse(residual, iota.u_refine, a, b), VALUE_GRID)
    return min(HALF_PI, max(0.0, v))


def _cell_residual(law: AngleLawHandle, a: float, b: float, fa: float, span: float, eps: float):
    """The unmatched refinement's function on the cell [a, b], fa = F_grid(a)."""

    def residual(x: float) -> float:
        fcell = (law.cdf(x) - fa) / span
        return (fcell - (1.0 - eps) * (x - a) / (b - a)) / eps

    return residual


def _certified_root(law, residual, ur, a, b, span, eps) -> Optional[float]:
    """snap(monotone_inverse(residual, ur, a, b), VALUE_GRID) if proved, else None.

    The exact residual R (on its float constants) is piecewise linear, as
    F_grid is; if each piece's slope clears (1 - eps) / (b - a) by 1e-9
    relative, R rises.  The float residual is within E = ((1 + 6 D) / span
    + 8) 2^-53 / eps of R, D the largest rise of F_grid between nodes on
    the cell.  With x the closed-form root of R's crossing piece, float
    values below ur - 2E at x - d and at least ur + 2E at x + d mean every
    mid outside [x - d, x + d] goes as R decides it.  The loop ends with
    adjacent lo, hi, or after 80 halvings within 2 ulp(b), so hi lies in
    (x - d, x + d + 2 ulp(b)], where snap, monotone, is constant if its
    ends agree.
    """
    F, xs = law.cdf_grid(), _XS_LIST
    kw = (1.0 - eps) / (b - a)
    x0, r0, x, rise = a, 0.0, None, 0.0  # R(a) is 0 exactly
    for j in range(bisect_right(xs, a) - 1, bisect_left(xs, b)):
        f0, f1 = F.item(j), F.item(j + 1)
        s = (f1 - f0) / (xs[j + 1] - xs[j]) / span
        if not s > 1.000000001 * kw:
            return None
        rise = max(rise, f1 - f0)
        if x is None:
            r1 = residual(xs[j + 1]) if xs[j + 1] < b else math.inf
            if r1 >= ur:
                g = (s - kw) / eps
                x = x0 + (ur - r0) / g
            else:
                x0, r0 = xs[j + 1], r1
    err = ((1.0 + 6.0 * rise) / span + 8.0) * 1.1102230246251565e-16 / eps
    d = 5.0 * err / g + 4.0 * math.ulp(b)
    ym, yp = x - d, x + d
    if not (a < ym and yp < b and residual(ym) < ur - 2.0 * err
            and residual(yp) >= ur + 2.0 * err):
        return None
    v = snap(ym, VALUE_GRID)
    return v if v == snap(yp + 2.0 * math.ulp(b), VALUE_GRID) else None


# ---------------------------------------------------------------------------
# Edge updates
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _link_scales(
    target_blocks: Tuple[int, ...], u_linked: int, n_blocks: int
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """2^(relative component count) of each configuration of the
    undecided edges, as (closed, open) by the first edge's bit, each in
    index order.  Only integers go in, so the tuples are memoised."""
    links = [u_linked]
    for b in target_blocks:
        bit = 1 << b
        links = links + [lk | bit for lk in links]
    # components among {u} + blocks: blocks merge into u's component
    top = n_blocks + 1
    scales = [2.0 ** (top - lk.bit_count()) for lk in links]
    return tuple(scales[0::2]), tuple(scales[1::2])


def _conditional_open_prob(
    p_list: List[float],
    target_blocks: Sequence[int],
    u_linked: int,
    n_blocks: int,
) -> float:
    """P(first undecided incident edge open | the rest summed out).

    ``p_list[i]`` is the FK weight of undecided incident edge i (the
    first is the one being decided), ``target_blocks[i]`` the
    connectivity block of its endpoint, ``u_linked`` the bitmask of the
    blocks already joined to u by previously resampled open incident
    edges.  Weights are prod p^o (1-p)^(1-o) * 2^(relative component
    count), enumerated exactly over the 2^m configurations; bit i of a
    configuration's index is edge i, its product is taken in edge order
    and the open and closed totals are summed in index order.
    """
    prods = [1.0]
    for p in p_list:
        q = 1.0 - p
        prods = [w * q for w in prods] + [w * p for w in prods]
    closed_scales, open_scales = _link_scales(tuple(target_blocks), u_linked, n_blocks)
    w_open = 0.0
    for w, s in zip(prods[1::2], open_scales):
        w_open += w * s
    w_closed = 0.0
    for w, s in zip(prods[0::2], closed_scales):
        w_closed += w * s
    total = w_open + w_closed
    if total <= 0.0:
        return 0.0
    return w_open / total


_BRACKET_DELTA = 1e-12
_BRACKET_MAX_EDGES = 14


def _bracket_bit(uval: float, p: float, delta: float) -> Optional[int]:
    """The edge bit ``uval < P(open)`` when the FK bracket decides it, else None.

    In the enumeration of ``_conditional_open_prob`` each configuration
    with the decided edge open has a closed partner, whose weight it is
    times p/q, or p/(2q) when opening merges a new block into u's
    cluster (q = fl(1 - p)); so P(open) lies in [p/(2-p), p].  The
    enumeration's float error is at most about (2m + 2^(m-1) + 4) 2^-53
    for m undecided edges (m - 1 roundings per product, 2^(m-1) - 1 per
    sum of nonnegative terms, then the ratio and the bracket's own
    arithmetic), under delta = 1e-12 for m <= 14; beyond that callers
    pass delta = inf, which always defers to the enumeration.
    """
    if uval < p / (2.0 - p) - delta:
        return 1
    if uval >= p + delta:
        return 0
    return None


def xy_edge_update(
    tau: XyTriple, u, uniforms: Sequence[float], groups: Groups
) -> Tuple[Dict[Tuple, int], Dict[Tuple, int]]:
    """Resample the edges incident to u given the fresh angle at u.

    Edges are decided one at a time in the fixed lexicographic order,
    each from its exact conditional with the not-yet-decided incident
    edges summed out, using one independent uniform per (edge, field):
    ``uniforms[2 i]`` for omega and ``uniforms[2 i + 1]`` for eta on
    incident edge i, from ``UpdateRandomness.edge_uniform`` of the slot.
    Monotone under the triple order for shared uniforms.  Returns the
    new omega and eta values on the incident edges; ``groups`` are u's
    (omega, eta) neighbour groups from :func:`_lane_groups`.

    The weight p = 1 - exp(-2 beta cos(alpha_u) cos(alpha_v)) of omega
    (sines for eta) lies in [0, 1]; beta cos(alpha_u) is formed once, the
    product's bits.  The bit is 1 when its uniform is below p/(2-p) - 1e-12
    and 0 when it is at least p + 1e-12 (the FK bracket, ``_bracket_bit``);
    only a uniform in between runs the enumeration.
    """
    graph = tau.graph
    incident = graph.incident[u]
    nbrs = graph.neighbors_of(u)
    beta, alpha, au = tau.beta, tau.alpha, tau.alpha[u]
    delta = _BRACKET_DELTA if len(incident) <= _BRACKET_MAX_EDGES else math.inf
    new_omega: Dict[Tuple, int] = {}
    new_eta: Dict[Tuple, int] = {}
    expm1 = math.expm1
    for f, bu, kind_groups, out, slot0 in (
        (math.cos, beta * math.cos(au), groups[0], new_omega, 0),
        (math.sin, beta * math.sin(au), groups[1], new_eta, 1),
    ):
        # connectivity blocks of the neighbour targets, not through u,
        # with the undecided incident edges removed (they are summed out)
        block_of: Dict[object, int] = {}
        for gi, g in enumerate(kind_groups):
            for t in g:
                block_of[t] = gi
        n_blocks = len(kind_groups)
        p_all = [-expm1(-2.0 * (bu * f(alpha[v]))) for v in nbrs]
        blocks = tuple(block_of[v] for v in nbrs)
        u_linked = 0
        for i, e in enumerate(incident):
            uval = uniforms[2 * i + slot0]
            bit = _bracket_bit(uval, p_all[i], delta)
            if bit is None:
                prob = _conditional_open_prob(p_all[i:], blocks[i:], u_linked, n_blocks)
                bit = 1 if uval < prob else 0
            out[e] = bit
            if bit:
                u_linked |= 1 << blocks[i]
    return new_omega, new_eta


def xy_full_update(
    tau: XyTriple, u, iota: UpdateRandomness, k: int, eps: float, groups: Groups,
    uniforms: Sequence[float],
) -> XyTriple:
    """Angle then incident edges, in place; returns ``tau``.

    ``groups`` are u's neighbour groups from :func:`_lane_groups`, shared
    by both stages: they do not depend on the angle at u or on u's
    incident edges.  ``uniforms`` are the event's edge uniforms, as
    :func:`xy_edge_update` reads them.
    """
    tau.alpha[u] = xy_angle_update(tau, u, iota, k, eps, groups)
    om, et = xy_edge_update(tau, u, uniforms, groups)
    tau.omega.update(om)
    tau.eta.update(et)
    return tau
