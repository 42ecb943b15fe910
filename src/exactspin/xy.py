"""The XY model in its monotone coordinate representation.

A configuration is a triple (alpha, omega, eta): angles in [0, pi/2]
per vertex plus two edge percolations.  The partial order is
alpha <= alpha', omega >= omega', eta <= eta' componentwise; spins are
recovered as sigma = xi*cos(alpha) + i*zeta*sin(alpha) with sign coins
per percolation component.

A single-site update resamples the angle from its conditional density
(a product of cosh terms over the omega- and eta-connectivity groups
of the neighbours), then the incident edges one at a time from their
exact conditionals with the not-yet-resampled incident edges summed
out.  Boundary vertices are frozen singleton clusters: they are
leaf-split so no connectivity ever passes through them, and their
angles are fixed by the boundary condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ._scalar import VALUE_GRID, snap
from .lattice import BoxRegion, neighbors
from .randomness import MAX_DIGITS, UpdateRandomness, digit_cell, monotone_inverse

HALF_PI = math.pi / 2.0

_GRID_N = 2048
_XS = np.linspace(0.0, HALF_PI, _GRID_N + 1)
_COS = np.cos(_XS)
_SIN = np.sin(_XS)


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
            if a not in node_set or b not in node_set:
                raise ValueError(f"edge {e} references unknown node")
            seen.add(e)
            self.edges.append(e)
        self.edges.sort(key=lambda e: (_node_key(e[0]), _node_key(e[1])))
        self.incident: Dict[object, List[Tuple]] = {n: [] for n in self.nodes}
        for e in self.edges:
            a, b = e
            self.incident[a].append(e)
            self.incident[b].append(e)
        for n in self.nodes:
            self.incident[n].sort(key=lambda e: (_node_key(e[0]), _node_key(e[1])))
        self.is_frozen = {n: (n in frozen_set) for n in self.nodes}

    def other(self, edge: Tuple, node) -> object:
        a, b = edge
        return b if node == a else a

    def neighbors_of(self, node) -> List:
        return [self.other(e, node) for e in self.incident[node]]


def box_graph(region: BoxRegion) -> XyGraph:
    """The box's graph with each boundary contact leaf-split."""
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


BC_PLUS_ONE = "+1"  # boundary spin +1: frozen angle 0
BC_PLUS_I = "+i"  # boundary spin +i: frozen angle pi/2


def boundary_angle(bc: str) -> float:
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
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")

    def copy(self) -> "XyTriple":
        return XyTriple(
            self.graph, dict(self.alpha), dict(self.omega), dict(self.eta), self.beta
        )


def xy_extremes(graph: XyGraph, beta: float, bc: Optional[str] = None) -> Tuple[XyTriple, XyTriple]:
    """(minimal, maximal) configurations; frozen angles follow bc if given.

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


def xy_leq(a: XyTriple, b: XyTriple) -> bool:
    """The partial order: alpha <=, omega >=, eta <= componentwise."""
    return (
        all(a.alpha[n] <= b.alpha[n] for n in a.graph.nodes)
        and all(a.omega[e] >= b.omega[e] for e in a.graph.edges)
        and all(a.eta[e] <= b.eta[e] for e in a.graph.edges)
    )


# ---------------------------------------------------------------------------
# Neighbour connectivity groups
# ---------------------------------------------------------------------------


def _groups(tau: XyTriple, u, bond: Dict[Tuple, int]) -> List[List]:
    """Partition of N(u) into components of the bond percolation on the
    graph without u; frozen nodes are never expanded (singleton transit
    block), so connectivity cannot run through the boundary."""
    graph = tau.graph
    targets = graph.neighbors_of(u)
    unassigned = list(dict.fromkeys(targets))  # unique, keep order
    seen: Set = set()
    groups: List[List] = []
    for t in unassigned:
        if t in seen:
            continue
        comp = {t}
        if not graph.is_frozen[t]:
            stack = [t]
            while stack:
                cur = stack.pop()
                for e in graph.incident[cur]:
                    other = graph.other(e, cur)
                    if other == u or other in comp:
                        continue
                    if not bond.get(e, 0):
                        continue
                    comp.add(other)
                    if not graph.is_frozen[other]:
                        stack.append(other)
        seen |= comp
        groups.append([t2 for t2 in targets if t2 in comp])
    return groups


@dataclass
class AngleLawHandle:
    """Conditional angle density: prod over groups of 2cosh terms.

    ``cos_sums`` holds sum of cos(alpha) over each omega-group of the
    neighbours, ``sin_sums`` sums of sin(alpha) over each eta-group.
    The CDF is the piecewise-linear interpolant of the trapezoid
    cumulative of the density on a fixed 2048-interval grid.
    """

    cos_sums: Tuple[float, ...]
    sin_sums: Tuple[float, ...]
    beta: float
    _cdf_grid: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def log_density_grid(self) -> np.ndarray:
        out = np.zeros(_GRID_N + 1)
        for s in self.cos_sums:
            y = self.beta * s * _COS
            out += np.logaddexp(y, -y)
        for s in self.sin_sums:
            y = self.beta * s * _SIN
            out += np.logaddexp(y, -y)
        return out

    def cdf_grid(self) -> np.ndarray:
        if self._cdf_grid is None:
            logf = self.log_density_grid()
            f = np.exp(logf - logf.max())
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]))])
            self._cdf_grid = cum / cum[-1]
        return self._cdf_grid

    def cdf(self, x: float) -> float:
        return float(np.interp(x, _XS, self.cdf_grid()))

    def inverse(self, u: float) -> float:
        F = self.cdf_grid()
        i = int(np.searchsorted(F, u, side="left"))
        if i <= 0:
            return 0.0
        if i > _GRID_N:
            return HALF_PI
        f0, f1 = F[i - 1], F[i]
        x0, x1 = _XS[i - 1], _XS[i]
        if f1 <= f0:
            return float(x1)
        return float(x0 + (x1 - x0) * (u - f0) / (f1 - f0))


def xy_angle_law(tau: XyTriple, u) -> AngleLawHandle:
    """The conditional law of the angle at u given the rest of the triple.

    Reads alpha on N(u) and the omega/eta connectivity groups of the
    neighbours in the graph without u (the update's almost-Markov
    support).
    """
    if tau.graph.is_frozen[u]:
        raise ValueError("cannot resample a frozen boundary node")
    omega_groups = _groups(tau, u, tau.omega)
    eta_groups = _groups(tau, u, tau.eta)
    cos_sums = tuple(
        sum(math.cos(tau.alpha[v]) for v in g) for g in omega_groups
    )
    sin_sums = tuple(
        sum(math.sin(tau.alpha[v]) for v in g) for g in eta_groups
    )
    return AngleLawHandle(cos_sums=cos_sums, sin_sums=sin_sums, beta=tau.beta)


def _angle_cell_bounds(c: int, k: int) -> Tuple[float, float]:
    tenk = 10.0**k
    return (c / tenk) * HALF_PI, ((c + 1) / tenk) * HALF_PI


def xy_angle_update(
    tau: XyTriple, u, iota: UpdateRandomness, k: int, eps: float
) -> float:
    """Two-stage digit-matching draw of the new angle at u.

    Digit cells partition [0, pi/2] into 10^k equal slots (digits of
    the normalized coordinate).  Monotone in the triple for fixed
    randomness; on the matching branch the value depends only on
    (cell, u_refine).
    """
    if not (0 <= k <= MAX_DIGITS):
        raise ValueError(f"digit depth k must be in [0, {MAX_DIGITS}]")
    law = xy_angle_law(tau, u)
    x1 = law.inverse(iota.u_primary)
    c = digit_cell(x1 / HALF_PI, k)
    c = max(0, min(10**k - 1, c))
    a, b = _angle_cell_bounds(c, k)
    while x1 < a and c > 0:
        c -= 1
        a, b = _angle_cell_bounds(c, k)
    while x1 >= b and c < 10**k - 1:
        c += 1
        a, b = _angle_cell_bounds(c, k)

    if iota.b_match(eps) == 0:
        v = snap(a + (b - a) * iota.u_refine, VALUE_GRID)
        return min(HALF_PI, max(0.0, v))

    fa, fb = law.cdf(a), law.cdf(b)
    span = fb - fa
    if span <= 0.0:
        v = snap(a + (b - a) * iota.u_refine, VALUE_GRID)
        return min(HALF_PI, max(0.0, v))

    def residual(x: float) -> float:
        fcell = (law.cdf(x) - fa) / span
        return (fcell - (1.0 - eps) * (x - a) / (b - a)) / eps

    v = snap(monotone_inverse(residual, iota.u_refine, a, b), VALUE_GRID)
    return min(HALF_PI, max(0.0, v))


# ---------------------------------------------------------------------------
# Edge updates
# ---------------------------------------------------------------------------


def _edge_weight_p(beta: float, au: float, av: float, kind: str) -> float:
    if kind == "omega":
        x = beta * math.cos(au) * math.cos(av)
    else:
        x = beta * math.sin(au) * math.sin(av)
    p = -math.expm1(-2.0 * x)
    if p < 0.0:
        p = 0.0
    elif p > 1.0:
        p = 1.0
    return p


def _conditional_open_prob(
    p_list: List[float],
    target_blocks: List[int],
    u_linked_blocks: Set[int],
    n_blocks: int,
) -> float:
    """P(first undecided incident edge open | the rest summed out).

    ``p_list[i]`` is the FK weight of undecided incident edge i (the
    first is the one being decided), ``target_blocks[i]`` the
    connectivity block of its endpoint, ``u_linked_blocks`` the blocks
    already joined to u by previously resampled open incident edges.
    Weights are prod p^o (1-p)^(1-o) * 2^(relative component count),
    enumerated exactly over the 2^(m-1) remaining configurations.
    """
    m = len(p_list)
    w_open = 0.0
    w_closed = 0.0
    for mask in range(1 << m):
        w = 1.0
        linked: Set[int] = set(u_linked_blocks)
        for i in range(m):
            if mask >> i & 1:
                w *= p_list[i]
                linked.add(target_blocks[i])
            else:
                w *= 1.0 - p_list[i]
        # components among {u} + blocks: blocks merge into u's component
        comps = n_blocks + 1 - len(linked)
        w *= 2.0**comps
        if mask & 1:
            w_open += w
        else:
            w_closed += w
    total = w_open + w_closed
    if total <= 0.0:
        return 0.0
    return w_open / total


def xy_edge_update(
    tau: XyTriple, u, iota: UpdateRandomness
) -> Tuple[Dict[Tuple, int], Dict[Tuple, int]]:
    """Resample the edges incident to u given the fresh angle at u.

    Edges are decided one at a time in the fixed lexicographic order,
    each from its exact conditional with the not-yet-decided incident
    edges summed out, using one independent uniform per (edge, field).
    Monotone under the triple order for shared uniforms.  Returns the
    new omega and eta values on the incident edges.
    """
    graph = tau.graph
    incident = graph.incident[u]
    new_omega: Dict[Tuple, int] = {}
    new_eta: Dict[Tuple, int] = {}
    for kind, bond, out, slot0 in (
        ("omega", tau.omega, new_omega, 0),
        ("eta", tau.eta, new_eta, 1),
    ):
        # connectivity blocks of the neighbour targets, not through u,
        # with the undecided incident edges removed (they are summed out)
        groups = _groups(tau, u, bond)
        block_of: Dict[object, int] = {}
        for gi, g in enumerate(groups):
            for t in g:
                block_of[t] = gi
        n_blocks = len(groups)
        u_linked: Set[int] = set()
        for i, e in enumerate(incident):
            v = graph.other(e, u)
            p_rest = [
                _edge_weight_p(tau.beta, tau.alpha[u], tau.alpha[graph.other(e2, u)], kind)
                for e2 in incident[i:]
            ]
            blocks_rest = [block_of[graph.other(e2, u)] for e2 in incident[i:]]
            prob = _conditional_open_prob(p_rest, blocks_rest, u_linked, n_blocks)
            uval = iota.edge_uniform(2 * i + slot0)
            bit = 1 if uval < prob else 0
            out[e] = bit
            if bit:
                u_linked.add(block_of[v])
    return new_omega, new_eta


def xy_full_update(
    tau: XyTriple, u, iota: UpdateRandomness, k: int, eps: float
) -> XyTriple:
    """Angle then incident edges; returns the updated triple (copy)."""
    new = tau.copy()
    new.alpha[u] = xy_angle_update(tau, u, iota, k, eps)
    om, et = xy_edge_update(new, u, iota)
    new.omega.update(om)
    new.eta.update(et)
    return new


def almost_markov_support(tau: XyTriple, u) -> Tuple[Set, Set]:
    """Vertices and edges the update at u may read.

    N(u) plus the omega- and eta-clusters of the neighbours in the
    graph without u; the edge set contains the incident edges of every
    explored vertex (their states determine the clusters).
    """
    graph = tau.graph
    verts: Set = set(graph.neighbors_of(u))
    for bond in (tau.omega, tau.eta):
        for t in graph.neighbors_of(u):
            if graph.is_frozen[t]:
                continue
            stack = [t]
            comp = {t}
            while stack:
                cur = stack.pop()
                for e in graph.incident[cur]:
                    other = graph.other(e, cur)
                    if other == u or other in comp or not bond.get(e, 0):
                        continue
                    comp.add(other)
                    if not graph.is_frozen[other]:
                        stack.append(other)
            verts |= comp
    edges: Set = set()
    for v in verts:
        for e in graph.incident[v]:
            if u not in e:
                edges.add(e)
    return verts, edges


# ---------------------------------------------------------------------------
# Spin reconstruction
# ---------------------------------------------------------------------------


def percolation_components(graph: XyGraph, bond: Mapping[Tuple, int]) -> List[FrozenSet]:
    """Components of (nodes, open bond edges); frozen nodes do transit
    here because reconstruction needs the true percolation clusters."""
    seen: Set = set()
    comps: List[FrozenSet] = []
    for n in graph.nodes:
        if n in seen:
            continue
        comp = {n}
        stack = [n]
        while stack:
            cur = stack.pop()
            for e in graph.incident[cur]:
                other = graph.other(e, cur)
                if other in comp or not bond.get(e, 0):
                    continue
                comp.add(other)
                stack.append(other)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def component_representative(comp: FrozenSet):
    return min(comp, key=_node_key)


def xy_reconstruct_spins(
    tau: XyTriple,
    omega_coins: Mapping,
    eta_coins: Mapping,
) -> Dict[object, complex]:
    """sigma = xi*cos(alpha) + i*zeta*sin(alpha) with component coins.

    Coins are +-1 mappings keyed by the component representative (its
    minimal node).  A component containing a frozen node whose
    coordinate is active (cos for omega, sin for eta) has its sign
    forced to +1 by the boundary condition.
    """
    out: Dict[object, complex] = {}
    signs: Dict[object, Tuple[float, float]] = {n: [0.0, 0.0] for n in tau.graph.nodes}
    for which, bond, coins in (
        (0, tau.omega, omega_coins),
        (1, tau.eta, eta_coins),
    ):
        for comp in percolation_components(tau.graph, bond):
            rep = component_representative(comp)
            forced = False
            for n in comp:
                if tau.graph.is_frozen[n]:
                    coord = (
                        math.cos(tau.alpha[n]) if which == 0 else math.sin(tau.alpha[n])
                    )
                    if abs(coord) > 1e-12:
                        forced = True
                        break
            if forced:
                coin = 1
            else:
                coin = coins[rep]
                if coin not in (-1, 1):
                    raise ValueError("coins must be +-1")
            for n in comp:
                signs[n][which] = float(coin)
    for n in tau.graph.nodes:
        xi, zeta = signs[n]
        out[n] = xi * math.cos(tau.alpha[n]) + 1j * zeta * math.sin(tau.alpha[n])
    return out


def calibrate_matching_xy(beta: float, d: int, eps: float) -> int:
    """Smallest digit depth for the angle-law domination precondition.

    The within-cell log-density variation of any conditional angle law
    is at most 4*d*beta times the cell width (each neighbour
    contributes one cosh factor per field with unit Lipschitz bound);
    certified against the extremal one-group and all-singleton handles
    numerically.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if beta == 0.0:
        return 0
    budget = -math.log1p(-eps)
    handles = [
        AngleLawHandle(cos_sums=(float(2 * d),), sin_sums=(), beta=beta),
        AngleLawHandle(cos_sums=(), sin_sums=(float(2 * d),), beta=beta),
        AngleLawHandle(cos_sums=(1.0,) * 2 * d, sin_sums=(1.0,) * 2 * d, beta=beta),
        AngleLawHandle(cos_sums=(float(d),), sin_sums=(float(d),), beta=beta),
    ]
    for k in range(0, MAX_DIGITS + 1):
        width = HALF_PI * 10.0**-k
        if 4.0 * d * beta * width <= budget:
            # numeric confirmation on a fine grid
            ok = True
            for h in handles:
                logf = h.log_density_grid()
                cells = np.array_split(logf, 10**k if 10**k <= _GRID_N else _GRID_N)
                for chunk in cells:
                    if chunk.size and chunk.max() - chunk.min() > budget + 1e-9:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return k
    raise RuntimeError("no digit depth up to 15 certifies the domination")
