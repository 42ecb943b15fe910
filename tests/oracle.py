"""Independent exact and brute-force references for the tests.

Nothing here shares code with the dynamics modules, so agreement with
a sampler is evidence, not tautology.  Each reference and the tests
that compare against it:

- ``quadrature_cdf``: ``test_cftp_single_vertex_matches_quadrature``;
- ``angle_law_cdf``: ``test_xy_cftp_angle_law_is_the_annealed_boundary``;
- ``rejection_sample``: ``test_cftp_3x3_mean_matches_rejection_oracle``;
- ``swm_depth_scan``, the scan over every digit cell that the closed
  form of ``cftp.required_digits`` replaced:
  ``test_swm_depth_matches_the_cell_scan``;
- ``enumerate_xy``: ``test_edge_update_two_vertex_marginal`` and
  ``test_edge_update_star_joint_matches_enumeration``;
- ``xy_angle_density_oracle``: ``test_angle_law_matches_enumeration_oracle``,
  ``test_angle_update_distribution_matches_oracle`` and
  ``test_angle_cdf_grid_within_stated_bound``;
- ``xy_two_vertex_expectation`` with ``xy_reconstruct_spins``:
  ``test_two_vertex_spin_law_matches_xy_model``;
- ``xy_leq``: the XY sandwich-order tests in ``test_cftp.py`` and
  ``test_xy.py``;
- ``almost_markov_support``:
  ``test_almost_markov_update_insensitive_outside_support``;
- ``neighbour_groups``, the search over every node that the free-node
  search of ``xy._groups`` replaced: ``test_groups_match_the_full_search``;
- ``exterior_boundary``: the sites of the boundary maps of
  ``test_engine.py`` and ``test_golden.py`` (``boundary_sums`` folds a
  map into per-site sums for ``swm_chunk_run``; the ``mapping_boundary``
  digest walks its order), and ``test_swm_lattice_counts_out_of_box_neighbours``.

The first three are in ``test_cftp.py``, the depth scan's test in
``test_swm.py``, the XY ones in ``test_xy.py``; ``test_oracle.py`` and
``test_lattice.py`` check the references themselves.

The last section holds coupling instruments.  They run the package's
own dynamics and only watch it: ``recorded_origin`` records the lanes'
equality at one site after each of its SWM updates (the golden digests
and the engine and CFTP record tests), ``origin_equal_throughout``
decides the coupling event of ``coupling_probability(throughout=True)``
from those records, and ``xy_equal_throughout`` decides the XY one by a
check after every event.  ``test_cftp.py`` compares both with the
estimator.  ``swm_chunk_run`` drives the engine's update loop from set
lanes under per-site boundary sums, which ``swm_sandwich`` never passes:
the lane tests of ``test_engine.py`` and the ``mapping_boundary`` digest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

import numpy as np

from exactspin import engine
from exactspin.cftp import xy_sandwich_steps
from exactspin.lattice import BoxRegion, Vertex, neighbors
from exactspin.randomness import event_stream
from exactspin.xy import XyGraph, XyTriple, _node_key, box_graph, xy_extremes

_REJECTION_BATCH = 200000  # uniform proposals per accept/reject round
_XY_PAIR_ORDER = 96  # Gauss-Legendre nodes per angle, two-vertex XY law


@dataclass
class TinyInstance:
    """A small explicit square-well instance for exact reference work."""

    vertices: List[Vertex]
    edges: List[Tuple[Vertex, Vertex]]  # interior-interior pairs
    boundary_terms: List[Tuple[Vertex, float]]  # (interior vertex, zeta)
    beta: float

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for (a, b) in self.edges:
            if a not in vset or b not in vset:
                raise ValueError("edge endpoint outside instance")
        for (a, _) in self.boundary_terms:
            if a not in vset:
                raise ValueError("boundary term attached to unknown vertex")

    @property
    def size(self) -> int:
        return len(self.vertices)

    def index(self) -> Dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def hamiltonian(self, values: Sequence[np.ndarray]) -> np.ndarray:
        """H evaluated on broadcastable per-vertex value arrays."""
        idx = self.index()
        H = 0.0
        for (a, b) in self.edges:
            H = H + (values[idx[a]] - values[idx[b]]) ** 2
        for (a, z) in self.boundary_terms:
            H = H + (values[idx[a]] - z) ** 2
        return H


def instance_from_box(region: BoxRegion, beta: float, zeta) -> TinyInstance:
    """Instance with all interior pairs and the box's boundary terms."""
    verts = region.vertices()
    vset = set(verts)
    edges = []
    bterms = []
    for v in verts:
        for w in neighbors(v):
            if w in vset:
                if v < w:
                    edges.append((v, w))
            else:
                z = zeta[w] if isinstance(zeta, Mapping) else float(zeta)
                bterms.append((v, z))
    return TinyInstance(verts, edges, bterms, beta)


def quadrature_cdf(instance: TinyInstance, v: Vertex, xs: np.ndarray) -> np.ndarray:
    """Marginal CDF of the spin at v on a 1-vertex instance (grid oracle)."""
    if instance.size != 1:
        raise ValueError("marginal CDF oracle needs a single-vertex instance")
    grid = np.linspace(-1.0, 1.0, 200001)
    H = instance.hamiltonian([grid])
    dens = np.exp(-instance.beta * H)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]))])
    cum /= cum[-1]
    return np.interp(xs, grid, cum)


def angle_law_cdf(log_density: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    """CDF at xs of the angle law on [0, pi/2] with the given log density
    (up to a constant), by the trapezoid rule on 2^16 intervals: a grid
    of its own, not the 2048-interval one of ``xy``."""
    grid = np.linspace(0.0, math.pi / 2.0, 2**16 + 1)
    logd = log_density(grid)
    dens = np.exp(logd - logd.max())
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]))])
    cum /= cum[-1]
    return np.interp(xs, grid, cum)


def swm_depth_scan(beta: float, d: int, eps: float) -> int:
    """The least digit depth k <= 15 at which no depth-k cell of [-1, 1]
    lets the SWM log density exp(-beta D (x - m)^2), D = 2d, drop by more
    than -log(1 - eps), for either extremal mean m = -1 or m = +1; every
    one of the 2 * 10**k cells is checked, so keep k small."""
    D = 2 * d
    budget = -math.log1p(-eps)
    for k in range(0, 16):
        edges = np.linspace(-1.0, 1.0, 2 * 10**k + 1)
        a, b = edges[:-1], edges[1:]
        ok = True
        for m in (-1.0, 1.0):
            da, db = np.abs(a - m), np.abs(b - m)
            hi = np.maximum(da, db)
            lo = np.where((a - m) * (b - m) <= 0.0, 0.0, np.minimum(da, db))
            drop = beta * D * (hi * hi - lo * lo)
            if float(drop.max()) > budget:
                ok = False
                break
        if ok:
            return k
    raise RuntimeError("no digit depth up to 15 certifies the domination")


# ---------------------------------------------------------------------------
# Rejection sampling
# ---------------------------------------------------------------------------


class ColdInstanceError(RuntimeError):
    """Acceptance rate below 1e-6: instance too cold or too large."""


def rejection_sample(instance: TinyInstance, count: int, seed: int) -> np.ndarray:
    """Exact i.i.d. samples by accept/reject against the uniform proposal.

    The density ratio exp(-beta*H) is bounded by 1 since H >= 0, so the
    acceptance test needs no further constant.  Returns an array of
    shape (count, n_vertices) in the instance's vertex order.
    """
    if instance.size > 9:
        raise ValueError("rejection oracle limited to 9 interior vertices")
    rng = np.random.default_rng(seed)
    out = np.empty((count, instance.size))
    got = 0
    proposed = 0
    while got < count:
        props = rng.uniform(-1.0, 1.0, size=(_REJECTION_BATCH, instance.size))
        H = instance.hamiltonian(props.T)
        accept = rng.random(_REJECTION_BATCH) < np.exp(-instance.beta * H)
        acc = props[accept]
        take = min(count - got, acc.shape[0])
        out[got : got + take] = acc[:take]
        got += take
        proposed += _REJECTION_BATCH
        if proposed > 2e6 and got / proposed < 1e-6:
            raise ColdInstanceError(
                f"acceptance rate {got/proposed:.2e} below 1e-6"
            )
    return out


# ---------------------------------------------------------------------------
# Exact XY edge-configuration enumeration
# ---------------------------------------------------------------------------


@dataclass
class XyExactLaw:
    """Exhaustive conditional law of (omega, eta) given fixed angles."""

    graph: XyGraph
    edges: List[Tuple]
    omega_probs: Dict[Tuple[int, ...], float]
    eta_probs: Dict[Tuple[int, ...], float]

    def omega_marginal(self, edge) -> float:
        i = self.edges.index(edge)
        return sum(p for cfg, p in self.omega_probs.items() if cfg[i])

    def eta_marginal(self, edge) -> float:
        i = self.edges.index(edge)
        return sum(p for cfg, p in self.eta_probs.items() if cfg[i])


def _component_count(graph: XyGraph, open_edges: Sequence[int], edges: List[Tuple]) -> int:
    parent = {n: n for n in graph.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = len(graph.nodes)
    for bit, e in zip(open_edges, edges):
        if bit:
            ra, rb = find(e[0]), find(e[1])
            if ra != rb:
                parent[ra] = rb
                count -= 1
    return count


def _fk_weights(graph: XyGraph, edges: List[Tuple], alpha: Mapping, beta: float,
                kind: str) -> Dict[Tuple[int, ...], float]:
    """Unnormalised weight of every open/closed configuration of one field.

    2^{components} prod p_e over open, (1 - p_e) over closed, with
    p = 1 - exp(-2 beta cos cos) for omega and the sine analogue for
    eta; configurations in ``itertools.product`` order.
    """
    trig = math.cos if kind == "omega" else math.sin
    ps = []
    for (a, b) in edges:
        x = beta * trig(alpha[a]) * trig(alpha[b])
        ps.append(-math.expm1(-2.0 * x))
    weights: Dict[Tuple[int, ...], float] = {}
    for cfg in itertools.product((0, 1), repeat=len(edges)):
        w = 1.0
        for bit, p in zip(cfg, ps):
            w *= p if bit else (1.0 - p)
        w *= 2.0 ** _component_count(graph, cfg, edges)
        weights[cfg] = w
    return weights


def enumerate_xy(graph: XyGraph, alpha: Mapping, beta: float) -> XyExactLaw:
    """Sum the conditional density over all (omega, eta) given alpha.

    Each field's law is its normalised ``_fk_weights``.  Exact for up
    to 12 edges.
    """
    edges = list(graph.edges)
    if len(edges) > 12:
        raise ValueError("enumeration limited to 12 edges")
    out = {}
    for kind in ("omega", "eta"):
        weights = _fk_weights(graph, edges, alpha, beta, kind)
        total = sum(weights.values())
        out[kind] = {cfg: w / total for cfg, w in weights.items()}
    return XyExactLaw(graph=graph, edges=edges, omega_probs=out["omega"], eta_probs=out["eta"])


def xy_angle_density_oracle(
    graph: XyGraph, alpha_rest: Mapping, u, beta: float, xs: np.ndarray
) -> np.ndarray:
    """Unnormalized conditional density of the angle at u, by summation.

    Integrates the edge fields out by exhaustive enumeration at each
    grid angle, including the per-edge prefactor exp(beta(cos cos +
    sin sin)) of the coordinate-representation density, so this is an
    independent check of the cosh-product law.
    """
    edges = list(graph.edges)
    if len(edges) > 10:
        raise ValueError("oracle limited to 10 edges")
    out = np.empty(len(xs))
    for ix, x in enumerate(xs):
        al = dict(alpha_rest)
        al[u] = float(x)
        pref = 0.0
        for (a, b) in edges:
            pref += beta * (
                math.cos(al[a]) * math.cos(al[b])
                + math.sin(al[a]) * math.sin(al[b])
            )
        total_om = sum(_fk_weights(graph, edges, al, beta, "omega").values())
        total_et = sum(_fk_weights(graph, edges, al, beta, "eta").values())
        out[ix] = math.exp(pref) * total_om * total_et
    return out


def xy_two_vertex_expectation(beta: float, f) -> complex:
    """E[f(sigma_0, sigma_1)] for the two-vertex XY model by quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(_XY_PAIR_ORDER)
    th = math.pi * (nodes + 1.0)  # map to (0, 2pi)
    w = weights * math.pi
    t0 = th[:, None]
    t1 = th[None, :]
    dens = np.exp(beta * np.cos(t0 - t1))
    W = w[:, None] * w[None, :] * dens
    s0 = np.exp(1j * t0) + 0.0 * t1
    s1 = np.exp(1j * t1) + 0.0 * t0
    return complex(np.sum(W * f(s0, s1)) / np.sum(W))


# ---------------------------------------------------------------------------
# XY order, update support and spin reconstruction
# ---------------------------------------------------------------------------


def xy_leq(a: XyTriple, b: XyTriple) -> bool:
    """The partial order: alpha <=, omega >=, eta <= componentwise."""
    return (
        all(a.alpha[n] <= b.alpha[n] for n in a.graph.nodes)
        and all(a.omega[e] >= b.omega[e] for e in a.graph.edges)
        and all(a.eta[e] <= b.eta[e] for e in a.graph.edges)
    )


def neighbour_groups(tau: XyTriple, u, bond: Mapping[Tuple, int]) -> List[List]:
    """Partition of N(u) into components of the bond percolation on the
    graph without u, by a search over every node; frozen nodes are never
    expanded (singleton transit block), so connectivity cannot run through
    the boundary.  Groups come in the order of their first target and list
    their targets in incident order."""
    adjacent, is_frozen = tau.graph.adjacent, tau.graph.is_frozen
    targets = [t for t, _ in adjacent[u]]
    seen: Set = set()
    groups: List[List] = []
    for t in targets:
        if t in seen:
            continue
        comp = {t}
        stack = [] if is_frozen[t] else [t]
        while stack:
            for other, e in adjacent[stack.pop()]:
                if other in comp or other == u or not bond.get(e, 0):
                    continue
                comp.add(other)
                if not is_frozen[other]:
                    stack.append(other)
        seen |= comp
        groups.append([t2 for t2 in targets if t2 in comp])
    return groups


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


# ---------------------------------------------------------------------------
# Lattice geometry
# ---------------------------------------------------------------------------


def exterior_boundary(box: BoxRegion) -> List[Vertex]:
    """Sorted sites outside the box next to an inside site, by neighbour scan."""
    out = set()
    for v in box.vertices():
        for i in range(box.d):
            for step in (-1, 1):
                w = list(v)
                w[i] += step
                w = tuple(w)
                if not box.contains(w):
                    out.add(w)
    return sorted(out)


# ---------------------------------------------------------------------------
# Coupling instruments
# ---------------------------------------------------------------------------


def recorded_origin(run: Callable, origin: Vertex):
    """``(run(), records)``: ``records`` holds (time, 1 if the lanes are
    equal at ``origin`` else 0) after each SWM update at ``origin``.

    Wraps ``engine._swm_chunk``'s event iterator while ``run`` runs.  A
    record is taken when the chunk asks for the next event, so the event
    a monitored run exits on, which the chunk does not finish, is not
    recorded.
    """
    real = engine._swm_chunk
    records: List[Tuple[float, int]] = []

    def chunk(lattice, top, bot, events, *rest):
        oi = lattice.index[origin]

        def watched():
            for ev in events:
                yield ev
                if ev[1] == oi:
                    records.append((ev[0], 1 if top[oi] == bot[oi] else 0))

        return real(lattice, top, bot, watched(), *rest)

    engine._swm_chunk = chunk
    try:
        return run(), records
    finally:
        engine._swm_chunk = real


def origin_equal_throughout(records: Sequence[Tuple[float, int]], s: float,
                            initial_equal: bool) -> bool:
    """Equality at the origin at every time in [-s, 0] given the
    per-update equality records of the full run: an SWM site changes
    only at its own updates."""
    eq = initial_equal
    for t, e in records:
        if t <= -s:
            eq = bool(e)
        else:
            if not eq:
                return False
            eq = bool(e)
    return eq


def xy_equal_throughout(region: BoxRegion, beta: float, k: int, eps: float, t: float,
                        s: float, seed: int, v: Vertex) -> bool:
    """Whether the extremal XY lanes run over [-t, 0] agree at v (the
    angle and both bonds of every incident edge) at time -s and after
    every event in (-s, 0], checked after every event of the window."""
    graph = box_graph(region)
    lo, hi = xy_extremes(graph, beta)

    def equal():
        return hi.alpha[v] == lo.alpha[v] and all(
            hi.omega[e] == lo.omega[e] and hi.eta[e] == lo.eta[e]
            for e in graph.incident[v])

    at_entry, after = equal(), True
    for ev in xy_sandwich_steps(hi, lo, event_stream(region, -t, 0.0, seed), k, eps):
        if ev.time <= -s:
            at_entry = equal()
        else:
            after = after and equal()
    return at_entry and after


def boundary_sums(lat: engine.SwmLattice, zeta: Mapping[Vertex, float]) -> List[float]:
    """Per-site sums of the boundary values ``zeta`` (keyed by the sites
    of ``exterior_boundary``) over each site's out-of-box neighbours,
    added left to right in ``neighbors`` order."""
    out = []
    for v in lat.vertices:
        s = 0.0
        for u in neighbors(v):
            if u not in lat.index:
                s += zeta[u]
        out.append(s)
    return out


def swm_chunk_run(lat: engine.SwmLattice, beta: float, k: int, eps: float, t_start: float,
                  t_end: float, seed: int, top: Sequence[float], bot: Sequence[float],
                  bsum_top: Sequence[float], bsum_bot: Sequence[float]) -> engine.SwmRunResult:
    """The lanes ``top`` and ``bot`` (values in ``lat.vertices`` order)
    stepped through the window's events by one ``engine._swm_chunk``
    call under the per-site boundary sums ``bsum_top`` and ``bsum_bot``.

    ``swm_sandwich`` starts the lanes at +1 and -1 under constant
    boundaries, but its loop takes any lanes and boundary sums; this
    drives it with others, under the law ``swm_sandwich`` builds.  No
    core is monitored, so ``mixed_ok`` is None.
    """
    deg = 2 * lat.d
    sig = 0.0 if beta == 0.0 else 1.0 / math.sqrt(2.0 * beta * deg)
    law = (sig, float(10**k), 10.0**-k, eps, 1.0 / deg)
    times, sidx, _, up, ur, um = engine.sorted_events(lat.vkeys(seed), t_start, t_end)
    top, bot = [float(x) for x in top], [float(x) for x in bot]
    engine._swm_chunk(lat, top, bot, engine._event_values(times, sidx, up, ur, um),
                      list(bsum_top), list(bsum_bot), law, [False] * lat.size, 0, False)
    return engine.SwmRunResult(np.array(top), np.array(bot), mixed_ok=None,
                               event_count=times.size)
