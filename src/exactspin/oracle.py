"""Independent exact and brute-force references.

Everything here is deliberately implementation-independent of the
dynamics modules: tensor quadrature of the raw densities, exhaustive
enumeration of edge configurations, rejection sampling against the
uniform proposal, and the massive Gaussian mean computed through two
unrelated linear-algebra routes.  Agreement with the samplers is then
evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .lattice import BoxRegion, Vertex, neighbors
from .xy import XyGraph


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


class QuadratureError(RuntimeError):
    """Requested tolerance not reached at the maximum grid refinement."""


def _tensor_gl(instance: TinyInstance, f, order: int) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    n = instance.size
    grids = np.meshgrid(*([nodes] * n), indexing="ij", sparse=True)
    wgrids = np.meshgrid(*([weights] * n), indexing="ij", sparse=True)
    W = wgrids[0]
    for wg in wgrids[1:]:
        W = W * wg
    dens = np.exp(-instance.beta * instance.hamiltonian(grids))
    return float(np.sum(W * f(grids) * dens)), float(np.sum(W * dens))


def quadrature_expectation(
    instance: TinyInstance,
    observable: Callable[[Sequence[np.ndarray]], np.ndarray],
    rtol: float = 1e-8,
) -> float:
    """Tensor Gauss-Legendre expectation with order escalation 16/32/64."""
    if instance.size > 3:
        raise ValueError("tensor quadrature limited to 3 interior vertices")
    prev = None
    for order in (16, 32, 64):
        num, den = _tensor_gl(instance, observable, order)
        val = num / den
        if prev is not None and abs(val - prev) <= rtol * max(1.0, abs(val)):
            return val
        prev = val
    num, den = _tensor_gl(instance, observable, 96)
    val = num / den
    if abs(val - prev) <= 10 * rtol * max(1.0, abs(val)):
        return val
    raise QuadratureError("quadrature failed to converge at order 96")


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


def log_partition(instance: TinyInstance, rtol: float = 1e-10) -> float:
    """log Z by tensor Gauss-Legendre with order escalation."""
    if instance.size > 3:
        raise ValueError("tensor quadrature limited to 3 interior vertices")
    prev = None
    for order in (16, 32, 64, 96):
        _, den = _tensor_gl(instance, lambda g: 1.0, order)
        if prev is not None and abs(den - prev) <= rtol * abs(den):
            return math.log(den)
        prev = den
    raise QuadratureError("partition quadrature failed to converge")


# ---------------------------------------------------------------------------
# Rejection sampling
# ---------------------------------------------------------------------------


class ColdInstanceError(RuntimeError):
    """Acceptance rate below 1e-6: instance too cold or too large."""


def rejection_sample(
    instance: TinyInstance, count: int, seed: int, batch: int = 200000
) -> np.ndarray:
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
        props = rng.uniform(-1.0, 1.0, size=(batch, instance.size))
        H = instance.hamiltonian(props.T)
        accept = rng.random(batch) < np.exp(-instance.beta * H)
        acc = props[accept]
        take = min(count - got, acc.shape[0])
        out[got : got + take] = acc[:take]
        got += take
        proposed += batch
        if proposed > 2e6 and got / proposed < 1e-6:
            raise ColdInstanceError(
                f"acceptance rate {got/proposed:.2e} below 1e-6"
            )
    return out


# ---------------------------------------------------------------------------
# Massive Gaussian mean, two ways
# ---------------------------------------------------------------------------


@dataclass
class MgffResult:
    solve_value: float
    walk_value: float
    s: float


def _mgff_structure(region: BoxRegion):
    verts = region.vertices()
    index = {v: i for i, v in enumerate(verts)}
    nbrs = []
    bcounts = []
    for v in verts:
        row = []
        b = 0
        for w in neighbors(v):
            if w in index:
                row.append(index[w])
            else:
                b += 1
        nbrs.append(row)
        bcounts.append(b)
    return verts, index, nbrs, np.array(bcounts, dtype=float)


def mgff_mean(region: BoxRegion, beta: float, m: float, u: Vertex) -> MgffResult:
    """Mean at u of the massive Gaussian field with boundary +1, two ways.

    (a) dense solve of the stationarity system
    (b) the killed-random-walk identity E[(1 + m/(2 d beta))^{-T}]
        evaluated by first-step fixed-point iteration to 1e-13
    """
    if m <= 0 or beta <= 0:
        raise ValueError("need m > 0 and beta > 0")
    verts, index, nbrs, bcount = _mgff_structure(region)
    if u not in index:
        raise ValueError("u must be interior")
    D = 2 * region.d
    n = len(verts)

    A = np.zeros((n, n))
    rhs = beta * bcount
    for i in range(n):
        A[i, i] = beta * D + m
        for j in nbrs[i]:
            A[i, j] -= beta
    solve = float(np.linalg.solve(A, rhs)[index[u]])

    s = (2 * region.d * beta) / (2 * region.d * beta + m)
    h = np.zeros(n)
    for _ in range(1000000):
        hn = np.empty(n)
        for i in range(n):
            acc = bcount[i]
            for j in nbrs[i]:
                acc += h[j]
            hn[i] = s * acc / D
        delta = np.max(np.abs(hn - h))
        h = hn
        if delta < 1e-13:
            break
    else:  # pragma: no cover
        raise RuntimeError("walk iteration failed to converge")
    walk = float(h[index[u]])
    return MgffResult(solve_value=solve, walk_value=walk, s=s)


def mgff_walk_exact_1d(n: int, i: int, s: float) -> float:
    """Closed form of E[s^T] for the walk on a 1d path of n interior sites.

    Site i in 1..n, absorbing boundaries at 0 and n+1, killing factor s
    per step: sinh interpolation with cosh(theta) = 1/s.
    """
    if not (1 <= i <= n) or not (0 < s < 1):
        raise ValueError("need 1 <= i <= n and s in (0,1)")
    theta = math.acosh(1.0 / s)
    return (math.sinh(theta * i) + math.sinh(theta * (n + 1 - i))) / math.sinh(
        theta * (n + 1)
    )


def mgff_walk_mc(
    region: BoxRegion, beta: float, m: float, u: Vertex, replicas: int, seed: int
) -> Tuple[float, float]:
    """Monte Carlo version of the killed-walk identity (mean, stderr)."""
    verts, index, nbrs_idx, bcount = _mgff_structure(region)
    D = 2 * region.d
    s = (2 * region.d * beta) / (2 * region.d * beta + m)
    rng = np.random.default_rng(seed)
    vals = np.empty(replicas)
    nbr_full = []
    for i, v in enumerate(verts):
        nbr_full.append([index.get(w, -1) for w in neighbors(v)])
    for r in range(replicas):
        pos = index[u]
        fac = 1.0
        while pos >= 0:
            fac *= s
            pos = nbr_full[pos][rng.integers(0, D)]
        vals[r] = fac
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicas))


def calibrate_mass(beta: float, d: int) -> float:
    """Mass for which the Gaussian mean dominates the square-well mean.

    One-site comparison: the conditioning event has probability at most
    P(|N(0, 1/(8 d beta))| <= 1); the Radon-Nikodym bound then allows
    any m with E[e^{-m alpha^2}] >= that probability, met by
    m = -log P, capped at 2 d beta.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    sigma = 1.0 / math.sqrt(8.0 * d * beta)
    p_in = math.erf(1.0 / (sigma * math.sqrt(2.0)))
    return min(-math.log(p_in), 2.0 * d * beta)


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

    def joint(self, om: Tuple[int, ...], et: Tuple[int, ...]) -> float:
        return self.omega_probs[om] * self.eta_probs[et]

    def omega_marginal(self, edge) -> float:
        i = self.edges.index(edge)
        return sum(p for cfg, p in self.omega_probs.items() if cfg[i])

    def eta_marginal(self, edge) -> float:
        i = self.edges.index(edge)
        return sum(p for cfg, p in self.eta_probs.items() if cfg[i])

    def normalization(self) -> float:
        return sum(self.omega_probs.values()) * sum(self.eta_probs.values())


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


def enumerate_xy(graph: XyGraph, alpha: Mapping, beta: float) -> XyExactLaw:
    """Sum the conditional density over all (omega, eta) given alpha.

    Weights per field: 2^{components} prod p_e over open, (1 - p_e)
    over closed, with p = 1 - exp(-2 beta cos cos) for omega and the
    sine analogue for eta.  Exact for up to 12 edges.
    """
    edges = list(graph.edges)
    if len(edges) > 12:
        raise ValueError("enumeration limited to 12 edges")
    out = {}
    for kind in ("omega", "eta"):
        ps = []
        for (a, b) in edges:
            if kind == "omega":
                x = beta * math.cos(alpha[a]) * math.cos(alpha[b])
            else:
                x = beta * math.sin(alpha[a]) * math.sin(alpha[b])
            ps.append(-math.expm1(-2.0 * x))
        weights: Dict[Tuple[int, ...], float] = {}
        for cfg in itertools.product((0, 1), repeat=len(edges)):
            w = 1.0
            for bit, p in zip(cfg, ps):
                w *= p if bit else (1.0 - p)
            w *= 2.0 ** _component_count(graph, cfg, edges)
            weights[cfg] = w
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
        total_om = 0.0
        total_et = 0.0
        pref = 0.0
        for (a, b) in edges:
            pref += beta * (
                math.cos(al[a]) * math.cos(al[b])
                + math.sin(al[a]) * math.sin(al[b])
            )
        for kind in ("omega", "eta"):
            ps = []
            for (a, b) in edges:
                if kind == "omega":
                    y = beta * math.cos(al[a]) * math.cos(al[b])
                else:
                    y = beta * math.sin(al[a]) * math.sin(al[b])
                ps.append(-math.expm1(-2.0 * y))
            tot = 0.0
            for cfg in itertools.product((0, 1), repeat=len(edges)):
                w = 1.0
                for bit, p in zip(cfg, ps):
                    w *= p if bit else (1.0 - p)
                w *= 2.0 ** _component_count(graph, cfg, edges)
                tot += w
            if kind == "omega":
                total_om = tot
            else:
                total_et = tot
        out[ix] = math.exp(pref) * total_om * total_et
    return out


def xy_two_vertex_expectation(beta: float, f, order: int = 96) -> complex:
    """E[f(sigma_0, sigma_1)] for the two-vertex XY model by quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    th = math.pi * (nodes + 1.0)  # map to (0, 2pi)
    w = weights * math.pi
    t0 = th[:, None]
    t1 = th[None, :]
    dens = np.exp(beta * np.cos(t0 - t1))
    W = w[:, None] * w[None, :] * dens
    s0 = np.exp(1j * t0) + 0.0 * t1
    s1 = np.exp(1j * t1) + 0.0 * t0
    return complex(np.sum(W * f(s0, s1)) / np.sum(W))
