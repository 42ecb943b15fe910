"""Independent exact and brute-force references for the sampler tests.

Nothing here shares code with the dynamics modules, so agreement with
a sampler is evidence, not tautology.  Each oracle and the sampler
test that compares against it (the first two in ``tests/test_cftp.py``,
the rest in ``tests/test_xy.py``):

- ``quadrature_cdf``: ``test_cftp_single_vertex_matches_quadrature``;
- ``rejection_sample``: ``test_cftp_3x3_mean_matches_rejection_oracle``;
- ``enumerate_xy``: ``test_edge_update_two_vertex_marginal`` and
  ``test_edge_update_star_joint_matches_enumeration``;
- ``xy_angle_density_oracle``: ``test_angle_law_matches_enumeration_oracle``
  and ``test_angle_update_distribution_matches_oracle``;
- ``xy_two_vertex_expectation``: ``test_two_vertex_spin_law_matches_xy_model``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .lattice import BoxRegion, Vertex, neighbors
from .xy import XyGraph

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
