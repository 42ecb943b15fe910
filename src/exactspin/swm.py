"""The square well model: conditional laws and the digit-matching update.

Spins live in [-1, 1] with energy sum of squared nearest-neighbour
differences.  The single-site conditional law is a normal distribution
with mean the neighbour average and variance 1/(2*beta*D), D the
lattice degree, conditioned to [-1, 1].  The update draws from it in
two stages: an inverse-CDF pass picks a base-10 digit cell, then the
refinement inside the cell reuses a shared uniform with probability
1 - eps, which makes the digits beyond the k-th identical across all
neighbour configurations sharing the randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from . import _scalar
from .lattice import BoxRegion, Vertex, neighbors
from .randomness import MAX_DIGITS, UpdateRandomness


@dataclass(frozen=True)
class TruncatedNormalLaw:
    """Conditional spin law: N(mean, 1/(2*beta*D)) restricted to [-1, 1]."""

    mean: float
    beta: float
    degree: int

    @property
    def sigma(self) -> float:
        if self.beta == 0.0:
            return 0.0  # encodes the flat law
        return 1.0 / math.sqrt(2.0 * self.beta * self.degree)

    def cdf(self, x: float) -> float:
        if x <= -1.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        if self.beta == 0.0:
            return 0.5 * (x + 1.0)
        s = self.sigma
        a = _scalar.norm_cdf((-1.0 - self.mean) / s)
        b = _scalar.norm_cdf((1.0 - self.mean) / s)
        return (_scalar.norm_cdf((x - self.mean) / s) - a) / (b - a)

    def pdf(self, x: float) -> float:
        if not -1.0 <= x <= 1.0:
            return 0.0
        if self.beta == 0.0:
            return 0.5
        s = self.sigma
        z = (x - self.mean) / s
        a = _scalar.norm_cdf((-1.0 - self.mean) / s)
        b = _scalar.norm_cdf((1.0 - self.mean) / s)
        return math.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * s * (b - a))

    def inverse(self, u: float) -> float:
        if self.beta == 0.0:
            return -1.0 + 2.0 * u
        s = self.sigma
        a = _scalar.norm_cdf((-1.0 - self.mean) / s)
        b = _scalar.norm_cdf((1.0 - self.mean) / s)
        p = min(max(a + u * (b - a), 1e-300), 1.0 - 1e-16)
        return min(1.0, max(-1.0, self.mean + s * _scalar.norm_ppf(p)))


@dataclass
class SwmField:
    """A spin configuration on a finite box with explicit boundary values."""

    region: BoxRegion
    values: Dict[Vertex, float]
    boundary: Dict[Vertex, float]
    beta: float

    def __post_init__(self):
        verts = set(self.region.vertices())
        if set(self.values) != verts:
            raise ValueError("interior values must cover the region exactly")
        ext = set(self.region.exterior_boundary())
        if set(self.boundary) != ext:
            raise ValueError("boundary values must cover exactly the exterior neighbors")
        for v, x in list(self.values.items()) + list(self.boundary.items()):
            if not -1.0 <= x <= 1.0:
                raise ValueError(f"spin at {v} outside [-1, 1]")
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")

    def spin(self, v: Vertex) -> float:
        if v in self.values:
            return self.values[v]
        return self.boundary[v]

    def with_value(self, v: Vertex, x: float) -> "SwmField":
        vals = dict(self.values)
        vals[v] = x
        return SwmField(self.region, vals, self.boundary, self.beta)


def constant_field(region: BoxRegion, beta: float, value: float, bc: float) -> SwmField:
    return SwmField(
        region,
        {v: value for v in region.vertices()},
        {v: bc for v in region.exterior_boundary()},
        beta,
    )


def swm_conditional(field: SwmField, u: Vertex) -> TruncatedNormalLaw:
    """The conditional law of the spin at u given its neighbours."""
    if not field.region.contains(u):
        raise ValueError(f"{u} is not interior")
    total = 0.0
    degree = 2 * field.region.d
    for w in neighbors(u):
        try:
            total += field.spin(w)
        except KeyError:
            raise ValueError(f"missing neighbor value at {w}") from None
    return TruncatedNormalLaw(mean=total / degree, beta=field.beta, degree=degree)


@dataclass(frozen=True)
class SwmUpdateParts:
    """The update value with its canonical digit decomposition."""

    value: float
    cell: int
    refine_offset: float
    matched: bool


def swm_update_parts(
    field: SwmField, u: Vertex, iota: UpdateRandomness, k: int, eps: float
) -> SwmUpdateParts:
    if not (0 <= k <= MAX_DIGITS):
        raise ValueError(f"digit depth k must be in [0, {MAX_DIGITS}]")
    law = swm_conditional(field, u)
    tenk = float(10**k)
    w = 10.0**-k
    value, cell, matched = _scalar.swm_draw(
        law.mean, law.sigma, tenk, w, eps,
        iota.u_primary, iota.u_refine, iota.u_match,
    )
    if matched:
        offset = iota.u_refine * w
    else:
        offset = value - cell * w
    return SwmUpdateParts(value=value, cell=int(cell), refine_offset=offset, matched=matched)


def swm_update(
    field: SwmField, u: Vertex, iota: UpdateRandomness, k: int, eps: float
) -> float:
    """One digit-matching Glauber update of the spin at u."""
    return swm_update_parts(field, u, iota, k, eps).value


def calibrate_matching(beta: float, d: int, eps: float) -> int:
    """Smallest digit depth k certifying the cell-law domination.

    For every digit cell and every admissible neighbour mean the spin
    density must dominate (1 - eps) times the uniform density on the
    cell; certified by the worst-case density ratio at the extremal
    means, computed over all cells.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if beta == 0.0:
        return 0
    D = 2 * d
    budget = -math.log1p(-eps)
    for k in range(0, MAX_DIGITS + 1):
        w = 10.0**-k
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
