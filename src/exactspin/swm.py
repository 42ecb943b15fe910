"""The square well model: the spin record of a run and the digit depth.

Spins live in [-1, 1] with energy sum of squared nearest-neighbour
differences.  The single-site conditional law is a normal distribution
with mean the neighbour average and variance 1/(2*beta*D), D the
lattice degree, conditioned to [-1, 1].  The one update that draws
from it is :func:`exactspin._scalar.swm_draw`, run by the engine
(:func:`exactspin.engine.swm_sandwich`).  This module holds what the
update needs around it: the digit depth that certifies its matched
refinement, and the validated spin record a sandwich run hands back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .lattice import Vertex
from .randomness import MAX_DIGITS, digit_cell


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
