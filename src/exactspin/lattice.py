"""Finite boxes of Z^d, nearest-neighbour geometry, and coarse cell passes.

Vertices are integer tuples.  A box of radius n around a center c is the
open cube (c - n, c + n)^d intersected with Z^d, so it holds (2n-1)^d
sites.  The cluster passes here run on the coarse space-time grid of
cells used by the coarse-graining layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

Vertex = Tuple[int, ...]
Cell = Tuple[int, Tuple[int, ...]]  # (time index j <= 0, spatial index x)


class WindowTooSmallError(RuntimeError):
    """A cluster reached the edge of its declared finite window."""


def _check_int(name: str, value, low: Optional[int] = None) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


def neighbors(v: Vertex) -> List[Vertex]:
    """The 2d nearest neighbours of v in Z^d."""
    out = []
    for i in range(len(v)):
        for step in (-1, 1):
            w = list(v)
            w[i] += step
            out.append(tuple(w))
    return out


@dataclass(frozen=True)
class BoxRegion:
    """The lattice box (center - n, center + n)^d cap Z^d."""

    d: int
    n: int
    center: Vertex

    def __post_init__(self):
        _check_int("dimension d", self.d, 1)
        _check_int("radius n", self.n, 1)
        if len(self.center) != self.d:
            raise ValueError("center has wrong dimension")
        for c in self.center:
            _check_int("a center entry", c)

    @property
    def size(self) -> int:
        return (2 * self.n - 1) ** self.d

    def contains(self, v: Vertex) -> bool:
        return all(abs(v[i] - self.center[i]) < self.n for i in range(self.d))

    def vertices(self) -> List[Vertex]:
        ranges = [range(c - self.n + 1, c + self.n) for c in self.center]
        return list(itertools.product(*ranges))


def build_box(d: int, n: int, center: Vertex | None = None) -> BoxRegion:
    """Box of radius n around center (default the origin)."""
    _check_int("dimension d", d, 1)
    if center is None:
        center = (0,) * d
    return BoxRegion(d=d, n=n, center=tuple(center))


# ---------------------------------------------------------------------------
# Coarse space-time grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellWindow:
    """A finite rectangle of coarse cells: j in [j_min, j_max], |x_i| <= x_radius."""

    j_min: int
    j_max: int
    x_radius: int
    d: int

    def __post_init__(self):
        _check_int("j_min", self.j_min)
        _check_int("j_max", self.j_max)
        _check_int("x_radius", self.x_radius, 0)
        _check_int("d", self.d, 1)
        if self.j_min > self.j_max or self.j_max > 0:
            raise ValueError("need j_min <= j_max <= 0")

    def contains(self, cell: Cell) -> bool:
        j, x = cell
        return (
            self.j_min <= j <= self.j_max
            and len(x) == self.d
            and all(abs(xi) <= self.x_radius for xi in x)
        )

    def cells(self) -> List[Cell]:
        space = itertools.product(
            *[range(-self.x_radius, self.x_radius + 1) for _ in range(self.d)]
        )
        cells = []
        for x in space:
            for j in range(self.j_min, self.j_max + 1):
                cells.append((j, tuple(x)))
        return cells

    def on_boundary(self, cell: Cell) -> bool:
        j, x = cell
        return (
            j == self.j_min
            or (j == self.j_max and j < 0)  # time 0 is the present, not a cut
            or any(abs(xi) == self.x_radius for xi in x)
        )

    @property
    def size(self) -> int:
        return (self.j_max - self.j_min + 1) * (2 * self.x_radius + 1) ** self.d


def _star_neighbors(cell: Cell) -> List[Cell]:
    j, x = cell
    d = len(x)
    out = []
    for dj in (-1, 0, 1):
        for dx in itertools.product(*([(-1, 0, 1)] * d)):
            if dj == 0 and all(s == 0 for s in dx):
                continue
            out.append((j + dj, tuple(xi + s for xi, s in zip(x, dx))))
    return out


def star_zero_cluster(theta, origin: Cell) -> Set[Cell]:
    """The *-connected component of 0-cells containing origin.

    ``theta`` must expose ``window`` and ``value(cell)``.  Returns the
    empty set when the origin cell has value 1.  Adjacency is l-infinity
    distance one on the coarse grid, time included.
    """
    window = theta.window
    if not window.contains(origin):
        raise ValueError(f"origin {origin} outside the theta window")
    if theta.value(origin) == 1:
        return set()
    cluster = {origin}
    queue = [origin]
    while queue:
        cur = queue.pop()
        for nb in _star_neighbors(cur):
            if nb in cluster or not window.contains(nb):
                continue
            if theta.value(nb) == 0:
                cluster.add(nb)
                queue.append(nb)
    return cluster


def star_boundary(cluster: Set[Cell], window: CellWindow) -> Set[Cell]:
    """Cells at *-distance one from the cluster, inside the window."""
    out: Set[Cell] = set()
    for cell in cluster:
        for nb in _star_neighbors(cell):
            if nb not in cluster and window.contains(nb):
                out.add(nb)
    return out


def cluster_touches_boundary(cluster: Set[Cell], window: CellWindow) -> bool:
    return any(window.on_boundary(c) for c in cluster)
