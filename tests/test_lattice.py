import random

import pytest

from exactspin.lattice import (
    BoxRegion,
    CellWindow,
    build_box,
    cluster_touches_boundary,
    neighbors,
    star_boundary,
    star_zero_cluster,
)

from oracle import exterior_boundary


class CellField:
    """0/1 values over a cell window: the interface star_zero_cluster reads."""

    def __init__(self, window, values):
        self.window = window
        self.values = dict(values)

    def value(self, cell):
        if not self.window.contains(cell):
            raise ValueError(f"cell {cell} outside the window")
        return self.values[cell]


def test_build_box_singleton():
    box = build_box(2, 1)
    assert box.vertices() == [(0, 0)]
    assert box.size == 1


def test_build_box_nine_points():
    box = build_box(2, 2)
    verts = set(box.vertices())
    assert verts == {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}
    assert box.size == 9


def test_build_box_count_matches_enumeration():
    box = build_box(3, 4)
    # brute enumeration oracle
    count = sum(
        1
        for x in range(-3, 4)
        for y in range(-3, 4)
        for z in range(-3, 4)
    )
    assert box.size == count == 343
    assert len(box.vertices()) == 343


def test_build_box_rejects_degenerate():
    with pytest.raises(ValueError):
        build_box(0, 3)
    with pytest.raises(ValueError):
        build_box(2, 0)


def test_build_box_center_offset():
    box = build_box(2, 2, center=(5, -3))
    assert box.contains((5, -3))
    assert box.contains((6, -2))
    assert not box.contains((7, -3))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_exterior_boundary_matches_neighbour_scan(d, n):
    # the order is part of the contract: boundary maps and their golden
    # digests are built by walking this list
    for center in ((0,) * d, tuple(range(3, 3 + d)), tuple(-5 + 2 * i for i in range(d))):
        box = build_box(d, n, center)
        got = exterior_boundary(box)
        assert got == sorted(set(got))
        for w in got:
            assert not box.contains(w)
            assert any(box.contains(x) for x in neighbors(w))
        # 2d faces of (2n - 1)^(d-1) sites each, no overlap
        assert len(got) == 2 * d * (2 * n - 1) ** (d - 1)


def _window(j_min=-4, radius=2, d=2):
    return CellWindow(j_min=j_min, j_max=0, x_radius=radius, d=d)


def test_star_zero_cluster_all_good():
    win = _window()
    theta = CellField(win, {c: 1 for c in win.cells()})
    assert star_zero_cluster(theta, (0, (0, 0))) == set()


def test_star_zero_cluster_isolated_zero():
    win = _window()
    vals = {c: 1 for c in win.cells()}
    vals[(0, (0, 0))] = 0
    theta = CellField(win, vals)
    assert star_zero_cluster(theta, (0, (0, 0))) == {(0, (0, 0))}


def test_star_zero_cluster_matches_bfs_oracle():
    win = CellWindow(j_min=-4, j_max=0, x_radius=2, d=2)
    rng = random.Random(999)
    for _ in range(50):
        vals = {c: (1 if rng.random() < 0.5 else 0) for c in win.cells()}
        theta = CellField(win, vals)
        origin = (0, (0, 0))
        got = star_zero_cluster(theta, origin)
        # oracle: BFS over *-adjacency computed from scratch
        if vals[origin] == 1:
            assert got == set()
            continue
        frontier = [origin]
        seen = {origin}
        while frontier:
            j, x = frontier.pop()
            for dj in (-1, 0, 1):
                for dx0 in (-1, 0, 1):
                    for dx1 in (-1, 0, 1):
                        if dj == dx0 == dx1 == 0:
                            continue
                        nb = (j + dj, (x[0] + dx0, x[1] + dx1))
                        if nb in seen or not win.contains(nb):
                            continue
                        if vals[nb] == 0:
                            seen.add(nb)
                            frontier.append(nb)
        assert got == seen


def test_star_zero_cluster_outputs_are_zero_valued_and_bounded_by_ones():
    win = _window()
    rng = random.Random(4242)
    vals = {c: (1 if rng.random() < 0.6 else 0) for c in win.cells()}
    theta = CellField(win, vals)
    cluster = star_zero_cluster(theta, (0, (0, 0)))
    for c in cluster:
        assert vals[c] == 0
    for c in star_boundary(cluster, win):
        assert vals[c] == 1


def test_star_zero_cluster_rejects_outside_origin():
    win = _window()
    theta = CellField(win, {c: 1 for c in win.cells()})
    with pytest.raises(ValueError):
        star_zero_cluster(theta, (0, (9, 9)))


def test_cluster_touches_boundary():
    win = _window(j_min=-3, radius=2)
    # time 0 is the present, so the j_max = 0 face is no window edge
    assert not cluster_touches_boundary({(0, (0, 0))}, win)
    assert cluster_touches_boundary({(-3, (0, 0))}, win)
    assert cluster_touches_boundary({(-1, (2, 0))}, win)
    assert not cluster_touches_boundary({(-1, (0, 0))}, win)
    # a window that stops short of the present is cut at j_max
    past = CellWindow(j_min=-3, j_max=-1, x_radius=2, d=2)
    assert cluster_touches_boundary({(-1, (0, 0))}, past)
    assert not cluster_touches_boundary({(-2, (0, 0))}, past)
