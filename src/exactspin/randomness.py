"""Deterministic space-time event streams and the grand coupling.

Every random quantity is a pure function of a 64-bit master seed and
integer counters, so any sub-window of the space-time Poisson process
can be regenerated without storing events.  Arrival times come from
per-vertex, per-unit-time-block Poisson counts keyed by
(seed, vertex, block); restricting a stream to a smaller window yields
exactly the time-restriction of the larger stream.

``block_events`` is the one event generator: the array engine reads its
typed arrays directly and ``event_stream`` wraps the same events in
``UpdateEvent`` objects.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from .lattice import BoxRegion, Vertex

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# stream tags separating independent uniform channels of one event
_TAG_COUNT = 0x1
_TAG_TIME = 0x2
_TAG_PRIMARY = 0x3
_TAG_REFINE = 0x4
_TAG_MATCH = 0x5
_TAG_EDGE = 0x6


def mix64(z: int) -> int:
    """SplitMix64 finalizer; the core keyed generator."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _to_unit(bits: int) -> float:
    """Map 64 bits to a float strictly inside (0, 1)."""
    return ((bits >> 11) + 0.5) * (1.0 / (1 << 53))


def vertex_key(master: int, vertex: Vertex) -> int:
    """Fold the master seed and the vertex coordinates into one key."""
    h = mix64(master & _MASK)
    for c in vertex:
        h = mix64(h ^ (c & _MASK))
    return h


def _poisson_unit(u: float) -> int:
    """Inverse-CDF Poisson(1) draw from one uniform."""
    p = math.exp(-1.0)
    cum = p
    k = 0
    while u > cum and k <= 60:  # the cdf saturates long before k = 60
        k += 1
        p /= k
        cum += p
    return k


@dataclass(frozen=True)
class UpdateRandomness:
    """The randomness triple driving one single-site update.

    ``u_primary`` selects the digit cell through the inverse-CDF grand
    coupling, ``u_refine`` drives the refinement inside the cell, and
    ``u_match`` encodes the Bernoulli matching bit: ``b_match(eps)`` is
    0 (the matching branch) with probability 1 - eps.  The three
    channels are independent given the seed key.
    """

    u_primary: float
    u_refine: float
    u_match: float
    key: int = 0

    def b_match(self, eps: float) -> int:
        return 1 if self.u_match < eps else 0

    def edge_uniform(self, slot: int) -> float:
        """Extra independent uniform, counter-split from the same key."""
        return _to_unit(mix64(self.key ^ (_TAG_EDGE + ((slot + 1) << 8))))


@dataclass(frozen=True)
class UpdateEvent:
    vertex: Vertex
    time: float
    randomness: UpdateRandomness


def event_uniforms(key: int) -> Tuple[float, float, float]:
    """(u_primary, u_refine, u_match) of the event with this key."""
    return (
        _to_unit(mix64(key ^ _TAG_PRIMARY)),
        _to_unit(mix64(key ^ _TAG_REFINE)),
        _to_unit(mix64(key ^ _TAG_MATCH)),
    )


def randomness_from_key(key: int) -> UpdateRandomness:
    return UpdateRandomness(*event_uniforms(key), key=key)


def window_blocks(t_start: float, t_end: float) -> Tuple[int, int]:
    """(first, last) unit time blocks meeting the window (t_start, t_end].

    Block b covers (-b-1, -b].
    """
    return max(0, math.floor(-t_end)), math.ceil(-t_start) - 1


def check_window(t_start: float, t_end: float) -> None:
    """Reject a time window (t_start, t_end] unless t_start <= t_end <= 0.

    Dynamics run from the past up to time 0; an empty window is legal.
    """
    if not t_start <= t_end <= 0:
        raise ValueError(f"need t_start <= t_end <= 0, got ({t_start}, {t_end}]")


def block_events(
    vkeys: Sequence[int],
    first_block: int,
    last_block: int,
    t_start: float,
    t_end: float,
) -> Tuple[array, array, array, array, array, array]:
    """All events of the given vertex keys on (t_start, t_end], unsorted.

    Each (vertex, block) pair draws a Poisson(1) count and that many
    uniform slot times inside the block; the event key folds (block,
    slot) into the vertex key.  Returns typed arrays (times, site index
    into ``vkeys``, keys, u_primary, u_refine, u_match), in site-major,
    block, slot order.
    """
    times, sidx, keys = array("d"), array("q"), array("Q")
    up, ur, um = array("d"), array("d"), array("d")
    for si, vkey in enumerate(vkeys):
        for block in range(first_block, last_block + 1):
            bkey = mix64(vkey ^ (block * 2 + 11))
            count = _poisson_unit(_to_unit(mix64(bkey ^ _TAG_COUNT)))
            for slot in range(count):
                t = -(block + _to_unit(mix64(bkey ^ (_TAG_TIME + ((slot + 1) << 8)))))
                if t_start < t <= t_end:
                    key = mix64(vkey ^ ((block << 8) | slot))
                    times.append(t)
                    sidx.append(si)
                    keys.append(key)
                    a, b, c = event_uniforms(key)
                    up.append(a)
                    ur.append(b)
                    um.append(c)
    return times, sidx, keys, up, ur, um


def event_stream(
    region: BoxRegion | Sequence[Vertex],
    t_start: float,
    t_end: float,
    seed: int,
    reseed: Optional[Mapping[Vertex, int]] = None,
) -> List[UpdateEvent]:
    """Ordered update events on region x (t_start, t_end].

    Unit-rate Poisson arrivals per vertex, deterministic in the seed.
    ``reseed`` swaps the master seed for selected vertices, which
    re-randomizes their whole event line (used by decoupling checks).
    """
    check_window(t_start, t_end)
    verts = region.vertices() if isinstance(region, BoxRegion) else list(region)
    vkeys = [
        vertex_key(seed if reseed is None else reseed.get(v, seed), v) for v in verts
    ]
    times, sidx, keys, up, ur, um = block_events(
        vkeys, *window_blocks(t_start, t_end), t_start, t_end
    )
    order = sorted(range(len(times)), key=times.__getitem__)
    return [
        UpdateEvent(
            vertex=verts[sidx[i]],
            time=times[i],
            randomness=UpdateRandomness(up[i], ur[i], um[i], key=keys[i]),
        )
        for i in order
    ]


# ---------------------------------------------------------------------------
# Digit arithmetic
# ---------------------------------------------------------------------------

MAX_DIGITS = 15


def digit_cell(x: float, k: int) -> int:
    """floor(10^k * x), exact for any binary float.

    Works on the integer pair returned by ``float.as_integer_ratio`` so
    boundary values never suffer float-flooring anomalies.
    """
    if not (0 <= k <= MAX_DIGITS):
        raise ValueError(f"digit depth k must be in [0, {MAX_DIGITS}]")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    p, q = float(x).as_integer_ratio()
    return (p * 10**k) // q


# ---------------------------------------------------------------------------
# Grand coupling
# ---------------------------------------------------------------------------


def monotone_inverse(
    cdf: Callable[[float], float], u: float, lower: float, upper: float
) -> float:
    """inf{x in [lower, upper] : cdf(x) >= u}, ties broken by infimum.

    The inverse-CDF grand coupling map at one uniform u.  Full-resolution
    bisection: deterministic, exactly monotone in u and monotone under
    pointwise domination of the (computed) CDF.
    """
    if not (0.0 <= u <= 1.0):
        raise ValueError("u must lie in [0, 1]")
    if cdf(lower) >= u:
        return lower
    lo, hi = lower, upper
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if cdf(mid) >= u:
            hi = mid
        else:
            lo = mid
    return hi
