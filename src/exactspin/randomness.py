"""Deterministic space-time event streams and the grand coupling.

Every random quantity is a pure function of a 64-bit master seed and
integer counters, so any sub-window of the space-time Poisson process
can be regenerated without storing events.  Arrival times come from
per-vertex, per-unit-time-block Poisson counts keyed by
(seed, vertex, block); restricting a stream to a smaller window yields
exactly the time-restriction of the larger stream.

``block_events`` is the one event generator.  It hashes the whole
(site x block) grid with numpy uint64 array operations and returns
numpy arrays; the engine sorts and steps through them and
``event_stream`` wraps the same events in ``UpdateEvent`` objects
holding Python values.  The scalar ``mix64`` serves single keys only:
vertex keys, edge uniforms and derived seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

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
    """Map 64 bits to a float in (0, 1]; only the top 53 bits all set
    round up to 1.0."""
    return ((bits >> 11) + 0.5) * (1.0 / (1 << 53))


def _mix(z: np.ndarray) -> np.ndarray:
    """``mix64`` over a uint64 array, in place (wrapping mod 2^64)."""
    z += _GOLDEN
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _unit(bits: np.ndarray) -> np.ndarray:
    """``_to_unit`` over a uint64 array, which it overwrites."""
    bits >>= 11
    u = bits.astype(np.float64)
    u += 0.5
    u *= 1.0 / (1 << 53)
    return u


def vertex_key(master: int, vertex: Vertex) -> int:
    """Fold the master seed and the vertex coordinates into one key."""
    h = mix64(master & _MASK)
    for c in vertex:
        h = mix64(h ^ (c & _MASK))
    return h


def _poisson_cdf() -> np.ndarray:
    """P(N <= k) for N ~ Poisson(1), k = 0..60, summed term by term."""
    p = math.exp(-1.0)
    cdf = [p]
    for k in range(1, 61):
        p /= k
        cdf.append(cdf[-1] + p)
    return np.array(cdf)


_POISSON_CDF = _poisson_cdf()


def _poisson_counts(u: np.ndarray) -> np.ndarray:
    """Inverse-CDF Poisson(1) draws, #{k : cdf[k] < u} (capped at 61;
    the sum reaches 1.0 at k = 18, so no u in (0, 1] gets near it)."""
    return np.searchsorted(_POISSON_CDF, u)


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


_EVENT_TAGS = (_TAG_PRIMARY, _TAG_REFINE, _TAG_MATCH)


def _event_uniforms(keys: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(u_primary, u_refine, u_match) arrays of the events with these keys."""
    return tuple(_unit(_mix(keys ^ tag)) for tag in _EVENT_TAGS)


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
) -> Tuple[np.ndarray, ...]:
    """All events of the given vertex keys on (t_start, t_end], unsorted.

    Each (vertex, block) pair draws a Poisson(1) count and that many
    uniform slot times inside the block; the event key folds (block,
    slot) into the vertex key.  Returns numpy arrays (times, site index
    into ``vkeys``, keys, u_primary, u_refine, u_match), in site-major,
    block, slot order.
    """
    # Each intermediate is updated in place and deleted once spent, so
    # the peak stays below that of sorting the six results.
    vk = np.array(vkeys, np.uint64)
    blocks = np.arange(first_block, last_block + 1, dtype=np.uint64)
    nblocks = blocks.size
    bkeys = _mix((vk[:, None] ^ (blocks * 2 + 11)).ravel())  # site-major
    counts = _poisson_counts(_unit(_mix(bkeys ^ _TAG_COUNT)))
    # one entry per slot: its (site, block) pair and its slot number
    pair = np.repeat(np.arange(bkeys.size), counts)
    first = np.cumsum(counts)
    first -= counts
    slot = np.arange(pair.size)
    slot -= np.repeat(first, counts)
    del counts, first
    slot = slot.view(np.uint64)
    # arrival time: -(block + unit(mix64(bkey ^ (TAG_TIME + ((slot + 1) << 8)))))
    h = slot + 1
    h <<= 8
    h += _TAG_TIME
    h ^= bkeys[pair]
    del bkeys
    times = _unit(_mix(h))
    del h
    times += blocks[pair % nblocks]
    np.negative(times, out=times)
    keep = (times > t_start) & (times <= t_end)
    times = times[keep]
    pair = pair[keep]
    slot = slot[keep]
    del keep
    # event key: mix64(vkey ^ ((block << 8) | slot))
    sidx, pair = np.divmod(pair, nblocks)
    keys = blocks[pair]
    del pair
    keys <<= 8
    keys |= slot
    del slot
    keys ^= vk[sidx]
    _mix(keys)
    return (times, sidx, keys, *_event_uniforms(keys))


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
    arrays = block_events(vkeys, *window_blocks(t_start, t_end), t_start, t_end)
    order = np.argsort(arrays[0], kind="stable")
    times, sidx, keys, up, ur, um = (a[order].tolist() for a in arrays)
    return [
        UpdateEvent(
            vertex=verts[si],
            time=t,
            randomness=UpdateRandomness(a, b, c, key=key),
        )
        for t, si, key, a, b, c in zip(times, sidx, keys, up, ur, um)
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
