"""Per-layer tracing by wrapping exactspin's module attributes from outside.

``Tracer`` replaces the layer entry points named in ``LAYER_TARGETS``
with timing wrappers while it is entered and puts the originals back
when it exits.  Op, round (one ``sandwich_run``) and sandwich (one
``swm_sandwich``) calls are kept as spans; the per-event kernels keep
only a call count and a total time, because a span per event would
cost more than the event.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List

# (module, attribute) pairs the tracer wraps; a dotted attribute names
# a method of a class in that module.
LAYER_TARGETS = [
    ("engine", "_gen_events"),
    ("engine", "_swm_chunk"),
    ("engine", "_swm_draw"),
    ("cftp", "sandwich_run"),
    ("cftp", "swm_sandwich"),
    ("cftp", "SwmLattice"),
    ("cftp", "_swm_pair_fields"),
    ("cftp", "xy_full_update"),
    ("cftp", "event_stream"),
    ("cftp", "box_graph"),
    ("coarse", "cell_is_mixed"),
    ("coarse", "swm_sandwich"),
    ("coarse", "SwmLattice"),
    ("xy", "xy_angle_update"),
    ("xy", "xy_angle_law"),
    ("xy", "xy_edge_update"),
    ("xy", "_groups"),
    ("xy", "_conditional_open_prob"),
    ("xy", "AngleLawHandle.cdf_grid"),
    ("xy", "XyTriple.copy"),
]


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "events")

    def __init__(self, name, op, parent, start):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.events = 0


class Tracer:
    """Counts and times calls into each layer while entered."""

    def __init__(self, mods: Dict[str, object]):
        self.mods = mods
        self.calls: Dict[str, int] = defaultdict(int)
        self.secs: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self._saved = []
        self.missing: List[str] = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        self.missing = []
        for mod_name, attr in LAYER_TARGETS:
            owner = self.mods[mod_name]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            key = f"{mod_name}.{attr}"
            if owner is None or name not in vars(owner):
                self.missing.append(key)  # the layer was renamed; its metrics read 0
                continue
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(key, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False

    def _wrap(self, key, fn):
        special = {
            "engine._gen_events": self._counted(lambda out: out[0].size),
            "engine._swm_draw": self._swm_draw,
            "cftp.sandwich_run": self._spanned("round"),
            "cftp.swm_sandwich": self._spanned("sandwich"),
            "coarse.swm_sandwich": self._spanned("sandwich"),
            "cftp.event_stream": self._counted(len),
            "coarse.cell_is_mixed": self._counted(int),
            "xy.AngleLawHandle.cdf_grid": self._cdf_grid,
        }
        return special.get(key, self._timed)(key, fn)

    # -- spans ------------------------------------------------------------

    def _push(self, name, op=None):
        parent = self._open[-1] if self._open else None
        span = Span(name, parent.op if op is None else op, parent, perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def _pop(self, span):
        span.end = perf_counter()
        self._open.pop()

    @contextmanager
    def op_span(self, index: int):
        """Marks one op; the rounds and sandwiches it calls nest in it."""
        span = self._push("op", op=index)
        try:
            yield span
        finally:
            self._pop(span)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, key, fn):
        calls, secs = self.calls, self.secs

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                secs[key] += perf_counter() - t0
                calls[key] += 1

        return wrapper

    def _counted(self, count_of):
        """Timed, and ``counts[key]`` adds ``count_of(result)``."""

        def make(key, fn):
            timed = self._timed(key, fn)
            counts = self.counts

            def wrapper(*args, **kwargs):
                out = timed(*args, **kwargs)
                counts[key] += count_of(out)
                return out

            return wrapper

        return make

    def _swm_draw(self, key, fn):
        calls, secs = self.calls, self.secs

        def wrapper(*args):
            t0 = perf_counter()
            out = fn(*args)
            branch = "matched" if out[2] else "unmatched"
            secs[branch] += perf_counter() - t0
            calls[branch] += 1
            return out

        return wrapper

    def _spanned(self, name):
        """A span per call, holding the events of the run it returns."""

        def make(key, fn):
            counted = self._counted(lambda out: out.event_count)(key, fn)

            def wrapper(*args, **kwargs):
                span = self._push(name)
                try:
                    out = counted(*args, **kwargs)
                    span.events = out.event_count
                    return out
                finally:
                    self._pop(span)

            return wrapper

        return make

    def _cdf_grid(self, key, fn):
        timed = self._timed(key, fn)

        def wrapper(handle):
            if handle._cdf_grid is not None:
                return fn(handle)
            return timed(handle)

        return wrapper

    # -- metrics ----------------------------------------------------------

    def metrics(self, ops: int, failed_ops) -> Dict[str, float]:
        """Per-layer metrics over ``ops`` traced ops.

        ``failed_ops`` holds the indices of ops that failed; their last
        round certified nothing.  A ratio whose base is 0 reads 0.
        """
        c, s, n = self.calls, self.secs, self.counts

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        events = n["engine._gen_events"]
        sandwich_s = s["cftp.swm_sandwich"] + s["coarse.swm_sandwich"]
        draw_calls = c["matched"] + c["unmatched"]
        rounds = [sp for sp in self.spans if sp.name == "round"]
        last_round = {sp.op: sp for sp in rounds}
        useful = sum(sp.events for op, sp in last_round.items() if op not in failed_ops)
        swm_rounds = c["cftp._swm_pair_fields"]
        return {
            "engine.gen_events.us_per_event": ratio(s["engine._gen_events"], events, 1e6),
            "engine.events": ratio(events, ops),
            "engine.sandwich_self.us_per_event": ratio(
                sandwich_s - s["engine._gen_events"] - s["engine._swm_chunk"], events, 1e6),
            "engine.swm_chunk_self.us_per_event": ratio(
                s["engine._swm_chunk"] - s["matched"] - s["unmatched"], events, 1e6),
            "scalar.swm_draw.matched.us_per_call": ratio(s["matched"], c["matched"], 1e6),
            "scalar.swm_draw.unmatched.us_per_call": ratio(s["unmatched"], c["unmatched"], 1e6),
            "scalar.swm_draw.matched_frac": ratio(c["matched"], draw_calls),
            "scalar.swm_draw.calls": ratio(draw_calls, ops),
            "cftp.rounds_per_op": ratio(len(rounds), ops),
            "cftp.useful_event_frac": ratio(useful, sum(sp.events for sp in rounds)),
            "cftp.pair_fields.ms_per_round": ratio(s["cftp._swm_pair_fields"], swm_rounds, 1e3),
            "coarse.cell.events": ratio(n["coarse.swm_sandwich"], c["coarse.cell_is_mixed"]),
            "coarse.mixed_frac": ratio(n["coarse.cell_is_mixed"], c["coarse.cell_is_mixed"]),
            "engine.lattice_build.s": ratio(s["cftp.SwmLattice"] + s["coarse.SwmLattice"], ops),
            "randomness.event_stream.us_per_event": ratio(
                s["cftp.event_stream"], n["cftp.event_stream"], 1e6),
            "xy.full_update.us_per_call": ratio(s["cftp.xy_full_update"], c["cftp.xy_full_update"], 1e6),
            "xy.angle_update.us_per_call": ratio(s["xy.xy_angle_update"], c["xy.xy_angle_update"], 1e6),
            "xy.angle_law.us_per_call": ratio(s["xy.xy_angle_law"], c["xy.xy_angle_law"], 1e6),
            "xy.cdf_grid.builds": ratio(c["xy.AngleLawHandle.cdf_grid"], ops),
            "xy.cdf_grid.us_per_build": ratio(
                s["xy.AngleLawHandle.cdf_grid"], c["xy.AngleLawHandle.cdf_grid"], 1e6),
            "xy.edge_update.us_per_call": ratio(s["xy.xy_edge_update"], c["xy.xy_edge_update"], 1e6),
            "xy.open_prob.calls": ratio(c["xy._conditional_open_prob"], ops),
            "xy.open_prob.us_per_call": ratio(
                s["xy._conditional_open_prob"], c["xy._conditional_open_prob"], 1e6),
            "xy.groups.us_per_call": ratio(s["xy._groups"], c["xy._groups"], 1e6),
            "xy.triple_copy.us_per_call": ratio(s["xy.XyTriple.copy"], c["xy.XyTriple.copy"], 1e6),
            "lattice.box_graph.ms": ratio(s["cftp.box_graph"], c["cftp.box_graph"], 1e3),
        }

    def span_summary(self) -> Dict[str, List[float]]:
        """{span name: [count, total seconds, self seconds]}."""
        out: Dict[str, List[float]] = {}
        child_time: Dict[int, float] = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[id(sp.parent)] += sp.end - sp.start
        for sp in self.spans:
            row = out.setdefault(sp.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += sp.end - sp.start
            row[2] += sp.end - sp.start - child_time[id(sp)]
        return out
