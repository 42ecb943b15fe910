"""The benchmark's layer tracer wraps exactspin attributes by name.

``perfbench/layertrace.py`` replaces each ``(module, attribute)`` of its
``LAYER_TARGETS`` while tracing; a renamed or moved attribute silently
reads 0 in the per-layer metrics, so every target must stay bound in the
module it names.  The engine's per-event targets must also be looked up
as module globals when called, or the wrappers never see a call.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from exactspin import cftp, engine, xy
from exactspin.lattice import build_box

_LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _layer_targets():
    spec = importlib.util.spec_from_file_location("_layertrace", _LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYER_TARGETS


@pytest.mark.parametrize("mod_name, attr", _layer_targets())
def test_layer_target_is_bound(mod_name, attr):
    owner = importlib.import_module(f"exactspin.{mod_name}")
    *path, name = attr.split(".")
    for part in path:
        owner = vars(owner)[part]
    assert name in vars(owner)


def _two_draw_chunk(shared):
    """``engine._swm_chunk`` as it was before lanes with equal neighbour
    sums shared a draw: two ``engine._swm_draw`` calls per event.  Adds
    the events whose lane sums agree to ``shared[0]``."""

    def chunk(lattice, top, bot, events, bsum_t, bsum_b, law, core, neq, check):
        nbrs = lattice.nbrs
        sig, tenk, w, eps, inv_deg = law
        for _, vi, up, ur, um in events:
            st = bsum_t[vi]
            sb = bsum_b[vi]
            for nj in nbrs[vi]:
                st += top[nj]
                sb += bot[nj]
            shared[0] += st == sb
            vt = engine._swm_draw(st * inv_deg, sig, tenk, w, eps, up, ur, um)[0]
            vb = engine._swm_draw(sb * inv_deg, sig, tenk, w, eps, up, ur, um)[0]
            assert vt >= vb
            if core[vi]:
                neq += (vt != vb) - (top[vi] != bot[vi])
            top[vi] = vt
            bot[vi] = vb
            if check and neq:
                return neq
        return neq

    return chunk


def test_traced_engine_attributes_are_called(monkeypatch):
    calls = {"_gen_events": 0, "_swm_chunk": 0}
    draw_args = []

    def counting(name):
        original = getattr(engine, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    draw = engine._swm_draw

    def counting_draw(*args):
        draw_args.append(args)
        return draw(*args)

    monkeypatch.setattr(engine, "_gen_events", counting("_gen_events"))
    monkeypatch.setattr(engine, "_swm_chunk", counting("_swm_chunk"))
    monkeypatch.setattr(engine, "_swm_draw", counting_draw)

    shared_total = [0]

    def check_draws(run):
        # one draw per lane, except one for both lanes where their sums
        # agree: the two-draw replay counts those events and must end on
        # the same lanes, bit for bit
        draw_args.clear()
        res = run()
        draws = len(draw_args)
        # the kernel runs as plain Python: numpy scalars would slow every draw
        assert all(type(x) is float for args in draw_args for x in args)
        shared = [0]
        draw_args.clear()
        with monkeypatch.context() as m:
            m.setattr(engine, "_swm_chunk", _two_draw_chunk(shared))
            ref = run()
        assert len(draw_args) == 2 * ref.event_count
        assert (ref.event_count, ref.mixed_ok) == (res.event_count, res.mixed_ok)
        assert ref.top.tobytes() == res.top.tobytes()
        assert ref.bot.tobytes() == res.bot.tobytes()
        assert draws == 2 * res.event_count - shared[0]
        shared_total[0] += shared[0]
        return res

    lat = engine.SwmLattice(build_box(2, 2).vertices())
    res = check_draws(lambda: engine.swm_sandwich(lat, 0.5, 2, 0.15, -4.0, 0.0, seed=3))
    assert calls["_gen_events"] >= 1 and calls["_swm_chunk"] >= 1
    assert res.event_count > 0
    # monitored runs count only the events they processed: seed 17 exits
    # with the core split at slab entry, seed 30 at its fourth in-slab
    # event, seed 18 runs through the slab
    lat = engine.SwmLattice(build_box(2, 4).vertices())
    core = lat.mask(lambda v: max(abs(c) for c in v) < 2)
    for seed, mixed in ((17, False), (30, False), (18, True)):
        res = check_draws(lambda: engine.swm_sandwich(
            lat, 0.05, 1, 0.1, -12.0, -2.0, seed=seed,
            core_mask=core, slab_lo=-4.0, offset=(8, -4)))
        assert res.mixed_ok is mixed
    assert shared_total[0] > 0  # 96 of the 1,311 events here


def _shared_events(window, seed):
    """Events at which the two lanes read the same update inputs, and bond
    fields (omega or eta) on which the lanes agree at every edge between
    free nodes off u's edges, found by stepping both lanes separately
    through the run's events."""
    graph = xy.box_graph(window.region)
    lo, hi = xy.xy_extremes(graph, window.beta, bc=window.boundary)
    shared = agreeing = 0
    for ev in cftp.event_stream(window.region, window.t_start, window.t_end, seed):
        u = ev.vertex
        g_hi, g_lo = xy._lane_groups(hi, u), xy._lane_groups(lo, u)
        shared += g_hi == g_lo and all(
            hi.alpha[v] == lo.alpha[v] for v in hi.graph.neighbors_of(u))
        off = [e for e in graph.edges if u not in e
               and not (graph.is_frozen[e[0]] or graph.is_frozen[e[1]])]
        for field in ("omega", "eta"):
            a, b = getattr(hi, field), getattr(lo, field)
            agreeing += all(a[e] == b[e] for e in off)
        uniforms = [ev.randomness.edge_uniform(s) for s in range(2 * len(graph.incident[u]))]
        xy.xy_full_update(hi, u, ev.randomness, window.k, window.eps, g_hi, uniforms)
        xy.xy_full_update(lo, u, ev.randomness, window.k, window.eps, g_lo, uniforms)
    return shared, agreeing, lo, hi


def test_traced_xy_attributes_are_called(monkeypatch):
    # perfbench reads the XY path through cftp.xy_full_update, xy._groups,
    # xy.AngleLawHandle.cdf_grid and xy.XyTriple.copy: neighbour groups
    # once per lane and bond field, except that the lower lane takes the
    # upper lane's groups of a field on which the lanes agree off u's
    # edges; one lane update per event and lane except at the events where
    # both lanes read the same inputs (one update there, copied), each in
    # place, and no triple copy in the loop.
    # It counts a grid build as a cdf_grid call on a handle without its
    # grid: the builds are the unmatched draws plus the matched draws
    # whose cell matched_cell could not certify
    window = cftp.auto_window(build_box(2, 2), -8.0, 0.0, "xy", 0.3, boundary="+1")
    shared, agreeing, lo_ref, hi_ref = _shared_events(window, seed=3)
    calls = {"xy_full_update": 0, "_groups": 0, "cdf_grid": 0, "copy": 0,
             "matched_cell": 0, "uncertified": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += name != "cdf_grid" or args[0]._cdf_grid is None
            out = original(*args, **kwargs)
            if name == "xy_full_update":
                assert out is args[0]  # the lane itself, updated in place
            calls["uncertified"] += name == "matched_cell" and out is None
            return out

        monkeypatch.setattr(owner, name, wrapper)

    counting(cftp, "xy_full_update")
    counting(xy, "_groups")
    counting(xy.AngleLawHandle, "cdf_grid")
    counting(xy.XyTriple, "copy")
    counting(xy.AngleLawHandle, "matched_cell")
    pair = cftp.sandwich_run(window, seed=3)
    assert 0 < shared < pair.event_count
    assert calls["xy_full_update"] == 2 * pair.event_count - shared
    assert 0 < agreeing < 2 * pair.event_count
    assert calls["_groups"] == 4 * pair.event_count - agreeing
    unmatched = calls["xy_full_update"] - calls["matched_cell"]
    assert 0 < unmatched < calls["matched_cell"]
    assert calls["cdf_grid"] == unmatched + calls["uncertified"]
    assert calls["copy"] == 0
    # the shared updates leave the lanes as two separate updates do
    for ref, lane in ((hi_ref, pair.top), (lo_ref, pair.bot)):
        assert [a.hex() for a in lane.alpha.values()] == [a.hex() for a in ref.alpha.values()]
        assert lane.omega == ref.omega and lane.eta == ref.eta


def test_pair_fields_called_once_per_swm_round(monkeypatch):
    # perfbench divides the time in _swm_pair_fields by its call count to
    # get ms per round; the function must stay a separate call made once
    # per SWM sandwich_run, with swm_sandwich called once beside it
    calls = {"_swm_pair_fields": 0, "swm_sandwich": 0}

    def counting(name):
        original = getattr(cftp, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cftp, "_swm_pair_fields", counting("_swm_pair_fields"))
    monkeypatch.setattr(cftp, "swm_sandwich", counting("swm_sandwich"))
    box = build_box(2, 3)
    for rounds, (t_start, boundary) in enumerate(
        [(-2.0, None), (-4.0, 0.5), (0.0, None)], start=1
    ):
        window = cftp.auto_window(box, t_start, 0.0, "swm", 0.5, boundary=boundary)
        cftp.sandwich_run(window, seed=rounds)
        assert calls == {"_swm_pair_fields": rounds, "swm_sandwich": rounds}
    res = cftp.cftp_sample(box, [(0, 0)], "swm", 0.5, seed=2, boundary=1.0)
    assert not res.timed_out
    assert calls["_swm_pair_fields"] == calls["swm_sandwich"] > 3
