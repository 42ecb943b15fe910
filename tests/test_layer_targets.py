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

from exactspin import engine
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
    lat = engine.SwmLattice(build_box(2, 2).vertices())
    res = engine.swm_sandwich(lat, 0.5, 2, 0.15, -4.0, 0.0, seed=3)
    assert calls["_gen_events"] >= 1 and calls["_swm_chunk"] >= 1
    assert res.event_count > 0
    assert len(draw_args) == 2 * res.event_count
    # the kernel runs as plain Python: numpy scalars would slow every draw
    assert all(type(x) is float for args in draw_args for x in args)
