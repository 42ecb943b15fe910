"""The benchmark's layer tracer wraps exactspin attributes by name.

``perfbench/layertrace.py`` replaces each ``(module, attribute)`` of its
``LAYER_TARGETS`` while tracing; a renamed or moved attribute silently
reads 0 in the per-layer metrics, so every target must stay bound in the
module it names.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
