"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_units_and_limits():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_spec_matches_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == sorted(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    for w in spec["workloads"]:
        assert w["why"] == W.WORKLOADS[w["name"]].why


def test_forced_timeout_counts_as_failed(capsys):
    W.import_package()
    wl = W.WORKLOADS["swm_cftp"]()
    wl.setup()
    wl.t_max = 0.5  # below the first doubling window: every op times out
    correct, attempted, failed, metrics, _ = run.timed_run(wl, seed=12345, seconds=0.0)
    assert correct
    assert attempted == failed == wl.digest_ops
    assert metrics["ops_per_s"] == 0.0
    assert f"fail_frac 1.000000 ({failed} of {attempted} ops failed)" in capsys.readouterr().out


def test_tracer_restores_every_attribute():
    W.import_package()
    wl = W.WORKLOADS["xy_cftp"]()
    wl.setup()

    def current():
        out = []
        for mod_name, attr in layertrace.LAYER_TARGETS:
            owner = wl.mods[mod_name]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            out.append(vars(owner)[name])
        return out

    before = current()
    with layertrace.Tracer(wl.mods) as tracer:
        assert all(a is not b for a, b in zip(current(), before))
        with tracer.op_span(0):
            wl.run(next(wl.inputs(3)))
    assert all(a is b for a, b in zip(current(), before))
    assert tracer.calls["cftp.xy_full_update"] > 0


def _digest_line(workload, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    (line,) = [ln for ln in out.stdout.splitlines() if ln.startswith("digest ")]
    return line


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_two_invocations_give_the_same_digest(workload):
    assert _digest_line(workload, 1) == _digest_line(workload, 2)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "swm_cftp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
