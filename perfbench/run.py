"""exactspin benchmark: time to an exact sample and seconds per coarse cell.

Run from the repository root:

    python3 perfbench/run.py --workload swm_cftp --seed 1 --seconds 35 --trace 0

Workloads are ``swm_cftp``, ``swm_theta`` and ``xy_cftp`` (see
``workloads.py`` and ``LAYERS.md``).  Everything runs in this process
on one thread, except the set-up probes, which are fresh interpreters
run one after another.  With ``--trace 0`` the run reports the
end-to-end metrics, corrected for machine speed (see ``speed.py``).
With ``--trace 1`` it runs each op twice, untraced and then with every
layer wrapped, and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
The exit code is 0 for a correct run, 1 when an output check fails and
2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import List, Set

import numpy

import speed
import workloads as W
from layertrace import Tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.gen_events.us_per_event": "us/event",
    "engine.events": "events/op",
    "engine.sandwich_self.us_per_event": "us/event",
    "engine.swm_chunk_self.us_per_event": "us/event",
    "scalar.swm_draw.matched.us_per_call": "us/call",
    "scalar.swm_draw.unmatched.us_per_call": "us/call",
    "scalar.swm_draw.matched_frac": "ratio",
    "scalar.swm_draw.calls": "calls/op",
    "cftp.rounds_per_op": "rounds/op",
    "cftp.useful_event_frac": "ratio",
    "cftp.pair_fields.ms_per_round": "ms/round",
    "coarse.cell.events": "events/cell",
    "coarse.mixed_frac": "ratio",
    "engine.lattice_build.s": "s/op",
    "randomness.event_stream.us_per_event": "us/event",
    "xy.full_update.us_per_call": "us/call",
    "xy.angle_update.us_per_call": "us/call",
    "xy.angle_law.us_per_call": "us/call",
    "xy.cdf_grid.builds": "builds/op",
    "xy.cdf_grid.us_per_build": "us/build",
    "xy.edge_update.us_per_call": "us/call",
    "xy.open_prob.calls": "calls/op",
    "xy.open_prob.us_per_call": "us/call",
    "xy.groups.us_per_call": "us/call",
    "xy.triple_copy.us_per_call": "us/call",
    "lattice.box_graph.ms": "ms/call",
    "trace_overhead_frac": "ratio",
}


@dataclass
class Pass:
    """The ops of one timed pass: inputs, wall times and output records.

    ``refs`` holds the reference-kernel time before each op and, at the
    end, after the last one.
    """

    inputs: list = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    records: List[str] = field(default_factory=list)
    failed: Set[int] = field(default_factory=set)
    refs: List[float] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.times)

    def corrected(self) -> List[float]:
        """Op times at the nominal machine speed (see ``speed``)."""
        return [
            t * speed.REFERENCE_S / (0.5 * (a + b))
            for t, a, b in zip(self.times, self.refs, self.refs[1:])
        ]


def run_op(wl, i: int, inp, p: Pass, tracer=None) -> None:
    """Run op ``i`` once and append its time and record to ``p``.

    An op that times out or raises counts as failed and the run goes
    on; an ``OutputError`` (a wrong answer) ends the run.
    """
    t0 = perf_counter()
    try:
        if tracer is None:
            bad, rec = wl.run(inp)
        else:
            with tracer.op_span(i):
                bad, rec = wl.run(inp)
    except W.OutputError:
        raise
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        bad, rec = True, f"error {type(exc).__name__}"
    p.times.append(perf_counter() - t0)
    p.inputs.append(inp)
    p.records.append(rec)
    if bad:
        p.failed.add(i)


def measure(wl, inputs, seconds: float, min_ops: int, between=None) -> Pass:
    """Run ops until they have taken ``seconds`` and at least ``min_ops`` ran.

    ``between(busy)`` runs before each op, off the op clock.
    """
    p = Pass()
    for i, inp in enumerate(inputs):
        if i >= min_ops and p.busy >= seconds:
            break
        if between is not None:
            between(p.busy)
        p.refs.append(speed.reference())
        run_op(wl, i, inp, p)
    p.refs.append(speed.reference())
    return p


def setup_probe(workload: str):
    """(raw, corrected) set-up seconds from one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=W.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    raw, ref_before, ref_after = map(float, out.stdout.split()[-3:])
    return raw, raw * speed.REFERENCE_S / (0.5 * (ref_before + ref_after))


def machine_line() -> str:
    numba_state = "present" if importlib.util.find_spec("numba") else "absent"
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((W.SRC / "exactspin").glob("*.py"))
    )
    v = sys.version_info
    return (
        f"machine nproc={os.cpu_count()} python={v.major}.{v.minor}.{v.micro} "
        f"numpy={numpy.__version__} numba={numba_state} src_lines={src_lines}"
    )


def check_digest(name: str, seed: int, records: List[str], n: int) -> bool:
    got = W.digest(records[:n])
    want = W.EXPECTED_DIGESTS.get(name) if seed == W.DEFAULT_SEED else None
    if want is None:
        print(f"digest {got} over the first {n} ops (none committed for seed {seed})")
        return True
    ok = got == want
    print(f"digest {got} over the first {n} ops: {'matches' if ok else 'DIFFERS FROM'} "
          f"the committed {want}")
    return ok


def percentile_90(times: List[float]) -> float:
    return statistics.quantiles(times, n=10)[-1]


def timed_run(wl, seed: int, seconds: float):
    """End-to-end metrics, corrected for machine speed (see ``speed``).

    The set-up probes are spread over the run, so that their median,
    like the op times, covers the whole run.
    """
    setups = []

    def probe(busy: float) -> None:
        if len(setups) < SETUP_PROBES and busy >= seconds * len(setups) / SETUP_PROBES:
            setups.append(setup_probe(wl.name))

    p = measure(wl, wl.inputs(seed), seconds, wl.digest_ops, between=probe)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(wl.name))
    if 0 not in p.failed:
        wl.verify_enlarged(p.inputs[0], p.records[0])
    n = len(p.times)
    ok_ops = n - len(p.failed)
    times = p.corrected()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(c for _, c in setups),
        "op_s_p50": statistics.median(times),
        "op_s_p90": percentile_90(times),
        "ops_per_s": ok_ops / sum(times),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(r for r, _ in setups),
        "op_s_p50": statistics.median(p.times),
        "op_s_p90": percentile_90(p.times),
        "ops_per_s": ok_ops / p.busy,
    }
    print(f"speed factor {statistics.median(p.refs) / speed.REFERENCE_S:.4f} "
          f"(median reference time / nominal, {len(p.refs)} references)")
    print(f"setup_s {metrics['setup_s']:.6f} s (median of {SETUP_PROBES} fresh "
          f"interpreters; raw {raw['setup_s']:.6f} s)")
    print(f"op_s_p50 {metrics['op_s_p50']:.6f} s (n={n} ops; raw {raw['op_s_p50']:.6f} s)")
    print(f"op_s_p90 {metrics['op_s_p90']:.6f} s (n={n} ops, "
          f"{sum(t > metrics['op_s_p90'] for t in times)} beyond; "
          f"raw {raw['op_s_p90']:.6f} s)")
    print(f"ops_per_s {metrics['ops_per_s']:.6f} 1/s ({ok_ops} ops; "
          f"raw {raw['ops_per_s']:.6f} 1/s over {p.busy:.3f} s of ops)")
    print(f"fail_frac {len(p.failed) / n:.6f} ({len(p.failed)} of {n} ops failed)")
    print(f"peak_rss_mb {peak_rss_mb:.3f} MB")
    correct = check_digest(wl.name, seed, p.records, wl.digest_ops)
    return correct, n, len(p.failed), metrics, END_TO_END_UNITS


def traced_run(wl, seed: int, seconds: float):
    """Each op runs untraced, then again under the tracer, in turn.

    Pairing the two runs of an op keeps drift in machine speed out of
    ``trace_overhead_frac``.
    """
    tracer = Tracer(wl.mods)
    plain, traced = Pass(), Pass()
    start = perf_counter()
    for i, inp in enumerate(wl.inputs(seed)):
        if i >= wl.digest_ops and perf_counter() - start >= seconds:
            break
        run_op(wl, i, inp, plain)
        with tracer:
            run_op(wl, i, inp, traced, tracer)
    if 0 not in plain.failed:
        wl.verify_enlarged(plain.inputs[0], plain.records[0])
    for key in tracer.missing:
        print(f"not traced: {key} is absent")
    n = len(traced.times)
    metrics = tracer.metrics(n, traced.failed)
    metrics["trace_overhead_frac"] = sum(traced.times) / sum(plain.times) - 1.0
    for name, (count, total, self_s) in sorted(tracer.span_summary().items()):
        print(f"span {name}: {count} spans, {total:.6f} s total, {self_s:.6f} s self")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {PER_LAYER_UNITS[name]}")
    same = traced.records == plain.records
    print(f"traced outputs {'equal' if same else 'DIFFER FROM'} the untraced outputs "
          f"({n} ops)")
    correct = check_digest(wl.name, seed, plain.records, wl.digest_ops) and same
    return correct, n, len(traced.failed), metrics, PER_LAYER_UNITS


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        W.import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]()
    t0 = perf_counter()
    wl.setup()
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(machine_line())
    print(f"setup_in_process_s {perf_counter() - t0:.6f} s (first set-up, this process)")
    run = traced_run if args.trace else timed_run
    try:
        correct, attempted, failed, metrics, units = run(wl, args.seed, args.seconds)
    except W.OutputError as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
