"""The three benchmark workloads and the checks on their outputs.

One op is one ``cftp_sample`` call (``swm_cftp``, ``xy_cftp``) or one
mixed-cell evaluation through ``ThetaField.value`` (``swm_theta``).
Op inputs come from a ``random.Random`` seeded with the workload seed,
so the same seed always gives the same inputs, and the program sees
only those inputs.  Each op returns a canonical text record of its
output; floats are written with ``float.hex`` so that records, and the
digests made from them, compare bit for bit.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1

# sha256 over the records of the first ``digest_ops`` ops for
# DEFAULT_SEED.  A run with that seed fails when its digest differs.
EXPECTED_DIGESTS = {
    "swm_cftp": "9082e05f3a15b8c71dba77d57b5b7fab0d821115b81ecbbc075de8427f6b152c",
    "swm_theta": "271c746e8d7d486f51b741785090e7adc29dc4e2fe84aaadb2e1a8429e9fcda2",
    "xy_cftp": "3ca9d1cb312b7c9e0d5440b5f96c4dcd484deca0e4d01316e9c7f46d186f6adc",
}


class OutputError(Exception):
    """An op returned a value that breaks the program's contract."""


def import_package():
    """Import ``exactspin`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "exactspin" / "__init__.py").is_file():
        raise ImportError(f"no exactspin package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("exactspin")
    if Path(pkg.__file__).resolve().parent != SRC / "exactspin":
        raise ImportError(f"exactspin imported from {pkg.__file__}, not {SRC}")
    return pkg


def fresh_modules():
    """Drop every loaded ``exactspin`` module and import the layers again.

    Module-level work (tables, caches) is then redone, so a set-up that
    follows this pays the same cost as in a new process.
    """
    for name in [m for m in sys.modules if m == "exactspin" or m.startswith("exactspin.")]:
        del sys.modules[name]
    import_package()
    return {
        name: importlib.import_module(f"exactspin.{name}")
        for name in ("lattice", "randomness", "_scalar", "engine", "xy", "cftp", "coarse")
    }


def digest(records: List[str]) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.encode())
        h.update(b"\n")
    return h.hexdigest()


def _hex(x) -> str:
    return float(x).hex()


@dataclass
class CftpInput:
    seed: int
    t_max: float


@dataclass
class ThetaInput:
    field_seed: int
    cell: Tuple[int, Tuple[int, ...]]


class CftpWorkload:
    """``cftp_sample`` on a box, target the origin, one op per sample."""

    model: str
    radius: int
    beta: float
    boundary: object
    eps = 0.1
    t_max = 256.0
    d = 2
    digest_ops = 8

    def setup(self):
        """Digit calibration and the first lattice build, on fresh modules."""
        self.mods = fresh_modules()
        cftp = self.mods["cftp"]
        self.region = self.mods["lattice"].build_box(self.d, self.radius)
        self.target = [(0,) * self.d]
        self.k = cftp.required_digits(self.model, self.beta, self.d, self.eps)
        self._build_lattice()

    def inputs(self, seed: int) -> Iterator[CftpInput]:
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield CftpInput(rng.getrandbits(62), self.t_max)

    def run(self, inp: CftpInput) -> Tuple[bool, str]:
        """One sample; returns (failed, record)."""
        res = self.mods["cftp"].cftp_sample(
            self.region, self.target, self.model, self.beta, inp.seed,
            boundary=self.boundary, k=self.k, eps=self.eps, t_max=inp.t_max,
        )
        if res.timed_out:
            return True, "timeout"
        if set(res.certificate) != set(self.target) or any(
            t > res.window_t for t in res.certificate.values()
        ):
            raise OutputError(f"seed {inp.seed}: target not certified by t={res.window_t}")
        return False, f"{_hex(res.window_t)} " + self._encode(res.values)

    def verify_enlarged(self, inp: CftpInput, record: str) -> None:
        """Coalesced values cannot change when the window grows.

        Re-runs the sandwich over twice the certifying window and
        requires the target to be coalesced there with the same values.
        """
        cftp = self.mods["cftp"]
        t = 2.0 * float.fromhex(record.split(" ", 1)[0])
        window = cftp.auto_window(
            self.region, -t, 0.0, self.model, self.beta,
            eps=self.eps, boundary=self.boundary, k=self.k,
        )
        pair = cftp.sandwich_run(window, inp.seed)
        if not all(pair.coalesced(v) for v in self.target):
            raise OutputError(f"seed {inp.seed}: target not coalesced over [-{t}, 0]")
        values = self._pair_values(pair)
        if self._encode(values) != record.split(" ", 1)[1]:
            raise OutputError(f"seed {inp.seed}: values changed over [-{t}, 0]")


class SwmCftp(CftpWorkload):
    name = "swm_cftp"
    why = ("time to an exact SWM sample by CFTP doubling: event generation, "
           "sort and update loop on 169 sites, each window re-run")
    model = "swm"
    radius = 7
    beta = 0.32
    boundary = 1.0

    def _build_lattice(self):
        self.mods["engine"].SwmLattice(self.region.vertices())

    def _encode(self, values) -> str:
        out = []
        for v in self.target:
            x = values[v]
            if not -1.0 <= x <= 1.0:
                raise OutputError(f"spin {x} at {v} outside [-1, 1]")
            out.append(_hex(x))
        return " ".join(out)

    def _pair_values(self, pair):
        return {v: pair.top.values[v] for v in self.target}


class XyCftp(CftpWorkload):
    name = "xy_cftp"
    why = ("time to an exact XY sample on a 3x3 box: angle law, edge "
           "enumeration and triple copies, no array engine")
    model = "xy"
    radius = 2
    beta = 1.0
    boundary = "+1"

    def _build_lattice(self):
        self.mods["xy"].box_graph(self.region)

    def _encode(self, values) -> str:
        half_pi = math.pi / 2.0
        out = []
        for v in self.target:
            val = values[v]
            if not 0.0 <= val["alpha"] <= half_pi:
                raise OutputError(f"angle {val['alpha']} at {v} outside [0, pi/2]")
            bonds = list(val["omega"].values()) + list(val["eta"].values())
            if any(b not in (0, 1) for b in bonds):
                raise OutputError(f"bond state outside {{0, 1}} at {v}")
            out.append(json.dumps(
                [_hex(val["alpha"]), val["omega"], val["eta"]], sort_keys=True
            ))
        return " ".join(out)

    def _pair_values(self, pair):
        g = pair.top.graph
        return {
            v: {
                "alpha": pair.top.alpha[v],
                "omega": {str(e): pair.top.omega[e] for e in g.incident[v]},
                "eta": {str(e): pair.top.eta[e] for e in g.incident[v]},
            }
            for v in self.target
        }


class SwmTheta:
    """Mixed-cell bits of SWM theta fields, one op per cell."""

    name = "swm_theta"
    why = ("seconds per SWM coarse cell: many short sandwich runs at offsets "
           "with core monitoring and early exit, cached lattices, no doubling")
    digest_ops = 36

    def setup(self):
        """Calibration, then one cell on a fixed seed, on fresh modules.

        That cell builds the zone lattice and core mask, which the coarse
        layer caches for every later cell.
        """
        self.mods = fresh_modules()
        coarse = self.mods["coarse"]
        self.params = coarse.CoarseParams(model="swm", beta=0.1, d=2, L=2, delta=0.5)
        self.window = self.mods["lattice"].CellWindow(j_min=-3, j_max=0, x_radius=1, d=2)
        self.params.digits  # calibrates the digit depth
        coarse.cell_is_mixed((0, (0,) * self.params.d), self.params, 0)
        self._theta = None

    def inputs(self, seed: int) -> Iterator[ThetaInput]:
        rng = random.Random(f"{self.name}:{seed}")
        cells = self.window.cells()
        while True:
            field_seed = rng.getrandbits(62)
            for cell in cells:
                yield ThetaInput(field_seed, cell)

    def run(self, inp: ThetaInput) -> Tuple[bool, str]:
        theta = self._theta
        if theta is None or theta.seed != inp.field_seed or inp.cell in theta.values:
            theta = self.mods["coarse"].ThetaField(self.window, self.params, inp.field_seed)
            self._theta = theta
        bit = theta.value(inp.cell)
        if bit not in (0, 1):
            raise OutputError(f"cell {inp.cell}: bit {bit!r} is not 0 or 1")
        return False, str(bit)

    def verify_enlarged(self, inp, record) -> None:
        """A cell has no window to enlarge; the digest covers the bits."""


WORKLOADS = {w.name: w for w in (SwmCftp, SwmTheta, XyCftp)}
