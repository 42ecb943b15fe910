"""The ``exactspin`` command line.

    exactspin sample --model swm --d 2 --radius 7 --beta 0.32 --seed 1 --boundary 1

or, without installing, ``python -m exactspin.cli sample ...``.
``sample`` draws an exact sample at the centre of a box by CFTP
doubling (windows 1, 2, 4, ... into the past; see
:func:`exactspin.cftp.cftp_sample` for why a scan may start above 1)
and prints ``CftpResult.to_json()`` on one line; the exit code is 1
when the window cap ``--t-max`` is reached first.
"""

from __future__ import annotations

import argparse
import math
from typing import Optional, Sequence

from .cftp import MODEL_SWM, MODEL_XY, cftp_sample, check_boundary
from .lattice import build_box
from .xy import BC_PLUS_I, BC_PLUS_ONE


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _finite_at_least(low: float):
    """An argparse type: a finite float >= ``low``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"must be finite and >= {low:g}, got {text!r}")
        return value

    return parse


def _boundary(model: str, text: Optional[str]):
    """The frozen boundary of ``--boundary``, a number for SWM and a label for
    XY, if :func:`exactspin.cftp.check_boundary` admits it, else ValueError."""
    try:
        value = float(text) if model == MODEL_SWM and text is not None else text
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    check_boundary(model, value)
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="exactspin",
                                 description="Exact samples of lattice spin models.")
    sub = ap.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("sample", help="exact sample at the centre of a box, as JSON")
    sp.add_argument("--model", choices=(MODEL_SWM, MODEL_XY), default=MODEL_SWM)
    sp.add_argument("--d", type=_positive_int, default=2, help="lattice dimension")
    sp.add_argument("--radius", type=_positive_int, default=3, help="box radius")
    sp.add_argument("--beta", type=_finite_at_least(0.0), required=True,
                    help="inverse temperature, finite and >= 0")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--boundary", default=None,
                    help=f"frozen boundary (SWM: a spin value in [-1, 1]; XY: "
                         f"{BC_PLUS_ONE} or {BC_PLUS_I}, the annealed +-1 or +-i boundary: "
                         f"each contact's angle is fixed, its sign summed on its own); "
                         f"default: the extremal sandwich")
    sp.add_argument("--t-max", type=_finite_at_least(1.0), default=None,
                    help="longest window tried, finite and >= 1 (default: cftp_sample's)")
    args = ap.parse_args(argv)
    try:
        boundary = _boundary(args.model, args.boundary)
    except ValueError as err:
        sp.error(f"argument --boundary: {err}")
    opts = {} if args.t_max is None else {"t_max": args.t_max}
    res = cftp_sample(
        build_box(args.d, args.radius), [(0,) * args.d], args.model, args.beta,
        args.seed, boundary=boundary, **opts,
    )
    print(res.to_json())
    return 1 if res.timed_out else 0


if __name__ == "__main__":
    raise SystemExit(main())
