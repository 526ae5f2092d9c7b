"""Command-line entry point.

Subcommands map one-to-one onto the experiments; failures are reported
as a JSON record on stderr with a stable exit code per error class.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .config import EXPERIMENTS, ExperimentConfig, load_config, parse_config
from .errors import KickflowError
from .experiments import run

__all__ = ["main", "build_parser"]

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickflow",
        description="Kicked Navier-Stokes simulator and mixing diagnostics",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", help="override the output directory")
    sub = parser.add_subparsers(dest="experiment", required=True)

    p = sub.add_parser("simulate", help="integrate one kicked trajectory")
    p.add_argument("--u0", default="zero",
                   help="'zero', 'random:<seed>', or a field file path")
    p.add_argument("--kicks", type=int, default=10, help="number of unit kick intervals")

    p = sub.add_parser("linearize", help="assemble tangent operators for one kick")
    p.add_argument("--u0", default="random:0")
    p.add_argument("--kick", default=None,
                   help="'seed:<n>' or a kick file path (default: seeded draw)")
    p.add_argument("--full", action="store_true",
                   help="also dump the dense psi2 and forcing-derivative matrices")

    p = sub.add_parser("couple", help="run the stabilised two-trajectory coupling")
    p.add_argument("--delta", type=float, default=None, help="squeezing threshold")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--pairs", type=int, default=1)

    p = sub.add_parser("mix", help="ensemble mixing experiment")
    p.add_argument("--particles", type=int, default=512)
    p.add_argument("--kicks", type=int, default=25)
    p.add_argument("--compact", default="r3",
                   help="'unit', 'r3', or a CSV of initial points for the second ensemble")
    p.add_argument("--checkpoint", default=None, help="write a checkpoint after each kick")
    p.add_argument("--resume", default=None, help="resume from a checkpoint file")

    p = sub.add_parser("noise-check", help="sampler moment and support diagnostics")
    p.add_argument("--draws", type=int, default=1_000_000)

    sub.add_parser("spectrum", help="dump the mode table and absorbing constants")
    return parser


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        ec = load_config(args.config)
    else:
        ec = parse_config("")
    ec.experiment = args.experiment
    if ec.experiment not in EXPERIMENTS:
        raise AssertionError(f"unreachable: {ec.experiment}")
    if args.seed is not None:
        ec.seed = args.seed
    if args.out is not None:
        ec.out_dir = args.out
    return ec


def _options(args: argparse.Namespace) -> dict:
    opts = {}
    for name in ("u0", "kicks", "kick", "full", "delta", "steps", "pairs",
                 "particles", "compact", "checkpoint", "resume", "draws"):
        if hasattr(args, name) and getattr(args, name) is not None:
            opts[name] = getattr(args, name)
    return opts


def _fail(exc: Exception, exit_code: int) -> int:
    """Report a failure as one JSON line on stderr and return its exit code."""
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": exit_code}
    print(json.dumps(record), file=sys.stderr)
    return exit_code


def main(argv=None) -> int:
    level = os.environ.get("KICKFLOW_LOG", "error").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        ec = _experiment_config(args)
        manifest = run(ec, _options(args))
    except KickflowError as exc:
        return _fail(exc, exc.exit_code)
    except Exception as exc:
        logging.getLogger("kickflow").debug("unclassified failure", exc_info=True)
        return _fail(exc, 1)
    out = manifest.outputs[-1]["path"] if manifest.outputs else ec.out_dir
    print(f"{ec.experiment}: ok ({manifest.wall_clock_s:.2f}s, outputs in "
          f"{os.path.dirname(out) or '.'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
