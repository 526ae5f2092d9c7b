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

from .config import ExperimentConfig, load_config, parse_config
from .errors import ConfigError, KickflowError
from .experiments import run

__all__ = ["main", "build_parser"]

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors, not usage text."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The parser; its subcommands declare no defaults, see ``EXPERIMENT_OPTIONS``."""
    parser = _Parser(
        prog="kickflow",
        description="Kicked Navier-Stokes simulator and mixing diagnostics",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", help="override the output directory")
    sub = parser.add_subparsers(dest="experiment", required=True)

    p = sub.add_parser("simulate", help="integrate one kicked trajectory")
    p.add_argument("--u0", help="'zero', 'random:<seed>', or a field file path")
    p.add_argument("--kicks", type=int, help="number of unit kick intervals")

    p = sub.add_parser("linearize", help="assemble tangent operators for one kick")
    p.add_argument("--u0")
    p.add_argument("--kick", help="'seed:<n>' or a kick file path (default: seeded draw)")
    p.add_argument("--full", action="store_true",
                   help="also dump the dense psi2 and forcing-derivative matrices")

    p = sub.add_parser("couple", help="run the stabilised two-trajectory coupling")
    p.add_argument("--delta", type=float, help="squeezing threshold")
    p.add_argument("--steps", type=int)
    p.add_argument("--pairs", type=int)

    p = sub.add_parser("mix", help="ensemble mixing experiment")
    p.add_argument("--particles", type=int)
    p.add_argument("--kicks", type=int)
    p.add_argument("--compact",
                   help="'unit', 'r3', or a CSV of initial points for the second ensemble")
    p.add_argument("--checkpoint", help="write a checkpoint after each kick")
    p.add_argument("--resume", help="resume from a checkpoint file")

    p = sub.add_parser("noise-check", help="sampler moment and support diagnostics")
    p.add_argument("--draws", type=int)

    sub.add_parser("spectrum", help="dump the mode table and absorbing constants")
    return parser


def _experiment_config(args: dict) -> ExperimentConfig:
    """The config that the top-level arguments name; pops them from ``args``."""
    path = args.pop("config")
    ec = load_config(path) if path else parse_config("")
    seed, out = args.pop("seed"), args.pop("out")
    if seed is not None:
        ec.seed = seed
    if out is not None:
        ec.out_dir = out
    return ec


def _fail(exc: Exception, exit_code: int) -> int:
    """Report a failure as one JSON line on stderr and return its exit code."""
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": exit_code}
    print(json.dumps(record), file=sys.stderr)
    return exit_code


def main(argv=None) -> int:
    level = os.environ.get("KICKFLOW_LOG", "error").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = vars(build_parser().parse_args(argv))
        experiment = args.pop("experiment")
        ec = _experiment_config(args)
        # what is left are the subcommand's options; those not given are None
        manifest = run(ec, experiment, {name: v for name, v in args.items() if v is not None})
    except KickflowError as exc:
        return _fail(exc, exc.exit_code)
    except Exception as exc:
        logging.getLogger("kickflow").debug("unclassified failure", exc_info=True)
        return _fail(exc, 1)
    out = manifest.outputs[-1]["path"] if manifest.outputs else ec.out_dir
    print(f"{experiment}: ok ({manifest.wall_clock_s:.2f}s, outputs in "
          f"{os.path.dirname(out) or '.'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
