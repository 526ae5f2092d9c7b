"""kickflow benchmark: four workloads, end-to-end metrics, traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

The package is used from the checkout's ``src`` without installing it.
A run repeats whole rounds of its workload for about S seconds, each
round with fresh inputs drawn from (N, round).  Every operation of a round is a fresh interpreter
(``bench/child.py``): a CLI experiment, or the distance layer called
through the public API.  Each round's outputs are checked against
``bench/checks.py``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics (medians over rounds) with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Outputs go to a temporary
directory under ``.bench_out/`` that is removed at the end; a summary of
the run is kept as ``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

STARTED = time.monotonic()  # a run's --seconds are counted from here

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HARD_LIMIT_S = 165.0  # children are killed past this, to exit within 180 s

# Fixed problem sizes (ROADMAP): K = 55, dt = 1e-3, N = 512 particles.
# Run length comes from these counts, never from a smaller problem.
TRAJECTORY_KICKS = 200
COUPLE_STEPS = 2  # the pair distance underflows 1e-14 after about 27 steps
MIX_PARTICLES, MIX_KICKS = 512, 1
STAT_SNAPSHOTS, STAT_BURN_IN, STAT_PARTICLES, STAT_DIRECTIONS = 10, 2, 512, 1
FD_COLUMNS = (0, 1, 27, 54)
REPLAY_PARTICLES = 3  # per ensemble

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "units/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
TRACED_FUNCTIONS = (
    "basis.grid_operators",
    "noise.sample_kick", "noise.kick_rng",
    "dynamics.flow", "dynamics.energy_identity_residual", "dynamics.advance_columns",
    "linearization.linearize_kick", "linearization.psi_split", "linearization.assemble_gram",
    "linearization.tangent_apply", "linearization.compactness_diagnostic",
    "stabilisation.tune", "stabilisation.epsilon_check", "stabilisation.phi",
    "stabilisation.couple",
    "ergodicity.ensemble_step", "ergodicity.bl_distance_1d",
    "ergodicity.dual_lipschitz_lower", "ergodicity.krylov_average",
    "experiments.run", "experiments.checkpoint_save",
)
PER_LAYER = {
    "cli.import_s": "s",
    **{f"{fn}.{key}": unit for fn in TRACED_FUNCTIONS
       for key, unit in (("calls", "count"), ("self_s", "s"))},
    "dynamics.advance_columns.columns": "count",
    "ergodicity.bl_distance_1d.points": "count",
    "dynamics.nonlinearity_1col_us": "us",
    "dynamics.nonlinearity_512col_ms": "ms",
    "experiments.output_bytes": "bytes",
    "trace.overhead_s": "s",
}
COUNTED = {"dynamics.advance_columns.columns": "dynamics.advance_columns",
           "ergodicity.bl_distance_1d.points": "ergodicity.bl_distance_1d"}

if not (SRC / "kickflow" / "__init__.py").is_file():
    sys.exit(f"bench: no kickflow package under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import kickflow  # noqa: E402
import tracing  # noqa: E402


@dataclass
class Op:
    """One operation: a fresh interpreter running ``child.py MODE ARGS``."""

    mode: str
    args: list


def seeded_rng(seed: int, tag: int):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag,)))


def seeded_field(rng) -> np.ndarray:
    """A field with a (1 + alpha)^(-1/2) spectrum and |u| uniform in [1, 3]."""
    u = rng.standard_normal(checks.SPEC.n_modes) / np.sqrt(1.0 + checks.stokes_alphas())
    return u * (rng.uniform(1.0, 3.0) / np.linalg.norm(u))


def seeded_kick(rng):
    """A kick inside the support: amplitude b times uniform [-1, 1] coordinates."""
    b = checks.kick_amplitudes()
    return kickflow.KickPath(b * rng.uniform(-1.0, 1.0, b.shape))


def cli(seed: int, out: Path, *args) -> Op:
    return Op("cli", ["--seed", str(seed), "--out", str(out), *map(str, args)])


class Trajectory:
    """simulate: the single-state stepper, one kick per unit of work."""

    units = TRAJECTORY_KICKS

    def __init__(self, seed: int, inputs: Path):
        self.seed = seed
        self.u0 = seeded_field(seeded_rng(seed, 1))
        self.u0_path = inputs / "u0.field"
        kickflow.save_field(self.u0, self.u0_path)

    def ops(self, rd: Path) -> list[Op]:
        return [cli(self.seed, rd / "simulate", "simulate", "--u0", self.u0_path,
                    "--kicks", TRAJECTORY_KICKS)]

    def check(self, rd: Path) -> None:
        checks.trajectory(rd / "simulate", self.u0, TRAJECTORY_KICKS)


class Coupling:
    """linearize --full, then couple with tuning: one unit per linearisation."""

    units = 1 + 1 + COUPLE_STEPS  # linearize, tune's base kick, one per step

    def __init__(self, seed: int, inputs: Path):
        self.seed = seed
        rng = seeded_rng(seed, 2)
        self.u0, self.eta = seeded_field(rng), seeded_kick(rng)
        self.u0_path, self.kick_path = inputs / "u0.field", inputs / "eta.kick"
        kickflow.save_field(self.u0, self.u0_path)
        kickflow.save_kick(self.eta, self.kick_path)

    def ops(self, rd: Path) -> list[Op]:
        return [cli(self.seed, rd / "linearize", "linearize", "--u0", self.u0_path,
                    "--kick", self.kick_path, "--full"),
                cli(self.seed, rd / "couple", "couple", "--steps", COUPLE_STEPS)]

    def check(self, rd: Path) -> None:
        checks.coupling(rd / "linearize", rd / "couple", self.u0, self.eta, COUPLE_STEPS,
                        FD_COLUMNS)


class Mixing:
    """mix at N = 512 with a checkpoint per kick: one unit per particle-kick."""

    units = 2 * MIX_PARTICLES * MIX_KICKS

    def __init__(self, seed: int, inputs: Path):
        self.seed = seed
        self.sample = seeded_rng(seed, 3).choice(MIX_PARTICLES, REPLAY_PARTICLES, replace=False)

    def ops(self, rd: Path) -> list[Op]:
        return [cli(self.seed, rd / "mix", "mix", "--particles", MIX_PARTICLES,
                    "--kicks", MIX_KICKS, "--compact", "r3", "--checkpoint", rd / "mix.ckpt")]

    def check(self, rd: Path) -> None:
        checks.mixing(rd / "mix", rd / "mix.ckpt", self.seed, MIX_PARTICLES, MIX_KICKS,
                      self.sample)


class Stationary:
    """Krylov averages of two synthetic histories, their distance at ~8k pooled
    points and split-half floors at ~4k: one unit per 1D distance."""

    units = 3 * STAT_DIRECTIONS

    def __init__(self, seed: int, inputs: Path):
        rng = seeded_rng(seed, 4)
        scale = 0.3 / (1.0 + checks.stokes_alphas())
        shape = (STAT_SNAPSHOTS, STAT_PARTICLES, scale.size)
        self.hist_a = rng.standard_normal(shape) * scale
        self.hist_b = rng.standard_normal(shape) * (1.15 * scale)
        self.hist_b[..., 0] += 0.01
        d = rng.standard_normal((STAT_DIRECTIONS, scale.size)) * scale
        self.directions = d / np.linalg.norm(d, axis=1, keepdims=True)
        self.inputs = inputs / "histories.npz"
        np.savez(self.inputs, hist_a=self.hist_a, hist_b=self.hist_b, burn_in=STAT_BURN_IN,
                 directions=self.directions, clamp_radius=1.0)

    def ops(self, rd: Path) -> list[Op]:
        return [Op("stationary", [str(self.inputs), str(rd / "stationary.json")])]

    def check(self, rd: Path) -> None:
        self.result = json.loads((rd / "stationary.json").read_text())
        checks.stationary(self.result, self.hist_a, self.hist_b, STAT_BURN_IN,
                          self.directions, 1.0)

    def final_check(self) -> None:
        """Once per run: symmetry, self-distance and the point-mass closed form."""
        checks.distance_properties(self.result["floors"][0], self.hist_a, STAT_BURN_IN,
                                   self.directions, 1.0)


WORKLOADS = {"trajectory": Trajectory, "coupling": Coupling, "mixing": Mixing,
             "stationary": Stationary}


def run_op(op: Op, rd: Path, index: int, trace: bool, deadline: float) -> dict:
    """Run one child to completion; its own wall, import, CPU and RSS figures."""
    sidecar = rd / f"op{index}.sidecar.json"
    argv = [sys.executable, str(BENCH / "child.py"), str(sidecar), "1" if trace else "0",
            op.mode, *op.args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(rd / f"op{index}.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=rd, env=env, stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    side = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    return {
        "code": proc.returncode,
        "wall_s": ended - spawned,
        "setup_s": side.get("imported", ended) - spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "spans": side.get("spans", []),
    }


def run_round(wl, rd: Path, trace: bool, deadline: float) -> dict:
    planned = wl.ops(rd)
    start = time.monotonic()
    ops = []
    for i, op in enumerate(planned):
        ops.append(run_op(op, rd, i, trace, deadline))
        if ops[-1]["code"] != 0:
            break
    wall = time.monotonic() - start
    setup = sum(o["setup_s"] for o in ops)
    failed = len(planned) - sum(o["code"] == 0 for o in ops)
    rnd = {
        "traced": trace,
        "attempted": len(planned),
        "failed": failed,
        "wall_s": wall,
        "setup_s": setup,
        "work_per_s": wl.units / (wall - setup),
        "cpu_s": sum(o["cpu_s"] for o in ops),
        "peak_rss_mb": max(o["rss_mb"] for o in ops),
        "output_bytes": sum(p.stat().st_size for p in rd.rglob("*") if p.is_file()
                            and not p.name.startswith("op") and p.parent.name != "in"),
        "check": None,
    }
    if trace:
        rnd["functions"] = {}
        for o in ops:
            for name, row in tracing.aggregate(o["spans"]).items():
                acc = rnd["functions"].setdefault(name, dict.fromkeys(row, 0))
                for key in acc:
                    acc[key] += row[key]
    if failed:
        for i in range(len(ops)):
            sys.stderr.write((rd / f"op{i}.log").read_text()[-2000:])
    else:
        try:
            wl.check(rd)
        except checks.CheckFailed as exc:
            rnd["check"] = str(exc)
    return rnd


def kernel_timings(seed: int) -> tuple[float, float]:
    """Median time of public ``nonlinearity`` on one state (us) and on 512 columns (ms)."""
    rng = seeded_rng(seed, 5)
    scale = 1.0 / (1.0 + checks.stokes_alphas())
    one = rng.standard_normal(scale.size) * scale
    stack = rng.standard_normal((scale.size, 512)) * scale[:, None]

    def median_s(u, n):
        kickflow.nonlinearity(u, checks.SPEC)
        times = []
        for _ in range(n):
            t = time.perf_counter()
            kickflow.nonlinearity(u, checks.SPEC)
            times.append(time.perf_counter() - t)
        return statistics.median(times)

    return median_s(one, 400) * 1e6, median_s(stack, 40) * 1e3


def per_layer(rounds: list[dict], seed: int) -> dict:
    absent = [fn for fn in TRACED_FUNCTIONS if not hasattr(
        importlib.import_module(f"kickflow.{fn.split('.')[0]}"), fn.split(".")[1])]
    if absent:
        print(f"bench: absent from kickflow, reported as 0: {', '.join(absent)}", file=sys.stderr)
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]

    def med(f):
        return statistics.median(f(r) for r in traced)

    values = {"cli.import_s": med(lambda r: r["setup_s"]),
              "experiments.output_bytes": med(lambda r: r["output_bytes"]),
              "trace.overhead_s": med(lambda r: r["wall_s"])
              - statistics.median(r["wall_s"] for r in plain)}
    for fn in TRACED_FUNCTIONS:
        for key in ("calls", "self_s"):
            values[f"{fn}.{key}"] = med(lambda r: r["functions"].get(fn, {}).get(key, 0))
    for name, fn in COUNTED.items():
        values[name] = med(lambda r: r["functions"].get(fn, {}).get("count", 0))
    values["dynamics.nonlinearity_1col_us"], values["dynamics.nonlinearity_512col_ms"] = \
        kernel_timings(seed)
    return values


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    import re

    maps = Path("/proc/self/maps")
    libs = re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read_text()) if maps.exists() else []
    for path in sorted(set(libs)):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def machine() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def round_seed(seed: int, index: int) -> int:
    """Seed of one round: every round of a run draws fresh inputs."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    rounds, problems, once, spent = [], [], False, 0.0
    try:
        while True:
            rd = tmp / f"round{len(rounds)}"
            (rd / "in").mkdir(parents=True)
            wl = WORKLOADS[args.workload](round_seed(args.seed, len(rounds)), rd / "in")
            traced = bool(args.trace) and len(rounds) % 2 == 1
            began = time.monotonic()
            rounds.append(run_round(wl, rd, traced, STARTED + HARD_LIMIT_S))
            spent += time.monotonic() - began
            if rounds[-1]["check"]:
                problems.append(rounds[-1]["check"])
            if not once and not rounds[-1]["failed"] and hasattr(wl, "final_check"):
                once = True
                try:
                    wl.final_check()
                except checks.CheckFailed as exc:
                    problems.append(str(exc))
            now = time.monotonic()
            next_end = now - STARTED + spent / len(rounds)
            if rounds[-1]["failed"] or next_end > HARD_LIMIT_S:
                break
            if next_end > args.seconds and not (args.trace and len(rounds) < 2):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    good = [r for r in rounds if not r["failed"]]
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    complete = ({r["traced"] for r in good} == {False, True}) if args.trace else bool(good)
    if not complete:
        values = {}
    elif args.trace:
        values = per_layer(good, args.seed)
    else:
        values = {name: statistics.median(r[name] for r in good) for name in END_TO_END}
    result = {
        "correct": not problems and complete,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "result": result,
              "problems": problems,
              "rounds": rounds}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
