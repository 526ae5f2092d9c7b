"""Experiment orchestration, persistence, and result emission.

Every run writes plot-ready CSV/JSON outputs plus a manifest with a
config snapshot, per-stage timings, and content hashes, so that a
(config, seed) pair reproduces byte-identical outputs on one platform.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import platform
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from ._blas import blas_info, blas_threads
from .basis import eigenvalues, load_field, mode_table, norms, poincare_constant, save_field
from .config import ExperimentConfig, config_snapshot
from .dynamics import SolverConfig, _stepping_threads, energy_identity_residual, flow
from .ergodicity import (
    EmpiricalEnsemble,
    _dual_lipschitz,
    absorbing_constants,
    default_test_dictionary,
    ensemble_step,
    k_star,
    make_compact,
    mc_floor,
    mixing_fit,
    tail_energy,
)
from .errors import ConfigError, InsufficientDataError
from .linearization import compactness_diagnostic, linearize_kick
from .noise import (
    _xi_from_uniform,
    amplitudes,
    kick_rng,
    load_kick,
    pm_order,
    sample_kick,
    sample_xi,
    support_bound,
)
from .stabilisation import ControlConfig, couple, tune

__all__ = ["RunManifest", "run", "checkpoint_save", "checkpoint_load"]

log = logging.getLogger("kickflow")

CKPT_MAGIC = "KICKFLOW-CKPT v1"
ROWS_MAGIC = "KICKFLOW-ROWS v1"

# smallest value each count option accepts
MIN_COUNTS = {"kicks": 0, "steps": 1, "pairs": 1, "particles": 1, "draws": 1}

# noise-check: kicks checked against the support bound, and draws for the
# P_M/Q_M correlation
SUPPORT_DRAWS = 1000
CORR_DRAWS = 100_000


@dataclass
class RunManifest:
    """Outputs, seconds per stage (``wall_clock_s`` is the whole run) and
    work counts, such as the ``substeps`` stepped in stage ``integrate``,
    the ``tangent_substeps`` of the linearised solves and the ``bl_*`` work
    of ``mix``'s distance searches."""

    config: dict
    experiment: str
    artifact_version: str = __version__
    wall_clock_s: float = 0.0
    stages: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)


def _provenance() -> dict:
    """What output bits depend on besides the config and seed.

    Outputs are byte-identical only on one platform: the interpreter,
    numpy, its BLAS and the CPU kernels it picked, the BLAS thread count
    (1 once kickflow is imported) and the threads ``advance_columns``
    steps a wide stack on.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": blas_threads(),
        "stepping_threads": _stepping_threads(),
    }


class _Emitter:
    """Collects output files, their content hashes, stage timings and work
    counts for the manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        self.records = []
        self.stages = {}
        self.counts = {}

    @contextmanager
    def timed(self, stage: str):
        """Add the block's wall time to ``stages[stage]``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[stage] = self.stages.get(stage, 0.0) + time.perf_counter() - t0

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def write_text(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        path.write_text(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.records.append({"path": str(path), "sha256": digest})
        return path

    def write_csv(self, name: str, header: str, rows) -> Path:
        lines = [header]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        return self.write_text(name, "\n".join(lines) + "\n")

    def write_json(self, name: str, payload: dict) -> Path:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        return self.write_text(name, text + "\n")

    def register(self, path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.records.append({"path": str(path), "sha256": digest})


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _seed_suffix(text: str) -> int:
    """The nonnegative integer n of an option value 'name:n'."""
    try:
        seed = int(text.split(":", 1)[1])
    except ValueError:
        seed = -1
    if seed < 0:
        raise ConfigError(f"{text!r}: expected a nonnegative integer seed after ':'")
    return seed


def _read_input(loader, path):
    """Load a file named on the command line; failing to read it is a ConfigError."""
    try:
        return loader(path)
    except (OSError, ValueError, LookupError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _resolve_u0(spec, text: str) -> np.ndarray:
    if text == "zero":
        return np.zeros(spec.n_modes)
    if text.startswith("random:"):
        seed = _seed_suffix(text)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        u = rng.standard_normal(spec.n_modes)
        return u / np.linalg.norm(u)
    u = _read_input(load_field, text)
    if u.shape[0] != spec.n_modes:
        raise ConfigError(f"field file has K={u.shape[0]}, domain needs K={spec.n_modes}")
    if not np.all(np.isfinite(u)):
        raise ConfigError(f"field file {text} holds non-finite coefficients")
    return u


def _delta(ec: ExperimentConfig, opts: dict) -> float:
    """The squeezing threshold: the ``delta`` option if given, else control.delta."""
    return ec.control_delta if opts.get("delta") is None else opts["delta"]


def _check_options(ec: ExperimentConfig, opts: dict) -> None:
    """Reject out-of-range counts, seeds and thresholds before any work starts."""
    for name, low in MIN_COUNTS.items():
        if opts.get(name, low) < low:
            raise ConfigError(f"{name} must be >= {low}, got {opts[name]}")
    if ec.seed < 0 or ec.sampling_seed < 0:
        raise ConfigError(f"seeds must be nonnegative, got {ec.seed} and {ec.sampling_seed}")
    delta = _delta(ec, opts)
    if not 0 < delta < math.inf:
        raise ConfigError(f"delta must be positive and finite, got {delta}")
    if not ec.control_epsilon_target > 0:
        raise ConfigError(f"epsilon_target must be positive, got {ec.control_epsilon_target}")
    try:
        # rank and gamma may be left to tuning
        ControlConfig(1 if ec.control_rank is None else ec.control_rank,
                      1.0 if ec.control_gamma is None else ec.control_gamma,
                      delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_kick(ec: ExperimentConfig, text: str):
    """The kick named by 'seed:<n>' or by a kick file path."""
    spec = ec.domain
    if text.startswith("seed:"):
        return sample_kick(ec.noise, spec, kick_rng(_seed_suffix(text), 0, 0))
    eta = _read_input(load_kick, text)
    if eta.coeffs.shape[1] != spec.n_modes:
        raise ConfigError(f"kick file has K={eta.coeffs.shape[1]}, "
                          f"domain needs K={spec.n_modes}")
    if not np.all(np.isfinite(eta.coeffs)):
        raise ConfigError(f"kick file {text} holds non-finite coefficients")
    return eta


def _mix_start(ec: ExperimentConfig, opts: dict):
    """(ens_a, ens_b, rows) at the first kick that ``mix`` has still to run."""
    spec = ec.domain
    n_kicks = opts["kicks"]
    resume = opts["resume"]
    if not resume:
        n_particles = opts["particles"]
        seed = ec.sampling_seed
        ens_a = make_compact(spec, 1.0, n_particles, seed, id_offset=0)
        ens_b = _load_compact(ec, opts["compact"], n_particles, seed, id_offset=10_000_000)
        return ens_a, ens_b, []
    ens_a, ens_b = checkpoint_load(resume, expect_k=spec.n_modes)
    if ens_a.kick_index > n_kicks:
        raise ConfigError(f"checkpoint {resume} is at kick {ens_a.kick_index}, "
                          f"past the requested {n_kicks} kicks")
    # the rows before the checkpoint, so that the outputs and fits match the
    # uninterrupted run's
    return ens_a, ens_b, _rows_load(resume, ens_a.kick_index)


def _resolve_inputs(ec: ExperimentConfig, experiment: str, opts: dict) -> None:
    """Replace the fields, kicks and ensembles that ``opts`` names by their values.

    Runs before the output directory is made, so that a bad input leaves
    nothing behind.
    """
    spec = ec.domain
    if experiment in ("simulate", "linearize"):
        opts["u0"] = _resolve_u0(spec, opts["u0"])
    if experiment == "linearize":
        kick = opts["kick"]
        opts["kick"] = _resolve_kick(ec, f"seed:{ec.sampling_seed}" if kick is None else kick)
    if experiment == "mix":
        opts["start"] = _mix_start(ec, opts)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _run_simulate(ec: ExperimentConfig, opts: dict, em: _Emitter) -> None:
    spec, cfg = ec.domain, ec.solver
    u = opts["u0"]
    n_kicks = opts["kicks"]
    seed = ec.sampling_seed
    rows = []
    for k in range(n_kicks):
        eta = sample_kick(ec.noise, spec, kick_rng(seed, 0, k))
        with em.timed("integrate"):
            traj = flow(u, eta, spec, cfg)
        u = traj.endpoint
        with em.timed("energy"):
            res = energy_identity_residual(traj, spec)
            nh, nv, _ = norms(u, spec)
        rows.append((k, nh, nv, res))
    em.count("substeps", n_kicks * cfg.n_substeps)
    with em.timed("io"):
        em.write_csv("per_kick.csv", "k,normH,normV,energy_residual", rows)
        endpoint = em.out_dir / "endpoint_field.csv"
        save_field(u, endpoint)
        em.register(endpoint)


def _run_linearize(ec: ExperimentConfig, opts: dict, em: _Emitter) -> None:
    spec, cfg = ec.domain, ec.solver
    with em.timed("integrate"):
        base = flow(opts["u0"], opts["kick"], spec, cfg)
    em.count("substeps", cfg.n_substeps)
    with em.timed("linearize"):
        ops = linearize_kick(base, spec, cfg, ec.noise)
        sig = compactness_diagnostic(ops)
    em.count("tangent_substeps", cfg.n_substeps)
    with em.timed("io"):
        em.write_csv("psi1_diagonal.csv", "index,psi1", list(enumerate(ops.psi1)))
        em.write_csv("psi2_singular_values.csv", "index,sigma", list(enumerate(sig)))
        em.write_csv("gram_spectrum.csv", "index,eigenvalue",
                     list(enumerate(ops.gram_eigvals[::-1])))
        if opts["full"]:
            for name, mat in (("psi2_matrix.csv", ops.psi2), ("a_matrix.csv", ops.a_matrix)):
                rows = [tuple(r) for r in mat]
                em.write_csv(name, ",".join(f"c{j}" for j in range(mat.shape[1])), rows)


def _absorbed_start(ec: ExperimentConfig, traj_id: int, em: _Emitter) -> np.ndarray:
    """A state inside the absorbing set, reached by a short seeded run."""
    spec, cfg = ec.domain, ec.solver
    u = np.zeros(spec.n_modes)
    n_kicks = k_star(9.0, spec, ec.noise) + 1
    with em.timed("integrate"):
        for k in range(n_kicks):
            eta = sample_kick(ec.noise, spec, kick_rng(ec.sampling_seed ^ 0x5EED, traj_id, k))
            u = flow(u, eta, spec, cfg).endpoint
    em.count("substeps", n_kicks * cfg.n_substeps)
    return u


def _run_couple(ec: ExperimentConfig, opts: dict, em: _Emitter) -> None:
    spec, cfg = ec.domain, ec.solver
    n_steps = opts["steps"]
    n_pairs = opts["pairs"]
    delta = _delta(ec, opts)
    seed = ec.sampling_seed
    rows = []
    ctl = None
    if ec.control_rank is not None and ec.control_gamma is not None:
        ctl = ControlConfig(ec.control_rank, ec.control_gamma, delta)

    def tuned(ops):  # on the first step of the first pair that takes one
        return tune(ops, ec.control_epsilon_target, ec.noise, spec, delta)

    reports = []
    for pair in range(n_pairs):
        u0 = _absorbed_start(ec, 1000 + pair, em)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(0xCA, pair))))
        w = rng.standard_normal(spec.n_modes)
        u0p = u0 + 0.9 * delta * w / np.linalg.norm(w)
        with em.timed("couple"):
            report = couple(u0, u0p, seed, n_steps, spec, cfg, tuned if ctl is None else ctl,
                            ec.noise, traj_id=pair)
        em.count("tangent_substeps", len(report.steps) * cfg.n_substeps)  # one linearize_kick per step
        if ctl is None and report.control is not None:
            ctl = report.control
            log.info("tuned control: M=%d gamma=%g", ctl.rank, ctl.gamma)
        if len(report.steps) < n_steps:
            log.info("pair %d coupled to distance < 1e-14 after %d of %d steps",
                     pair, len(report.steps), n_steps)
        reports.append(report)
        rows.extend(zip([pair] * len(report.steps), report.steps, report.distances,
                        report.qhats, report.phi_norms, report.eps_hats))
    with em.timed("io"):
        em.write_csv("coupling_steps.csv", "pair,k,dist,qhat,phi_norm,eps_hat", rows)
        em.write_json("coupling_summary.json", {
            "q_geo_mean": max(r.q_geo_mean for r in reports),
            "q_max": max(r.q_max for r in reports),
            "C_hat": max(r.c_hat for r in reports),
            # None when no pair took a step and so no control was tuned
            "M": None if ctl is None else ctl.rank,
            "gamma": None if ctl is None else ctl.gamma,
            "delta": delta,
            "pairs": n_pairs,
            "steps": max(len(r.steps) for r in reports),
            "steps_requested": n_steps,
        })


def _load_compact(ec: ExperimentConfig, name: str, n_particles: int,
                  seed: int, id_offset: int) -> EmpiricalEnsemble:
    spec = ec.domain
    if name == "unit":
        return make_compact(spec, 1.0, n_particles, seed, id_offset=id_offset)
    if name == "r3":
        return make_compact(spec, 3.0, n_particles, seed, id_offset=id_offset)
    with warnings.catch_warnings():  # an empty file is reported below, not warned of
        warnings.simplefilter("ignore", UserWarning)
        pts = _read_input(lambda path: np.loadtxt(path, delimiter=",", ndmin=2), name)
    if pts.shape[0] == 0:
        raise ConfigError(f"compact file {name} holds no points")
    if pts.shape[1] != spec.n_modes:
        raise ConfigError(f"compact file has K={pts.shape[1]}, domain needs {spec.n_modes}")
    if not np.all(np.isfinite(pts)):
        raise ConfigError(f"compact file {name} holds non-finite coefficients")
    n = pts.shape[0]
    return EmpiricalEnsemble(pts, np.full(n, 1.0 / n), 0, seed,
                             np.arange(id_offset, id_offset + n))


def _run_mix(ec: ExperimentConfig, opts: dict, em: _Emitter) -> None:
    spec, cfg, noise = ec.domain, ec.solver, ec.noise
    n_kicks = opts["kicks"]
    ckpt = opts["checkpoint"]
    ens_a, ens_b, rows = opts["start"]
    n_particles = ens_a.n_particles

    dic = default_test_dictionary(spec)
    lam = eigenvalues(spec)
    lam_cut = float(np.median(lam))
    em.stages.update(dict.fromkeys(("ensemble_step", "distances", "checkpoint"), 0.0))
    for k in range(len(rows), n_kicks + 1):
        with em.timed("distances"):
            dist = _dual_lipschitz(ens_a, ens_b, dic, em.count)
            floor_k = _split_half_floor(ens_b, dic, em.count)
        _, tail_max = tail_energy(ens_b, lam_cut, spec)
        mean_nh = float(np.linalg.norm(ens_b.particles, axis=1).mean())
        rows.append((k, dist, floor_k, tail_max, mean_nh))
        log.info("mix k=%d dist=%.4g floor=%.4g", k, dist, floor_k)
        if k < n_kicks:
            with em.timed("ensemble_step"):
                ens_a = ensemble_step(ens_a, spec, cfg, noise)
                ens_b = ensemble_step(ens_b, spec, cfg, noise)
            if ckpt:
                with em.timed("checkpoint"):  # rows first, see _rows_load
                    _rows_save(rows, ckpt)
                    checkpoint_save(ens_a, ens_b, ckpt)

    floor_est = float(np.median([r[2] for r in rows]))
    ds = np.array([r[1] for r in rows])
    usable = np.nonzero(ds > 2.0 * floor_est)[0]
    try:
        c_big, c_rate, r2 = mixing_fit(usable, ds[usable])
    except InsufficientDataError:
        c_big = c_rate = r2 = None
    with em.timed("io"):
        em.write_csv("mix_distances.csv", "k,dist_lower,floor,tail_energy_max,mean_normH", rows)
        em.write_json("mix_summary.json", {
            "c": c_rate,
            "C": c_big,
            "r2": r2,
            "k_star": k_star(9.0, spec, noise),
            "floor": floor_est,
            "floor_nominal": mc_floor(n_particles),
            "particles": n_particles,
            "kicks": n_kicks,
        })


def _split_half_floor(ens: EmpiricalEnsemble, dic, count) -> float:
    n = ens.n_particles
    if n < 4:
        return 0.0
    h = n // 2
    a = EmpiricalEnsemble(ens.particles[:h], np.full(h, 1.0 / h), 0, 0, np.arange(h))
    b = EmpiricalEnsemble(ens.particles[h:2 * h], np.full(h, 1.0 / h), 0, 0, np.arange(h))
    return _dual_lipschitz(a, b, dic, count)


def _run_noise_check(ec: ExperimentConfig, opts: dict, em: _Emitter) -> None:
    spec, noise = ec.domain, ec.noise
    n_draws = opts["draws"]
    seed = ec.sampling_seed
    with em.timed("moments"):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        xi = sample_xi(rng, n_draws)
        mean = float(xi.mean())
        var = float(xi.var())
        se_mean = float(xi.std() / np.sqrt(n_draws))
        m2 = xi * xi
        se_var = float(m2.std() / np.sqrt(n_draws))

    b = amplitudes(noise, spec)
    with em.timed("support"):
        support_ok = True
        max_ratio = 0.0
        for k in range(SUPPORT_DRAWS):
            eta = sample_kick(noise, spec, kick_rng(seed, 0, k))
            ratio = float(np.max(np.abs(eta.coeffs) / b))
            max_ratio = max(max_ratio, ratio)
            support_ok = support_ok and ratio <= 1.0 + 1e-12
        e_radius, vp_sup = support_bound(noise, spec)

    # correlation between leading P_M coordinate and leading Q_M coordinate
    order = pm_order(noise, spec)
    m_half = order.shape[0] // 2
    a_idx, b_idx = order[0], order[m_half]
    draws_a = np.empty(CORR_DRAWS)
    draws_b = np.empty(CORR_DRAWS)
    flat_shape = b.size
    with em.timed("correlation"):
        for i in range(0, CORR_DRAWS, 10_000):
            j = min(i + 10_000, CORR_DRAWS)
            block_rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(0xCC, i))))
            # the whole block of uniforms is drawn, which keeps the stream, but
            # only the two columns read are mapped to xi
            v = block_rng.random((j - i, flat_shape))[:, [a_idx, b_idx]]
            draws_a[i:j], draws_b[i:j] = _xi_from_uniform(v).T
        corr = float(np.corrcoef(draws_a, draws_b)[0, 1])

    with em.timed("io"):
        em.write_json("noise_check.json", {
            "xi_mean": mean,
            "xi_mean_se": se_mean,
            "xi_var": var,
            "xi_var_expected": 1.0 / 7.0,
            "xi_var_se": se_var,
            "draws": n_draws,
            "support_respected": bool(support_ok),
            "support_max_ratio": max_ratio,
            "e_radius": e_radius,
            "vprime_sup": vp_sup,
            "pm_qm_correlation": corr,
            "pm_qm_corr_se": 1.0 / float(np.sqrt(CORR_DRAWS)),
        })


def _run_spectrum(ec: ExperimentConfig, opts: dict, em: _Emitter) -> None:
    spec = ec.domain
    lam = eigenvalues(spec)
    rows = [(j, mo.m, mo.n, lam[j]) for j, mo in enumerate(mode_table(spec))]
    em.write_csv("spectrum.csv", "index,m,n,alpha", rows)
    kappa, m2, rad2 = absorbing_constants(spec, ec.noise)
    em.write_json("constants.json", {
        "lambda1": poincare_constant(spec),
        "kappa_bar": kappa,
        "M2": m2,
        "absorbing_radius_sq": rad2,
        "n_modes": spec.n_modes,
    })


# experiment -> (runner, {option: default}).  The CLI subcommands declare
# these options without defaults, and ``run`` fills in each one not given.
# A ``kick`` of None is the draw of the sampling seed, a ``delta`` of None
# is control.delta.
EXPERIMENT_OPTIONS = {
    "simulate": (_run_simulate, {"u0": "zero", "kicks": 10}),
    "linearize": (_run_linearize, {"u0": "random:0", "kick": None, "full": False}),
    "couple": (_run_couple, {"delta": None, "steps": 50, "pairs": 1}),
    "mix": (_run_mix, {"particles": 512, "kicks": 25, "compact": "r3",
                       "checkpoint": None, "resume": None}),
    "noise-check": (_run_noise_check, {"draws": 1_000_000}),
    "spectrum": (_run_spectrum, {}),
}


def run(ec: ExperimentConfig, experiment: str, opts: dict | None = None) -> RunManifest:
    """Run one experiment of ``EXPERIMENT_OPTIONS`` and write outputs + manifest.

    ``opts`` holds the experiment's options that are given, the others
    taking their defaults from ``EXPERIMENT_OPTIONS``, and optionally
    ``out``, the output directory.
    """
    runner, defaults = EXPERIMENT_OPTIONS[experiment]
    opts = {**defaults, **(opts or {})}
    out_dir = Path(opts.pop("out", None) or ec.out_dir)
    _check_options(ec, opts)
    _resolve_inputs(ec, experiment, opts)
    em = _Emitter(out_dir)
    manifest = RunManifest(config=config_snapshot(ec), experiment=experiment,
                           provenance=_provenance())
    t0 = time.perf_counter()
    runner(ec, opts, em)
    manifest.wall_clock_s = time.perf_counter() - t0
    manifest.stages = em.stages
    manifest.counts = em.counts
    manifest.outputs = em.records
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

def _ensemble_lines(ens: EmpiricalEnsemble) -> list[str]:
    lines = [f"ENSEMBLE,seed={ens.master_seed},kick_index={ens.kick_index},"
             f"particles={ens.n_particles}"]
    for pid, row, w in zip(ens.particle_ids, ens.particles, ens.weights):
        lines.append(f"{int(pid)},{float(w)!r}," + ",".join(repr(float(c)) for c in row))
    return lines


def _atomic_write(path, text: str) -> None:
    """Write beside the target, fsync and rename over it, so that a failed
    write leaves the previous file in place."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _hashed_text(header: str, body: list[str]) -> str:
    text = "\n".join(body) + "\n"
    return f"{header}\n{text}HASH {hashlib.sha256(text.encode()).hexdigest()}\n"


def _read_hashed(path, magic: str) -> list[str]:
    """Lines of a file written by ``_hashed_text``, after checking its hash."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not lines or not lines[0].startswith(magic):
        raise ConfigError(f"{path}: version mismatch or not a {magic.split()[0]} file")
    if not lines[-1].startswith("HASH "):
        raise ConfigError(f"{path}: missing content hash")
    body = "\n".join(lines[1:-1]) + "\n"
    if hashlib.sha256(body.encode()).hexdigest() != lines[-1].split(" ", 1)[1]:
        raise ConfigError(f"{path}: corrupt content hash")
    return lines


def checkpoint_save(ens_a: EmpiricalEnsemble, ens_b: EmpiricalEnsemble, path) -> None:
    """Versioned text checkpoint of a pair of ensembles.

    Particle stream positions are implied by (seed, particle id,
    kick_index), so storing those integers restores the RNG lineage
    exactly.
    """
    header = f"{CKPT_MAGIC},K={ens_a.particles.shape[1]}"
    _atomic_write(path, _hashed_text(header, _ensemble_lines(ens_a) + _ensemble_lines(ens_b)))


def checkpoint_load(path, expect_k: int | None = None):
    """Load a checkpoint pair; verifies version and content hash."""
    lines = _read_hashed(path, CKPT_MAGIC)
    try:
        k_dim = int(lines[0].split("K=")[1])
        if expect_k is not None and k_dim != expect_k:
            raise ConfigError(f"checkpoint {path}: K={k_dim} does not match domain K={expect_k}")
        ensembles = []
        i = 1
        while i < len(lines) - 1:
            head = lines[i]
            parts = dict(p.split("=") for p in head.split(",")[1:])
            n = int(parts["particles"])
            ids = np.empty(n, dtype=int)
            weights = np.empty(n)
            particles = np.empty((n, k_dim))
            for j in range(n):
                cells = lines[i + 1 + j].split(",")
                ids[j] = int(cells[0])
                weights[j] = float(cells[1])
                particles[j] = [float(c) for c in cells[2:]]
            ensembles.append(EmpiricalEnsemble(particles, weights, int(parts["kick_index"]),
                                               int(parts["seed"]), ids))
            i += 1 + n
    except (ValueError, LookupError) as exc:
        raise ConfigError(f"checkpoint {path}: malformed content: {exc!r}") from exc
    if len(ensembles) != 2:
        raise ConfigError(f"checkpoint {path}: expected 2 ensembles, found {len(ensembles)}")
    return ensembles[0], ensembles[1]


def _rows_path(ckpt) -> Path:
    path = Path(ckpt)
    return path.with_name(path.name + ".rows")


def _rows_save(rows: list[tuple], ckpt) -> None:
    """The ``mix`` rows of kicks 0 .. kick_index - 1, beside checkpoint ``ckpt``."""
    body = [",".join(_fmt(v) for v in row) for row in rows]
    _atomic_write(_rows_path(ckpt), _hashed_text(ROWS_MAGIC, body))


def _rows_load(ckpt, kick_index: int) -> list[tuple]:
    """The rows saved beside ``ckpt``, one for each kick before kick_index.

    The rows are written before the checkpoint, so a run stopped between the
    two writes leaves one row more than that; it is dropped.
    """
    lines = _read_hashed(_rows_path(ckpt), ROWS_MAGIC)
    try:
        rows = [(int(k), float(dist), float(floor), float(tail), float(mean))
                for k, dist, floor, tail, mean in (ln.split(",") for ln in lines[1:-1])]
    except ValueError as exc:
        raise ConfigError(f"{_rows_path(ckpt)}: malformed row: {exc}") from exc
    if (len(rows) not in (kick_index, kick_index + 1)
            or [r[0] for r in rows] != list(range(len(rows)))):
        raise ConfigError(f"{_rows_path(ckpt)}: holds {len(rows)} rows, but checkpoint "
                          f"{ckpt} is at kick {kick_index}")
    return rows[:kick_index]
