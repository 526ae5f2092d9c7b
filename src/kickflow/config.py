"""Strict plain-text experiment configuration.

Format: one ``key = value`` pair per line, dotted section prefixes,
``#`` comments.  Unknown keys are rejected so typos cannot silently fall
back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import DomainSpec, min_grid
from .dynamics import SolverConfig
from .errors import ConfigError
from .noise import NoiseSpec

__all__ = ["ExperimentConfig", "parse_config", "load_config", "config_snapshot"]

EXPERIMENTS = ("simulate", "linearize", "couple", "mix", "noise-check", "spectrum")


# key -> (target section, field name, converter)
_KEYS = {
    "domain.length": ("domain", "length", float),
    "domain.viscosity": ("domain", "viscosity", float),
    "domain.damping": ("domain", "damping", float),
    "domain.mx": ("domain", "mx", int),
    "domain.ny": ("domain", "ny", int),
    "solver.dt": ("solver", "dt", float),
    "solver.nx": ("solver", "nx", int),
    "solver.nyq": ("solver", "nyq", int),
    "noise.P": ("noise", "p_order", int),
    "noise.B0": ("noise", "b0", float),
    "noise.s_t": ("noise", "s_t", float),
    "noise.s_x": ("noise", "s_x", float),
    "noise.seed": ("top", "noise_seed", int),
    "control.M": ("control", "rank", int),
    "control.gamma": ("control", "gamma", float),
    "control.delta": ("control", "delta", float),
    "control.q_target": ("control", "q_target", float),
    "control.epsilon_target": ("control", "epsilon_target", float),
    "experiment": ("top", "experiment", str),
    "seed": ("top", "seed", int),
    "out_dir": ("top", "out_dir", str),
}


@dataclass
class ExperimentConfig:
    """Bundle of all module configs plus run-level settings."""

    domain: DomainSpec
    solver: SolverConfig
    noise: NoiseSpec
    experiment: str = "simulate"
    seed: int = 0
    noise_seed: int | None = None
    out_dir: str = "out"
    # control section is optional; rank/gamma of None means "tune at runtime"
    control_rank: int | None = None
    control_gamma: float | None = None
    control_delta: float = 1e-2
    control_q_target: float = 0.95
    control_epsilon_target: float = 0.1

    @property
    def sampling_seed(self) -> int:
        return self.seed if self.noise_seed is None else self.noise_seed


def parse_config(text: str) -> ExperimentConfig:
    sections: dict[str, dict] = {"domain": {}, "solver": {}, "noise": {}, "control": {}, "top": {}}
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        section, name, conv = _KEYS[key]
        try:
            sections[section][name] = conv(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        seen.add(key)

    try:
        domain = DomainSpec(**{"length": 4.0, "viscosity": 0.1, **sections["domain"]})
        solver = SolverConfig(**sections["solver"])
        noise = NoiseSpec(**sections["noise"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    nx_min, nyq_min = min_grid(domain)
    nx = nx_min if solver.nx is None else solver.nx
    nyq = nyq_min if solver.nyq is None else solver.nyq
    if nx < nx_min or nyq < nyq_min:
        raise ConfigError(f"grid ({nx}, {nyq}) below dealiasing minimum ({nx_min}, {nyq_min})")
    top = sections["top"]
    experiment = top.get("experiment", "simulate")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}, expected one of {EXPERIMENTS}")
    ctl = sections["control"]
    return ExperimentConfig(
        domain=domain,
        solver=solver,
        noise=noise,
        experiment=experiment,
        seed=top.get("seed", 0),
        noise_seed=top.get("noise_seed"),
        out_dir=top.get("out_dir", "out"),
        control_rank=ctl.get("rank"),
        control_gamma=ctl.get("gamma"),
        control_delta=ctl.get("delta", 1e-2),
        control_q_target=ctl.get("q_target", 0.95),
        control_epsilon_target=ctl.get("epsilon_target", 0.1),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def config_snapshot(ec: ExperimentConfig) -> dict:
    """Fully resolved configuration for the run manifest."""
    return {
        "domain": {
            "length": ec.domain.length,
            "viscosity": ec.domain.viscosity,
            "damping": ec.domain.damping,
            "mx": ec.domain.mx,
            "ny": ec.domain.ny,
        },
        "solver": {"dt": ec.solver.dt, "nx": ec.solver.nx, "nyq": ec.solver.nyq},
        "noise": {
            "P": ec.noise.p_order,
            "B0": ec.noise.b0,
            "s_t": ec.noise.s_t,
            "s_x": ec.noise.s_x,
        },
        "control": {
            "M": ec.control_rank,
            "gamma": ec.control_gamma,
            "delta": ec.control_delta,
            "q_target": ec.control_q_target,
            "epsilon_target": ec.control_epsilon_target,
        },
        "experiment": ec.experiment,
        "seed": ec.seed,
        "noise_seed": ec.noise_seed,
        "out_dir": ec.out_dir,
    }
