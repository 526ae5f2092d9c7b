"""Strict plain-text experiment configuration.

Format: one ``key = value`` pair per line, dotted section prefixes,
``#`` comments.  Unknown keys are rejected so typos cannot silently fall
back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import DomainSpec
from .dynamics import SolverConfig
from .errors import ConfigError
from .noise import NoiseSpec

__all__ = ["ExperimentConfig", "parse_config", "load_config", "config_snapshot"]

# key -> (section, field name, converter).  The domain, solver and noise
# fields live on those objects, the control and top fields on
# ExperimentConfig itself; the manifest nests each key under its section,
# except the top fields.
_KEYS = {
    "domain.length": ("domain", "length", float),
    "domain.viscosity": ("domain", "viscosity", float),
    "domain.damping": ("domain", "damping", float),
    "domain.mx": ("domain", "mx", int),
    "domain.ny": ("domain", "ny", int),
    "solver.dt": ("solver", "dt", float),
    "noise.P": ("noise", "p_order", int),
    "noise.B0": ("noise", "b0", float),
    "noise.s_t": ("noise", "s_t", float),
    "noise.s_x": ("noise", "s_x", float),
    "noise.seed": ("top", "noise_seed", int),
    "control.M": ("control", "control_rank", int),
    "control.gamma": ("control", "control_gamma", float),
    "control.delta": ("control", "control_delta", float),
    "control.epsilon_target": ("control", "control_epsilon_target", float),
    "seed": ("top", "seed", int),
    "out_dir": ("top", "out_dir", str),
}


@dataclass
class ExperimentConfig:
    """Bundle of all module configs plus run-level settings."""

    domain: DomainSpec
    solver: SolverConfig
    noise: NoiseSpec
    seed: int = 0
    noise_seed: int | None = None
    out_dir: str = "out"
    # control section is optional; rank/gamma of None means "tune at runtime"
    control_rank: int | None = None
    control_gamma: float | None = None
    control_delta: float = 1e-2
    control_epsilon_target: float = 0.1

    @property
    def sampling_seed(self) -> int:
        return self.seed if self.noise_seed is None else self.noise_seed


def parse_config(text: str) -> ExperimentConfig:
    sections: dict[str, dict] = {section: {} for section, _, _ in _KEYS.values()}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section, name, conv = _KEYS[key]
        if name in sections[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            sections[section][name] = conv(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc

    try:
        domain = DomainSpec(**{"length": 4.0, "viscosity": 0.1, **sections["domain"]})
        solver = SolverConfig(**sections["solver"])
        noise = NoiseSpec(**sections["noise"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(domain, solver, noise, **sections["top"], **sections["control"])


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def config_snapshot(ec: ExperimentConfig) -> dict:
    """Fully resolved configuration for the run manifest, one entry per key."""
    snap: dict = {}
    for key, (section, name, _) in _KEYS.items():
        if section == "top":
            snap[name] = getattr(ec, name)
        else:
            owner = ec if section == "control" else getattr(ec, section)
            snap.setdefault(section, {})[key.split(".", 1)[1]] = getattr(owner, name)
    return snap
