"""Time integration of the Galerkin-truncated Navier-Stokes system.

The stepper is an integrating-factor (exponential) Euler scheme: the
Stokes/damping part is advanced exactly and the advection term and kick
forcing are frozen over each substep, with forcing sampled at substep
midpoints.  All grid work is dense matrix algebra against the cached
basis transforms, so states may be single vectors or (K, n) column
stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import DomainSpec, eigenvalues, grid_operators, poincare_constant
from .errors import DivergedTrajectoryError
from .noise import KickPath, eval_kick, legendre_values
from . import basis

__all__ = [
    "SolverConfig",
    "Trajectory",
    "nonlinearity",
    "step",
    "flow",
    "time_one_map",
    "energy_identity_residual",
    "advance_columns",
]


@dataclass(frozen=True)
class SolverConfig:
    """Substep size, grid sizes, and the divergence threshold."""

    dt: float = 1e-3
    nx: int | None = None
    nyq: int | None = None
    blowup_threshold: float = 1e9

    def __post_init__(self):
        n = round(1.0 / self.dt)
        if n < 1 or abs(n * self.dt - 1.0) > 1e-9:
            raise ValueError(f"dt={self.dt} must divide 1 exactly")

    @property
    def n_substeps(self) -> int:
        return round(1.0 / self.dt)


@dataclass
class Trajectory:
    """States and energy instrumentation of one flow over [0, T]."""

    times: np.ndarray
    states: np.ndarray  # (n_times, K)
    norm_h_sq: np.ndarray
    bracket_sq: np.ndarray
    forcing_inner: np.ndarray  # <eta(t_i), u(t_i)>
    spec: DomainSpec
    cfg: SolverConfig
    forcing: list = field(default_factory=list)

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


@lru_cache(maxsize=None)
def _factors(spec: DomainSpec, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode decay e^{-(nu*alpha+a)dt} and forcing gain for one substep."""
    lam = spec.viscosity * eigenvalues(spec) + spec.damping
    decay = np.exp(-lam * dt)
    gain = (1.0 - decay) / lam
    decay.setflags(write=False)
    gain.setflags(write=False)
    return decay, gain


def _advection(u, ops):
    """Basis coefficients of the projected advection term P(u . grad u).

    Accepts a (K,) vector or (K, n) column stack.  In vorticity form,
    <P(u . grad u), e_k> = <u . grad omega, psi_k>: four synthesised
    fields and one weighted analysis (see ``GridOperators``).
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise FloatingPointError("non-finite coefficients in advection input")
    f1, f2, wx, wy = (ops.syn4 @ u).reshape((4, ops.n_points) + u.shape[1:])
    return ops.ana1 @ (f1 * wx + f2 * wy)


def nonlinearity(u: np.ndarray, spec: DomainSpec, cfg: SolverConfig | None = None) -> np.ndarray:
    """B(u): dealiased pseudo-spectral evaluation of the projected advection."""
    cfg = cfg or SolverConfig()
    return _advection(u, grid_operators(spec, cfg.nx, cfg.nyq))


def step(u: np.ndarray, forcing_value: np.ndarray, spec: DomainSpec,
         cfg: SolverConfig) -> np.ndarray:
    """One exponential-Euler substep with the given forcing value."""
    ops = grid_operators(spec, cfg.nx, cfg.nyq)
    decay, gain = _factors(spec, cfg.dt)
    return decay * u + gain * (forcing_value - _advection(u, ops))


def _kick_forcing(kicks: list, t_loc: np.ndarray, n: int) -> np.ndarray:
    """Kick values at local times t_loc of each unit interval, stacked in time.

    Each kick contributes its first n rows; the last kick contributes all of
    its rows.  On the node grid t_loc = (0, dt, ..., 1) an interval boundary
    therefore takes the value of the kick that starts there, and the final
    node that of the last kick at t = 1.
    """
    vals = [eval_kick(k, t_loc) for k in kicks]
    return np.concatenate([v[:n] for v in vals[:-1]] + vals[-1:], axis=0)


def flow(u0: np.ndarray, eta, spec: DomainSpec, cfg: SolverConfig,
         n_units: int = 1) -> Trajectory:
    """Integrate over [0, n_units], one kick path per unit interval."""
    u0 = basis._check_dim(u0, spec)
    ops = grid_operators(spec, cfg.nx, cfg.nyq)
    decay, gain = _factors(spec, cfg.dt)
    n = cfg.n_substeps
    total = n_units * n
    kicks = [] if eta is None else ([eta] if isinstance(eta, KickPath) else list(eta))
    if eta is not None and len(kicks) != n_units:
        raise ValueError(f"got {len(kicks)} kicks for a horizon of {n_units} units")
    if kicks:
        f_mid = _kick_forcing(kicks, (np.arange(n) + 0.5) * cfg.dt, n)
        f_node = _kick_forcing(kicks, np.arange(n + 1) * cfg.dt, n)
    else:
        f_mid = np.zeros((total, u0.shape[0]))
        f_node = np.zeros((total + 1, u0.shape[0]))

    alpha = eigenvalues(spec)
    lam1 = poincare_constant(spec)
    states = np.empty((total + 1, u0.shape[0]))
    states[0] = u0
    u = u0.copy()
    for i in range(total):
        u = decay * u + gain * (f_mid[i] - _advection(u, ops))
        states[i + 1] = u
        if i % 64 == 0 or i == total - 1:
            nrm = math.sqrt(float(u @ u))
            if not np.isfinite(nrm) or nrm > cfg.blowup_threshold:
                raise DivergedTrajectoryError(i, nrm)

    times = np.arange(total + 1) * cfg.dt
    sq = states * states
    norm_h_sq = sq.sum(axis=1)
    bracket_sq = (sq * (alpha - 0.5 * lam1)[None, :]).sum(axis=1)
    forcing_inner = (f_node * states).sum(axis=1)
    return Trajectory(times, states, norm_h_sq, bracket_sq, forcing_inner, spec, cfg, kicks)


def time_one_map(u0: np.ndarray, eta, spec: DomainSpec, cfg: SolverConfig) -> np.ndarray:
    """S(u0, eta): the flow restricted to its endpoint at t = 1."""
    return flow(u0, eta, spec, cfg, n_units=1).endpoint


def energy_identity_residual(traj: Trajectory, spec: DomainSpec) -> float:
    """Max defect of the discrete exponential energy balance along a trajectory.

    Compares ||u(t)||^2 against the Duhamel form with the integral of
    e^{nu*lam1*(t-s)} (<eta, u> - nu[u]^2 - a||u||^2) taken by the
    trapezoid rule on the recorded energy log.
    """
    if traj.norm_h_sq is None or len(traj.norm_h_sq) != len(traj.times):
        raise ValueError("trajectory lacks a complete energy log")
    nu = spec.viscosity
    lam1 = poincare_constant(spec)
    t = traj.times
    h = traj.forcing_inner - nu * traj.bracket_sq - spec.damping * traj.norm_h_sq
    # cumulative trapezoid of e^{nu lam1 s} h(s)
    g = np.exp(nu * lam1 * t) * h
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(t))))
    rhs = np.exp(-nu * lam1 * t) * (traj.norm_h_sq[0] + 2.0 * integral)
    return float(np.abs(traj.norm_h_sq - rhs).max())


def advance_columns(states: np.ndarray, kick_coeffs: np.ndarray | None,
                    spec: DomainSpec, cfg: SolverConfig) -> np.ndarray:
    """One kick interval for a (K, n) stack with per-column kick paths.

    ``kick_coeffs`` has shape (n, P, K); every column evolves independently,
    so the result is bit-identical to advancing each column alone.
    """
    ops = grid_operators(spec, cfg.nx, cfg.nyq)
    decay, gain = _factors(spec, cfg.dt)
    n_sub = cfg.n_substeps
    u = np.array(states, dtype=float)
    if kick_coeffs is not None:
        t_mid = (np.arange(n_sub) + 0.5) * cfg.dt
        tau = legendre_values(kick_coeffs.shape[1], t_mid)  # (n_sub, P)
        # (P, K, n): each substep's (K, n) forcing is formed when it is used,
        # never all n_sub of them at once
        coeffs = np.ascontiguousarray(np.transpose(kick_coeffs, (1, 2, 0)))
    for i in range(n_sub):
        f = np.tensordot(tau[i], coeffs, axes=1) if kick_coeffs is not None else 0.0
        u = decay[:, None] * u + gain[:, None] * (f - _advection(u, ops))
        if i % 128 == 0 or i == n_sub - 1:
            mx = float(np.max(np.abs(u)))
            if not np.isfinite(mx) or mx > cfg.blowup_threshold:
                raise DivergedTrajectoryError(i, mx)
    return u
