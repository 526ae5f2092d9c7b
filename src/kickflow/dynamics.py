"""Time integration of the Galerkin-truncated Navier-Stokes system.

The stepper is an integrating-factor (exponential) Euler scheme: the
Stokes/damping part is advanced exactly and the advection term and kick
forcing are frozen over each substep, with forcing sampled at substep
midpoints.  All grid work is matrix algebra against the cached basis
transforms on the interior collocation nodes: dense products in ``flow``
and ``nonlinearity``, whose states may be single vectors or (K, n) column
stacks, and separable 1-D passes in ``advance_columns``, which steps wide
stacks.
"""

from __future__ import annotations

import math
import os
from contextvars import copy_context
from dataclasses import dataclass, field
from functools import lru_cache
from threading import Thread

import numpy as np

from .basis import DomainSpec, eigenvalues, grid_operators, poincare_constant
from .errors import DivergedTrajectoryError
from .noise import KickPath, eval_kick, legendre_values
from . import basis

__all__ = [
    "SolverConfig",
    "Trajectory",
    "nonlinearity",
    "flow",
    "time_one_map",
    "energy_identity_residual",
    "advance_columns",
]


@dataclass(frozen=True)
class SolverConfig:
    """Substep size and the divergence threshold."""

    dt: float = 1e-3
    blowup_threshold: float = 1e9

    def __post_init__(self):
        n = round(1.0 / self.dt) if self.dt > 0 else 0
        if n < 1 or abs(n * self.dt - 1.0) > 1e-9:
            raise ValueError(f"dt={self.dt} must divide 1 exactly")

    @property
    def n_substeps(self) -> int:
        return round(1.0 / self.dt)


@dataclass
class Trajectory:
    """The states of one flow over [0, T] at the substep nodes, and its kicks,
    one per unit interval."""

    times: np.ndarray
    states: np.ndarray  # (n_times, K)
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


def _tau_mid(p_order: int, cfg: SolverConfig) -> np.ndarray:
    """tau_p at the substep midpoints (i + 1/2) dt of a unit interval, (n_substeps, P)."""
    return legendre_values(p_order, (np.arange(cfg.n_substeps) + 0.5) * cfg.dt)


def _advection_work(ops, alpha: np.ndarray, shape: tuple) -> tuple[np.ndarray, ...]:
    """The eigenvalues ``alpha`` shaped to scale states of ``shape``, (K,) or
    (K, n), and the work arrays of ``_advection`` with the views it writes
    through."""
    K, cols = shape[0], tuple(shape[1:])
    ab = np.empty((K, 2) + cols)  # [u, alpha * u]
    grid = np.empty((2, ops.n_points, 2) + cols)  # (u1 or u2, node, u or alpha * u)
    return (alpha.reshape((K,) + (1,) * len(cols)), ab[:, 0], ab[:, 1], ab.reshape(K, -1),
            grid.reshape(2 * ops.n_points, -1), grid[0, :, 0], grid[1, :, 0], grid[0, :, 1],
            grid[1, :, 1], np.empty((ops.n_points,) + cols), np.empty(shape))


def _advection(u, ops, work):
    """Basis coefficients of the projected advection term P(u . grad u).

    Accepts a (K,) vector or (K, n) column stack, with ``work`` from
    ``_advection_work`` for its shape.  In vorticity form,
    <P(u . grad u), e_k> = <u . grad omega, psi_k>, and one product of
    ``syn2`` with [u, alpha * u] gives u and grad omega = (-u2, u1)(alpha u)
    at the nodes (see ``GridOperators``).  The result is the last work
    array, overwritten by the next call.
    """
    if not np.isfinite(u).all():
        raise FloatingPointError("non-finite coefficients in advection input")
    alpha, ab_u, ab_a, ab, grid, u1, u2, u1a, u2a, cross, out = work
    ab_u[...] = u
    np.multiply(alpha, u, out=ab_a)
    np.matmul(ops.syn2, ab, out=grid)
    # u . grad omega = u2(u) u1(alpha u) - u1(u) u2(alpha u)
    np.multiply(u2, u1a, out=cross)
    np.multiply(u1, u2a, out=u1)
    np.subtract(cross, u1, out=cross)
    return np.matmul(ops.ana1, cross, out=out)


def nonlinearity(u: np.ndarray, spec: DomainSpec) -> np.ndarray:
    """B(u): dealiased pseudo-spectral evaluation of the projected advection."""
    u = np.asarray(u, dtype=float)
    ops = grid_operators(spec)
    return _advection(u, ops, _advection_work(ops, eigenvalues(spec), u.shape))


def _check_norm(u: np.ndarray, step: int, threshold: float) -> None:
    nrm = math.sqrt(float(u @ u))
    if not nrm <= threshold:  # NaN too
        raise DivergedTrajectoryError(step, nrm)


def flow(u0: np.ndarray, eta, spec: DomainSpec, cfg: SolverConfig,
         n_units: int = 1) -> Trajectory:
    """Integrate over [0, n_units], one kick path per unit interval.

    Substep i writes decay * u + gain * (f_mid - B(u)) of u = states[i]
    into states[i + 1], in work arrays allocated once per call; f_mid is
    the kick at the substep's midpoint.  Only the states are recorded:
    ``energy_identity_residual`` forms the energy log from them.  A
    non-finite u raises ``FloatingPointError`` with ``step_index`` i; a
    norm above ``cfg.blowup_threshold``, checked on every 64th u and on
    the endpoint, raises ``DivergedTrajectoryError``.
    """
    u0 = basis._check_dim(u0, spec)
    ops = grid_operators(spec)
    decay, gain = _factors(spec, cfg.dt)
    n = cfg.n_substeps
    total = n_units * n
    kicks = [] if eta is None else ([eta] if isinstance(eta, KickPath) else list(eta))
    if eta is not None and len(kicks) != n_units:
        raise ValueError(f"got {len(kicks)} kicks for a horizon of {n_units} units")
    if kicks:
        tau = _tau_mid(kicks[0].coeffs.shape[0], cfg)
        f_mid = np.concatenate([tau @ k.coeffs for k in kicks])
    else:
        f_mid = np.zeros((total, u0.shape[0]))

    states = np.empty((total + 1, u0.shape[0]))
    states[0] = u0
    work = _advection_work(ops, eigenvalues(spec), u0.shape)
    for i in range(total):
        u, nxt = states[i], states[i + 1]
        try:
            adv = _advection(u, ops, work)
            # nxt = decay * u + gain * (f_mid - adv)
            np.subtract(f_mid[i], adv, out=adv)
            np.multiply(gain, adv, out=adv)
            np.multiply(decay, u, out=nxt)
            np.add(nxt, adv, out=nxt)
        except FloatingPointError as exc:
            exc.step_index = i
            raise
        if i % 64 == 0:
            _check_norm(u, i, cfg.blowup_threshold)
    _check_norm(states[total], total, cfg.blowup_threshold)

    return Trajectory(np.arange(total + 1) * cfg.dt, states, kicks)


def time_one_map(u0: np.ndarray, eta, spec: DomainSpec, cfg: SolverConfig) -> np.ndarray:
    """S(u0, eta): the flow restricted to its endpoint at t = 1."""
    return flow(u0, eta, spec, cfg, n_units=1).endpoint


def energy_identity_residual(traj: Trajectory, spec: DomainSpec) -> float:
    """Max defect of the discrete exponential energy balance along a trajectory.

    Compares ||u(t)||^2 against the Duhamel form with the integral of
    e^{nu*lam1*(t-s)} (<eta, u> - nu[u]^2 - a||u||^2) taken by the
    trapezoid rule on the energy log of the recorded states.  The kick at
    a node is that of the unit interval starting there, and the last
    node's that of the last kick at t = 1.
    """
    nu = spec.viscosity
    lam1 = poincare_constant(spec)
    t, states = traj.times, traj.states
    sq = states * states
    norm_h_sq = sq.sum(axis=1)
    bracket_sq = (sq * (eigenvalues(spec) - 0.5 * lam1)[None, :]).sum(axis=1)
    forcing_inner = 0.0
    if traj.forcing:
        n = (len(t) - 1) // len(traj.forcing)
        vals = [eval_kick(k, t[:n + 1]) for k in traj.forcing]
        f_node = np.concatenate([v[:n] for v in vals[:-1]] + vals[-1:], axis=0)
        forcing_inner = (f_node * states).sum(axis=1)
    h = forcing_inner - nu * bracket_sq - spec.damping * norm_h_sq
    # cumulative trapezoid of e^{nu lam1 s} h(s)
    g = np.exp(nu * lam1 * t) * h
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(t))))
    rhs = np.exp(-nu * lam1 * t) * (norm_h_sq[0] + 2.0 * integral)
    return float(np.abs(norm_h_sq - rhs).max())


def _separable_work(ops, n: int) -> tuple[np.ndarray, ...]:
    """Work arrays of ``_separable_advection`` for an n-column stack."""
    mxs, ny = ops.scale.shape
    nyp = ops.cy.shape[0]
    return (np.empty((2, mxs, ny, n)), np.empty((2, mxs, nyp, n)),
            np.empty((2, mxs, nyp, n)), np.empty((4, ops.nx, nyp * n)),
            np.empty((mxs, nyp, n)), np.empty((mxs, ny, n)))


def _separable_advection(v, ops, work):
    """``_advection`` of a (K, n) stack in slot order, by 1-D transforms.

    The synthesis is a y pass over the (m, n) slots then an x pass, the
    analysis an x pass then a y pass (see ``GridOperators``), so each
    column costs about a quarter of the dense products' flops.  The result
    is the last work array, overwritten by the next call.
    """
    if not np.isfinite(v).all():
        raise FloatingPointError("non-finite coefficients in advection input")
    ab, c, s, grid, h, out = work
    mxs, ny, n = out.shape
    scale = ops.scale[:, :, None]
    # [s * u; alpha * s * u] on the y tables
    np.multiply(scale, v.reshape(mxs, ny, n), out=ab[0])
    np.multiply(ops.alpha[:, :, None], ab[0], out=ab[1])
    np.matmul(ops.cy, ab, out=c)
    np.matmul(ops.sy, ab, out=s)
    u1, wy, mu2, wx = grid
    np.matmul(ops.ex, c[0].reshape(mxs, -1), out=u1)
    np.matmul(ops.ex, c[1].reshape(mxs, -1), out=wy)
    np.matmul(ops.dex, s[0].reshape(mxs, -1), out=mu2)
    np.matmul(ops.dex, s[1].reshape(mxs, -1), out=wx)
    # u1 * omega_x + u2 * omega_y with mu2 = -u2
    np.multiply(u1, wx, out=u1)
    np.multiply(mu2, wy, out=mu2)
    np.subtract(u1, mu2, out=u1)
    np.matmul(ops.exw, u1, out=h.reshape(mxs, -1))
    np.matmul(ops.syw, h, out=out)
    np.multiply(scale, out, out=out)
    return out.reshape(mxs * ny, n)


def _advance_stack(states: np.ndarray, kick_coeffs: np.ndarray | None,
                   spec: DomainSpec, cfg: SolverConfig) -> np.ndarray:
    """``advance_columns`` on one thread: the whole stack in slot order.

    A ``FloatingPointError`` (a non-finite input, or numpy's own under
    ``np.errstate``) carries its substep as ``step_index``, for diagnostics.
    """
    ops = grid_operators(spec)
    n_sub = cfg.n_substeps
    to_slots = np.argsort(ops.slot)
    decay, gain = (v[to_slots, None] for v in _factors(spec, cfg.dt))
    u = states[to_slots]
    f = np.zeros(u.shape)
    if kick_coeffs is not None:
        n_p = kick_coeffs.shape[1]
        tau = _tau_mid(n_p, cfg)
        # (P, K * n) in slot order: each substep's forcing is formed when it
        # is used, never all n_sub of them at once
        coeffs = np.transpose(kick_coeffs, (1, 2, 0))[:, to_slots].reshape(n_p, -1)
    work = _separable_work(ops, u.shape[1])
    for i in range(n_sub):
        if kick_coeffs is not None:
            np.matmul(tau[i], coeffs, out=f.reshape(-1))
        try:
            adv = _separable_advection(u, ops, work)
            # u = decay * u + gain * (f - adv)
            np.subtract(f, adv, out=adv)
            np.multiply(gain, adv, out=adv)
            np.multiply(decay, u, out=u)
            np.add(u, adv, out=u)
        except FloatingPointError as exc:
            exc.step_index = i
            raise
        if i % 128 == 0 or i == n_sub - 1:
            mx = float(np.max(np.abs(u)))
            if not np.isfinite(mx) or mx > cfg.blowup_threshold:
                raise DivergedTrajectoryError(i, mx)
    return u[ops.slot]


# Each part of a split stack is at least this wide.  Parts of one or two
# columns round differently from the whole stack (BLAS picks other kernels
# for them); parts of 64 or more were bit-identical to it at every width
# tried.  The width is set by speed: on one BLAS thread per part, two parts
# of 64 took 256 ms against 223 ms for one stack of 128, and two of 128 took
# 539 ms against 583 ms for one of 256 (medians of 9 on 2 cores).  Narrow
# parts make many short numpy calls, and the two threads then spend their
# time handing the GIL to each other.
_MIN_PART = 128


def _stepping_threads() -> int:
    """Threads ``advance_columns`` steps a wide stack on: two, or one per usable CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(2, cpus or 1))


def advance_columns(states: np.ndarray, kick_coeffs: np.ndarray | None,
                    spec: DomainSpec, cfg: SolverConfig) -> np.ndarray:
    """One kick interval for a (K, n) stack with per-column kick paths.

    ``kick_coeffs`` has shape (n, P, K); every column evolves independently,
    and each agrees with ``time_one_map`` under its own kick to 1e-13.  The
    stack is stepped in slot order with the separable transforms, which
    beat the dense ones on wide stacks; ``flow`` keeps the dense ones.

    A stack of at least ``2 * _MIN_PART`` columns is stepped as two column
    halves, one on a worker thread, when two CPUs are usable: numpy drops
    the GIL inside its products and ufuncs.  Both halves stay wide, so the
    result is bit-identical to one stack.  If either half raises, the whole
    stack is stepped again on the calling thread, which raises exactly the
    error that one stack raises.  Each half runs its BLAS on one thread, as
    everything in kickflow does (``_blas``).
    """
    states = np.asarray(states, dtype=float)
    n = states.shape[1]
    if n < 2 * _MIN_PART or _stepping_threads() < 2:
        return _advance_stack(states, kick_coeffs, spec, cfg)
    halves = [(states[:, cols], None if kick_coeffs is None else kick_coeffs[cols])
              for cols in (slice(None, n // 2), slice(n // 2, None))]
    results: list = [None, None]

    def step(j):
        try:
            results[j] = _advance_stack(*halves[j], spec, cfg)
        except Exception:  # raised again below by the whole stack
            pass

    # in the caller's context, which holds numpy's errstate
    worker = Thread(target=copy_context().run, args=(step, 1))
    worker.start()
    try:
        step(0)
    finally:
        worker.join()
    if results[0] is None or results[1] is None:
        return _advance_stack(states, kick_coeffs, spec, cfg)
    return np.concatenate(results, axis=1)
