"""The advection kernels and ``flow`` against the velocity-form reference.

The reference (``reference.py``) synthesises the six velocity fields of
every eigenfield on the full grid, walls included, from the mode table
alone, so it shares no matrix with ``GridOperators``, whose tables hold
the interior nodes only.  The dense kernel ``_advection`` (used by
``flow`` and ``nonlinearity``) is in turn the reference for the separable
kernel of ``advance_columns``.
"""

import numpy as np
import pytest

from kickflow import DomainSpec, NoiseSpec, SolverConfig
from kickflow.basis import eigenvalues, grid_operators, min_grid, poincare_constant
from kickflow.dynamics import (
    _advection,
    _advection_work,
    _factors,
    _separable_advection,
    _separable_work,
    advance_columns,
    energy_identity_residual,
    flow,
    nonlinearity,
)
from kickflow.noise import amplitudes, eval_kick, kick_rng, legendre_values, sample_kick, sample_xi
from reference import bilinear_q, reference_b, reference_q, velocity_form_operators

BOUND = 1e-12  # relative to the output's max-abs

GRIDS = {
    "5x5-min": (5, 5, 1),
    "7x7-min": (7, 7, 1),
    "5x5-doubled": (5, 5, 2),
}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def grid(request):
    """(spec, the library's tables on the grid, the full-grid velocity-form reference)."""
    mx, ny, factor = GRIDS[request.param]
    spec = DomainSpec(length=4.0, viscosity=0.1, mx=mx, ny=ny)
    nx, nyq = (factor * n for n in min_grid(spec))
    return spec, grid_operators(spec, nx, nyq), velocity_form_operators(spec, nx, nyq)


def _state(spec, n_cols, seed):
    rng = np.random.default_rng(seed)
    shape = (spec.n_modes,) if n_cols == 1 else (spec.n_modes, n_cols)
    return rng.standard_normal(shape)


def _rel_err(got, want):
    assert got.shape == want.shape
    return np.abs(got - want).max() / np.abs(want).max()


def dense_b(u, spec, ops):
    """The dense kernel on the grid of ``ops``."""
    return _advection(u, ops, _advection_work(ops, eigenvalues(spec), u.shape))


@pytest.mark.parametrize("n_cols", [1, 165, 512])
def test_nonlinearity_matches_velocity_form(grid, n_cols):
    """Public ``nonlinearity`` on the minimal grid, the kernel itself on a larger one."""
    spec, ops, (syn, ana) = grid
    u = _state(spec, n_cols, seed=n_cols)
    got = nonlinearity(u, spec) if ops is grid_operators(spec) else dense_b(u, spec, ops)
    assert _rel_err(got, reference_b(u, syn, ana)) <= BOUND


@pytest.mark.parametrize("n_cols", [1, 165, 512])
def test_bilinear_q_matches_velocity_form(grid, n_cols):
    """The vorticity form of Q, which the tangent map is built from, on the tables."""
    spec, ops, (syn, ana) = grid
    a = _state(spec, 1, seed=7)
    b = _state(spec, n_cols, seed=n_cols + 1)
    assert _rel_err(bilinear_q(a, b, spec, ops), reference_q(a, b, syn, ana)) <= BOUND


def separable_b(u, ops):
    """The separable kernel on a (K,) or (K, n) eigen-order input."""
    cols = u.reshape(u.shape[0], -1)[np.argsort(ops.slot)]
    out = _separable_advection(cols, ops, _separable_work(ops, cols.shape[1]))
    return out[ops.slot].reshape(u.shape)


@pytest.mark.parametrize("n_cols", [1, 165, 512])
def test_separable_advection_matches_dense_and_velocity_form(grid, n_cols):
    spec, ops, (syn, ana) = grid
    u = _state(spec, n_cols, seed=n_cols)
    got = separable_b(u, ops)
    assert _rel_err(got, dense_b(u, spec, ops)) <= BOUND
    assert _rel_err(got, reference_b(u, syn, ana)) <= BOUND


def dense_advance_columns(states, kick_coeffs, spec, cfg):
    """The column stepper on the dense transforms, in eigenvalue order."""
    ops = grid_operators(spec)
    decay, gain = _factors(spec, cfg.dt)
    u = np.array(states, dtype=float)
    if kick_coeffs is not None:
        tau = legendre_values(kick_coeffs.shape[1], (np.arange(cfg.n_substeps) + 0.5) * cfg.dt)
        coeffs = np.transpose(kick_coeffs, (1, 2, 0))
    for i in range(cfg.n_substeps):
        f = np.tensordot(tau[i], coeffs, axes=1) if kick_coeffs is not None else 0.0
        u = decay[:, None] * u + gain[:, None] * (f - dense_b(u, spec, ops))
    return u


def make_states(spec, n):
    """States on spheres of radius 1 to 3 in the leading eight modes, as ``mix`` starts."""
    rng = np.random.default_rng(5)
    states = np.zeros((spec.n_modes, n))
    states[:8] = rng.standard_normal((8, n))
    return states * np.linspace(1.0, 3.0, n) / np.linalg.norm(states, axis=0)


@pytest.mark.parametrize("kicked", [True, False], ids=["kicked", "unforced"])
def test_advance_columns_matches_dense_stepper(spec, kicked):
    """One full kick at the default substep on 64 columns, each with its own kick."""
    cfg = SolverConfig()
    n = 64
    states = make_states(spec, n)
    coeffs = None
    if kicked:
        b = amplitudes(NoiseSpec(), spec)
        coeffs = np.stack([b * sample_xi(kick_rng(11, i, 0), b.shape) for i in range(n)])
    got = advance_columns(states, coeffs, spec, cfg)
    assert _rel_err(got, dense_advance_columns(states, coeffs, spec, cfg)) <= BOUND


def velocity_form_flow(u0, eta, spec, cfg, syn, ana):
    """One kick of decay * u + gain * (f_mid - B(u)) with the velocity-form B:
    the states and their energy log, ||u||^2, [u]^2 and <eta, u> at the nodes."""
    lam = spec.viscosity * eigenvalues(spec) + spec.damping
    decay = np.exp(-lam * cfg.dt)
    gain = (1.0 - decay) / lam
    n = cfg.n_substeps
    f_mid = eval_kick(eta, (np.arange(n) + 0.5) * cfg.dt)
    f_node = eval_kick(eta, np.arange(n + 1) * cfg.dt)
    states = [np.asarray(u0, dtype=float)]
    for i in range(n):
        u = states[-1]
        states.append(decay * u + gain * (f_mid[i] - reference_b(u, syn, ana)))
    states = np.array(states)
    weights = eigenvalues(spec) - 0.5 * poincare_constant(spec)
    return states, ((states ** 2).sum(axis=1), (states ** 2 * weights).sum(axis=1),
                    (f_node * states).sum(axis=1))


def log_residual(log, times, spec):
    """The energy balance's max defect on an energy log, by the trapezoid rule."""
    norm_h_sq, bracket_sq, forcing_inner = log
    nu, lam1 = spec.viscosity, poincare_constant(spec)
    g = np.exp(nu * lam1 * times) * (forcing_inner - nu * bracket_sq - spec.damping * norm_h_sq)
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(times))))
    return np.abs(norm_h_sq - np.exp(-nu * lam1 * times) * (norm_h_sq[0] + 2.0 * integral)).max()


def test_flow_matches_velocity_form_stepper(grid):
    """One kick from a state of norm 2, where advection is a sizeable part of
    each step; the energy residual agrees with that of the reference's log."""
    spec, _, (syn, ana) = grid
    cfg = SolverConfig()
    u0 = _state(spec, 1, seed=spec.n_modes)
    u0 *= 2.0 / np.linalg.norm(u0)
    eta = sample_kick(NoiseSpec(), spec, kick_rng(3, 0, 0))
    traj = flow(u0, eta, spec, cfg)
    states, log = velocity_form_flow(u0, eta, spec, cfg, syn, ana)
    assert _rel_err(traj.states, states) <= BOUND
    want = log_residual(log, traj.times, spec)
    assert abs(energy_identity_residual(traj, spec) - want) <= BOUND * log[0].max()
