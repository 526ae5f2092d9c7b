"""The advection kernels against the velocity-form reference and each other.

The reference synthesises the six velocity fields u1, u2, u1x, u1y, u2x,
u2y of every eigenfield, forms (u . grad) u component by component and
projects it back with the quadrature-weighted velocity analysis.  It is
built here from the mode table alone, so it shares no matrix with
``GridOperators``.  The dense kernel ``_advection`` (used by ``flow``) is
in turn the reference for the separable kernel of ``advance_columns``.
"""

import math

import numpy as np
import pytest

from kickflow import DomainSpec, NoiseSpec, SolverConfig
from kickflow.basis import grid_operators, min_grid, mode_table
from kickflow.dynamics import (
    _advection,
    _factors,
    _separable_advection,
    _separable_work,
    advance_columns,
    nonlinearity,
)
from kickflow.linearization import bilinear_q
from kickflow.noise import amplitudes, kick_rng, legendre_values, sample_xi

BOUND = 1e-12  # relative to the output's max-abs


def _velocity_form_operators(spec: DomainSpec, nx: int, nyq: int):
    """(6, npts, K) velocity and gradient synthesis and the (K, 2*npts) analysis."""
    L = spec.length
    x = L * np.arange(nx) / nx
    y = np.arange(nyq + 1) / nyq
    wy = np.full(nyq + 1, 1.0 / nyq)
    wy[[0, -1]] *= 0.5
    w = np.outer(np.full(nx, L / nx), wy).ravel()
    modes = mode_table(spec)
    syn = np.empty((6, nx * (nyq + 1), len(modes)))
    for j, mo in enumerate(modes):
        kx = 2.0 * math.pi * abs(mo.m) / L
        ky = math.pi * mo.n
        scale = 1.0 / math.sqrt((kx * kx + ky * ky) * (L if mo.m == 0 else L / 2.0) * 0.5)
        if mo.m >= 0:
            ex, dex = np.cos(kx * x), -kx * np.sin(kx * x)
        else:
            ex, dex = np.sin(kx * x), kx * np.cos(kx * x)
        sy, cy = np.sin(ky * y), np.cos(ky * y)
        # u = (d_y psi, -d_x psi) with psi = scale * ex * sy
        syn[0, :, j] = scale * np.outer(ex, ky * cy).ravel()
        syn[1, :, j] = -scale * np.outer(dex, sy).ravel()
        syn[2, :, j] = scale * np.outer(dex, ky * cy).ravel()
        syn[3, :, j] = -scale * np.outer(ex, ky * ky * sy).ravel()
        syn[4, :, j] = scale * kx * kx * np.outer(ex, sy).ravel()
        syn[5, :, j] = -scale * np.outer(dex, ky * cy).ravel()
    ana = np.concatenate([syn[0] * w[:, None], syn[1] * w[:, None]]).T
    return syn, ana


def reference_q(a, b, syn, ana):
    """Q(a, b) = P(a . grad b) + P(b . grad a) in velocity form; b may be (K, n)."""
    a1, a2, a1x, a1y, a2x, a2y = (f.reshape(f.shape + (1,) * (b.ndim - 1)) for f in syn @ a)
    b1, b2, b1x, b1y, b2x, b2y = np.tensordot(syn, b, axes=1)
    c1 = a1 * b1x + a2 * b1y + b1 * a1x + b2 * a1y
    c2 = a1 * b2x + a2 * b2y + b1 * a2x + b2 * a2y
    return ana @ np.concatenate([c1, c2])


def reference_b(u, syn, ana):
    """B(u) = P(u . grad u) in velocity form; u may be (K, n)."""
    f1, f2, f1x, f1y, f2x, f2y = np.tensordot(syn, u, axes=1)
    return ana @ np.concatenate([f1 * f1x + f2 * f1y, f1 * f2x + f2 * f2y])


GRIDS = {
    "5x5-min": (5, 5, 1),
    "7x7-min": (7, 7, 1),
    "5x5-doubled": (5, 5, 2),
}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def grid(request):
    mx, ny, factor = GRIDS[request.param]
    spec = DomainSpec(length=4.0, viscosity=0.1, mx=mx, ny=ny)
    nx, nyq = (factor * n for n in min_grid(spec))
    return spec, SolverConfig(nx=nx, nyq=nyq), _velocity_form_operators(spec, nx, nyq)


def _state(spec, n_cols, seed):
    rng = np.random.default_rng(seed)
    shape = (spec.n_modes,) if n_cols == 1 else (spec.n_modes, n_cols)
    return rng.standard_normal(shape)


def _rel_err(got, want):
    assert got.shape == want.shape
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("n_cols", [1, 165, 512])
def test_nonlinearity_matches_velocity_form(grid, n_cols):
    spec, cfg, (syn, ana) = grid
    u = _state(spec, n_cols, seed=n_cols)
    assert _rel_err(nonlinearity(u, spec, cfg), reference_b(u, syn, ana)) <= BOUND


@pytest.mark.parametrize("n_cols", [1, 165, 512])
def test_bilinear_q_matches_velocity_form(grid, n_cols):
    spec, cfg, (syn, ana) = grid
    a = _state(spec, 1, seed=7)
    b = _state(spec, n_cols, seed=n_cols + 1)
    assert _rel_err(bilinear_q(a, b, spec, cfg), reference_q(a, b, syn, ana)) <= BOUND


def separable_b(u, ops):
    """The separable kernel on a (K,) or (K, n) eigen-order input."""
    cols = u.reshape(u.shape[0], -1)[np.argsort(ops.slot)]
    out = _separable_advection(cols, ops, _separable_work(ops, cols.shape[1]))
    return out[ops.slot].reshape(u.shape)


@pytest.mark.parametrize("n_cols", [1, 165, 512])
def test_separable_advection_matches_dense_and_velocity_form(grid, n_cols):
    spec, cfg, (syn, ana) = grid
    ops = grid_operators(spec, cfg.nx, cfg.nyq)
    u = _state(spec, n_cols, seed=n_cols)
    got = separable_b(u, ops)
    assert _rel_err(got, _advection(u, ops)) <= BOUND
    assert _rel_err(got, reference_b(u, syn, ana)) <= BOUND


def dense_advance_columns(states, kick_coeffs, spec, cfg):
    """The column stepper on the dense transforms, in eigenvalue order."""
    ops = grid_operators(spec, cfg.nx, cfg.nyq)
    decay, gain = _factors(spec, cfg.dt)
    u = np.array(states, dtype=float)
    if kick_coeffs is not None:
        tau = legendre_values(kick_coeffs.shape[1], (np.arange(cfg.n_substeps) + 0.5) * cfg.dt)
        coeffs = np.transpose(kick_coeffs, (1, 2, 0))
    for i in range(cfg.n_substeps):
        f = np.tensordot(tau[i], coeffs, axes=1) if kick_coeffs is not None else 0.0
        u = decay[:, None] * u + gain[:, None] * (f - _advection(u, ops))
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

