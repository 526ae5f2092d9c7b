"""The per-substep K x K tangent matrix against the column-stack reference.

The reference is the propagator as it was before the tangent map became
one matrix per substep: every substep synthesises the grid fields of the
whole (K, m) column stack and applies Q(a_i, .) to it through the
test-side ``q_on_grid``.  Both must give the same operators up to rounding.
"""

import numpy as np
import pytest

from kickflow import DomainSpec, NoiseSpec, SolverConfig
from kickflow.basis import eigenvalues, grid_operators
from kickflow.dynamics import _factors, flow
from kickflow.linearization import linearize_kick
from kickflow.noise import kick_rng, legendre_values, sample_kick
from reference import grid_fields, q_on_grid

BOUND = 1e-12  # relative to each output's max-abs


def reference_propagate(base, w0, source, spec, cfg):
    """Column-stack tangent propagation: Q(a_i, .) applied to all m columns."""
    ops = grid_operators(spec)
    decay, gain = _factors(spec, cfg.dt)
    K = spec.n_modes
    n_src = source.shape[1] * K
    rows = np.arange(K)
    cols = w0.shape[1] - n_src + np.arange(n_src).reshape(-1, K)
    w = np.array(w0, dtype=float)
    for i in range(base.states.shape[0] - 1):
        af = grid_fields(base.states[i], ops)
        w = decay[:, None] * w - gain[:, None] * q_on_grid(af, w, ops)
        w[rows, cols] += gain * source[i][:, None]
    return w


def reference_operators(base, spec, cfg, noise):
    """(psi1, psi2, A) assembled as ``linearize_kick`` does, from the reference."""
    K = spec.n_modes
    n = base.states.shape[0] - 1
    t_mid = (np.arange(n) + 0.5) * cfg.dt
    w0 = np.hstack([np.eye(K), np.zeros((K, noise.p_order * K))])
    w = reference_propagate(base, w0, legendre_values(noise.p_order, t_mid % 1.0), spec, cfg)
    lam = spec.viscosity * eigenvalues(spec) + spec.damping
    psi1 = np.exp(-lam * (n * cfg.dt))
    return psi1, w[:, :K] - np.diag(psi1), w[:, K:]


@pytest.mark.parametrize("modes", [(5, 5), (7, 7)], ids=["5x5", "7x7"])
def test_linearize_kick_matches_column_stack_reference(modes):
    mx, ny = modes
    spec = DomainSpec(length=4.0, viscosity=0.1, mx=mx, ny=ny)
    cfg, noise = SolverConfig(dt=0.01), NoiseSpec()
    rng = np.random.default_rng(mx * ny)
    u0 = 0.3 * rng.standard_normal(spec.n_modes) / np.sqrt(spec.n_modes)
    base = flow(u0, sample_kick(noise, spec, kick_rng(5, 0, 0)), spec, cfg)
    ops = linearize_kick(base, spec, cfg, noise)
    for name, want in zip(("psi1", "psi2", "a_matrix"),
                          reference_operators(base, spec, cfg, noise)):
        got = getattr(ops, name)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= BOUND * np.abs(want).max(), name
