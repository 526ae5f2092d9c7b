"""The tensor-built tangent matrices against two grid references.

The first reference is the propagator as it was before the tangent map
became one matrix per substep: every substep synthesises the grid fields
of the whole (K, m) column stack and applies Q(a_i, .) to it through the
test-side ``q_on_grid``.  The second forms each J_i on the grid from a_i's
fields (``tangent_matrix``), as the propagator did before it contracted the
interaction tensor with a_i.  All must give the same operators up to
rounding.
"""

import numpy as np
import pytest

from kickflow import DomainSpec, NoiseSpec, SolverConfig, linearization
from kickflow.basis import eigenvalues, grid_operators, min_grid
from kickflow.dynamics import Trajectory, _factors, flow
from kickflow.linearization import linearize_kick
from kickflow.noise import kick_rng, legendre_values, sample_kick
from reference import grid_fields, q_on_grid, tangent_matrix

BOUND = 1e-12  # relative to each output's max-abs
DEFAULT_SPEC = DomainSpec(length=4.0, viscosity=0.1)  # K = 55


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


@pytest.mark.parametrize("spec, dt", [
    (DomainSpec(length=4.0, viscosity=0.1, mx=5, ny=5), 0.01),
    (DomainSpec(length=4.0, viscosity=0.1, mx=7, ny=7), 0.01),
    (DEFAULT_SPEC, SolverConfig().dt),
], ids=["5x5", "7x7", "default"])
def test_linearize_kick_matches_column_stack_reference(spec, dt):
    cfg, noise = SolverConfig(dt=dt), NoiseSpec()
    rng = np.random.default_rng(spec.mx * spec.ny)
    u0 = 0.3 * rng.standard_normal(spec.n_modes) / np.sqrt(spec.n_modes)
    base = flow(u0, sample_kick(noise, spec, kick_rng(5, 0, 0)), spec, cfg)
    ops = linearize_kick(base, spec, cfg, noise)
    for name, want in zip(("psi1", "psi2", "a_matrix"),
                          reference_operators(base, spec, cfg, noise)):
        got = getattr(ops, name)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= BOUND * np.abs(want).max(), name


# (spec, grid factor); 5x5 and 7x7 carry damping and another length
TENSOR_CASES = {
    "5x5": (DomainSpec(length=3.0, viscosity=0.2, damping=0.05, mx=5, ny=5), 1),
    "7x7": (DomainSpec(length=3.0, viscosity=0.2, damping=0.05, mx=7, ny=7), 1),
    "5x5-doubled": (DEFAULT_SPEC, 2),
    "default": (DEFAULT_SPEC, 1),
}


@pytest.mark.parametrize("case", sorted(TENSOR_CASES))
def test_tensor_path_matches_grid_jacobian(case, monkeypatch):
    """T contracted with a state is -gain J(a), and the blocked substep loop
    is decay*w - gain*J_i w plus the source, with J_i formed on the grid.

    40 substeps cover two full blocks of base states and a partial one.
    """
    spec, factor = TENSOR_CASES[case]
    ops = grid_operators(spec, *(factor * n for n in min_grid(spec)))
    monkeypatch.setattr(linearization, "grid_operators", lambda spec: ops)
    cfg = SolverConfig()
    decay, gain = _factors(spec, cfg.dt)
    K, n, P = spec.n_modes, 40, 2
    rng = np.random.default_rng(K * factor)
    tensor = linearization._tangent_tensor(ops, eigenvalues(spec), gain)
    for a in rng.standard_normal((3, K)):
        want = -gain[:, None] * tangent_matrix(a, ops)
        got = np.tensordot(a, tensor, axes=1)
        assert np.abs(got - want).max() <= BOUND * np.abs(want).max()

    states = rng.standard_normal((n + 1, K)) / np.sqrt(K)
    base = Trajectory(np.arange(n + 1) * cfg.dt, states)
    source = rng.standard_normal((n, P))
    w0 = np.hstack([rng.standard_normal((K, K)), np.zeros((K, P * K))])
    want = w0.copy()
    for i in range(n):
        want = decay[:, None] * want - gain[:, None] * (tangent_matrix(states[i], ops) @ want)
        for p in range(P):
            want[np.arange(K), K + p * K + np.arange(K)] += gain * source[i, p]
    got = linearization._propagate(base, w0, source, spec, cfg)
    assert np.abs(got - want).max() <= BOUND * np.abs(want).max()
