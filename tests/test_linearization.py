"""Tangent map, semigroup splitting, forcing derivative, and Gramian."""

import tracemalloc

import numpy as np
import pytest

from kickflow.basis import eigenvalues, poincare_constant
from kickflow.dynamics import Trajectory, _factors, flow, time_one_map
from kickflow.linearization import (
    _propagate,
    compactness_diagnostic,
    gram_limit_check,
    linearize_kick,
)
from kickflow.noise import KickPath, kick_rng, legendre_values, sample_kick
from reference import bilinear_q


@pytest.fixture
def base(spec, fast_cfg, noise):
    """Recorded kicked trajectory from a small smooth state."""
    rng = np.random.default_rng(3)
    u0 = np.zeros(spec.n_modes)
    u0[:8] = rng.standard_normal(8)
    u0 *= 0.3 / np.linalg.norm(u0)
    eta = sample_kick(noise, spec, kick_rng(3, 0, 0))
    return flow(u0, eta, spec, fast_cfg)


@pytest.fixture
def ops(base, spec, fast_cfg, noise):
    return linearize_kick(base, spec, fast_cfg, noise)


def _reference_operators(base, spec, cfg, noise):
    """(psi1, psi2, A) with every column of [I_K | 0] propagated alone.

    Each substep is the exponential-Euler tangent step written out with the
    test-side bilinear form; a noise direction tau_p e_k enters as the forcing.
    """
    decay, gain = _factors(spec, cfg.dt)
    K, P = spec.n_modes, noise.p_order
    n = base.states.shape[0] - 1
    tau = legendre_values(P, (np.arange(n) + 0.5) * cfg.dt)
    cols = []
    for j in range(K + P * K):
        w = np.zeros(K)
        src = np.zeros((n, K))
        if j < K:
            w[j] = 1.0
        else:
            p, k = divmod(j - K, K)
            src[:, k] = tau[:, p]
        for i in range(n):
            w = decay * w + gain * (src[i] - bilinear_q(base.states[i], w, spec))
        cols.append(w)
    jac = np.stack(cols, axis=1)
    psi1 = decay ** n
    return psi1, jac[:, :K] - np.diag(psi1), jac[:, K:]


class TestBilinearForm:
    def test_symmetry(self, spec, rng):
        a = rng.standard_normal(spec.n_modes)
        b = rng.standard_normal(spec.n_modes)
        assert np.allclose(bilinear_q(a, b, spec), bilinear_q(b, a, spec),
                           rtol=1e-12, atol=1e-12)

    def test_polarisation_of_advection(self, spec, rng):
        """Q(u, u) equals twice the projected self-advection."""
        from kickflow.dynamics import nonlinearity

        u = rng.standard_normal(spec.n_modes)
        assert np.allclose(bilinear_q(u, u, spec), 2 * nonlinearity(u, spec),
                           rtol=1e-12, atol=1e-10)

    def test_accepts_column_stack(self, spec, rng):
        a = rng.standard_normal(spec.n_modes)
        cols = rng.standard_normal((spec.n_modes, 3))
        stacked = bilinear_q(a, cols, spec)
        for i in range(3):
            assert np.abs(stacked[:, i] - bilinear_q(a, cols[:, i], spec)).max() < 1e-12


class TestTangentMap:
    def test_finite_difference_match(self, base, ops, spec, fast_cfg, rng):
        w = rng.standard_normal(spec.n_modes)
        w /= np.linalg.norm(w)
        eps = 1e-6
        eta = base.forcing[0]
        plus = time_one_map(base.states[0] + eps * w, eta, spec, fast_cfg)
        minus = time_one_map(base.states[0] - eps * w, eta, spec, fast_cfg)
        fd = (plus - minus) / (2 * eps)
        lin = (np.diag(ops.psi1) + ops.psi2) @ w
        assert np.linalg.norm(lin - fd) < 1e-7

    def test_requires_recorded_substeps(self, base, spec, fast_cfg, noise):
        """A base of no substeps, and a base of two kicks, are not one kick."""
        broken = Trajectory(np.zeros(1), np.zeros((1, spec.n_modes)))
        with pytest.raises(ValueError):
            linearize_kick(broken, spec, fast_cfg, noise)
        eta = base.forcing[0]
        two_kicks = flow(base.states[0], [eta, eta], spec, fast_cfg, n_units=2)
        with pytest.raises(ValueError):
            linearize_kick(two_kicks, spec, fast_cfg, noise)

    def test_matches_column_by_column_reference(self, base, ops, spec, fast_cfg, noise):
        """The one batched solve against each column propagated on its own."""
        psi1, psi2, a_matrix = _reference_operators(base, spec, fast_cfg, noise)
        assert np.abs(ops.psi1 - psi1).max() <= 1e-12
        assert np.abs(ops.psi2 - psi2).max() <= 1e-12
        assert np.abs(ops.a_matrix - a_matrix).max() <= 1e-12


class TestPropagateContract:
    """Errors, input layout and output ownership of the tangent solve."""

    def _source(self, base, cfg):
        n = base.states.shape[0] - 1
        return legendre_values(2, (np.arange(n) + 0.5) * cfg.dt)

    @pytest.mark.parametrize("row", [0, 57, -2])
    def test_non_finite_base_state_raises(self, base, spec, fast_cfg, row):
        states = base.states.copy()
        states[row, 3] = np.nan
        broken = Trajectory(base.times, states)
        w0 = np.hstack([np.eye(spec.n_modes), np.zeros((spec.n_modes, 2 * spec.n_modes))])
        with pytest.raises(FloatingPointError):
            _propagate(broken, w0, self._source(base, fast_cfg), spec, fast_cfg)

    def test_fortran_ordered_start(self, base, spec, fast_cfg, rng):
        w0 = rng.standard_normal((spec.n_modes, 3 * spec.n_modes))
        source = self._source(base, fast_cfg)
        got_f = _propagate(base, np.asfortranarray(w0), source, spec, fast_cfg)
        got_c = _propagate(base, w0, source, spec, fast_cfg)
        assert np.array_equal(got_f, got_c)

    def test_calls_do_not_share_arrays(self, base, spec, fast_cfg, noise):
        w0 = np.hstack([np.eye(spec.n_modes), np.zeros((spec.n_modes, 2 * spec.n_modes))])
        source = self._source(base, fast_cfg)
        first = _propagate(base, w0, source, spec, fast_cfg)
        second = _propagate(base, w0, source, spec, fast_cfg)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, w0)
        one = linearize_kick(base, spec, fast_cfg, noise)
        two = linearize_kick(base, spec, fast_cfg, noise)
        for name in ("psi1", "psi2", "a_matrix", "gram"):
            assert not np.shares_memory(getattr(one, name), getattr(two, name)), name

    def test_traced_peak_at_defaults(self, spec, cfg, noise):
        """One linearize_kick at K = 55, dt = 1e-3 allocates at most 4 MB at
        its peak: the 1.3 MB interaction tensor, one block of substep
        matrices and two column stacks, not a table per substep."""
        u0 = 0.3 * np.random.default_rng(5).standard_normal(spec.n_modes) / np.sqrt(spec.n_modes)
        base = flow(u0, sample_kick(noise, spec, kick_rng(5, 0, 0)), spec, cfg)
        linearize_kick(base, spec, cfg, noise)  # grid tables are cached after the first call
        tracemalloc.start()
        try:
            linearize_kick(base, spec, cfg, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


class TestPsiSplit:
    def test_psi1_is_stokes_semigroup(self, ops, spec):
        expected = np.exp(-spec.viscosity * eigenvalues(spec))
        assert np.abs(ops.psi1 - expected).max() < 1e-14

    def test_split_reassembles_jacobian(self, base, ops, spec, fast_cfg):
        """The kick columns of the joint solve leave the Jacobian columns alone."""
        no_source = np.zeros((base.states.shape[0] - 1, 0))
        jac = _propagate(base, np.eye(spec.n_modes), no_source, spec, fast_cfg)
        assert np.abs(np.diag(ops.psi1) + ops.psi2 - jac).max() < 1e-14

    def test_psi1_below_contraction_threshold(self, ops, spec):
        kappa = np.exp(-spec.viscosity * poincare_constant(spec) / 2)
        assert ops.psi1.max() < kappa

    def test_psi2_singular_value_decay(self, ops):
        sig = compactness_diagnostic(ops)
        assert sig[19] <= 0.1 * sig[0]
        assert np.all(np.diff(sig) <= 1e-15)


class TestForcingDerivative:
    def test_finite_difference_match(self, base, ops, spec, fast_cfg, rng):
        eta = base.forcing[0]
        zeta = KickPath(rng.standard_normal(eta.coeffs.shape))
        zeta = KickPath(zeta.coeffs / np.linalg.norm(zeta.coeffs))
        eps = 1e-6
        plus = time_one_map(base.states[0], KickPath(eta.coeffs + eps * zeta.coeffs),
                            spec, fast_cfg)
        minus = time_one_map(base.states[0], KickPath(eta.coeffs - eps * zeta.coeffs),
                             spec, fast_cfg)
        fd = (plus - minus) / (2 * eps)
        lin = ops.a_matrix @ zeta.coeffs.ravel()
        assert np.linalg.norm(lin - fd) < 1e-7


class TestGramian:
    def test_symmetric_positive_definite(self, ops):
        assert np.abs(ops.gram - ops.gram.T).max() < 1e-14
        assert ops.gram_eigvals.min() > 0

    def test_eigh_consistency(self, ops):
        recon = (ops.gram_eigvecs * ops.gram_eigvals) @ ops.gram_eigvecs.T
        assert np.abs(recon - ops.gram).max() < 1e-12

    def test_resolvent_residual_closed_form(self, ops):
        """On an eigenvector the regularised residual is gamma/(lambda+gamma)."""
        i = ops.gram_eigvals.argmax()
        v = ops.gram_eigvecs[:, i]
        lam = ops.gram_eigvals[i]
        gammas = [1e-2, 1e-4, 1e-6]
        res = gram_limit_check(ops, v, gammas)
        for g, r in zip(gammas, res):
            assert r == pytest.approx(g / (lam + g), rel=1e-10)

    def test_residual_nonincreasing_in_gamma(self, ops, rng):
        f = rng.standard_normal(ops.gram.shape[0])
        gammas = [1e-1 * 0.5**j for j in range(10)]
        res = gram_limit_check(ops, f, gammas)
        assert np.all(np.diff(res) <= 1e-12)

    def test_assemble_idempotent_given_base(self, base, spec, fast_cfg, noise, ops):
        again = linearize_kick(base, spec, fast_cfg, noise)
        assert np.array_equal(again.a_matrix, ops.a_matrix)
