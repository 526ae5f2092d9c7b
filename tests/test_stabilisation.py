"""Regularised right inverse, control defect, tuning, and coupling."""

import numpy as np
import pytest

from kickflow.dynamics import flow
from kickflow.errors import SqueezingViolatedError, TuningFailedError
from kickflow.linearization import linearize_kick
from kickflow.noise import kick_rng, sample_kick
from kickflow.stabilisation import (
    GAMMA_GRID,
    ControlConfig,
    couple,
    epsilon_check,
    phi,
    right_inverse_matrix,
    tune,
)


@pytest.fixture
def base(spec, fast_cfg, noise):
    rng = np.random.default_rng(11)
    u0 = np.zeros(spec.n_modes)
    u0[:8] = rng.standard_normal(8)
    u0 *= 0.2 / np.linalg.norm(u0)
    eta = sample_kick(noise, spec, kick_rng(11, 0, 0))
    return flow(u0, eta, spec, fast_cfg)


@pytest.fixture
def ops(base, spec, fast_cfg, noise):
    return linearize_kick(base, spec, fast_cfg, noise)


class TestControlConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControlConfig(rank=0, gamma=0.1)
        with pytest.raises(ValueError):
            ControlConfig(rank=5, gamma=0.0)
        with pytest.raises(ValueError):
            ControlConfig(rank=5, gamma=0.1, delta=-1.0)


class TestRightInverse:
    def test_matrix_matches_regularised_solve(self, ops, noise, spec, rng):
        """R f = P_M A^T (G + gamma I)^{-1} f, the solve taken on its own."""
        from kickflow.noise import pm_order

        ctl = ControlConfig(rank=spec.n_modes, gamma=1e-3)
        f = rng.standard_normal(spec.n_modes)
        r = right_inverse_matrix(ops, ctl, noise, spec)
        solved = ops.a_matrix.T @ np.linalg.solve(ops.gram + ctl.gamma * np.eye(spec.n_modes), f)
        keep = pm_order(noise, spec)[:ctl.rank]
        expected = np.zeros_like(solved)
        expected[keep] = solved[keep]
        assert np.abs(r @ f - expected).max() < 1e-12

    def test_near_inverse_on_range(self, ops, noise, spec, rng):
        """A R f -> f as gamma -> 0 when no coordinates are truncated."""
        ctl = ControlConfig(rank=noise.p_order * spec.n_modes, gamma=1e-9)
        f = ops.a_matrix @ rng.standard_normal(ops.a_matrix.shape[1])
        recon = ops.a_matrix @ (right_inverse_matrix(ops, ctl, noise, spec) @ f)
        lam_min = ops.gram_eigvals.min()
        assert np.linalg.norm(recon - f) <= 2 * ctl.gamma / lam_min * np.linalg.norm(f)

    def test_truncation_zeroes_tail(self, ops, noise, spec):
        from kickflow.noise import pm_order

        ctl = ControlConfig(rank=10, gamma=1e-3)
        r = right_inverse_matrix(ops, ctl, noise, spec)
        keep = set(pm_order(noise, spec)[:10].tolist())
        for idx in range(r.shape[0]):
            if idx not in keep:
                assert np.all(r[idx] == 0.0)


class TestControlDefect:
    def test_epsilon_decreases_with_gamma(self, ops, noise, spec):
        full = noise.p_order * spec.n_modes
        eps = [epsilon_check(ops, right_inverse_matrix(ops, ControlConfig(full, g), noise, spec))
               for g in (1e-1, 1e-3, 1e-5)]
        assert eps[0] >= eps[1] >= eps[2]

    def test_epsilon_closed_form_without_truncation(self, ops, noise, spec):
        """With every coordinate kept, A R - I = -gamma (G + gamma I)^{-1}."""
        gamma = 1e-2
        r = right_inverse_matrix(ops, ControlConfig(noise.p_order * spec.n_modes, gamma),
                                 noise, spec)
        resolvent = np.linalg.solve(ops.gram + gamma * np.eye(spec.n_modes), ops.psi2)
        assert epsilon_check(ops, r) == pytest.approx(np.linalg.norm(gamma * resolvent, 2),
                                                      rel=1e-9)

    def test_phi_linear_in_separation(self, ops, noise, spec, rng):
        r = right_inverse_matrix(ops, ControlConfig(rank=spec.n_modes, gamma=1e-2), noise, spec)
        u = rng.standard_normal(spec.n_modes) * 0.1
        w = rng.standard_normal(spec.n_modes) * 1e-3
        one = phi(u, u + w, ops, r)
        two = phi(u, u + 2 * w, ops, r)
        assert one.coeffs.shape == (noise.p_order, spec.n_modes)
        assert np.allclose(two.coeffs, 2 * one.coeffs, rtol=1e-12, atol=1e-16)
        zero = phi(u, u, ops, r)
        assert zero.norm_e == 0.0

    @pytest.mark.parametrize("rank_blocks, gamma", [(1, 1e-2), (2, 1e-6)])
    def test_control_cancels_compact_part(self, ops, noise, spec, rng, rank_blocks, gamma):
        """A phi = -Psi2 (u' - u) up to the control defect: |(A R - I) Psi2 w| <= eps |w|."""
        r = right_inverse_matrix(ops, ControlConfig(rank_blocks * spec.n_modes, gamma),
                                 noise, spec)
        u = rng.standard_normal(spec.n_modes) * 0.1
        w = rng.standard_normal(spec.n_modes) * 1e-3
        control = phi(u, u + w, ops, r)
        residual = ops.a_matrix @ control.coeffs.ravel() + ops.psi2 @ w
        assert np.linalg.norm(residual) <= (epsilon_check(ops, r) + 1e-12) * np.linalg.norm(w)


class TestTune:
    def test_returns_feasible_config(self, ops, noise, spec):
        ctl = tune(ops, 0.1, noise, spec)
        assert epsilon_check(ops, right_inverse_matrix(ops, ctl, noise, spec)) <= 0.1
        assert ctl.rank % spec.n_modes == 0
        assert ctl.gamma in GAMMA_GRID

    def test_prefers_small_rank_large_gamma(self, ops, noise, spec):
        ctl = tune(ops, 0.5, noise, spec)
        assert ctl.rank == spec.n_modes
        assert ctl.gamma == GAMMA_GRID[0]

    def test_impossible_target_raises(self, ops, noise, spec):
        with pytest.raises(TuningFailedError) as err:
            tune(ops, 0.0, noise, spec)
        assert err.value.exit_code == 4
        assert err.value.best_epsilon > 0

    def test_matches_scan_of_right_inverses(self, ops, noise, spec):
        """One Gram inverse per gamma picks what a fresh R per (M, gamma) picks."""
        grid = [(rank, gamma) for rank in range(spec.n_modes, noise.p_order * spec.n_modes + 1,
                                                spec.n_modes) for gamma in GAMMA_GRID]
        eps = [epsilon_check(ops, right_inverse_matrix(ops, ControlConfig(*rg), noise, spec))
               for rg in grid]
        for target in sorted(eps)[::5]:
            first = next(rg for rg, e in zip(grid, eps) if e <= target)
            ctl = tune(ops, target, noise, spec)
            assert (ctl.rank, ctl.gamma) == first
        with pytest.raises(TuningFailedError) as err:
            tune(ops, 0.0, noise, spec)
        assert err.value.best_epsilon == min(eps)


class TestCoupling:
    def test_contracts_close_pair(self, spec, fast_cfg, noise):
        rng = np.random.default_rng(21)
        u0 = np.zeros(spec.n_modes)
        u0[:8] = rng.standard_normal(8)
        u0 *= 0.1 / np.linalg.norm(u0)
        w = rng.standard_normal(spec.n_modes)
        u0p = u0 + 1e-3 * w / np.linalg.norm(w)
        ctl = ControlConfig(rank=spec.n_modes, gamma=0.1, delta=1e-2)
        report = couple(u0, u0p, 17, 5, spec, fast_cfg, ctl, noise)
        assert report.q_max < 1.0
        assert report.q_geo_mean < 0.95
        assert len(report.steps) == 5

    def test_phi_bound_logged(self, spec, fast_cfg, noise):
        rng = np.random.default_rng(22)
        u0 = np.zeros(spec.n_modes)
        u0[:8] = rng.standard_normal(8)
        u0 *= 0.1 / np.linalg.norm(u0)
        u0p = u0.copy()
        u0p[0] += 1e-3
        ctl = ControlConfig(rank=spec.n_modes, gamma=0.1, delta=1e-2)
        report = couple(u0, u0p, 18, 3, spec, fast_cfg, ctl, noise)
        c_hat = report.c_hat
        assert np.isfinite(c_hat)
        for p, d in zip(report.phi_norms, report.distances):
            assert p <= c_hat * d + 1e-15

    def test_identical_pair_short_circuits(self, spec, fast_cfg, noise):
        u0 = np.zeros(spec.n_modes)
        ctl = ControlConfig(rank=spec.n_modes, gamma=0.1)
        report = couple(u0, u0.copy(), 19, 5, spec, fast_cfg, ctl, noise)
        assert report.steps == []

    def test_control_chosen_from_the_first_step(self, spec, fast_cfg, noise):
        """A chooser sees the first step's operators, once, and the pair couples
        as under the control it returns."""
        rng = np.random.default_rng(21)
        u0 = np.zeros(spec.n_modes)
        u0[:8] = rng.standard_normal(8)
        u0 *= 0.1 / np.linalg.norm(u0)
        u0p = u0 + 1e-3 * rng.standard_normal(spec.n_modes) / np.sqrt(spec.n_modes)
        ctl = ControlConfig(rank=spec.n_modes, gamma=0.1, delta=1e-2)
        seen = []

        def choose(ops):
            seen.append(ops)
            return ctl

        chosen = couple(u0, u0p, 17, 3, spec, fast_cfg, choose, noise)
        fixed = couple(u0, u0p, 17, 3, spec, fast_cfg, ctl, noise)
        first = linearize_kick(flow(u0, sample_kick(noise, spec, kick_rng(17, 0, 0)),
                                    spec, fast_cfg), spec, fast_cfg, noise)
        assert len(seen) == 1
        assert np.array_equal(seen[0].psi2, first.psi2)
        assert np.array_equal(seen[0].a_matrix, first.a_matrix)
        assert chosen.control == fixed.control == ctl
        assert (chosen.qhats, chosen.eps_hats) == (fixed.qhats, fixed.eps_hats)

    def test_no_step_uses_no_chosen_control(self, spec, fast_cfg, noise):
        u0 = np.zeros(spec.n_modes)
        ctl = ControlConfig(rank=spec.n_modes, gamma=0.1)
        assert couple(u0, u0.copy(), 19, 5, spec, fast_cfg, ctl, noise).control == ctl
        report = couple(u0, u0.copy(), 19, 5, spec, fast_cfg,
                        lambda ops: pytest.fail("no step, so nothing to choose"), noise)
        assert report.steps == [] and report.control is None

    def test_squeezing_violation_raises_with_report(self, spec, fast_cfg, noise):
        rng = np.random.default_rng(23)
        u0 = np.zeros(spec.n_modes)
        u0[:8] = rng.standard_normal(8)
        u0 *= 0.1 / np.linalg.norm(u0)
        u0p = u0.copy()
        u0p[0] += 5e-3
        ctl = ControlConfig(rank=spec.n_modes, gamma=0.1, delta=1e-9)
        with pytest.raises(SqueezingViolatedError) as err:
            couple(u0, u0p, 20, 3, spec, fast_cfg, ctl, noise)
        assert err.value.exit_code == 5
        assert err.value.report is not None
        assert len(err.value.report.distances) >= 1
