"""Exponential-Euler stepper, energy balance, and batched advancement."""

import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from kickflow import DivergedTrajectoryError, DomainSpec, NoiseSpec, SolverConfig, dynamics
from kickflow._blas import blas_threads
from kickflow.basis import eigenvalues, poincare_constant
from kickflow.dynamics import (
    Trajectory,
    _advance_stack,
    advance_columns,
    energy_identity_residual,
    flow,
    nonlinearity,
    time_one_map,
)
from kickflow.noise import KickPath, amplitudes, kick_rng, sample_kick, sample_xi
from reference import energy_identity_residual as reference_residual, reference_flow


class TestSolverConfig:
    def test_substep_count(self):
        assert SolverConfig(dt=1e-3).n_substeps == 1000
        assert SolverConfig(dt=0.01).n_substeps == 100

    def test_dt_must_divide_unit_interval(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.3)
        with pytest.raises(ValueError):
            SolverConfig(dt=1.5)


class TestNonlinearity:
    def test_single_mode_self_advection_vanishes(self, spec):
        """Each eigenfield advects itself onto pure gradients, projected out."""
        for j in [0, 1, 10, 54]:
            u = np.zeros(spec.n_modes)
            u[j] = 1.3
            assert np.abs(nonlinearity(u, spec)).max() < 1e-13

    def test_energy_conservation(self, spec, rng):
        for _ in range(20):
            u = rng.standard_normal(spec.n_modes)
            assert abs(np.dot(nonlinearity(u, spec), u)) < 1e-11 * np.sum(u * u) ** 1.5

    def test_quadratic_scaling(self, spec, rng):
        u = rng.standard_normal(spec.n_modes)
        assert np.allclose(nonlinearity(2 * u, spec), 4 * nonlinearity(u, spec),
                           rtol=1e-12, atol=1e-10)


class TestStepper:
    def test_single_mode_exact_decay(self, spec, fast_cfg):
        u = np.zeros(spec.n_modes)
        u[0] = 0.7
        out = flow(u, None, spec, fast_cfg).states[1]
        expected = 0.7 * np.exp(-spec.viscosity * eigenvalues(spec)[0] * fast_cfg.dt)
        assert out[0] == pytest.approx(expected, rel=1e-14)
        assert np.abs(out[1:]).max() < 1e-15

    def test_damping_included_in_decay(self, fast_cfg):
        spec = DomainSpec(length=4.0, viscosity=0.1, damping=0.5)
        u = np.zeros(spec.n_modes)
        u[0] = 1.0
        out = flow(u, None, spec, fast_cfg).states[1]
        lam = spec.viscosity * eigenvalues(spec)[0] + spec.damping
        assert out[0] == pytest.approx(np.exp(-lam * fast_cfg.dt), rel=1e-14)

    def test_constant_forcing_fixed_point(self, spec, fast_cfg):
        """With B = 0 the scheme solves u' = -nu*A*u + f exactly."""
        f = np.zeros(spec.n_modes)
        f[0] = 2.0
        target = f / (spec.viscosity * eigenvalues(spec))
        # one single-mode state, whose self-advection vanishes, under the
        # constant kick tau_0 = 1
        stepped = time_one_map(target, KickPath(f[None, :]), spec, fast_cfg)
        assert np.allclose(stepped, target, rtol=1e-13)


class TestFlow:
    def test_zero_noise_decay_bound(self, spec, fast_cfg, rng):
        u0 = rng.standard_normal(spec.n_modes)
        u0 *= 0.5 / np.linalg.norm(u0)
        lam1 = poincare_constant(spec)
        u = u0
        for n in range(1, 6):
            u = time_one_map(u, None, spec, fast_cfg)
            bound = np.exp(-spec.viscosity * lam1 * n / 2) * np.linalg.norm(u0)
            assert np.linalg.norm(u) <= 1.01 * bound

    def test_records_all_substeps(self, spec, fast_cfg, noise):
        eta = sample_kick(noise, spec, kick_rng(0, 0, 0))
        traj = flow(np.zeros(spec.n_modes), eta, spec, fast_cfg)
        assert traj.states.shape == (fast_cfg.n_substeps + 1, spec.n_modes)
        assert traj.times[-1] == pytest.approx(1.0)
        assert np.array_equal(traj.endpoint, traj.states[-1])

    def test_multi_unit_horizon(self, spec, fast_cfg, noise):
        kicks = [sample_kick(noise, spec, kick_rng(0, 0, k)) for k in range(3)]
        traj = flow(np.zeros(spec.n_modes), kicks, spec, fast_cfg, n_units=3)
        u = np.zeros(spec.n_modes)
        for eta in kicks:
            u = time_one_map(u, eta, spec, fast_cfg)
        assert np.allclose(traj.endpoint, u, atol=1e-14)

    def test_kick_count_mismatch(self, spec, fast_cfg, noise):
        eta = sample_kick(noise, spec, kick_rng(0, 0, 0))
        with pytest.raises(ValueError):
            flow(np.zeros(spec.n_modes), [eta], spec, fast_cfg, n_units=2)

    def test_divergence_detection(self, spec):
        cfg = SolverConfig(dt=0.01, blowup_threshold=1e-3)
        u0 = np.full(spec.n_modes, 0.1)
        with pytest.raises(DivergedTrajectoryError) as err:
            flow(u0, None, spec, cfg)
        assert err.value.exit_code == 3
        assert err.value.step_index == 0

    def test_non_finite_start_raises(self, spec, fast_cfg):
        u0 = np.zeros(spec.n_modes)
        u0[4] = np.nan
        with pytest.raises(FloatingPointError) as err:
            flow(u0, None, spec, fast_cfg)
        assert err.value.step_index == 0

    def test_non_finite_kick_raises_at_substep_one(self, spec, fast_cfg, noise):
        """Substep 0 makes a NaN state from a finite one; substep 1 finds it,
        and the NaN states stepped before the check warn of nothing."""
        eta = sample_kick(noise, spec, kick_rng(0, 0, 0))
        eta.coeffs[1, 7] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError) as err:
                flow(np.zeros(spec.n_modes), eta, spec, fast_cfg)
        assert err.value.step_index == 1

    def test_calls_do_not_share_arrays(self, spec, fast_cfg, noise):
        eta = sample_kick(noise, spec, kick_rng(0, 0, 0))
        first = flow(np.zeros(spec.n_modes), eta, spec, fast_cfg)
        kept = first.states.copy()
        second = flow(first.endpoint, eta, spec, fast_cfg)
        for name in ("states", "times"):
            assert not np.shares_memory(getattr(first, name), getattr(second, name)), name
        assert np.array_equal(first.states, kept)

    def test_traced_peak_at_defaults(self, spec, cfg, noise):
        """One kick of ``flow`` at K = 55, dt = 1e-3 allocates at most 1.25 MiB
        at its peak: the recorded states, the midpoint forcing and the work
        arrays, with no energy log."""
        u0 = 0.3 * np.random.default_rng(5).standard_normal(spec.n_modes) / np.sqrt(spec.n_modes)
        eta = sample_kick(noise, spec, kick_rng(5, 0, 0))
        flow(u0, eta, spec, cfg)  # grid tables are cached after the first call
        tracemalloc.start()
        try:
            flow(u0, eta, spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2 ** 20


class TestEnergyIdentity:
    def test_residual_small_on_kicked_run(self, spec, noise):
        cfg = SolverConfig(dt=1e-3)
        kicks = [sample_kick(noise, spec, kick_rng(5, 0, k)) for k in range(2)]
        traj = flow(np.zeros(spec.n_modes), kicks, spec, cfg, n_units=2)
        res = energy_identity_residual(traj, spec)
        scale = max((traj.states ** 2).sum(axis=1).max(), 1e-30)
        assert res / scale < 5e-3

    def test_residual_shrinks_with_dt(self, spec, noise):
        kicks = [sample_kick(noise, spec, kick_rng(5, 0, k)) for k in range(2)]
        res = {}
        for dt in (2e-3, 1e-3):
            traj = flow(np.zeros(spec.n_modes), kicks, spec, SolverConfig(dt=dt),
                        n_units=2)
            res[dt] = energy_identity_residual(traj, spec)
        assert res[2e-3] / res[1e-3] > 1.8

    def test_exact_for_pure_stokes_decay(self, spec):
        """Single-mode decay satisfies the balance to quadrature accuracy."""
        u0 = np.zeros(spec.n_modes)
        u0[0] = 1.0
        traj = flow(u0, None, spec, SolverConfig(dt=1e-3))
        assert energy_identity_residual(traj, spec) < 5e-7


class TestBatchedAdvance:
    def test_matches_sequential_flow(self, spec, fast_cfg, noise):
        from kickflow.noise import amplitudes, sample_xi

        b = amplitudes(noise, spec)
        n = 4
        rng = np.random.default_rng(9)
        states = rng.standard_normal((spec.n_modes, n)) * 0.1
        coeffs = np.stack([b * sample_xi(kick_rng(3, i, 0), b.shape) for i in range(n)])
        batch = advance_columns(states, coeffs, spec, fast_cfg)
        for i in range(n):
            from kickflow.noise import KickPath

            single = time_one_map(states[:, i], KickPath(coeffs[i]), spec, fast_cfg)
            assert np.abs(batch[:, i] - single).max() < 1e-13

    def test_unforced_batch(self, spec, fast_cfg, rng):
        states = rng.standard_normal((spec.n_modes, 3)) * 0.1
        batch = advance_columns(states, None, spec, fast_cfg)
        for i in range(3):
            single = time_one_map(states[:, i], None, spec, fast_cfg)
            assert np.abs(batch[:, i] - single).max() < 1e-13

    def test_non_finite_column_raises(self, spec, fast_cfg, rng):
        states = rng.standard_normal((spec.n_modes, 3)) * 0.1
        states[:, 1] = np.nan
        with pytest.raises(FloatingPointError):
            advance_columns(states, None, spec, fast_cfg)

    def test_divergence_detection(self, spec):
        cfg = SolverConfig(dt=0.01, blowup_threshold=1e-3)
        states = np.full((spec.n_modes, 2), 0.1)
        with pytest.raises(DivergedTrajectoryError) as err:
            advance_columns(states, None, spec, cfg)
        assert err.value.exit_code == 3
        assert err.value.step_index == 0


def _kick_stack(noise, spec, n):
    b = amplitudes(noise, spec)
    return np.stack([b * sample_xi(kick_rng(5, i, 0), b.shape) for i in range(n)])


class TestSplitStack:
    """A wide stack is stepped as two halves on two threads, as if whole."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.fixture
    def started(self, monkeypatch):
        """Worker threads that ``advance_columns`` starts."""
        threads = []

        class Counted(threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        monkeypatch.setattr(dynamics, "Thread", Counted)
        return threads

    @pytest.mark.parametrize("kicked", [True, False])
    @pytest.mark.parametrize("n", [128, 129, 511, 512])
    def test_bit_identical_to_one_stack(self, spec, fast_cfg, noise, started, monkeypatch,
                                        n, kicked):
        """Also with parts half as wide as the narrowest that ``advance_columns`` makes."""
        monkeypatch.setattr(dynamics, "_MIN_PART", 64)
        states = np.random.default_rng(n).standard_normal((spec.n_modes, n)) * 0.1
        coeffs = _kick_stack(noise, spec, n) if kicked else None
        got = advance_columns(states, coeffs, spec, fast_cfg)
        assert len(started) == 1
        assert np.array_equal(got, _advance_stack(states, coeffs, spec, fast_cfg))

    @pytest.mark.parametrize("cpus, n, workers", [
        ({0}, 512, 0), ({0, 1}, 2 * dynamics._MIN_PART - 1, 0),
        ({0, 1}, 2 * dynamics._MIN_PART, 1), ({0, 1, 2, 3}, 512, 1)])
    def test_worker_only_for_two_wide_halves_and_two_cpus(self, spec, fast_cfg, rng, started,
                                                          monkeypatch, cpus, n, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        states = rng.standard_normal((spec.n_modes, n)) * 0.1
        got = advance_columns(states, None, spec, fast_cfg)
        assert len(started) == workers
        assert np.array_equal(got, _advance_stack(states, None, spec, fast_cfg))

    def test_non_finite_column_in_right_half_raises(self, spec, fast_cfg, rng, started):
        states = rng.standard_normal((spec.n_modes, 256)) * 0.1
        states[:, 200] = np.nan
        with pytest.raises(FloatingPointError):
            advance_columns(states, None, spec, fast_cfg)
        assert len(started) == 1

    def test_both_halves_run_on_one_blas_thread_when_one_raises(
            self, spec, fast_cfg, rng, monkeypatch):
        if blas_threads() is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS whose threads can be set")
        seen = []
        whole = dynamics._advance_stack

        def spy(*args):
            seen.append(blas_threads())
            return whole(*args)

        monkeypatch.setattr(dynamics, "_advance_stack", spy)
        states = rng.standard_normal((spec.n_modes, 256)) * 0.1
        states[:, 200] = np.nan
        with pytest.raises(FloatingPointError):
            advance_columns(states, None, spec, fast_cfg)
        assert seen == [1, 1, 1]

    @pytest.mark.parametrize("bump", [0.3, 1e260])  # 1e260 overflows: a NaN norm
    @pytest.mark.parametrize("larger", ["left", "right"])
    def test_divergence_reports_the_global_max(self, spec, larger, bump):
        cfg = SolverConfig(dt=0.01, blowup_threshold=1e-3)
        states = np.full((spec.n_modes, 256), 0.1)
        states[:, 10 if larger == "left" else 200] = bump
        with pytest.raises(DivergedTrajectoryError) as whole:
            with np.errstate(all="ignore"):
                _advance_stack(states, None, spec, cfg)
        with pytest.raises(DivergedTrajectoryError) as err:
            with np.errstate(all="ignore"):
                advance_columns(states, None, spec, cfg)
        assert err.value.exit_code == 3
        assert err.value.step_index == whole.value.step_index == 0
        assert np.isnan(whole.value.norm) == (bump > 1)
        np.testing.assert_equal(err.value.norm, whole.value.norm)

    @pytest.mark.parametrize("overflows", ["left", "right"])
    def test_norm_check_ranks_before_a_later_non_finite_input(self, spec, overflows):
        """One half overflows between norm checks, which is found as a
        non-finite input at substep 2; the other diverges at substep 0."""
        cfg = SolverConfig(dt=0.01, blowup_threshold=1e250)
        big, huge = (10, 200) if overflows == "left" else (200, 10)
        states = np.full((spec.n_modes, 256), 1e-2)
        states[:, big] = 1e80
        states[:, huge] = 1e260
        with pytest.raises(FloatingPointError) as alone:
            with np.errstate(all="ignore"):
                _advance_stack(states[:, big:big + 1], None, spec, cfg)
        assert alone.value.step_index == 2
        with pytest.raises(DivergedTrajectoryError) as err:
            with np.errstate(all="ignore"):
                advance_columns(states, None, spec, cfg)
        assert err.value.step_index == 0

    @pytest.mark.parametrize("early", ["left", "right"])
    def test_divergence_reports_the_earlier_substep(self, spec, noise, early):
        """One half diverges at the first norm check, the other only at the last."""
        cfg = SolverConfig(dt=0.01, blowup_threshold=5e-3)
        left, right = slice(None, 128), slice(128, None)
        early, late = (left, right) if early == "left" else (right, left)
        states = np.zeros((spec.n_modes, 256))
        states[:, early] = 0.1
        coeffs = _kick_stack(noise, spec, 256)
        with pytest.raises(DivergedTrajectoryError) as late_err:
            _advance_stack(states[:, late], coeffs[late], spec, cfg)
        assert late_err.value.step_index == cfg.n_substeps - 1
        with pytest.raises(DivergedTrajectoryError) as whole:
            _advance_stack(states, coeffs, spec, cfg)
        with pytest.raises(DivergedTrajectoryError) as err:
            advance_columns(states, coeffs, spec, cfg)
        assert err.value.step_index == whole.value.step_index == 0
        assert err.value.norm == whole.value.norm

    def test_worker_keeps_the_callers_errstate(self, spec, started):
        """An overflow in the right half raises under ``errstate(over="raise")``."""
        cfg = SolverConfig(dt=0.01, blowup_threshold=1e250)
        states = np.full((spec.n_modes, 256), 1e-2)
        states[:, 200] = 1e80
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError, match="overflow") as err:
                advance_columns(states, None, spec, cfg)
        assert err.value.step_index == 1
        assert len(started) == 1

    def test_worker_keeps_the_callers_errstate_where_only_it_raises(self, spec, started):
        """An underflow in the right half raises only under ``errstate(under="raise")``;
        a worker without the caller's errstate would step it to a result."""
        cfg = SolverConfig(dt=0.01)
        states = np.full((spec.n_modes, 256), 1e-2)
        states[:, 200] = 1e-200
        with np.errstate(under="raise"):
            with pytest.raises(FloatingPointError, match="underflow") as err:
                advance_columns(states, None, spec, cfg)
        assert err.value.step_index == 0
        assert len(started) == 1


def _poisoned_tau(monkeypatch, cfg, row):
    """Make ``flow``'s midpoint table NaN in one row: the first non-finite
    state is then states[row + 1]."""
    tau = dynamics._tau_mid(NoiseSpec().p_order, cfg).copy()
    tau[row] = np.nan
    monkeypatch.setattr(dynamics, "_tau_mid", lambda p_order, cfg: tau)


class TestFusedStep:
    """``flow``'s fused substep against the slow stepper on the public
    ``nonlinearity``, and its finiteness check once per 64 substeps."""

    @pytest.fixture
    def u0(self, spec):
        u = np.random.default_rng(21).standard_normal(spec.n_modes)
        return 2.0 * u / np.linalg.norm(u)

    @pytest.mark.parametrize("n_units", [1, 3])
    def test_matches_reference_stepper(self, spec, cfg, noise, u0, n_units):
        kicks = [sample_kick(noise, spec, kick_rng(4, 0, k)) for k in range(n_units)]
        traj = flow(u0, kicks, spec, cfg, n_units=n_units)
        want = reference_flow(u0, kicks, spec, cfg)
        assert traj.states.flags.c_contiguous
        assert traj.states.shape == want.shape
        assert np.abs(traj.states - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("first", [1, 63, 64, 65, 999])
    def test_step_index_is_the_first_non_finite_state(self, spec, cfg, noise, monkeypatch,
                                                       first):
        _poisoned_tau(monkeypatch, cfg, first - 1)
        eta = sample_kick(noise, spec, kick_rng(0, 0, 0))
        with pytest.raises(FloatingPointError) as err:
            flow(np.zeros(spec.n_modes), eta, spec, cfg)
        assert err.value.step_index == first

    def test_step_index_in_a_later_unit(self, spec, cfg, noise):
        kicks = [sample_kick(noise, spec, kick_rng(0, 0, k)) for k in range(2)]
        kicks[1].coeffs[0, 3] = np.nan
        with pytest.raises(FloatingPointError) as err:
            flow(np.zeros(spec.n_modes), kicks, spec, cfg, n_units=2)
        assert err.value.step_index == cfg.n_substeps + 1

    def test_non_finite_endpoint_alone_diverges(self, spec, cfg, noise, monkeypatch):
        _poisoned_tau(monkeypatch, cfg, cfg.n_substeps - 1)
        eta = sample_kick(noise, spec, kick_rng(0, 0, 0))
        with pytest.raises(DivergedTrajectoryError) as err:
            flow(np.zeros(spec.n_modes), eta, spec, cfg)
        assert err.value.step_index == cfg.n_substeps
        assert np.isnan(err.value.norm)

    def test_norm_check_ranks_before_a_later_non_finite_state(self, spec, noise, monkeypatch):
        cfg = SolverConfig(blowup_threshold=1e-3)
        _poisoned_tau(monkeypatch, cfg, 4)
        eta = sample_kick(noise, spec, kick_rng(0, 0, 0))
        with pytest.raises(DivergedTrajectoryError) as err:
            flow(np.full(spec.n_modes, 0.1), eta, spec, cfg)
        assert err.value.step_index == 0

    def test_non_finite_state_ranks_before_numpy_error_in_its_substep(self, spec, cfg,
                                                                      noise):
        """An infinite kick makes states[1] infinite without a floating-point
        error; substep 1 then raises ``invalid`` under ``errstate``, which is
        reported as the non-finite state, as a check on every substep would."""
        eta = sample_kick(noise, spec, kick_rng(0, 0, 0))
        eta.coeffs[0, 3] = np.inf
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError, match="non-finite") as err:
                flow(np.zeros(spec.n_modes), eta, spec, cfg)
        assert err.value.step_index == 1

    def test_numpy_error_keeps_its_substep(self, spec):
        cfg = SolverConfig(dt=0.01, blowup_threshold=1e300)
        u0 = np.zeros(spec.n_modes)
        u0[1] = 1e160  # the cross term of substep 0 overflows
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow") as err:
                flow(u0, None, spec, cfg)
        assert err.value.step_index == 0

    def test_midpoint_table_is_cached_read_only(self, cfg):
        tau = dynamics._tau_mid(2, cfg)
        assert dynamics._tau_mid(2, cfg) is tau
        assert not tau.flags.writeable

    def test_energy_residual_rejects_nodes_that_do_not_split_into_kicks(self, spec, cfg,
                                                                       noise):
        kicks = [sample_kick(noise, spec, kick_rng(6, 0, k)) for k in range(2)]
        traj = flow(np.zeros(spec.n_modes), kicks, spec, cfg, n_units=2)
        short = Trajectory(traj.times[:-1], traj.states[:-1], kicks)
        with pytest.raises(ValueError):
            energy_identity_residual(short, spec)

    @pytest.mark.parametrize("n_units", [1, 2])
    def test_energy_residual_equals_the_previous_computation(self, spec, cfg, noise, u0,
                                                             n_units):
        kicks = [sample_kick(noise, spec, kick_rng(6, 0, k)) for k in range(n_units)]
        traj = flow(u0, kicks, spec, cfg, n_units=n_units)
        assert energy_identity_residual(traj, spec) == reference_residual(traj, spec)
        unforced = flow(u0, None, spec, cfg)
        assert energy_identity_residual(unforced, spec) == reference_residual(unforced, spec)
