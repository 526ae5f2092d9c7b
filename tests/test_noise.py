"""Kick law: density, sampler streams, amplitudes, projections, files."""

import numpy as np
import pytest

from kickflow import DomainSpec, NoiseSpec
from kickflow.noise import (
    KickPath,
    _xi_from_uniform,
    amplitudes,
    eval_kick,
    kick_rng,
    legendre_values,
    load_kick,
    pm_order,
    rho,
    rho_cdf,
    sample_kick,
    sample_xi,
    save_kick,
    support_bound,
)


def project_pm(eta, m_rank, noise, spec):
    """The kick with only its first m_rank coordinates in decreasing-amplitude order kept."""
    flat = eta.coeffs.ravel()
    if not 0 <= m_rank <= flat.size:
        raise ValueError(f"projection rank {m_rank} out of range [0, {flat.size}]")
    keep = pm_order(noise, spec)[:m_rank]
    out = np.zeros_like(flat)
    out[keep] = flat[keep]
    return KickPath(out.reshape(eta.coeffs.shape))


class TestDensity:
    def test_normalisation(self):
        r = np.linspace(-1, 1, 20001)
        assert np.trapezoid(rho(r), r) == pytest.approx(1.0, abs=1e-8)

    def test_cdf_matches_density(self):
        r = np.linspace(-1, 1, 20001)
        assert rho_cdf(-1.0) == pytest.approx(0.0, abs=1e-14)
        assert rho_cdf(1.0) == pytest.approx(1.0, abs=1e-14)
        mid = 0.5 * (r[:-1] + r[1:])
        numeric = np.cumsum(rho(mid) * np.diff(r))
        assert np.abs(rho_cdf(r[1:]) - numeric).max() < 1e-7

    def test_variance_by_quadrature(self):
        r = np.linspace(-1, 1, 20001)
        assert np.trapezoid(r * r * rho(r), r) == pytest.approx(1.0 / 7.0, abs=1e-8)

    def test_vanishes_outside_support(self):
        assert rho(1.5) == 0.0
        assert rho(-2.0) == 0.0

    def test_sample_moments(self, rng):
        xi = sample_xi(rng, 100_000)
        assert np.abs(xi).max() <= 1.0
        assert abs(xi.mean()) < 4.0 / np.sqrt(7 * 100_000)
        assert xi.var() == pytest.approx(1.0 / 7.0, abs=4 * 0.12 / np.sqrt(100_000))

    def test_inverse_cdf_accuracy(self, rng):
        xi = sample_xi(rng, 1000)
        # pushing draws back through the CDF must recover uniforms
        u = rho_cdf(xi)
        rng2 = np.random.default_rng(1234)
        assert np.abs(u - rng2.random(1000)).max() < 1e-12

    def test_columns_of_a_block_map_alone(self):
        """Mapping only some columns of a block of uniforms gives those
        columns of ``sample_xi`` on the whole block, bit for bit."""
        cols = [0, 55, 109]
        full = sample_xi(np.random.default_rng(3), (10_000, 110))
        v = np.random.default_rng(3).random((10_000, 110))[:, cols]
        assert np.array_equal(_xi_from_uniform(v), full[:, cols])


class TestLegendreBasis:
    def test_orthonormal_on_unit_interval(self):
        t = np.linspace(0, 1, 40001)
        tau = legendre_values(4, t)
        gram = np.trapezoid(tau[:, :, None] * tau[:, None, :], t, axis=0)
        assert np.abs(gram - np.eye(4)).max() < 1e-6

    def test_first_two_polynomials(self):
        t = np.array([0.0, 0.5, 1.0])
        tau = legendre_values(2, t)
        assert np.allclose(tau[:, 0], 1.0)
        assert np.allclose(tau[:, 1], np.sqrt(3.0) * (2 * t - 1))

    def test_rejects_times_outside_interval(self):
        with pytest.raises(ValueError):
            legendre_values(2, [1.5])


class TestAmplitudes:
    def test_law(self, noise, spec):
        from kickflow.basis import eigenvalues

        b = amplitudes(noise, spec)
        alpha = eigenvalues(spec)
        assert b.shape == (noise.p_order, spec.n_modes)
        for p in range(noise.p_order):
            expected = noise.b0 * (1 + p) ** (-noise.s_t) * (1 + alpha) ** (-noise.s_x)
            assert np.allclose(b[p], expected, rtol=1e-14)

    def test_pm_order_decreasing(self, noise, spec):
        b = amplitudes(noise, spec).ravel()
        order = pm_order(noise, spec)
        assert np.all(np.diff(b[order]) <= 1e-15)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(p_order=0)
        with pytest.raises(ValueError):
            NoiseSpec(s_t=1.0)

    @pytest.mark.parametrize("field", ["b0", "s_t", "s_x"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_fields_are_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(**{field: value})


class TestKickSampling:
    def test_support_box_respected(self, noise, spec):
        b = amplitudes(noise, spec)
        for k in range(50):
            eta = sample_kick(noise, spec, kick_rng(7, 0, k))
            assert np.all(np.abs(eta.coeffs) <= b)

    def test_stream_reproducibility(self, noise, spec):
        a = sample_kick(noise, spec, kick_rng(42, 3, 11))
        b = sample_kick(noise, spec, kick_rng(42, 3, 11))
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_streams_independent_of_order(self, noise, spec):
        """Drawing kick 5 first or last gives the same kick."""
        late = sample_kick(noise, spec, kick_rng(42, 0, 5))
        for k in range(5):
            sample_kick(noise, spec, kick_rng(42, 0, k))
        again = sample_kick(noise, spec, kick_rng(42, 0, 5))
        assert np.array_equal(late.coeffs, again.coeffs)

    def test_distinct_streams_differ(self, noise, spec):
        a = sample_kick(noise, spec, kick_rng(42, 0, 0))
        b = sample_kick(noise, spec, kick_rng(42, 1, 0))
        c = sample_kick(noise, spec, kick_rng(42, 0, 1))
        assert not np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_support_bound(self, noise, spec):
        from kickflow.basis import eigenvalues

        b = amplitudes(noise, spec)
        radius, vp_sup = support_bound(noise, spec)
        assert radius == pytest.approx(np.linalg.norm(b), rel=1e-14)
        assert vp_sup == pytest.approx(np.sum(b * b / eigenvalues(spec)), rel=1e-14)


class TestKickPath:
    def test_eval_matches_manual_sum(self, noise, spec):
        eta = sample_kick(noise, spec, kick_rng(0, 0, 0))
        t = 0.3
        tau = legendre_values(noise.p_order, [t])[0]
        manual = sum(tau[p] * eta.coeffs[p] for p in range(noise.p_order))
        assert np.allclose(eval_kick(eta, t), manual, rtol=1e-14)

    def test_addition_and_norm(self, noise, spec):
        eta = sample_kick(noise, spec, kick_rng(0, 0, 0))
        zeta = sample_kick(noise, spec, kick_rng(0, 0, 1))
        total = eta + zeta
        assert np.allclose(total.coeffs, eta.coeffs + zeta.coeffs)
        assert eta.norm_e == pytest.approx(np.linalg.norm(eta.coeffs))

    def test_projection_splits_energy(self, noise, spec):
        eta = sample_kick(noise, spec, kick_rng(0, 0, 2))
        m = spec.n_modes
        head = project_pm(eta, m, noise, spec)
        tail = KickPath(eta.coeffs - head.coeffs)
        assert head.norm_e**2 + tail.norm_e**2 == pytest.approx(eta.norm_e**2, rel=1e-12)
        assert np.count_nonzero(head.coeffs) <= m

    def test_projection_rank_bounds(self, noise, spec):
        eta = sample_kick(noise, spec, kick_rng(0, 0, 3))
        assert project_pm(eta, 0, noise, spec).norm_e == 0.0
        full = project_pm(eta, eta.coeffs.size, noise, spec)
        assert np.array_equal(full.coeffs, eta.coeffs)
        with pytest.raises(ValueError):
            project_pm(eta, eta.coeffs.size + 1, noise, spec)

    def test_serialisation_round_trip(self, noise, spec, tmp_path):
        eta = sample_kick(noise, spec, kick_rng(0, 0, 4))
        path = tmp_path / "kick.csv"
        save_kick(eta, path)
        assert np.array_equal(load_kick(path).coeffs, eta.coeffs)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("garbage\n")
        with pytest.raises(ValueError):
            load_kick(path)
