"""Stokes eigenbasis, norms, grid transforms, and field serialisation."""

import math

import numpy as np
import pytest

from kickflow import DomainSpec, ModeIndex
from kickflow.basis import (
    analyze,
    bracket,
    eigenvalues,
    grid_operators,
    load_field,
    min_grid,
    mode_table,
    norms,
    poincare_constant,
    save_field,
    stokes_eigenvalue,
    synthesize,
)


class TestDomainSpec:
    def test_mode_count(self, spec):
        assert spec.n_modes == (2 * spec.mx + 1) * spec.ny == 55

    def test_validation(self):
        with pytest.raises(ValueError):
            DomainSpec(length=-1.0, viscosity=0.1)
        with pytest.raises(ValueError):
            DomainSpec(length=4.0, viscosity=0.0)
        with pytest.raises(ValueError):
            DomainSpec(length=4.0, viscosity=0.1, damping=-0.5)
        with pytest.raises(ValueError):
            DomainSpec(length=4.0, viscosity=0.1, ny=0)


class TestSpectrum:
    def test_eigenvalue_formula(self, spec):
        for m, n in [(0, 1), (3, 2), (-5, 5), (1, 1)]:
            expected = (2 * math.pi * abs(m) / spec.length) ** 2 + (math.pi * n) ** 2
            assert stokes_eigenvalue(ModeIndex(m, n), spec) == pytest.approx(expected)

    def test_out_of_range_mode(self, spec):
        with pytest.raises(ValueError):
            stokes_eigenvalue(ModeIndex(spec.mx + 1, 1), spec)
        with pytest.raises(ValueError):
            stokes_eigenvalue(ModeIndex(0, 0), spec)

    def test_ordering_nondecreasing(self, spec):
        lam = eigenvalues(spec)
        assert np.all(np.diff(lam) >= 0)
        assert lam.shape == (spec.n_modes,)

    def test_ground_mode_first(self, spec):
        assert mode_table(spec)[0] == ModeIndex(0, 1)
        assert poincare_constant(spec) == pytest.approx(math.pi**2, abs=1e-12)

    def test_sine_cosine_partners_degenerate(self, spec):
        lam = eigenvalues(spec)
        table = mode_table(spec)
        for j, mo in enumerate(table):
            if mo.m != 0:
                partner = table.index(ModeIndex(-mo.m, mo.n))
                assert lam[j] == lam[partner]


class TestNormsAndBracket:
    def test_single_mode_norms(self, spec):
        u = np.zeros(spec.n_modes)
        u[0] = 1.0
        nh, nv, nvp = norms(u, spec)
        assert nh == pytest.approx(1.0, abs=1e-14)
        assert nv == pytest.approx(math.pi, abs=1e-12)
        assert nvp == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_norm_relation(self, spec, rng):
        lam = eigenvalues(spec)
        for _ in range(20):
            u = rng.standard_normal(spec.n_modes)
            nh, nv, nvp = norms(u, spec)
            assert nv**2 == pytest.approx(float(np.sum(lam * u * u)), rel=1e-12)
            assert nvp**2 == pytest.approx(float(np.sum(u * u / lam)), rel=1e-12)

    def test_bracket_identity(self, spec, rng):
        lam1 = poincare_constant(spec)
        for _ in range(20):
            u = rng.standard_normal(spec.n_modes)
            v = rng.standard_normal(spec.n_modes)
            _, nv_u, _ = norms(u, spec)
            direct = np.dot(eigenvalues(spec) * u, v) - 0.5 * lam1 * np.dot(u, v)
            assert bracket(u, v, spec) == pytest.approx(direct, rel=1e-12)
            assert bracket(u, u, spec) >= 0.5 * nv_u**2 - 1e-12

    def test_dimension_mismatch(self, spec):
        with pytest.raises(ValueError):
            norms(np.ones(spec.n_modes + 1), spec)


class TestGridTransforms:
    def test_min_grid(self, spec):
        nx, nyq = min_grid(spec)
        assert nx == math.ceil(3 * (2 * spec.mx + 1) / 2)
        assert nyq == math.ceil(3 * spec.ny / 2) + 1

    def test_undersized_grid_rejected(self, spec):
        nx, nyq = min_grid(spec)
        with pytest.raises(ValueError):
            grid_operators(spec, nx - 1, nyq)

    def test_orthonormality(self, spec):
        ops = grid_operators(spec)
        gram = ops.ana2 @ ops.syn4[:2 * ops.n_points]
        assert np.abs(gram - np.eye(spec.n_modes)).max() < 1e-13

    def test_round_trip(self, spec, rng):
        u = rng.standard_normal(spec.n_modes)
        u1, u2 = synthesize(u, spec)
        back = analyze(u1, u2, spec)
        assert np.abs(back - u).max() < 1e-13

    def test_divergence_free_on_grid(self, spec):
        """Free-slip walls: the normal velocity vanishes at y = 0 and y = 1."""
        u = np.ones(spec.n_modes)
        _, u2 = synthesize(u, spec)
        assert np.abs(u2[:, 0]).max() < 1e-12
        assert np.abs(u2[:, -1]).max() < 1e-12

    def test_oversampled_grid_consistent(self, spec, rng):
        u = rng.standard_normal(spec.n_modes)
        nx, nyq = min_grid(spec)
        u1a, _ = synthesize(u, spec)
        back = analyze(*synthesize(u, spec, 2 * nx, 2 * nyq), spec, 2 * nx, 2 * nyq)
        assert np.abs(back - u).max() < 1e-12
        assert u1a.shape == (nx, nyq + 1)


class TestFieldSerialisation:
    def test_round_trip_exact(self, spec, rng, tmp_path):
        u = rng.standard_normal(spec.n_modes)
        path = tmp_path / "field.csv"
        save_field(u, path)
        assert np.array_equal(load_field(path), u)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("not a field\n1,2,3\n")
        with pytest.raises(ValueError):
            load_field(path)
