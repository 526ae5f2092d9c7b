"""Stokes eigenbasis, norms, grid transforms, and field serialisation."""

import math

import numpy as np
import pytest

from kickflow import DomainSpec, ModeIndex
from kickflow.basis import (
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
)
from reference import velocity_form_operators


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

    @pytest.mark.parametrize("field", ["length", "viscosity", "damping"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_fields_are_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            DomainSpec(**{"length": 4.0, "viscosity": 0.1, field: value})


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

    @pytest.mark.parametrize("factor", [1, 2], ids=["minimal", "doubled"])
    def test_orthonormality(self, spec, factor):
        """<e_j, e_k> by the trapezoid rule on the full grid, walls included, is
        the identity; the library's tables are its interior rows."""
        nx, nyq = (factor * n for n in min_grid(spec))
        syn, ana = velocity_form_operators(spec, nx, nyq)
        gram = ana @ syn[:2].reshape(-1, spec.n_modes)
        assert np.abs(gram - np.eye(spec.n_modes)).max() < 1e-13
        ops = grid_operators(spec, nx, nyq)
        interior = syn[:2].reshape(2, nx, nyq + 1, spec.n_modes)[:, :, 1:-1]
        assert np.abs(ops.syn2 - interior.reshape(ops.syn2.shape)).max() < 1e-13

    @pytest.mark.parametrize("factor", [1, 2], ids=["minimal", "doubled"])
    def test_dense_matrices_from_factors(self, spec, factor):
        """``syn2`` and ``ana1`` are exactly the products of the 1-D factors."""
        nx, nyq = (factor * n for n in min_grid(spec))
        ops = grid_operators(spec, nx, nyq)
        K, npts = spec.n_modes, ops.n_points
        assert npts == nx * (nyq - 1)
        assert np.array_equal(np.sort(ops.slot), np.arange(K))
        qx = np.full(nx, spec.length / nx)
        qy = np.full(nyq - 1, 1.0 / nyq)
        assert np.array_equal(ops.exw, (ops.ex * qx[:, None]).T)
        assert np.array_equal(ops.syw, (ops.sy * qy[:, None]).T)
        syn = np.empty((2, npts, K))
        ana = np.empty((K, npts))
        for j, mo in enumerate(mode_table(spec)):
            i, n = mo.m + spec.mx, mo.n - 1
            assert ops.slot[j] == i * spec.ny + n
            s = ops.scale[i, n]
            syn[0, :, j] = s * np.outer(ops.ex[:, i], ops.cy[:, n]).ravel()
            syn[1, :, j] = -s * np.outer(ops.dex[:, i], ops.sy[:, n]).ravel()
            ana[j] = s * np.outer(ops.ex[:, i], ops.sy[:, n]).ravel() * np.outer(qx, qy).ravel()
        assert np.array_equal(syn.reshape(2 * npts, K), ops.syn2)
        assert np.array_equal(ana, ops.ana1)
        # BLAS rounds a product with an F-ordered matrix differently
        assert ops.syn2.flags.c_contiguous and ops.ana1.flags.c_contiguous

    def test_divergence_free_on_grid(self, spec):
        """Free-slip walls: the normal velocity and every stream function vanish
        at y = 0 and y = 1, so the wall nodes, which the tables leave out, carry
        no analysis weight beyond rounding."""
        nx, nyq = min_grid(spec)
        syn, _ = velocity_form_operators(spec, nx, nyq)
        u2 = (syn[1] @ np.ones(spec.n_modes)).reshape(nx, nyq + 1)
        assert np.abs(u2[:, 0]).max() < 1e-12
        assert np.abs(u2[:, -1]).max() < 1e-12
        ana1 = grid_operators(spec).ana1
        assert ana1.shape == (spec.n_modes, nx * (nyq - 1))
        # |psi_k| <= s_k |sin(pi n y)| at a wall node, whose weight is (L / nx) / (2 nyq)
        wall = max(abs(math.sin(math.pi * mo.n * y)) * (spec.length / nx) / (2 * nyq)
                   / math.sqrt(stokes_eigenvalue(mo, spec) * spec.length * (0.5 if mo.m else 1) / 2)
                   for mo in mode_table(spec) for y in (0.0, 1.0))
        assert wall <= 1e-15 * np.abs(ana1).max()


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
