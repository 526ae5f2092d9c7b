"""Ensembles, distance certificates, fits, and absorbing-set constants."""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import reference
from compare_outputs import RUNS, data_files
from kickflow import cli, experiments
from kickflow.basis import poincare_constant
from kickflow.errors import InsufficientDataError
from kickflow.ergodicity import (
    EmpiricalEnsemble,
    TestDictionary as Dictionary,
    _dual_lipschitz,
    _ensemble_kicks,
    absorbing_constants,
    bl_distance_1d,
    default_test_dictionary,
    dual_lipschitz_lower,
    ensemble_step,
    k_star,
    krylov_average,
    make_compact,
    mc_floor,
    mixing_fit,
    tail_energy,
)
from kickflow.dynamics import time_one_map
from kickflow.noise import kick_rng, sample_kick, support_bound


def _dirac(x, spec_dim):
    p = np.zeros((1, spec_dim))
    p[0, 0] = x
    return EmpiricalEnsemble(p, np.array([1.0]), 0, 0, np.array([0]))


def _counted(mu1, mu2, dic):
    """``dual_lipschitz_lower`` and the work counts of its 1D searches."""
    counts = Counter()

    def count(name, n):
        counts[name] += n

    return _dual_lipschitz(mu1, mu2, dic, count), counts


class TestEnsembleBasics:
    def test_make_compact_radius(self, spec):
        ens = make_compact(spec, 3.0, 16, seed=0)
        assert np.allclose(np.linalg.norm(ens.particles, axis=1), 3.0)
        assert ens.weights.sum() == pytest.approx(1.0)
        assert np.abs(ens.particles[:, 8:]).max() == 0.0

    def test_make_compact_reproducible(self, spec):
        a = make_compact(spec, 1.0, 8, seed=5)
        b = make_compact(spec, 1.0, 8, seed=5)
        assert np.array_equal(a.particles, b.particles)

    def test_weight_validation(self, spec):
        with pytest.raises(ValueError):
            EmpiricalEnsemble(np.zeros((2, spec.n_modes)), np.array([0.6, 0.6]),
                              0, 0, np.array([0, 1]))


class TestEnsembleStep:
    def test_matches_markov_run(self, spec, fast_cfg, noise):
        """Each particle takes the Markov chain's step under its own kick stream."""
        ens = make_compact(spec, 0.5, 3, seed=7)
        stepped = ensemble_step(ens, spec, fast_cfg, noise)
        for i, pid in enumerate(ens.particle_ids):
            eta = sample_kick(noise, spec, kick_rng(ens.master_seed, int(pid), 0))
            single = time_one_map(ens.particles[i], eta, spec, fast_cfg)
            assert np.abs(stepped.particles[i] - single).max() < 1e-13

    @pytest.mark.parametrize("n, kick_index", [(512, 0), (512, 3), (1, 0), (65, 3)])
    def test_kicks_equal_sample_kick(self, spec, noise, n, kick_index):
        """The batched draw gives every particle the kick ``sample_kick``
        draws from its stream, bit for bit, across the 64-particle blocks."""
        ens = make_compact(spec, 1.0, n, seed=7, id_offset=10_000_000)
        ens.kick_index = kick_index
        kicks = _ensemble_kicks(ens, spec, noise)
        assert kicks.shape == (n,) + sample_kick(noise, spec, kick_rng(0, 0, 0)).coeffs.shape
        for pid, kick in zip(ens.particle_ids, kicks):
            eta = sample_kick(noise, spec, kick_rng(ens.master_seed, int(pid), kick_index))
            assert np.array_equal(kick, eta.coeffs)

    def test_kick_index_advances(self, spec, fast_cfg, noise):
        ens = make_compact(spec, 0.5, 2, seed=7)
        stepped = ensemble_step(ens, spec, fast_cfg, noise)
        assert stepped.kick_index == ens.kick_index + 1
        assert np.array_equal(stepped.particle_ids, ens.particle_ids)


class TestKrylovAverage:
    def test_pools_history(self, spec, fast_cfg, noise):
        ens = make_compact(spec, 0.5, 4, seed=7)
        hist = [ens]
        for _ in range(2):
            hist.append(ensemble_step(hist[-1], spec, fast_cfg, noise))
        avg = krylov_average(hist, burn_in=1)
        assert avg.n_particles == 8
        assert avg.weights.sum() == pytest.approx(1.0)

    def test_empty_history_raises(self):
        with pytest.raises(InsufficientDataError):
            krylov_average([])


class TestBlDistance1d:
    def test_identical_samples(self, rng):
        x = rng.standard_normal(20)
        w = np.full(20, 1.0 / 20)
        assert bl_distance_1d(x, w, x, w) < 1e-9

    def test_two_point_closed_form(self):
        """Diracs at distance d have distance exactly 2d/(2+d)."""
        one = np.array([0.0])
        w = np.array([1.0])
        for d in (0.05, 0.5, 3.0, 50.0):
            got = bl_distance_1d(one, w, np.array([d]), w)
            assert got == pytest.approx(2 * d / (2 + d), abs=1e-9)

    def test_symmetry(self, rng):
        x = rng.standard_normal(15)
        y = rng.standard_normal(10) + 0.5
        wx = np.full(15, 1.0 / 15)
        wy = np.full(10, 1.0 / 10)
        ab = bl_distance_1d(x, wx, y, wy)
        ba = bl_distance_1d(y, wy, x, wx)
        assert ab == pytest.approx(ba, abs=1e-9)
        assert 0.0 <= ab <= 2.0

    def test_mixture_of_diracs(self):
        """Half the mass moved by d costs half the two-point value."""
        d = 0.2
        x1 = np.array([0.0, 5.0])
        x2 = np.array([d, 5.0])
        w = np.array([0.5, 0.5])
        got = bl_distance_1d(x1, w, x2, w)
        assert got == pytest.approx(0.5 * 2 * d / (2 + d), abs=1e-6)


class TestDualLipschitzLower:
    def test_zero_on_identical(self, spec):
        ens = make_compact(spec, 1.0, 10, seed=1)
        dic = default_test_dictionary(spec)
        assert dual_lipschitz_lower(ens, ens, dic) < 1e-9

    def test_detects_translation(self, spec):
        a = _dirac(0.0, spec.n_modes)
        b = _dirac(1.0, spec.n_modes)
        dic = default_test_dictionary(spec)
        got = dual_lipschitz_lower(a, b, dic)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_dimension_mismatch(self, spec):
        a = _dirac(0.0, spec.n_modes)
        b = _dirac(0.0, spec.n_modes + 1)
        with pytest.raises(ValueError):
            dual_lipschitz_lower(a, b, default_test_dictionary(spec))

    @pytest.mark.parametrize("radius", [0.3, 1.0])
    def test_bounded_search_matches_reference_on_random_pairs(self, spec, radius):
        """Stopping a direction's search once it cannot win leaves the bound
        the same float as searching every direction to convergence."""
        rng = np.random.default_rng(int(radius * 10))
        dic = default_test_dictionary(spec, clamp_radius=radius)
        cut = 0
        for trial in range(100):
            n1, n2 = rng.integers(1, 60, 2)
            scale = rng.uniform(0.05, 3.0)

            def ensemble(n, shift):
                pts = rng.standard_normal((n, spec.n_modes)) * scale + shift
                w = rng.random(n) + 1e-3 if trial % 2 else np.ones(n)
                return EmpiricalEnsemble(pts, w / w.sum(), 0, 0, np.arange(n))

            a, b = ensemble(n1, 0.0), ensemble(n2, rng.uniform(-0.5, 0.5))
            got, counts = _counted(a, b, dic)
            assert got == reference.dual_lipschitz_lower(a, b, dic)
            cut += counts["bl_searches_cut"]
        assert cut > 0

    @pytest.mark.parametrize("radius", [0.3, 1.0])
    def test_bounded_search_matches_reference_on_mix_ensembles(self, spec, fast_cfg,
                                                                 noise, radius):
        """``mix``'s pairs: radius 1 against radius 3 at 512 particles, the
        split halves of each, and the pair after one kick."""
        dic = default_test_dictionary(spec, clamp_radius=radius)
        a = make_compact(spec, 1.0, 512, seed=7)
        b = make_compact(spec, 3.0, 512, seed=7, id_offset=10_000_000)
        pairs = [(a, b)]
        for ens in (a, b):
            pairs.append(tuple(EmpiricalEnsemble(half, np.full(256, 1.0 / 256), 0, 0,
                                                 np.arange(256))
                               for half in (ens.particles[:256], ens.particles[256:])))
        pairs.append((ensemble_step(a, spec, fast_cfg, noise),
                      ensemble_step(b, spec, fast_cfg, noise)))
        for x, y in pairs:
            assert dual_lipschitz_lower(x, y, dic) == reference.dual_lipschitz_lower(x, y, dic)

    def test_linear_value_cuts_from_the_first_direction(self, spec):
        """When a clamped linear value is the largest, a direction whose
        W1/TV bound is below it is stopped before any DP pass."""
        a = make_compact(spec, 1.0, 200, seed=3)
        moved = a.particles.copy()
        moved[:, 0] += 0.5
        moved[:, 1] += 1e-3
        b = EmpiricalEnsemble(moved, a.weights, 0, 0, a.particle_ids)
        dic = Dictionary(np.eye(spec.n_modes)[[1, 0]], 1.0)
        got, counts = _counted(a, b, dic)
        assert got == reference.dual_lipschitz_lower(a, b, dic)
        assert counts["bl_searches"] == 2 and counts["bl_searches_cut"] >= 1
        _, first = _counted(a, b, Dictionary(dic.directions[:1], 1.0))
        assert first["bl_passes"] > 0  # the first direction alone is searched

    def test_dictionary_shape(self, spec):
        dic = default_test_dictionary(spec, n_random=3)
        assert dic.directions.shape == (8 + 3, spec.n_modes)
        assert np.allclose(np.linalg.norm(dic.directions, axis=1), 1.0)


class TestFitsAndFloors:
    def test_mc_floor(self):
        assert mc_floor(512) == pytest.approx(3.0 / math.sqrt(512))

    def test_mixing_fit_recovers_exponential(self):
        ks = np.arange(8)
        d = 1.7 * np.exp(-0.43 * ks)
        c_big, c_rate, r2 = mixing_fit(ks, d)
        assert c_big == pytest.approx(1.7, rel=1e-10)
        assert c_rate == pytest.approx(0.43, rel=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_mixing_fit_needs_points(self):
        with pytest.raises(InsufficientDataError):
            mixing_fit([0, 1, 2], [1.0, 0.5, 0.25])


class TestConstants:
    def test_absorbing_constants_formulas(self, spec, noise):
        nu, lam1 = spec.viscosity, poincare_constant(spec)
        kappa, m2, rad2 = absorbing_constants(spec, noise)
        _, vp = support_bound(noise, spec)
        assert kappa == pytest.approx(math.exp(-nu * lam1), rel=1e-14)
        assert m2 == pytest.approx(vp / (nu * nu * lam1), rel=1e-14)
        assert rad2 == pytest.approx(2 * m2 / (1 - kappa), rel=1e-14)

    def test_k_star_cases(self, spec, noise):
        _, m2, _ = absorbing_constants(spec, noise)
        assert k_star(1e-9, spec, noise) == 0
        assert k_star(9.0, spec, noise) >= 1
        assert k_star(9.0, spec, noise) >= k_star(1.0, spec, noise)

    def test_tail_energy(self, spec):
        ens = make_compact(spec, 2.0, 4, seed=3)
        per, mx = tail_energy(ens, 1e9, spec)
        assert mx == 0.0
        per, mx = tail_energy(ens, poincare_constant(spec) / 2, spec)
        assert mx == pytest.approx(4.0, rel=1e-12)
        with pytest.raises(ValueError):
            tail_energy(ens, 0.0, spec)


class TestDistanceCounters:
    """``mix`` records the work of its distance searches in its manifest."""

    def _mix(self, out: Path) -> dict:
        args = [a.format(out=out) for a in RUNS["mix"]]
        assert cli.main(["--out", str(out)] + args) == 0
        return json.loads((out / "manifest.json").read_text())["counts"]

    def test_golden_mix_run_takes_the_bounded_path(self, tmp_path):
        counts = self._mix(tmp_path / "mix")
        # 4 rows, each a main distance and a split-half floor over 12 directions
        assert counts["bl_searches"] == 4 * 2 * 12
        assert 0 < counts["bl_searches_cut"] < counts["bl_searches"]
        assert 0 < counts["bl_passes"] < counts["bl_points"]

    @pytest.mark.parametrize("patch", ["no counters", "reference search"])
    def test_data_files_do_not_depend_on_counting(self, tmp_path, monkeypatch, patch):
        """The same bytes when the counters do nothing, and with the
        reference search, which counts nothing and searches every direction."""
        self._mix(tmp_path / "counted")
        if patch == "no counters":
            monkeypatch.setattr(experiments._Emitter, "count", lambda self, name, n: None)
        else:
            monkeypatch.setattr(experiments, "_dual_lipschitz",
                                lambda a, b, dic, count: reference.dual_lipschitz_lower(a, b, dic))
        assert self._mix(tmp_path / "patched") == {}
        names = data_files(tmp_path / "counted")
        assert names == data_files(tmp_path / "patched") and "mix_distances.csv" in names
        for name in names:
            assert (tmp_path / "counted" / name).read_bytes() == \
                (tmp_path / "patched" / name).read_bytes(), name
