"""Acceptance gate: eleven quantitative criteria at default configuration.

Each test prints one pass/fail line with the measured quantities.  The
defaults are viscosity 0.1, period 4, truncation (5, 5), substep 1e-3.
"""

import math

import numpy as np
import pytest

from kickflow.basis import DomainSpec, bracket, eigenvalues, mode_table, norms, \
    poincare_constant
from kickflow.dynamics import SolverConfig, energy_identity_residual, flow, \
    nonlinearity, time_one_map
from kickflow.ergodicity import absorbing_constants, default_test_dictionary, \
    dual_lipschitz_lower, ensemble_step, k_star, krylov_average, make_compact, \
    mc_floor, mixing_fit, EmpiricalEnsemble
from kickflow.linearization import compactness_diagnostic, gram_limit_check, \
    linearize_kick
from kickflow.noise import KickPath, NoiseSpec, amplitudes, kick_rng, pm_order, \
    sample_kick, sample_xi
from kickflow.stabilisation import couple, epsilon_check, right_inverse_matrix, tune

SPEC = DomainSpec(length=4.0, viscosity=0.1, mx=5, ny=5)
CFG = SolverConfig(dt=1e-3)
NOISE = NoiseSpec()
SEED = 0


def _report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def _default_kicks(n, seed=SEED, traj=0):
    return [sample_kick(NOISE, SPEC, kick_rng(seed, traj, k)) for k in range(n)]


def _leading_mode_state(seed, norm):
    rng = np.random.default_rng(seed)
    u = np.zeros(SPEC.n_modes)
    u[:8] = rng.standard_normal(8)
    return u * (norm / np.linalg.norm(u))


@pytest.fixture(scope="module")
def base_ops():
    """Tangent operators along the default kicked base trajectory."""
    u0 = _leading_mode_state(0, 1.0)
    eta = sample_kick(NOISE, SPEC, kick_rng(SEED, 0, 0))
    base = flow(u0, eta, SPEC, CFG)
    return base, linearize_kick(base, SPEC, CFG, NOISE)


@pytest.fixture(scope="module")
def ensemble_histories():
    """Evolved 512-particle ensembles from the radius-1 and radius-3 compacts."""
    n, n_dist = 512, 25
    hist1 = [make_compact(SPEC, 1.0, n, SEED, id_offset=0)]
    hist3 = [make_compact(SPEC, 3.0, n, SEED, id_offset=10_000_000)]
    max_sq = [float((hist3[0].particles ** 2).sum(axis=1).max())]
    ens3 = hist3[0]
    for k in range(100):
        ens3 = ensemble_step(ens3, SPEC, CFG, NOISE)
        max_sq.append(float((ens3.particles ** 2).sum(axis=1).max()))
        if k < n_dist:
            hist3.append(ens3)
    for _ in range(n_dist):
        hist1.append(ensemble_step(hist1[-1], SPEC, CFG, NOISE))
    return hist1, hist3, np.array(max_sq)


class TestAcceptance:
    def test_criterion_1_energy_identity(self):
        kicks = _default_kicks(10)
        traj = flow(np.zeros(SPEC.n_modes), kicks, SPEC, CFG, n_units=10)
        rel = energy_identity_residual(traj, SPEC) / (traj.states ** 2).sum(axis=1).max()
        half = SolverConfig(dt=5e-4)
        traj_h = flow(np.zeros(SPEC.n_modes), kicks, SPEC, half, n_units=10)
        rel_h = energy_identity_residual(traj_h, SPEC) / (traj_h.states ** 2).sum(axis=1).max()
        ratio = rel / rel_h
        _report(1, rel <= 5e-3 and ratio >= 1.8,
                f"relative residual {rel:.3e} (<= 5e-3), dt-halving ratio "
                f"{ratio:.2f} (>= 1.8)")

    def test_criterion_2_nonlinearity_orthogonality(self):
        rng = np.random.default_rng(100)
        worst = 0.0
        for _ in range(10):
            u = rng.standard_normal((SPEC.n_modes, 100))
            bu = nonlinearity(u, SPEC)
            inner = np.abs(np.sum(bu * u, axis=0))
            nh = np.linalg.norm(u, axis=0)
            nv_sq = np.sum(eigenvalues(SPEC)[:, None] * u * u, axis=0)
            worst = max(worst, float((inner / (nh * nv_sq)).max()))
        _report(2, worst <= 1e-10,
                f"max |<B(u),u>| / (|u| |u|_1^2) = {worst:.3e} (<= 1e-10) "
                "over 1000 fields")

    def test_criterion_3_poincare_and_bracket(self):
        lam1 = poincare_constant(SPEC)
        lam1_err = abs(lam1 - math.pi**2)
        rng = np.random.default_rng(101)
        worst_p, worst_b = 0.0, 0.0
        for _ in range(1000):
            u = rng.standard_normal(SPEC.n_modes)
            nh, nv, nvp = norms(u, SPEC)
            worst_p = max(worst_p,
                          (lam1 * nh**2 - nv**2) / nv**2,
                          (nvp**2 - nh**2 / lam1) / nvp**2)
            worst_b = max(worst_b, (0.5 * nv**2 - bracket(u, u, SPEC)) / nv**2)
        ok = lam1_err <= 1e-12 and worst_p <= 1e-12 and worst_b <= 1e-12
        _report(3, ok,
                f"lambda1 - pi^2 = {lam1_err:.1e}, worst Poincare defect "
                f"{worst_p:.1e}, worst bracket defect {worst_b:.1e} (all <= 1e-12)")

    def test_criterion_4_psi_splitting(self, base_ops):
        base, ops = base_ops
        nu_lam1 = SPEC.viscosity * poincare_constant(SPEC)
        psi1_norm = float(np.abs(ops.psi1).max())
        norm_err = abs(psi1_norm - math.exp(-nu_lam1))
        below_kappa = psi1_norm < math.exp(-nu_lam1 / 2)
        eps = 1e-5
        fd = np.empty((SPEC.n_modes, SPEC.n_modes))
        eta = base.forcing[0]
        for j in range(SPEC.n_modes):
            e = np.zeros(SPEC.n_modes)
            e[j] = eps
            plus = time_one_map(base.states[0] + e, eta, SPEC, CFG)
            minus = time_one_map(base.states[0] - e, eta, SPEC, CFG)
            fd[:, j] = (plus - minus) / (2 * eps)
        defect = np.linalg.norm(np.diag(ops.psi1) + ops.psi2 - fd, 2)
        _report(4, norm_err <= 1e-12 and below_kappa and defect <= 1e-4,
                f"| |psi1| - exp(-nu lam1) | = {norm_err:.1e} (<= 1e-12), "
                f"below kappa: {below_kappa}, FD-Jacobian defect {defect:.2e} "
                "(<= 1e-4)")

    def test_criterion_5_compactness_proxy(self, base_ops):
        base, ops = base_ops
        sig5 = compactness_diagnostic(ops)
        ratio = sig5[19] / sig5[0]
        fine = DomainSpec(length=4.0, viscosity=0.1, mx=7, ny=7)
        embed = {mo: j for j, mo in enumerate(mode_table(fine))}
        idx = np.array([embed[mo] for mo in mode_table(SPEC)])
        u0f = np.zeros(fine.n_modes)
        u0f[idx] = base.states[0]
        cf = np.zeros((NOISE.p_order, fine.n_modes))
        cf[:, idx] = base.forcing[0].coeffs
        base_f = flow(u0f, KickPath(cf), fine, CFG)
        sig7 = compactness_diagnostic(linearize_kick(base_f, fine, CFG, NOISE))
        change = float(np.abs(sig7[:10] - sig5[:10]).max() / sig5[:10].min())
        rel = float((np.abs(sig7[:10] - sig5[:10]) / sig5[:10]).max())
        _report(5, rel <= 0.05 and ratio <= 0.1,
                f"top-10 singular value change {rel:.2%} (<= 5%) under (7,7) "
                f"refinement, sigma20/sigma1 = {ratio:.3f} (<= 0.1); "
                f"abs-scaled change {change:.2e}")

    def test_criterion_6_gram_controllability(self, base_ops):
        _, ops = base_ops
        min_eig = float(ops.gram_eigvals.min())
        worst = 0.0
        for i in (0, ops.gram_eigvals.size // 2, ops.gram_eigvals.size - 1):
            v = ops.gram_eigvecs[:, i]
            lam = ops.gram_eigvals[i]
            for g in (1e-2, 1e-5):
                res = gram_limit_check(ops, v, [g])[0]
                worst = max(worst, abs(res - g / (lam + g)))
        f = np.random.default_rng(102).standard_normal(SPEC.n_modes)
        seq = gram_limit_check(ops, f, [1e-1 * 0.5**j for j in range(20)])
        nonincreasing = bool(np.all(np.diff(seq) <= 1e-12))
        _report(6, min_eig > 0 and worst <= 1e-10 and nonincreasing,
                f"min eig(G) = {min_eig:.3e} (> 0), eigenvector residual error "
                f"{worst:.1e} (<= 1e-10), gamma-halving residuals "
                f"nonincreasing: {nonincreasing}")

    def test_criterion_7_squeezing(self, base_ops):
        _, ops = base_ops
        delta = 1e-2
        ctl = tune(ops, 0.1, NOISE, SPEC, delta=delta)
        eps_hat = epsilon_check(ops, right_inverse_matrix(ops, ctl, NOISE, SPEC))
        q_geo, q_max, c_hat = [], 0.0, 0.0
        phi_bound_ok = True
        for pair in range(2):
            u0 = np.zeros(SPEC.n_modes)
            for k in range(k_star(9.0, SPEC, NOISE) + 1):
                eta = sample_kick(NOISE, SPEC, kick_rng(SEED + 50, pair, k))
                u0 = time_one_map(u0, eta, SPEC, CFG)
            rng = np.random.default_rng(200 + pair)
            w = rng.standard_normal(SPEC.n_modes)
            u0p = u0 + delta * w / np.linalg.norm(w)
            report = couple(u0, u0p, SEED + 60, 50, SPEC, CFG, ctl, NOISE,
                            traj_id=pair)
            q_geo.append(report.q_geo_mean)
            q_max = max(q_max, report.q_max)
            c_hat = max(c_hat, report.c_hat)
            for p, d in zip(report.phi_norms, report.distances):
                phi_bound_ok = phi_bound_ok and p <= report.c_hat * d * (1 + 1e-12)
        ok = eps_hat <= 0.1 and max(q_geo) <= 0.95 and phi_bound_ok
        _report(7, ok,
                f"tuned (M={ctl.rank}, gamma={ctl.gamma:g}) with eps_hat = "
                f"{eps_hat:.3e} (<= 0.1); geometric-mean q_hat = "
                f"{max(q_geo):.3f} (<= 0.95), max q_hat = {q_max:.3f}, no "
                f"squeezing violation, phi bound holds with C_hat = {c_hat:.3e}")

    def test_criterion_8_absorbing_set(self, ensemble_histories):
        _, _, max_sq = ensemble_histories
        kappa, m2, rad_sq = absorbing_constants(SPEC, NOISE)
        ks = k_star(9.0, SPEC, NOISE)
        inside = max_sq[ks:] <= rad_sq
        entered = int(np.argmax(max_sq <= rad_sq))
        _report(8, bool(inside.all()),
                f"512 particles from radius 3 enter |u|^2 <= {rad_sq:.4f} by "
                f"kick {entered} (k* = {ks}) and stay inside through kick 100 "
                f"(max tail |u|^2 = {max_sq[ks:].max():.3e})")

    def test_criterion_9_mixing(self, ensemble_histories):
        hist1, hist3, _ = ensemble_histories
        dic = default_test_dictionary(SPEC)
        dists = np.array([dual_lipschitz_lower(a, b, dic)
                          for a, b in zip(hist1, hist3)])
        # per-run Monte-Carlo floor, calibrated by split-half self-distance
        floors = []
        for ens in hist3[-5:]:
            h = ens.n_particles // 2
            a = EmpiricalEnsemble(ens.particles[:h], np.full(h, 1.0 / h), 0, 0,
                                  np.arange(h))
            b = EmpiricalEnsemble(ens.particles[h:2 * h], np.full(h, 1.0 / h),
                                  0, 0, np.arange(h))
            floors.append(dual_lipschitz_lower(a, b, dic))
        floor = float(np.median(floors))
        monotone = bool(np.all(np.diff(dists) <= 2 * floor))
        reaches_floor = dists[-1] <= mc_floor(512)
        usable = np.nonzero(dists > 2 * floor)[0]
        c_big, c_rate, r2 = mixing_fit(usable, dists[usable])
        avg1 = krylov_average(hist1, burn_in=10)
        avg3 = krylov_average(hist3, burn_in=10)
        stat = dual_lipschitz_lower(avg1, avg3, dic)
        ok = (monotone and reaches_floor and c_rate > 0 and r2 >= 0.9
              and stat <= 2 * floor)
        _report(9, ok,
                f"distance decays monotonically ({monotone}) to {dists[-1]:.3e} "
                f"(<= nominal floor {mc_floor(512):.3f}); fit over "
                f"{usable.size} pre-floor points: c = {c_rate:.3f} (> 0), "
                f"R^2 = {r2:.3f} (>= 0.9); calibrated floor {floor:.2e}; "
                f"stationary estimates agree to {stat:.2e} (<= 2x floor)")

    def test_criterion_10_controllability_to_zero(self):
        nu_lam1 = SPEC.viscosity * poincare_constant(SPEC)
        worst = 0.0
        for seed, norm0 in ((1, 1.0), (2, 3.0)):
            u = _leading_mode_state(seed, norm0)
            for n in range(1, 21):
                u = time_one_map(u, None, SPEC, CFG)
                bound = math.exp(-nu_lam1 * n / 2) * norm0
                worst = max(worst, float(np.linalg.norm(u)) / bound)
        _report(10, worst <= 1.01,
                f"zero-noise decay: max |u_n| / (e^(-nu lam1 n / 2) |u_0|) = "
                f"{worst:.4f} (<= 1.01) over 20 kicks from two states")

    def test_criterion_11_noise_law(self):
        n = 1_000_000
        rng = np.random.default_rng(103)
        xi = sample_xi(rng, n)
        se_mean = xi.std() / math.sqrt(n)
        se_var = (xi * xi).std() / math.sqrt(n)
        mean_ok = abs(xi.mean()) <= 3 * se_mean
        var_ok = abs(xi.var() - 1.0 / 7.0) <= 3 * se_var
        b = amplitudes(NOISE, SPEC)
        support_ok = all(
            np.all(np.abs(sample_kick(NOISE, SPEC, kick_rng(SEED, 0, k)).coeffs) <= b)
            for k in range(1000)
        )
        order = pm_order(NOISE, SPEC)
        a_idx, b_idx = order[0], order[order.size // 2]
        m = 100_000
        block = sample_xi(np.random.default_rng(104), (m, b.size))
        corr = float(np.corrcoef(block[:, a_idx], block[:, b_idx])[0, 1])
        indep_ok = abs(corr) <= 3.0 / math.sqrt(m)
        ok = mean_ok and var_ok and support_ok and indep_ok
        _report(11, ok,
                f"mean {xi.mean():+.2e} (|.| <= 3se = {3 * se_mean:.1e}), "
                f"variance {xi.var():.5f} vs 1/7 (within 3se = {3 * se_var:.1e}), "
                f"support box respected on 1000 kicks: {support_ok}, "
                f"P_M/Q_M correlation {corr:+.2e} (|.| <= {3 / math.sqrt(m):.1e})")
