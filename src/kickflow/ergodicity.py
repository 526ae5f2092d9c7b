"""Markov-chain driver and measure-level diagnostics.

Ensembles are weighted particle sets advanced with per-particle
counter-based kick streams, so results are independent of sampling order
and worker count.  The dual-Lipschitz distance is certified from below
by a dictionary of clamped linear functionals plus exact one-dimensional
bounded-Lipschitz distances of projected samples.  Each of those is the
maximum over the sup/Lipschitz budget split of a concave piecewise-linear
function, evaluated by a slope-tracking dynamic programme and maximised
by cutting planes, in plain numpy and Python.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._blas import single_threaded_blas
from .basis import DomainSpec, eigenvalues, poincare_constant
from .dynamics import SolverConfig, advance_columns, time_one_map
from .errors import InsufficientDataError
from .noise import NoiseSpec, amplitudes, kick_rng, sample_kick, sample_xi, support_bound

__all__ = [
    "EmpiricalEnsemble",
    "TestDictionary",
    "markov_run",
    "make_compact",
    "ensemble_step",
    "krylov_average",
    "default_test_dictionary",
    "bl_distance_1d",
    "dual_lipschitz_lower",
    "mc_floor",
    "mixing_fit",
    "tail_energy",
    "absorbing_constants",
    "k_star",
]

_BL_MAX_PASSES = 100


@dataclass
class EmpiricalEnsemble:
    """Weighted particle approximation of a measure on H."""

    particles: np.ndarray  # (N, K)
    weights: np.ndarray  # (N,), sums to 1
    kick_index: int
    master_seed: int
    particle_ids: np.ndarray  # (N,) stream identities

    def __post_init__(self):
        # one memory layout, so that sums over particles round alike whether
        # the ensemble was stepped or loaded from a checkpoint
        self.particles = np.ascontiguousarray(np.atleast_2d(self.particles), dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape[0] != self.particles.shape[0]:
            raise ValueError("weights/particles length mismatch")
        if self.particles.shape[0] and abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]


def make_compact(spec: DomainSpec, radius: float, n_points: int, seed: int,
                 n_active: int = 8, id_offset: int = 0) -> EmpiricalEnsemble:
    """Uniform points on a sphere of the given radius in the leading modes."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xC0,)))
    n_active = min(n_active, spec.n_modes)
    pts = rng.standard_normal((n_points, n_active))
    pts *= radius / np.linalg.norm(pts, axis=1, keepdims=True)
    particles = np.zeros((n_points, spec.n_modes))
    particles[:, :n_active] = pts
    return EmpiricalEnsemble(
        particles, np.full(n_points, 1.0 / n_points), 0, seed,
        np.arange(id_offset, id_offset + n_points),
    )


def markov_run(u0: np.ndarray, n_kicks: int, seed: int, spec: DomainSpec,
               cfg: SolverConfig, noise: NoiseSpec, traj_id: int = 0) -> np.ndarray:
    """States at integer times 0..n_kicks for one seeded kick sequence."""
    states = np.empty((n_kicks + 1, spec.n_modes))
    states[0] = u0
    u = np.array(u0, dtype=float)
    for k in range(n_kicks):
        eta = sample_kick(noise, spec, kick_rng(seed, traj_id, k))
        u = time_one_map(u, eta, spec, cfg)
        states[k + 1] = u
    return states


def _sample_ensemble_kicks(ens: EmpiricalEnsemble, spec: DomainSpec,
                           noise: NoiseSpec) -> np.ndarray:
    """(N, P, K) kick coefficients, one independent stream per particle."""
    b = amplitudes(noise, spec)
    out = np.empty((ens.n_particles,) + b.shape)
    for i, pid in enumerate(ens.particle_ids):
        rng = kick_rng(ens.master_seed, int(pid), ens.kick_index)
        out[i] = b * sample_xi(rng, b.shape)
    return out


def ensemble_step(ens: EmpiricalEnsemble, spec: DomainSpec, cfg: SolverConfig,
                  noise: NoiseSpec, workers: int = 1) -> EmpiricalEnsemble:
    """Push the ensemble forward by one kick (one application of P*_1).

    BLAS runs on one thread while the columns advance; ``workers`` threads,
    each with its own share of the columns, are the only parallelism.
    """
    if ens.n_particles == 0:
        return EmpiricalEnsemble(ens.particles, ens.weights, ens.kick_index + 1,
                                 ens.master_seed, ens.particle_ids)
    coeffs = _sample_ensemble_kicks(ens, spec, noise)
    cols = ens.particles.T  # (K, N)
    with single_threaded_blas():
        if workers <= 1 or ens.n_particles < 2 * workers:
            new_cols = advance_columns(cols, coeffs, spec, cfg)
        else:
            chunks = np.array_split(np.arange(ens.n_particles), workers)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(
                    lambda idx: advance_columns(cols[:, idx], coeffs[idx], spec, cfg),
                    chunks,
                ))
            new_cols = np.concatenate(parts, axis=1)
    return EmpiricalEnsemble(new_cols.T, ens.weights.copy(), ens.kick_index + 1,
                             ens.master_seed, ens.particle_ids)


def krylov_average(history: list[EmpiricalEnsemble] | np.ndarray,
                   burn_in: int = 0) -> EmpiricalEnsemble:
    """Time-averaged occupation measure over post-burn-in snapshots."""
    if isinstance(history, np.ndarray):
        if history.ndim == 2:
            snaps = [history[burn_in:]]
            weights = [np.full(s.shape[0], 1.0) for s in snaps]
            seed, ids = 0, None
        else:
            raise ValueError("array history must be (T, K) integer-time states")
    else:
        snaps = [e.particles for e in history[burn_in:]]
        weights = [e.weights for e in history[burn_in:]]
        seed = history[-1].master_seed if history else 0
        ids = None
    if not snaps or sum(s.shape[0] for s in snaps) == 0:
        raise InsufficientDataError("empty history for time averaging")
    particles = np.concatenate(snaps, axis=0)
    w = np.concatenate(weights)
    w = w / w.sum()
    return EmpiricalEnsemble(particles, w, 0, seed, np.arange(particles.shape[0]))


@dataclass
class TestDictionary:
    """Unit directions and clamp radius defining the test functionals.

    Each direction w yields g(u) = clamp(<u, w>, -R, R) / max(1, R), with
    a factor 1/2 applied at evaluation so that the sup-norm plus Lipschitz
    seminorm of the evaluated functional is at most 1.
    """

    directions: np.ndarray  # (D, K), unit rows
    clamp_radius: float = 1.0


def default_test_dictionary(spec: DomainSpec, n_random: int = 4, seed: int = 0,
                            clamp_radius: float = 1.0) -> TestDictionary:
    """Leading eigenmode directions plus seeded random unit directions."""
    K = spec.n_modes
    lead = np.eye(K)[:min(8, K)]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xD1,)))
    rand = rng.standard_normal((n_random, K))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    return TestDictionary(np.vstack([lead, rand]), clamp_radius)


def _cut_outer(side: deque, r: float, dr: float) -> tuple[float, float]:
    """Cut length r (dr per unit beta) off the outer end of a side of the
    plateau; returns the length actually cut.  Ties go to beta + 0."""
    t, dt = r, dr
    while side:
        seg = side[0]
        if seg[1] > t or (seg[1] == t and seg[2] > dt):
            seg[1] -= t
            seg[2] -= dt
            return r, dr
        side.popleft()
        t -= seg[1]
        dt -= seg[2]
    return r - t, dr - dt


def _bl_pass(beta: float, d: list, cum: list, gaps: list) -> tuple[float, float]:
    """V(beta) and its right derivative dV/dbeta for a fixed budget split.

    V(beta) = max sum_i d_i g_i over |g_i| <= beta and
    |g_{i+1} - g_i| <= (1 - beta) gaps_i, computed by the concave DP
    F_i(x) = d_i x + max_{|y - x| <= (1 - beta) gaps_{i-1}} F_{i-1}(y) on
    [-beta, beta].  F_i is held as its maximising plateau (left end p,
    length L, value M) and two deques of [stored slope, length, dlength]
    segments, innermost last.  The actual slope of a segment is its stored
    slope plus the running prefix sum ``c`` of d, so adding d_i x costs
    nothing until the plateau moves.  Every length, position and value
    carries its derivative in beta; ties between lengths are broken as at
    beta + 0, so the derivative returned is the right derivative.
    """
    left: deque = deque()
    right: deque = deque()
    p, dp = -beta, -1.0
    L, dL = 2.0 * beta, 2.0
    M = dM = 0.0
    prev = 0.0  # prefix sum of d before the current point
    for s0, c, h in zip(d, cum, [0.0] + gaps):
        # dilation by (1 - beta) h: shift each side outwards, cut what
        # leaves [-beta, beta], and widen the plateau by the cuts
        cut, dcut = _cut_outer(left, (1.0 - beta) * h, -h)
        p -= cut
        dp -= dcut
        L += cut
        dL += dcut
        cut, dcut = _cut_outer(right, (1.0 - beta) * h, -h)
        L += cut
        dL += dcut
        M += s0 * p
        dM += s0 * dp
        if s0 > 0.0:
            if L > 0.0 or dL > 0.0:
                left.append([-prev, L, dL])
                p += L
                dp += dL
                M += s0 * L
                dM += s0 * dL
            L = dL = 0.0
            while right:
                seg = right[-1]
                s = seg[0] + c
                if s < 0.0:
                    break
                right.pop()
                if s == 0.0:
                    L, dL = seg[1], seg[2]
                    break
                left.append(seg)
                p += seg[1]
                dp += seg[2]
                M += s * seg[1]
                dM += s * seg[2]
        elif s0 < 0.0:
            if L > 0.0 or dL > 0.0:
                right.append([-prev, L, dL])
            L = dL = 0.0
            while left:
                seg = left[-1]
                s = seg[0] + c
                if s > 0.0:
                    break
                left.pop()
                p -= seg[1]
                dp -= seg[2]
                if s == 0.0:
                    L, dL = seg[1], seg[2]
                    break
                right.append(seg)
                M -= s * seg[1]
                dM -= s * seg[2]
        prev = c
    return M, dM


def bl_distance_1d(x1: np.ndarray, w1: np.ndarray, x2: np.ndarray,
                   w2: np.ndarray) -> float:
    """Exact bounded-Lipschitz distance of two weighted 1D samples.

    The distance is max_beta V(beta), where V(beta) is the best
    sum_i d_i g_i with |g| <= beta and Lipschitz bound 1 - beta on the
    sorted pooled support (d = w1 - w2 per point).  V is concave and
    piecewise linear; each evaluation is an exact DP (``_bl_pass``) that
    also returns a supergradient, so cutting planes started from the
    supporting lines at beta = 0 and beta = 1 reach the maximum in a few
    passes.
    """
    uz, inv = np.unique(np.concatenate([x1, x2]), return_inverse=True)
    if uz.shape[0] == 0:
        return 0.0
    # each sample's mass per point first, so that equal samples cancel exactly
    n1 = len(x1)
    ud = np.bincount(inv[:n1], w1, uz.shape[0]) - np.bincount(inv[n1:], w2, uz.shape[0])
    cum = np.cumsum(ud)
    gaps = np.diff(uz)
    total = abs(float(cum[-1]))
    # Supporting lines at the ends: V <= |d|_1 beta from |g| <= beta, and
    # V <= |sum d| beta + (1 - beta) W1 with W1 = sum_i gaps_i |cum_i|, by
    # summation by parts against g_n.  Both are tight at their end point.
    a, va, ga = 0.0, 0.0, float(np.abs(ud).sum())
    b, vb, gb = 1.0, total, total - float(gaps @ np.abs(cum[:-1]))
    if gb >= 0.0:
        return total
    tol = 1e-13 * ga
    best = total
    d, cum, gaps = ud.tolist(), cum.tolist(), gaps.tolist()
    for _ in range(_BL_MAX_PASSES):
        beta = min(max((vb - va + ga * a - gb * b) / (ga - gb), a), b)
        upper = va + ga * (beta - a)
        v, g = _bl_pass(beta, d, cum, gaps)
        best = max(best, v)
        if upper - best <= tol or g == 0.0:
            return best
        if g > 0.0:
            a, va, ga = beta, v, g
        else:
            b, vb, gb = beta, v, g
    raise RuntimeError(f"1D bounded-Lipschitz search did not converge in {_BL_MAX_PASSES} passes")


def dual_lipschitz_lower(mu1: EmpiricalEnsemble, mu2: EmpiricalEnsemble,
                         dictionary: TestDictionary) -> float:
    """Certified lower bound of the dual-Lipschitz distance of two ensembles."""
    if mu1.n_particles == 0 or mu2.n_particles == 0:
        raise ValueError("empty ensemble")
    if mu1.particles.shape[1] != mu2.particles.shape[1]:
        raise ValueError("ensemble dimension mismatch")
    rad = dictionary.clamp_radius
    best = 0.0
    for w in dictionary.directions:
        p1 = mu1.particles @ w
        p2 = mu2.particles @ w
        g1 = 0.5 * np.clip(p1, -rad, rad) / max(1.0, rad)
        g2 = 0.5 * np.clip(p2, -rad, rad) / max(1.0, rad)
        best = max(best, abs(float(g1 @ mu1.weights - g2 @ mu2.weights)))
        best = max(best, bl_distance_1d(p1, mu1.weights, p2, mu2.weights))
    return best


def mc_floor(n_particles: int) -> float:
    """Monte-Carlo resolution floor of an n-particle distance estimate."""
    return 3.0 / math.sqrt(n_particles)


def mixing_fit(ks, distances) -> tuple[float, float, float]:
    """Least-squares fit log d_k = log C - c k; returns (C, c, R^2)."""
    ks = np.asarray(list(ks), dtype=float)
    d = np.asarray(list(distances), dtype=float)
    mask = d > 0
    ks, d = ks[mask], d[mask]
    if ks.shape[0] < 4:
        raise InsufficientDataError(
            f"mixing fit needs >= 4 usable points, got {ks.shape[0]}"
        )
    y = np.log(d)
    slope, intercept = np.polyfit(ks, y, 1)
    pred = slope * ks + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(np.exp(intercept)), float(-slope), r2


def tail_energy(ens: EmpiricalEnsemble, lam_cut: float,
                spec: DomainSpec) -> tuple[np.ndarray, float]:
    """Per-particle and max energy above the eigenvalue cutoff."""
    if not lam_cut > 0:
        raise ValueError("cutoff must be positive")
    mask = eigenvalues(spec) > lam_cut
    per = (ens.particles[:, mask] ** 2).sum(axis=1)
    return per, float(per.max(initial=0.0))


def absorbing_constants(spec: DomainSpec, noise: NoiseSpec) -> tuple[float, float, float]:
    """(kappa_bar, M2, absorbing radius squared 2 M2 / (1 - kappa_bar))."""
    nu = spec.viscosity
    lam1 = poincare_constant(spec)
    kappa = math.exp(-nu * lam1)
    _, vp_sup = support_bound(noise, spec)
    m2 = vp_sup / (nu * nu * lam1)
    return kappa, m2, 2.0 * m2 / (1.0 - kappa)


def k_star(m1: float, spec: DomainSpec, noise: NoiseSpec) -> int:
    """Kicks needed for the radius-sqrt(m1) set to reach the absorbing set."""
    nu = spec.viscosity
    lam1 = poincare_constant(spec)
    kappa, m2, _ = absorbing_constants(spec, noise)
    arg = m1 * (1.0 - kappa) / m2
    if arg <= 1.0:
        return 0
    return math.ceil(math.log(arg) / (nu * lam1))
