"""Markov-chain driver and measure-level diagnostics.

Ensembles are weighted particle sets advanced with per-particle
counter-based kick streams, so results are independent of sampling
order.  The dual-Lipschitz distance is certified from below by a
dictionary of clamped linear functionals plus exact one-dimensional
bounded-Lipschitz distances of projected samples.  Each of those is the
maximum over the sup/Lipschitz budget split of a concave piecewise-linear
function, evaluated by a slope-tracking dynamic programme (one flat
Python loop per pass) and maximised by cutting planes.  Across the
dictionary, a direction's search stops as soon as its cutting-plane model
shows it cannot beat the best value found so far, which leaves the
maximum unchanged to the last bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .basis import DomainSpec, eigenvalues, poincare_constant
from .dynamics import SolverConfig, advance_columns
from .errors import InsufficientDataError
from .noise import NoiseSpec, _xi_from_uniform, amplitudes, kick_rng, support_bound

__all__ = [
    "EmpiricalEnsemble",
    "TestDictionary",
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
# particles per inverse-CDF call in ``ensemble_step``: one call over all
# 512 of a ``mix`` ensemble raised its peak RSS by about 0.2 MB
_XI_BLOCK = 64


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


def ensemble_step(ens: EmpiricalEnsemble, spec: DomainSpec, cfg: SolverConfig,
                  noise: NoiseSpec) -> EmpiricalEnsemble:
    """Push the ensemble forward by one kick (one application of P*_1).

    All columns advance in one ``advance_columns`` call.
    """
    if ens.n_particles == 0:
        return EmpiricalEnsemble(ens.particles, ens.weights, ens.kick_index + 1,
                                 ens.master_seed, ens.particle_ids)
    new_cols = advance_columns(ens.particles.T, _ensemble_kicks(ens, spec, noise), spec, cfg)
    return EmpiricalEnsemble(new_cols.T, ens.weights.copy(), ens.kick_index + 1,
                             ens.master_seed, ens.particle_ids)


def _ensemble_kicks(ens: EmpiricalEnsemble, spec: DomainSpec,
                    noise: NoiseSpec) -> np.ndarray:
    """(N, P, K) kick coefficients, one independent stream per particle.

    Each particle's uniforms come from its own ``kick_rng``, as in
    ``sample_kick``; they are mapped in place, ``_XI_BLOCK`` particles per
    ``_xi_from_uniform`` call, so the kicks equal ``sample_kick``'s bit for
    bit while the temporaries stay small.
    """
    b = amplitudes(noise, spec)
    kicks = np.stack([kick_rng(ens.master_seed, int(pid), ens.kick_index).random(b.shape)
                      for pid in ens.particle_ids])
    for i in range(0, kicks.shape[0], _XI_BLOCK):
        kicks[i:i + _XI_BLOCK] = b * _xi_from_uniform(kicks[i:i + _XI_BLOCK])
    return kicks


def krylov_average(history: list[EmpiricalEnsemble], burn_in: int = 0) -> EmpiricalEnsemble:
    """Time-averaged occupation measure over post-burn-in snapshots."""
    kept = history[burn_in:]
    if sum(e.n_particles for e in kept) == 0:
        raise InsufficientDataError("empty history for time averaging")
    particles = np.concatenate([e.particles for e in kept], axis=0)
    w = np.concatenate([e.weights for e in kept])
    w = w / w.sum()
    return EmpiricalEnsemble(particles, w, 0, history[-1].master_seed,
                             np.arange(particles.shape[0]))


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
    l_push, l_pop, l_popleft = left.append, left.pop, left.popleft
    r_push, r_pop, r_popleft = right.append, right.pop, right.popleft
    p, dp = -beta, -1.0
    L, dL = 2.0 * beta, 2.0
    M = dM = 0.0
    prev = 0.0  # prefix sum of d before the current point
    for s0, c, h in zip(d, cum, [0.0] + gaps):
        # dilation by r = (1 - beta) h: shift each side outwards, cut what
        # leaves [-beta, beta] off its outer end (ties go to beta + 0), and
        # widen the plateau by the cuts
        r, dr = (1.0 - beta) * h, -h
        t, dt = r, dr
        while left:
            seg = left[0]
            if seg[1] > t or (seg[1] == t and seg[2] > dt):
                seg[1] -= t
                seg[2] -= dt
                cut, dcut = r, dr
                break
            l_popleft()
            t -= seg[1]
            dt -= seg[2]
        else:
            cut, dcut = r - t, dr - dt
        p -= cut
        dp -= dcut
        L += cut
        dL += dcut
        t, dt = r, dr
        while right:
            seg = right[0]
            if seg[1] > t or (seg[1] == t and seg[2] > dt):
                seg[1] -= t
                seg[2] -= dt
                cut, dcut = r, dr
                break
            r_popleft()
            t -= seg[1]
            dt -= seg[2]
        else:
            cut, dcut = r - t, dr - dt
        L += cut
        dL += dcut
        M += s0 * p
        dM += s0 * dp
        if s0 > 0.0:
            if L > 0.0 or dL > 0.0:
                l_push([-prev, L, dL])
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
                r_pop()
                if s == 0.0:
                    L, dL = seg[1], seg[2]
                    break
                l_push(seg)
                p += seg[1]
                dp += seg[2]
                M += s * seg[1]
                dM += s * seg[2]
        elif s0 < 0.0:
            if L > 0.0 or dL > 0.0:
                r_push([-prev, L, dL])
            L = dL = 0.0
            while left:
                seg = left[-1]
                s = seg[0] + c
                if s > 0.0:
                    break
                l_pop()
                p -= seg[1]
                dp -= seg[2]
                if s == 0.0:
                    L, dL = seg[1], seg[2]
                    break
                r_push(seg)
                M -= s * seg[1]
                dM -= s * seg[2]
        prev = c
    return M, dM


def _bl_search(x1: np.ndarray, w1: np.ndarray, x2: np.ndarray, w2: np.ndarray,
               above: float = -math.inf) -> tuple[float, int, int, bool]:
    """The search of ``bl_distance_1d``, stopped once it cannot beat ``above``.

    Returns (value, DP passes, pooled points visited by them, stopped).
    Before each pass the cutting-plane model bounds the maximum, V* <=
    ``upper``, since V is concave.  When ``upper`` plus a margin of
    1e-9 |d|_1, far above the DP's rounding of about n eps |d|_1, is below
    ``above``, no later pass can reach ``above``, and the best value so far
    is returned with ``stopped`` set.  With no ``above`` the value is the
    exact distance.
    """
    uz, inv = np.unique(np.concatenate([x1, x2]), return_inverse=True)
    n = uz.shape[0]
    if n == 0:
        return 0.0, 0, 0, False
    # each sample's mass per point first, so that equal samples cancel exactly
    n1 = len(x1)
    ud = np.bincount(inv[:n1], w1, n) - np.bincount(inv[n1:], w2, n)
    cum = np.cumsum(ud)
    gaps = np.diff(uz)
    total = abs(float(cum[-1]))
    # Supporting lines at the ends: V <= |d|_1 beta from |g| <= beta, and
    # V <= |sum d| beta + (1 - beta) W1 with W1 = sum_i gaps_i |cum_i|, by
    # summation by parts against g_n.  Both are tight at their end point.
    a, va, ga = 0.0, 0.0, float(np.abs(ud).sum())
    b, vb, gb = 1.0, total, total - float(gaps @ np.abs(cum[:-1]))
    if gb >= 0.0:
        return total, 0, 0, False
    tol = 1e-13 * ga
    margin = 1e-9 * ga
    best = total
    d, cum, gaps = ud.tolist(), cum.tolist(), gaps.tolist()
    for passes in range(_BL_MAX_PASSES):
        beta = min(max((vb - va + ga * a - gb * b) / (ga - gb), a), b)
        upper = va + ga * (beta - a)
        if upper + margin < above:
            return best, passes, passes * n, True
        v, g = _bl_pass(beta, d, cum, gaps)
        best = max(best, v)
        if upper - best <= tol or g == 0.0:
            return best, passes + 1, (passes + 1) * n, False
        if g > 0.0:
            a, va, ga = beta, v, g
        else:
            b, vb, gb = beta, v, g
    raise RuntimeError(f"1D bounded-Lipschitz search did not converge in {_BL_MAX_PASSES} passes")


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
    return _bl_search(x1, w1, x2, w2)[0]


_BL_COUNTS = ("bl_searches", "bl_searches_cut", "bl_passes", "bl_points")


def _dual_lipschitz(mu1: EmpiricalEnsemble, mu2: EmpiricalEnsemble,
                    dictionary: TestDictionary, count) -> float:
    """``dual_lipschitz_lower``, reporting the work of each 1D search as
    ``count(name, n)`` for the names of ``_BL_COUNTS``: one search, whether
    the bound stopped it, its DP passes and the pooled points they visited."""
    if mu1.n_particles == 0 or mu2.n_particles == 0:
        raise ValueError("empty ensemble")
    if mu1.particles.shape[1] != mu2.particles.shape[1]:
        raise ValueError("ensemble dimension mismatch")
    rad = dictionary.clamp_radius
    best = 0.0
    projections = []
    for w in dictionary.directions:
        p1 = mu1.particles @ w
        p2 = mu2.particles @ w
        g1 = 0.5 * np.clip(p1, -rad, rad) / max(1.0, rad)
        g2 = 0.5 * np.clip(p2, -rad, rad) / max(1.0, rad)
        best = max(best, abs(float(g1 @ mu1.weights - g2 @ mu2.weights)))
        projections.append((p1, p2))
    for p1, p2 in projections:
        value, passes, points, stopped = _bl_search(p1, mu1.weights, p2, mu2.weights, best)
        best = max(best, value)
        for name, n in zip(_BL_COUNTS, (1, int(stopped), passes, points)):
            count(name, n)
    return best


def dual_lipschitz_lower(mu1: EmpiricalEnsemble, mu2: EmpiricalEnsemble,
                         dictionary: TestDictionary) -> float:
    """Certified lower bound of the dual-Lipschitz distance of two ensembles.

    The bound is the largest of the clamped linear values and the exact 1D
    bounded-Lipschitz distances of the projections on the dictionary's
    directions.  The linear values come first, and each 1D search stops as
    soon as its concave model shows that it cannot beat the running best
    (see ``_bl_search``).  A stopped search could only have returned values
    below that best, so the maximum is the same float as with every search
    run to convergence.
    """
    return _dual_lipschitz(mu1, mu2, dictionary, lambda name, n: None)


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
