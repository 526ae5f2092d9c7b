"""Test-side slow references for the advection kernels and the distances.

``velocity_form_operators`` synthesises the six velocity fields u1, u2,
u1x, u1y, u2x and u2y of every eigenfield on the full grid, walls
included, from the mode table alone, so it shares no matrix with
``GridOperators``.  ``reference_b`` and ``reference_q`` form (u . grad) u
component by component on it and project back with the
quadrature-weighted velocity analysis.

``bilinear_q`` is the symmetrised advection in vorticity form on the
library's own tables, applied to a whole column stack.  ``tangent_matrix``
forms Q(a, .) as one K x K matrix on the grid, from the four grid fields of
a, the way the tangent propagator formed it for every substep before it
contracted one interaction tensor with the base state.

``_bl_pass``, ``bl_distance_1d`` and ``dual_lipschitz_lower`` are the
one-dimensional bounded-Lipschitz distance and the dual-Lipschitz lower
bound as the library computed them before its DP pass was flattened into
one loop and its search was bounded across test directions; both changes
keep every float, so the library must return these values exactly.
"""

import math
from collections import deque

import numpy as np

from kickflow.basis import grid_operators, mode_table


def velocity_form_operators(spec, nx: int, nyq: int):
    """(6, npts, K) velocity and gradient synthesis and the (K, 2*npts) analysis
    on the nx * (nyq + 1) nodes of the full grid."""
    L = spec.length
    x = L * np.arange(nx) / nx
    y = np.arange(nyq + 1) / nyq
    wy = np.full(nyq + 1, 1.0 / nyq)
    wy[[0, -1]] *= 0.5
    w = np.outer(np.full(nx, L / nx), wy).ravel()
    modes = mode_table(spec)
    syn = np.empty((6, nx * (nyq + 1), len(modes)))
    for j, mo in enumerate(modes):
        kx = 2.0 * math.pi * abs(mo.m) / L
        ky = math.pi * mo.n
        scale = 1.0 / math.sqrt((kx * kx + ky * ky) * (L if mo.m == 0 else L / 2.0) * 0.5)
        if mo.m >= 0:
            ex, dex = np.cos(kx * x), -kx * np.sin(kx * x)
        else:
            ex, dex = np.sin(kx * x), kx * np.cos(kx * x)
        sy, cy = np.sin(ky * y), np.cos(ky * y)
        # u = (d_y psi, -d_x psi) with psi = scale * ex * sy
        syn[0, :, j] = scale * np.outer(ex, ky * cy).ravel()
        syn[1, :, j] = -scale * np.outer(dex, sy).ravel()
        syn[2, :, j] = scale * np.outer(dex, ky * cy).ravel()
        syn[3, :, j] = -scale * np.outer(ex, ky * ky * sy).ravel()
        syn[4, :, j] = scale * kx * kx * np.outer(ex, sy).ravel()
        syn[5, :, j] = -scale * np.outer(dex, ky * cy).ravel()
    ana = np.concatenate([syn[0] * w[:, None], syn[1] * w[:, None]]).T
    return syn, ana


def reference_q(a, b, syn, ana):
    """Q(a, b) = P(a . grad b) + P(b . grad a) in velocity form; b may be (K, n)."""
    a1, a2, a1x, a1y, a2x, a2y = (f.reshape(f.shape + (1,) * (b.ndim - 1)) for f in syn @ a)
    b1, b2, b1x, b1y, b2x, b2y = np.tensordot(syn, b, axes=1)
    c1 = a1 * b1x + a2 * b1y + b1 * a1x + b2 * a1y
    c2 = a1 * b2x + a2 * b2y + b1 * a2x + b2 * a2y
    return ana @ np.concatenate([c1, c2])


def reference_b(u, syn, ana):
    """B(u) = P(u . grad u) in velocity form; u may be (K, n)."""
    f1, f2, f1x, f1y, f2x, f2y = np.tensordot(syn, u, axes=1)
    return ana @ np.concatenate([f1 * f1x + f2 * f1y, f1 * f2x + f2 * f2y])


def grid_fields(a, ops):
    """u1, u2, omega_x and omega_y of a (K,) or (K, n) state on the library's nodes."""
    a = np.asarray(a, dtype=float)
    alpha = ops.alpha.reshape(-1)[ops.slot].reshape((-1,) + (1,) * (a.ndim - 1))
    shape = (2, ops.n_points) + a.shape[1:]
    u1, u2 = (ops.syn2 @ a).reshape(shape)
    g1, g2 = (ops.syn2 @ (alpha * a)).reshape(shape)
    return u1, u2, -g2, g1


def q_on_grid(af, b, ops):
    """Q(a, .) applied to the columns of b, with a's grid fields ``af`` precomputed.

    <Q(a, b), e_k> = <a . grad omega_b + b . grad omega_a, psi_k>, the
    polarisation of curl(u . grad u) = u . grad omega (see ``GridOperators``).
    """
    a1, a2, awx, awy = (f.reshape(f.shape + (1,) * (b.ndim - 1)) for f in af)
    b1, b2, bwx, bwy = grid_fields(b, ops)
    return ops.ana1 @ (a1 * bwx + a2 * bwy + b1 * awx + b2 * awy)


def bilinear_q(a, b, spec, ops=None):
    """Q(a, b) in vorticity form on ``ops`` (default: the library's grid)."""
    ops = ops or grid_operators(spec)
    return q_on_grid(grid_fields(a, ops), b, ops)



def tangent_matrix(a, ops):
    """J(a) = Q(a, .) as a K x K matrix, formed from a's grid fields on ``ops``.

    syn2 @ [a, alpha a] gives, per node, (a1, a_wy, a2, -a_wx): the fields
    that scale the synthesis blocks S_wx = -S_u2 alpha, S_u2, S_wy = S_u1 alpha
    and -S_u1 of the columns b, stacked (npts, 4, K).
    """
    a = np.asarray(a, dtype=float)
    alpha = ops.alpha.reshape(-1)[ops.slot]
    s1, s2 = ops.syn2.reshape(2, ops.n_points, a.shape[0])
    syn = np.stack([-s2 * alpha, s2, s1 * alpha, -s1], axis=1)
    af = ops.syn2 @ np.stack([a, alpha * a], axis=1)
    af = af.reshape(2, ops.n_points, 2).transpose(1, 0, 2).reshape(-1, 1, 4)
    return ops.ana1 @ (af @ syn)[:, 0]


# ---------------------------------------------------------------------------
# The 1-D bounded-Lipschitz distance as it was before the flat DP pass and
# the bound across test directions: one ``_cut_outer`` call per side and
# point, and every direction searched to convergence.
# ---------------------------------------------------------------------------

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


def bl_distance_1d(x1, w1, x2, w2) -> float:
    """The cutting-plane search of ``kickflow.bl_distance_1d`` over the
    reference ``_bl_pass``, run to convergence."""
    uz, inv = np.unique(np.concatenate([x1, x2]), return_inverse=True)
    if uz.shape[0] == 0:
        return 0.0
    n1 = len(x1)
    ud = np.bincount(inv[:n1], w1, uz.shape[0]) - np.bincount(inv[n1:], w2, uz.shape[0])
    cum = np.cumsum(ud)
    gaps = np.diff(uz)
    total = abs(float(cum[-1]))
    a, va, ga = 0.0, 0.0, float(np.abs(ud).sum())
    b, vb, gb = 1.0, total, total - float(gaps @ np.abs(cum[:-1]))
    if gb >= 0.0:
        return total
    tol = 1e-13 * ga
    best = total
    d, cum, gaps = ud.tolist(), cum.tolist(), gaps.tolist()
    for _ in range(100):
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
    raise RuntimeError("1D bounded-Lipschitz search did not converge in 100 passes")


def dual_lipschitz_lower(mu1, mu2, dictionary) -> float:
    """``kickflow.dual_lipschitz_lower`` with every direction's search run
    to convergence, in the dictionary's order."""
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
