"""Test-side references for the advection kernels.

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
"""

import math

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
