"""Tangent and forcing derivatives of the time-one map.

The linearised stepper is the exact tangent of the nonlinear
exponential-Euler stepper with coefficients frozen along a recorded base
trajectory.  Q(a, .) is linear, so on each substep it is one K x K matrix
J_i built from the base state a_i; the Jacobian and the forcing derivative
are propagated together as one column stack through those matrices, which
keeps finite-difference cross-checks tight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import single_threaded_blas
from .basis import DomainSpec, eigenvalues, grid_operators
from .dynamics import SolverConfig, Trajectory, _factors
from .noise import NoiseSpec, legendre_values

__all__ = [
    "TangentOperators",
    "bilinear_q",
    "linearize_kick",
    "gram_limit_check",
    "compactness_diagnostic",
]


@dataclass(frozen=True)
class TangentOperators:
    """Dense operators assembled along one base trajectory.

    psi1 holds the diagonal of the Stokes semigroup factor; psi2 the
    compact remainder; a_matrix the forcing derivative on the noise basis
    (columns in p-major flat order); gram = a_matrix @ a_matrix.T with its
    eigendecomposition.
    """

    psi1: np.ndarray
    psi2: np.ndarray
    a_matrix: np.ndarray
    gram: np.ndarray
    gram_eigvals: np.ndarray
    gram_eigvecs: np.ndarray


def bilinear_q(a: np.ndarray, bvec: np.ndarray, spec: DomainSpec,
               cfg: SolverConfig | None = None) -> np.ndarray:
    """Symmetrised advection Q(a, b) = P(a.grad b) + P(b.grad a).

    Taken in vorticity form: <Q(a, b), e_k> = <a.grad omega_b +
    b.grad omega_a, psi_k>.  This is the polarisation of
    curl(u.grad u) = u.grad omega, and the integration by parts behind it
    has no boundary term because psi_k vanishes on the free-slip walls; the
    dealiased grid integrates the cubic integrand exactly (see
    ``GridOperators``).  ``bvec`` may be a (K,) vector or a (K, n) column
    stack with ``a`` fixed.
    """
    cfg = cfg or SolverConfig()
    ops = grid_operators(spec, cfg.nx, cfg.nyq)
    return _q_on_grid(_grid_fields(a, ops), bvec, ops)


def _grid_fields(a: np.ndarray, ops):
    """u1, u2, omega_x, omega_y of one state on the grid, shape (4, npts)."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise FloatingPointError("non-finite coefficients in bilinear form input")
    return (ops.syn4 @ a).reshape(4, ops.n_points)


def _q_on_grid(af, bvec, ops):
    """Q(a, .) applied to columns of bvec, with a's grid fields precomputed."""
    a1, a2, awx, awy = af.reshape((4, ops.n_points) + (1,) * (bvec.ndim - 1))
    b1, b2, bwx, bwy = (ops.syn4 @ bvec).reshape((4, ops.n_points) + bvec.shape[1:])
    return ops.ana1 @ (a1 * bwx + a2 * bwy + b1 * awx + b2 * awy)


def _propagate(base: Trajectory, w0: np.ndarray, source: np.ndarray,
               spec: DomainSpec, cfg: SolverConfig) -> np.ndarray:
    """Advance the (K, m) stack w0 through the flow linearised along ``base``.

    Substep i steps w <- decay*w - gain*(J_i @ w), where J_i is Q(a_i, .)
    written as a K x K matrix.  Since Q(a, b) = ana1 @ (a1*b_wx + a2*b_wy +
    a_wx*b1 + a_wy*b2) is linear in b and b's grid fields are syn4 @ b,
    J_i = ana1 @ (a1*S_wx + a2*S_wy + a_wx*S_u1 + a_wy*S_u2), with S_f the
    f-block of syn4 and each of a_i's grid fields scaling its rows.  This is
    the same linear map as Q(a_i, .) on the columns, so only rounding
    differs; the grid work per substep is one K x npts x K product, however
    many columns w has.

    ``source`` holds tau_p(t) at the substep midpoints, shape (n_substeps, P).
    The last P*K columns are driven by the noise basis elements tau_p e_k in
    p-major order, so they carry D_eta S; the columns before them see no
    source and carry D_u S applied to their start values.
    """
    ops = grid_operators(spec, cfg.nx, cfg.nyq)
    decay, gain = _factors(spec, cfg.dt)
    K = spec.n_modes
    n_src = source.shape[1] * K
    rows = np.arange(K)
    cols = w0.shape[1] - n_src + np.arange(n_src).reshape(-1, K)  # (P, K)
    # (npts, 4, K): block f is the syn4 block that a's field f scales,
    # S_wx, S_wy, S_u1 and S_u2 for a1, a2, a_wx and a_wy
    syn = ops.syn4.reshape(4, ops.n_points, K)[[2, 3, 0, 1]].transpose(1, 0, 2).copy()
    w = np.array(w0, dtype=float)
    for i in range(base.states.shape[0] - 1):
        af = _grid_fields(base.states[i], ops).T  # (npts, 4)
        jac = ops.ana1 @ (af[:, None, :] @ syn)[:, 0]
        w = decay[:, None] * w - gain[:, None] * (jac @ w)
        w[rows, cols] += gain * source[i][:, None]
    return w


def linearize_kick(base: Trajectory, spec: DomainSpec, cfg: SolverConfig,
                   noise: NoiseSpec) -> TangentOperators:
    """Assemble the full operator bundle (psi1, psi2, A, G) for one kick.

    One linearised solve advances [I_K | 0]: its first K columns are the
    Jacobian D_u S, split as diag(psi1) + psi2, and the other P*K are A.
    BLAS runs on one thread: the per-substep products are K x K sized, and
    threads that split them wait for one another (``_blas``).
    """
    if base.states.shape[0] < 2:
        raise ValueError("base trajectory lacks substep states")
    K = spec.n_modes
    n = base.states.shape[0] - 1
    t_mid = (np.arange(n) + 0.5) * cfg.dt
    w0 = np.hstack([np.eye(K), np.zeros((K, noise.p_order * K))])
    with single_threaded_blas():
        w = _propagate(base, w0, legendre_values(noise.p_order, t_mid % 1.0), spec, cfg)
        a_matrix = w[:, K:]
        gram = a_matrix @ a_matrix.T
        eigvals, eigvecs = np.linalg.eigh(gram)
    lam = spec.viscosity * eigenvalues(spec) + spec.damping
    psi1 = np.exp(-lam * (n * cfg.dt))
    return TangentOperators(psi1, w[:, :K] - np.diag(psi1), a_matrix, gram, eigvals, eigvecs)


def gram_limit_check(ops: TangentOperators, f: np.ndarray, gammas) -> np.ndarray:
    """Relative residuals ||G (G + gamma I)^-1 f - f|| / ||f|| per gamma."""
    f = np.asarray(f, dtype=float)
    nf = np.linalg.norm(f)
    if nf == 0:
        raise ValueError("gram_limit_check needs a nonzero direction")
    coeffs = ops.gram_eigvecs.T @ f
    gammas = np.asarray(list(gammas), dtype=float)
    res = np.empty(gammas.shape[0])
    for i, g in enumerate(gammas):
        res[i] = np.linalg.norm(coeffs * (g / (ops.gram_eigvals + g))) / nf
    return res


def compactness_diagnostic(ops: TangentOperators) -> np.ndarray:
    """Singular values of psi2, descending."""
    return np.linalg.svd(ops.psi2, compute_uv=False)

