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


def _propagate(base: Trajectory, w0: np.ndarray, source: np.ndarray,
               spec: DomainSpec, cfg: SolverConfig) -> np.ndarray:
    """Advance the (K, m) stack w0 through the flow linearised along ``base``.

    Substep i steps w <- decay*w - gain*(J_i @ w), where J_i is the
    symmetrised advection Q(a_i, .) = P(a_i . grad .) + P(. . grad a_i)
    written as a K x K matrix.  In vorticity form (see ``GridOperators``)
    Q(a, b) = ana1 @ (a1*b_wx + a2*b_wy + a_wx*b1 + a_wy*b2), which is
    linear in b, so J_i = ana1 @ (a1*S_wx + a2*S_wy + a_wx*S_u1 +
    a_wy*S_u2), with each of a_i's grid fields scaling the rows of a
    synthesis block: S_u1 and S_u2 are the halves of ``syn2``, and
    S_wx = -S_u2 alpha, S_wy = S_u1 alpha.  Those four blocks are formed
    once per call, and a_i's grid fields once per substep by one product
    of ``syn2`` with [a_i, alpha a_i]; the grid work per substep is one
    K x npts x K product, however many columns w has.

    ``source`` holds tau_p(t) at the substep midpoints, shape (n_substeps, P).
    The last P*K columns are driven by the noise basis elements tau_p e_k in
    p-major order, so they carry D_eta S; the columns before them see no
    source and carry D_u S applied to their start values.
    """
    ops = grid_operators(spec)
    decay, gain = _factors(spec, cfg.dt)
    K = spec.n_modes
    n_src = source.shape[1] * K
    rows = np.arange(K)
    cols = w0.shape[1] - n_src + np.arange(n_src).reshape(-1, K)  # (P, K)
    if not np.isfinite(base.states[:-1]).all():
        raise FloatingPointError("non-finite coefficients in the base trajectory")
    alpha = eigenvalues(spec)
    s1, s2 = ops.syn2.reshape(2, ops.n_points, K)
    # syn2 @ [a, alpha * a] gives, per node, (a1, a_wy, a2, -a_wx): the
    # fields that scale S_wx, S_u2, S_wy and -S_u1, stacked (npts, 4, K)
    syn = np.stack([-s2 * alpha, s2, s1 * alpha, -s1], axis=1)
    ab = np.empty((K, 2))
    w = np.array(w0, dtype=float)
    for i in range(base.states.shape[0] - 1):
        ab[:, 0] = base.states[i]
        np.multiply(alpha, base.states[i], out=ab[:, 1])
        af = (ops.syn2 @ ab).reshape(2, ops.n_points, 2).transpose(1, 0, 2).reshape(-1, 1, 4)
        jac = ops.ana1 @ (af @ syn)[:, 0]
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

