"""Tangent and forcing derivatives of the time-one map.

The linearised stepper is the exact tangent of the nonlinear
exponential-Euler stepper with coefficients frozen along a recorded base
trajectory.  Q(a, .) is linear, so on each substep it is one K x K matrix
J_i = J(a_i); one reverse sweep through those matrices gives the Jacobian
and the forcing derivative, which keeps finite-difference cross-checks
tight.  Q is bilinear, so J(a) is linear in a as well: the K x K x K
interaction tensor of J on the basis vectors is built once per call, and
one GEMM contracts it with a block of base states into their matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DomainSpec, GridOperators, eigenvalues, grid_operators
from .dynamics import SolverConfig, Trajectory, _factors, _tau_mid
from .noise import NoiseSpec

__all__ = [
    "TangentOperators",
    "linearize_kick",
    "gram_limit_check",
    "compactness_diagnostic",
]

# base states turned into tangent matrices by one GEMM, and values of m per
# chunk of the tensor build
_BLOCK = 16
_M_CHUNK = 4


@dataclass(frozen=True)
class TangentOperators:
    """Dense operators assembled along one base trajectory.

    psi1 holds the diagonal of the Stokes semigroup factor; psi2 the
    compact remainder; a_matrix the forcing derivative on the noise basis
    (columns in p-major flat order); gram_eigvals and gram_eigvecs the
    eigendecomposition of its Gramian a_matrix @ a_matrix.T.
    """

    psi1: np.ndarray
    psi2: np.ndarray
    a_matrix: np.ndarray
    gram_eigvals: np.ndarray
    gram_eigvecs: np.ndarray


def _tangent_tensor(ops: GridOperators, alpha: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """The (K, K, K) tensor T with T[m] = -diag(gain) J(e_m), on the grid of ``ops``.

    In vorticity form (see ``GridOperators``) Q(a, b) = ana1 @ (a1*b_wx +
    a2*b_wy + b1*a_wx + b2*a_wy), and omega_k = alpha_k psi_k gives
    grad omega_k = alpha_k (-u2_k, u1_k).  For a = e_m and b = e_j the
    integrand is therefore (alpha_m - alpha_j)(u1_m u2_j - u2_m u1_j), and
    J(e_m) = ana1 @ (u1_m u2 - u2_m u1) with column j scaled by
    alpha_m - alpha_j, where u1 and u2 are the halves of ``syn2``.  The
    grid products are formed for _M_CHUNK values of m at a time: two
    (npts, _M_CHUNK, K) arrays, about 1 MB at the defaults, where all m at
    once would take 13 MB.
    """
    K, npts = alpha.shape[0], ops.n_points
    u1, u2 = ops.syn2.reshape(2, npts, K)
    tensor = np.empty((K, K, K))
    for m0 in range(0, K, _M_CHUNK):
        ms = slice(m0, m0 + _M_CHUNK)
        cross = u1[:, ms, None] * u2[:, None, :]
        cross -= u2[:, ms, None] * u1[:, None, :]
        jm = (ops.ana1 @ cross.reshape(npts, -1)).reshape(K, -1, K)  # [k, m, j]
        jm *= alpha[ms, None] - alpha
        np.multiply(jm.transpose(1, 0, 2), -gain[:, None], out=tensor[ms])
    return tensor


def _sweep(base: Trajectory, source: np.ndarray, spec: DomainSpec,
           cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """(D_u S, A) of the flow linearised along ``base``, by one reverse sweep.

    Substep i steps w <- M_i @ w + gain * (source[i] (x) e) with
    M_i = diag(decay) - gain*J_i, where J_i is the symmetrised advection
    Q(a_i, .) = P(a_i . grad .) + P(. . grad a_i) written as a K x K matrix.
    Q is bilinear, so J is linear in the base state: J(a_i) = sum_m a_i[m]
    J(e_m).  The tensor T[m] = -diag(gain) J(e_m) (``_tangent_tensor``) is
    built once per call, and one GEMM of _BLOCK base states with T, seen as
    K x K^2, forms _BLOCK of the matrices -gain*J_i at once; ``decay`` is
    then added to their diagonals.

    The blocks are walked backwards from Phi_n = I by Phi_i = Phi_{i+1} M_i,
    so that D_u S = Phi_0.  ``source`` holds tau_p(t) at the substep
    midpoints, shape (n_substeps, P), and column p*K + k of A is
    gain_k sum_i tau_p(t_i) Phi_{i+1}[:, k]: each block keeps its Phi_{i+1}
    and adds its share of that sum with one (P x nb) by (nb x K^2) GEMM.
    """
    decay, gain = _factors(spec, cfg.dt)
    K = spec.n_modes
    n = base.states.shape[0] - 1
    if not np.isfinite(base.states[:-1]).all():
        raise FloatingPointError("non-finite coefficients in the base trajectory")
    tensor = _tangent_tensor(grid_operators(spec), eigenvalues(spec), gain).reshape(K, K * K)
    block = np.empty((_BLOCK, K * K))
    mats = block.reshape(_BLOCK, K, K)
    phis = np.empty((_BLOCK, K, K))
    phi = np.eye(K)
    acc = np.zeros((source.shape[1], K * K))
    for b0 in reversed(range(0, n, _BLOCK)):
        nb = min(_BLOCK, n - b0)
        np.matmul(base.states[b0:b0 + nb], tensor, out=block[:nb])
        block[:nb, ::K + 1] += decay
        for j in reversed(range(nb)):
            phis[j] = phi
            np.matmul(phis[j], mats[j], out=phi)
        acc += source[b0:b0 + nb].T @ phis[:nb].reshape(nb, K * K)
    a_matrix = (acc.reshape(-1, K, K) * gain).transpose(1, 0, 2).reshape(K, -1)
    return phi, a_matrix


def linearize_kick(base: Trajectory, spec: DomainSpec, cfg: SolverConfig,
                   noise: NoiseSpec) -> TangentOperators:
    """Assemble the operator bundle (psi1, psi2, A and the Gram spectrum) for one kick.

    One reverse sweep gives the Jacobian D_u S, split as diag(psi1) + psi2,
    and the forcing derivative A, whose Gramian A A^T is diagonalised.
    The base is one kick long: a base of other than ``cfg.n_substeps``
    substeps raises ``ValueError``.
    """
    n = cfg.n_substeps
    if base.states.shape[0] != n + 1:
        raise ValueError(f"base trajectory has {base.states.shape[0] - 1} substeps, "
                         f"one kick has {n}")
    jac, a_matrix = _sweep(base, _tau_mid(noise.p_order, cfg), spec, cfg)
    eigvals, eigvecs = np.linalg.eigh(a_matrix @ a_matrix.T)
    lam = spec.viscosity * eigenvalues(spec) + spec.damping
    psi1 = np.exp(-lam * (n * cfg.dt))
    return TangentOperators(psi1, jac - np.diag(psi1), a_matrix, eigvals, eigvecs)


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

