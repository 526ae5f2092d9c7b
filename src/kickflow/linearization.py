"""Tangent and forcing derivatives of the time-one map.

The linearised stepper is the exact tangent of the nonlinear
exponential-Euler stepper with coefficients frozen along a recorded base
trajectory.  Q(a, .) is linear, so on each substep it is one K x K matrix
J_i = J(a_i); the Jacobian and the forcing derivative are propagated
together as one column stack through those matrices, which keeps
finite-difference cross-checks tight.  Q is bilinear, so J(a) is linear
in a as well: the K x K x K interaction tensor of J on the basis vectors
is built once per call, and one GEMM contracts it with a block of base
states into their matrices.
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
    (columns in p-major flat order); gram = a_matrix @ a_matrix.T with its
    eigendecomposition.
    """

    psi1: np.ndarray
    psi2: np.ndarray
    a_matrix: np.ndarray
    gram: np.ndarray
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


def _propagate(base: Trajectory, w0: np.ndarray, source: np.ndarray,
               spec: DomainSpec, cfg: SolverConfig) -> np.ndarray:
    """Advance the (K, m) stack w0 through the flow linearised along ``base``.

    Substep i steps w <- M_i @ w with M_i = diag(decay) - gain*J_i, where
    J_i is the symmetrised advection Q(a_i, .) = P(a_i . grad .) +
    P(. . grad a_i) written as a K x K matrix.  Q is bilinear, so J is
    linear in the base state: J(a_i) = sum_m a_i[m] J(e_m).  The tensor
    T[m] = -diag(gain) J(e_m) (``_tangent_tensor``) is built once per call,
    and one GEMM of _BLOCK base states with T, seen as K x K^2, forms
    _BLOCK of the matrices -gain*J_i at once, into a buffer allocated once
    per call; ``decay`` is then added to their diagonals.  What is left per
    substep is one K x K by K x m product, whatever m is.

    ``source`` holds tau_p(t) at the substep midpoints, shape (n_substeps, P).
    The last P*K columns are driven by the noise basis elements tau_p e_k in
    p-major order, so they carry D_eta S; the columns before them see no
    source and carry D_u S applied to their start values.  Their driven
    entries (k, c0 + p*K + k) are the diagonals of the (K, P, K) blocks of
    each buffer, which ``np.einsum`` returns as a writable (P, K) view.
    ``w0`` is copied in C order: BLAS rounds an F-ordered product
    differently.
    """
    decay, gain = _factors(spec, cfg.dt)
    K = spec.n_modes
    n = base.states.shape[0] - 1
    if not np.isfinite(base.states[:-1]).all():
        raise FloatingPointError("non-finite coefficients in the base trajectory")
    tensor = _tangent_tensor(grid_operators(spec), eigenvalues(spec), gain).reshape(K, K * K)
    block = np.empty((_BLOCK, K * K))
    mats = block.reshape(_BLOCK, K, K)
    w = np.array(w0, dtype=float, order="C")
    w_next = np.empty_like(w)
    P = source.shape[1]
    c0 = w.shape[1] - P * K
    driven, driven_next = (np.einsum("kpk->pk", buf[:, c0:].reshape(K, P, K))
                           for buf in (w, w_next))
    for b0 in range(0, n, _BLOCK):
        nb = min(_BLOCK, n - b0)
        np.matmul(base.states[b0:b0 + nb], tensor, out=block[:nb])
        block[:nb, ::K + 1] += decay
        for i in range(b0, b0 + nb):
            np.matmul(mats[i - b0], w, out=w_next)
            driven_next += gain * source[i][:, None]
            w, w_next, driven, driven_next = w_next, w, driven_next, driven
    return w


def linearize_kick(base: Trajectory, spec: DomainSpec, cfg: SolverConfig,
                   noise: NoiseSpec) -> TangentOperators:
    """Assemble the full operator bundle (psi1, psi2, A, G) for one kick.

    One linearised solve advances [I_K | 0]: its first K columns are the
    Jacobian D_u S, split as diag(psi1) + psi2, and the other P*K are A.
    The base is one kick long: a base of other than ``cfg.n_substeps``
    substeps raises ``ValueError``.
    """
    n = cfg.n_substeps
    if base.states.shape[0] != n + 1:
        raise ValueError(f"base trajectory has {base.states.shape[0] - 1} substeps, "
                         f"one kick has {n}")
    K = spec.n_modes
    w0 = np.hstack([np.eye(K), np.zeros((K, noise.p_order * K))])
    w = _propagate(base, w0, _tau_mid(noise.p_order, cfg), spec, cfg)
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

