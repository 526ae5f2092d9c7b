"""Regularised right inverse, stabilising control, and two-trajectory coupling.

The control map drives a second trajectory with a corrected kick so the
pair contracts: phi = -R_{M,gamma} Psi2 (u' - u), where R_{M,gamma} is
the Tikhonov-regularised right inverse of the forcing derivative
truncated to the leading M noise coordinates.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .basis import DomainSpec
from .dynamics import SolverConfig, flow, time_one_map
from .errors import SqueezingViolatedError, TuningFailedError
from .linearization import TangentOperators, linearize_kick
from .noise import KickPath, NoiseSpec, pm_order, sample_kick, kick_rng

__all__ = [
    "ControlConfig",
    "CouplingReport",
    "right_inverse_matrix",
    "phi",
    "epsilon_check",
    "tune",
    "couple",
]

GAMMA_GRID = tuple(10.0 ** (-e) for e in range(1, 9))


@dataclass(frozen=True)
class ControlConfig:
    """Truncation rank M, Tikhonov gamma, and the squeezing threshold delta."""

    rank: int
    gamma: float
    delta: float = 1e-2

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")


@dataclass
class CouplingReport:
    """Per-step coupling record plus summary statistics.

    ``control`` is the control config the steps used; None if it was to be
    chosen at the first step and no step was taken.
    """

    steps: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    qhats: list = field(default_factory=list)
    phi_norms: list = field(default_factory=list)
    eps_hats: list = field(default_factory=list)
    control: ControlConfig | None = None

    @property
    def q_max(self) -> float:
        return max(self.qhats) if self.qhats else 0.0

    @property
    def q_geo_mean(self) -> float:
        if not self.qhats:
            return 0.0
        return float(np.exp(np.mean(np.log(np.maximum(self.qhats, 1e-300)))))

    @property
    def c_hat(self) -> float:
        """Largest observed ||phi||_E / ||u - u'|| ratio."""
        ratios = [p / d for p, d in zip(self.phi_norms, self.distances) if d > 0]
        return max(ratios) if ratios else 0.0


def _unmasked_right_inverse(ops: TangentOperators, gamma: float) -> np.ndarray:
    """A^T (G + gamma I)^{-1}: R_{M,gamma} before the rank truncation."""
    v = ops.gram_eigvecs
    return ops.a_matrix.T @ (v @ (v.T / (ops.gram_eigvals + gamma)[:, None]))


def _truncate(r: np.ndarray, order: np.ndarray, rank: int) -> np.ndarray:
    """A copy of r with the rows outside the leading ``rank`` of ``order`` zeroed."""
    mask = np.zeros(r.shape[0], dtype=bool)
    mask[order[:rank]] = True
    return np.where(mask[:, None], r, 0.0)


def right_inverse_matrix(ops: TangentOperators, ctl: ControlConfig,
                         noise: NoiseSpec, spec: DomainSpec) -> np.ndarray:
    """Dense (P*K, K) matrix of R_{M,gamma} = P_M A^T (G + gamma I)^{-1}.

    Its rows are the noise coordinates in p-major flat order; those outside
    the leading M of ``pm_order`` are zero.
    """
    return _truncate(_unmasked_right_inverse(ops, ctl.gamma), pm_order(noise, spec), ctl.rank)


def phi(u: np.ndarray, u_prime: np.ndarray, ops: TangentOperators,
        r: np.ndarray) -> KickPath:
    """Stabilising control phi = -R Psi2 (u' - u); linear in u' - u.

    ``r`` is the dense R_{M,gamma} from ``right_inverse_matrix``.
    """
    f = ops.psi2 @ (np.asarray(u, dtype=float) - np.asarray(u_prime, dtype=float))
    return KickPath((r @ f).reshape(-1, f.shape[0]))


def epsilon_check(ops: TangentOperators, r: np.ndarray) -> float:
    """Spectral norm of (A R - I) Psi2, the control defect of the dense R."""
    defect = (ops.a_matrix @ r - np.eye(r.shape[1])) @ ops.psi2
    return float(np.linalg.norm(defect, 2))


def tune(ops: TangentOperators, epsilon_target: float, noise: NoiseSpec,
         spec: DomainSpec, delta: float = 1e-2) -> ControlConfig:
    """Grid search for the cheapest (smallest M, then largest gamma) config.

    Scans M over multiples of K up to P*K and gamma over a log grid,
    returning the first pair with control defect <= epsilon_target.
    """
    K = spec.n_modes
    order = pm_order(noise, spec)
    # one Gram inverse per gamma serves every rank
    unmasked = [_unmasked_right_inverse(ops, gamma) for gamma in GAMMA_GRID]
    best = np.inf
    for rank in range(K, noise.p_order * K + 1, K):
        for gamma, r in zip(GAMMA_GRID, unmasked):
            eps = epsilon_check(ops, _truncate(r, order, rank))
            best = min(best, eps)
            if eps <= epsilon_target:
                return ControlConfig(rank, gamma, delta)
    raise TuningFailedError(best, epsilon_target)


def couple(u0: np.ndarray, u0_prime: np.ndarray, kick_seed: int, n_steps: int,
           spec: DomainSpec, cfg: SolverConfig,
           ctl: ControlConfig | Callable[[TangentOperators], ControlConfig],
           noise: NoiseSpec, traj_id: int = 0) -> CouplingReport:
    """Run the stabilised two-trajectory coupling for n_steps kicks.

    The leader advances with sampled kicks; the follower receives the
    corrected kick eta + phi.  ``ctl`` is the control config, or a function
    that picks it from the first step's tangent operators (a ``tune``, say);
    ``report.control`` is the one used.  Raises SqueezingViolatedError (with
    the partial report attached) if the pair distance ever exceeds delta.
    """
    u = np.array(u0, dtype=float)
    up = np.array(u0_prime, dtype=float)
    report = CouplingReport(control=ctl if isinstance(ctl, ControlConfig) else None)
    for k in range(n_steps):
        dist = float(np.linalg.norm(u - up))
        if dist < 1e-14:
            break
        eta = sample_kick(noise, spec, kick_rng(kick_seed, traj_id, k))
        base = flow(u, eta, spec, cfg)
        ops = linearize_kick(base, spec, cfg, noise)
        if report.control is None:
            report.control = ctl(ops)
        r = right_inverse_matrix(ops, report.control, noise, spec)
        control = phi(u, up, ops, r)
        eps_hat = epsilon_check(ops, r)
        u_next = base.endpoint
        up_next = time_one_map(up, eta + control, spec, cfg)
        dist_next = float(np.linalg.norm(u_next - up_next))
        qhat = dist_next / dist
        report.steps.append(k)
        report.distances.append(dist)
        report.qhats.append(qhat)
        report.phi_norms.append(control.norm_e)
        report.eps_hats.append(eps_hat)
        if dist_next > report.control.delta:
            raise SqueezingViolatedError(k, qhat, report)
        u, up = u_next, up_next
    return report
