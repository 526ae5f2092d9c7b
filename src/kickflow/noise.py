"""Decomposable kick law on E = L2([0,1], H) and its sampler.

The orthonormal basis of E is the tensor product of shifted Legendre
polynomials in time with the Stokes eigenbasis in space.  Coordinates are
independent, bounded by amplitudes b, and drawn from the C1 density
rho(r) = (15/16)(1 - r^2)^2 on [-1, 1] by inverse CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from .basis import DomainSpec, eigenvalues

__all__ = [
    "NoiseSpec",
    "KickPath",
    "legendre_values",
    "amplitudes",
    "pm_order",
    "rho",
    "rho_cdf",
    "sample_xi",
    "kick_rng",
    "sample_kick",
    "eval_kick",
    "support_bound",
    "save_kick",
    "load_kick",
]

KICK_MAGIC = "KICKFLOW-KICK v1"


@dataclass(frozen=True)
class NoiseSpec:
    """Amplitude law b_(p,k) = b0 * (1+p)^(-s_t) * (1+alpha_k)^(-s_x)."""

    p_order: int = 2
    b0: float = 1.0
    s_t: float = 2.0
    s_x: float = 1.0

    def __post_init__(self):
        if self.p_order < 1:
            raise ValueError(f"p_order must be >= 1, got {self.p_order}")
        for name in ("b0", "s_t", "s_x"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.b0 >= 0:
            raise ValueError(f"b0 must be nonnegative, got {self.b0}")
        if self.s_t < 2 or self.s_x < 1:
            raise ValueError("need s_t >= 2 and s_x >= 1 for a summable amplitude law")


@dataclass(frozen=True)
class KickPath:
    """One kick: coefficient matrix of shape (P, K) in the E basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.coeffs.ndim != 2:
            raise ValueError("kick coefficients must be a (P, K) matrix")

    @property
    def norm_e(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "KickPath") -> "KickPath":
        return KickPath(self.coeffs + other.coeffs)


def legendre_values(p_order: int, t) -> np.ndarray:
    """Orthonormal shifted Legendre values tau_p(t), shape (..., P)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > 1 + 1e-12):
        raise ValueError("time argument outside [0, 1]")
    s = 2.0 * t - 1.0
    vals = np.stack(
        [math.sqrt(2 * p + 1) * npleg.legval(s, [0.0] * p + [1.0]) for p in range(p_order)],
        axis=-1,
    )
    return vals


@lru_cache(maxsize=None)
def amplitudes(noise: NoiseSpec, spec: DomainSpec) -> np.ndarray:
    """(P, K) amplitude matrix b, read-only."""
    alpha = eigenvalues(spec)
    p = np.arange(noise.p_order)
    b = noise.b0 * (1.0 + p[:, None]) ** (-noise.s_t) * (1.0 + alpha[None, :]) ** (-noise.s_x)
    b.setflags(write=False)
    return b


@lru_cache(maxsize=None)
def pm_order(noise: NoiseSpec, spec: DomainSpec) -> np.ndarray:
    """Flat (p-major) indices sorted by decreasing amplitude, stable ties."""
    b = amplitudes(noise, spec).ravel()
    order = np.argsort(-b, kind="stable")
    order.setflags(write=False)
    return order


# ---------------------------------------------------------------------------
# Coordinate density rho(r) = (15/16)(1 - r^2)^2 on [-1, 1]
# ---------------------------------------------------------------------------

def rho(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    return np.where(np.abs(r) <= 1.0, (15.0 / 16.0) * (1.0 - r * r) ** 2, 0.0)


def rho_cdf(r) -> np.ndarray:
    r = np.clip(np.asarray(r, dtype=float), -1.0, 1.0)
    return (15.0 / 16.0) * (r - 2.0 * r**3 / 3.0 + r**5 / 5.0) + 0.5


_TABLE_R = np.linspace(-1.0, 1.0, 8193)
_TABLE_F = rho_cdf(_TABLE_R)


def sample_xi(rng: np.random.Generator, size) -> np.ndarray:
    """Inverse-CDF draws from rho; table lookup plus Newton refinement."""
    return _xi_from_uniform(rng.random(size))


def _xi_from_uniform(v: np.ndarray) -> np.ndarray:
    """The inverse CDF of rho at uniforms v, elementwise."""
    r = np.interp(v, _TABLE_F, _TABLE_R)
    for _ in range(3):
        d = rho(r)
        step = np.where(d > 1e-12, (rho_cdf(r) - v) / np.maximum(d, 1e-12), 0.0)
        r = np.clip(r - step, -1.0, 1.0)
    return r


def kick_rng(master_seed: int, traj_id: int, kick_index: int) -> np.random.Generator:
    """Counter-based stream for one (trajectory, kick) pair.

    Keys a Philox generator by the full lineage tuple, so ensembles are
    reproducible independently of sampling order.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(traj_id, kick_index))
    return np.random.Generator(np.random.Philox(ss))


def sample_kick(noise: NoiseSpec, spec: DomainSpec, rng: np.random.Generator) -> KickPath:
    """Draw one kick: independent bounded coordinates scaled by the amplitudes."""
    b = amplitudes(noise, spec)
    xi = sample_xi(rng, b.shape)
    return KickPath(b * xi)


def eval_kick(eta: KickPath, t) -> np.ndarray:
    """Pointwise value sum_p tau_p(t) * row_p; shape (K,) or (len(t), K)."""
    tau = legendre_values(eta.coeffs.shape[0], t)
    return tau @ eta.coeffs


def support_bound(noise: NoiseSpec, spec: DomainSpec) -> tuple[float, float]:
    """(E-radius of the support, sup over the support of the squared V' norm)."""
    b = amplitudes(noise, spec)
    alpha = eigenvalues(spec)
    return (
        float(np.sqrt(np.sum(b * b))),
        float(np.sum(b * b / alpha[None, :])),
    )


def save_kick(eta: KickPath, path) -> None:
    p, k = eta.coeffs.shape
    with open(path, "w") as fh:
        fh.write(f"{KICK_MAGIC},P={p},K={k}\n")
        for row in eta.coeffs:
            fh.write(",".join(repr(float(c)) for c in row) + "\n")


def load_kick(path) -> KickPath:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith(KICK_MAGIC):
            raise ValueError(f"not a kickflow kick file: {path}")
        parts = dict(item.split("=") for item in header.split(",")[1:])
        p, k = int(parts["P"]), int(parts["K"])
        rows = [[float(c) for c in fh.readline().strip().split(",")] for _ in range(p)]
    coeffs = np.array(rows)
    if coeffs.shape != (p, k):
        raise ValueError(f"kick file {path} has shape {coeffs.shape}, expected {(p, k)}")
    return KickPath(coeffs)
