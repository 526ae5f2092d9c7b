"""Divergence-free Stokes eigenbasis on the truncated strip.

The domain is x-periodic with period L and y in (0, 1), with free-slip
walls: the stream function and vorticity vanish on y in {0, 1}.  Stream
functions are E_m(x) * sin(n*pi*y) with E_m a cosine (m >= 0) or sine
(m < 0, wavenumber |m|) in x, and velocity eigenfields are the
perpendicular gradients, normalised to unit L2 norm.  All state vectors
are real coefficient vectors in this basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DomainSpec",
    "ModeIndex",
    "stokes_eigenvalue",
    "mode_table",
    "eigenvalues",
    "poincare_constant",
    "norms",
    "bracket",
    "min_grid",
    "grid_operators",
    "save_field",
    "load_field",
]

FIELD_MAGIC = "KICKFLOW-FIELD v1"


@dataclass(frozen=True)
class DomainSpec:
    """Truncated strip domain with viscosity and optional Ekman damping."""

    length: float
    viscosity: float
    damping: float = 0.0
    mx: int = 5
    ny: int = 5

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")
        if not self.viscosity > 0:
            raise ValueError(f"viscosity must be positive, got {self.viscosity}")
        if self.damping < 0:
            raise ValueError(f"damping must be nonnegative, got {self.damping}")
        if self.mx < 0:
            raise ValueError(f"mx must be nonnegative, got {self.mx}")
        if self.ny < 1:
            raise ValueError(f"ny must be >= 1, got {self.ny}")

    @property
    def n_modes(self) -> int:
        return (2 * self.mx + 1) * self.ny


@dataclass(frozen=True)
class ModeIndex:
    """Wavenumber pair; negative m is the sine partner of cosine mode |m|."""

    m: int
    n: int


def stokes_eigenvalue(mode: ModeIndex, spec: DomainSpec) -> float:
    """Eigenvalue alpha(m, n) = (2*pi*|m|/L)^2 + (pi*n)^2 of the Stokes operator."""
    if abs(mode.m) > spec.mx or not (1 <= mode.n <= spec.ny):
        raise ValueError(f"mode {mode} out of range for mx={spec.mx}, ny={spec.ny}")
    return (2.0 * math.pi * abs(mode.m) / spec.length) ** 2 + (math.pi * mode.n) ** 2


@lru_cache(maxsize=None)
def mode_table(spec: DomainSpec) -> tuple[ModeIndex, ...]:
    """All modes ordered by nondecreasing eigenvalue, ties by (n, m)."""
    modes = [
        ModeIndex(m, n)
        for m in range(-spec.mx, spec.mx + 1)
        for n in range(1, spec.ny + 1)
    ]
    modes.sort(key=lambda mo: (stokes_eigenvalue(mo, spec), mo.n, mo.m))
    return tuple(modes)


@lru_cache(maxsize=None)
def eigenvalues(spec: DomainSpec) -> np.ndarray:
    """Eigenvalues in enumeration order (read-only array of length K)."""
    alpha = np.array([stokes_eigenvalue(mo, spec) for mo in mode_table(spec)])
    alpha.setflags(write=False)
    return alpha


def poincare_constant(spec: DomainSpec) -> float:
    """Smallest Stokes eigenvalue lambda_1; equals pi^2 on the strip."""
    return float(eigenvalues(spec)[0])


def _check_dim(u: np.ndarray, spec: DomainSpec) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape[0] != spec.n_modes:
        raise ValueError(f"field has {u.shape[0]} coefficients, expected {spec.n_modes}")
    return u


def norms(u: np.ndarray, spec: DomainSpec) -> tuple[float, float, float]:
    """(H norm, V norm, V' norm) of a coefficient vector."""
    u = _check_dim(u, spec)
    alpha = eigenvalues(spec)
    sq = u * u
    return (
        math.sqrt(np.sum(sq)),
        math.sqrt(np.sum(alpha * sq)),
        math.sqrt(np.sum(sq / alpha)),
    )


def bracket(u: np.ndarray, v: np.ndarray, spec: DomainSpec) -> float:
    """Scalar product [u, v] = <u, v>_1 - (lambda_1 / 2) <u, v>."""
    u = _check_dim(u, spec)
    v = _check_dim(v, spec)
    alpha = eigenvalues(spec)
    lam1 = poincare_constant(spec)
    return float(np.sum((alpha - 0.5 * lam1) * u * v))


# ---------------------------------------------------------------------------
# Collocation grid and transforms
# ---------------------------------------------------------------------------

def min_grid(spec: DomainSpec) -> tuple[int, int]:
    """Minimal (x points, y intervals) for dealiased quadratic products."""
    nx = math.ceil(3 * (2 * spec.mx + 1) / 2)
    nyq = math.ceil(3 * spec.ny / 2) + 1
    return nx, nyq


@dataclass(frozen=True)
class GridOperators:
    """Dense synthesis/analysis matrices for one (spec, grid) pair.

    Every eigenfield is e_k = grad-perp psi_k = (d_y psi_k, -d_x psi_k), and
    its vorticity is omega_k = alpha_k psi_k.  ``syn4`` maps coefficient
    vectors to the point values of u1, u2, omega_x and omega_y at the
    nx * (nyq + 1) collocation nodes, stacked in that order.  ``ana1``
    holds the stream functions psi_k times the trapezoid weights, so
    ``ana1 @ f`` is <f, psi_k> for every k.  Integrating by parts (x is
    periodic, psi_k vanishes on the walls) gives <g, e_k> = <curl g, psi_k>,
    and curl P(u . grad u) = u . grad omega, so ``ana1 @ (u1*omega_x +
    u2*omega_y)`` is the projected advection.  The integrand is a product of
    three band-limited fields, which the dealiased grid integrates exactly,
    so this equals the velocity form up to rounding.
    """

    nx: int
    nyq: int
    syn4: np.ndarray  # (4*npts, K)
    ana1: np.ndarray  # (K, npts)

    @property
    def n_points(self) -> int:
        return self.nx * (self.nyq + 1)


@lru_cache(maxsize=None)
def grid_operators(spec: DomainSpec, nx: int | None = None, nyq: int | None = None) -> GridOperators:
    """Build (and cache) the transform matrices for the given grid sizes."""
    nx_min, nyq_min = min_grid(spec)
    if nx is None:
        nx = nx_min
    if nyq is None:
        nyq = nyq_min
    if nx < nx_min or nyq < nyq_min:
        raise ValueError(
            f"grid ({nx}, {nyq}) below dealiasing minimum ({nx_min}, {nyq_min})"
        )
    L = spec.length
    x = L * np.arange(nx) / nx
    y = np.arange(nyq + 1) / nyq
    wx = np.full(nx, L / nx)
    wy = np.full(nyq + 1, 1.0 / nyq)
    wy[0] *= 0.5
    wy[-1] *= 0.5
    w = np.outer(wx, wy).ravel()

    modes = mode_table(spec)
    K = len(modes)
    npts = nx * (nyq + 1)
    syn = np.empty((4, npts, K))
    u1, u2, wx, wy = syn
    psi = np.empty((npts, K))
    for j, mo in enumerate(modes):
        kx = 2.0 * math.pi * abs(mo.m) / L
        ky = math.pi * mo.n
        alpha = kx * kx + ky * ky
        cx = L if mo.m == 0 else L / 2.0
        scale = 1.0 / math.sqrt(alpha * cx * 0.5)
        if mo.m >= 0:
            ex = np.cos(kx * x)
            dex = -kx * np.sin(kx * x)
        else:
            ex = np.sin(kx * x)
            dex = kx * np.cos(kx * x)
        sy = np.sin(ky * y)
        cy = np.cos(ky * y)
        # u = (d_y psi, -d_x psi) with psi = scale * ex * sy, and
        # grad omega = alpha grad psi = alpha (-u2, u1)
        psi[:, j] = scale * np.outer(ex, sy).ravel()
        u1[:, j] = scale * np.outer(ex, ky * cy).ravel()
        u2[:, j] = -scale * np.outer(dex, sy).ravel()
        wx[:, j] = -alpha * u2[:, j]
        wy[:, j] = alpha * u1[:, j]

    syn4 = syn.reshape(4 * npts, K)
    ana1 = (psi * w[:, None]).T.copy()
    for mat in (syn4, ana1):
        mat.setflags(write=False)
    return GridOperators(nx, nyq, syn4, ana1)


# ---------------------------------------------------------------------------
# Field serialisation
# ---------------------------------------------------------------------------

def save_field(u: np.ndarray, path) -> None:
    u = np.asarray(u, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"{FIELD_MAGIC},K={u.shape[0]}\n")
        fh.write(",".join(repr(float(c)) for c in u) + "\n")


def load_field(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith(FIELD_MAGIC):
            raise ValueError(f"not a kickflow field file: {path}")
        k = int(header.split("K=")[1])
        u = np.array([float(c) for c in fh.readline().strip().split(",")])
    if u.shape[0] != k:
        raise ValueError(f"field file {path} promises K={k}, has {u.shape[0]}")
    return u
