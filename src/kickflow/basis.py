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
    "dealiased_grid",
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
        for name in ("length", "viscosity", "damping"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def dealiased_grid(spec: DomainSpec, nx: int | None = None,
                   nyq: int | None = None) -> tuple[int, int]:
    """The grid (nx, nyq), each None replaced by its dealiasing minimum.

    Raises ValueError if either size is below the minimum.
    """
    nx_min, nyq_min = min_grid(spec)
    nx = nx_min if nx is None else nx
    nyq = nyq_min if nyq is None else nyq
    if nx < nx_min or nyq < nyq_min:
        raise ValueError(f"grid ({nx}, {nyq}) below dealiasing minimum ({nx_min}, {nyq_min})")
    return nx, nyq


@dataclass(frozen=True)
class GridOperators:
    """Synthesis/analysis matrices and their 1-D factors for one (spec, grid) pair.

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

    The stream functions are products psi_k = s_k E_m(x) sin(k_y y), so both
    matrices factor into 1-D tables over the (2*mx + 1) x ny grid of
    (m, n) slots, slot (m + mx) * ny + (n - 1):

    - ``ex``, ``dex`` (nx, 2*mx + 1): E_m and its x derivative;
    - ``cy``, ``sy`` (nyq + 1, ny): k_y cos(k_y y) and sin(k_y y);
    - ``exw`` (2*mx + 1, nx), ``syw`` (ny, nyq + 1): ``ex`` and ``sy``
      times the trapezoid weights, transposed, for the analysis;
    - ``scale``, ``alpha`` (2*mx + 1, ny): s_k and alpha_k by slot;
    - ``slot`` (K,): the slot of each mode in eigenvalue order, a
      permutation of range(K).

    Then psi_k = scale * ex (x) sy, u1 = scale * ex (x) cy and
    u2 = -scale * dex (x) sy, which is how ``syn4`` and ``ana1`` are built.
    """

    nx: int
    nyq: int
    syn4: np.ndarray  # (4*npts, K)
    ana1: np.ndarray  # (K, npts)
    ex: np.ndarray
    dex: np.ndarray
    cy: np.ndarray
    sy: np.ndarray
    exw: np.ndarray
    syw: np.ndarray
    scale: np.ndarray
    alpha: np.ndarray
    slot: np.ndarray

    @property
    def n_points(self) -> int:
        return self.nx * (self.nyq + 1)


@lru_cache(maxsize=None)
def grid_operators(spec: DomainSpec, nx: int | None = None, nyq: int | None = None) -> GridOperators:
    """Build (and cache) the transform matrices for the given grid sizes."""
    nx, nyq = dealiased_grid(spec, nx, nyq)
    L = spec.length
    x = L * np.arange(nx) / nx
    y = np.arange(nyq + 1) / nyq
    qx = np.full(nx, L / nx)
    qy = np.full(nyq + 1, 1.0 / nyq)
    qy[0] *= 0.5
    qy[-1] *= 0.5
    w = np.outer(qx, qy).ravel()

    ms = range(-spec.mx, spec.mx + 1)
    ex = np.empty((nx, len(ms)))
    dex = np.empty((nx, len(ms)))
    scale = np.empty((len(ms), spec.ny))
    alpha = np.empty((len(ms), spec.ny))
    for i, m in enumerate(ms):
        kx = 2.0 * math.pi * abs(m) / L
        if m >= 0:
            ex[:, i] = np.cos(kx * x)
            dex[:, i] = -kx * np.sin(kx * x)
        else:
            ex[:, i] = np.sin(kx * x)
            dex[:, i] = kx * np.cos(kx * x)
        cx = L if m == 0 else L / 2.0
        for j in range(spec.ny):
            ky = math.pi * (j + 1)
            alpha[i, j] = kx * kx + ky * ky
            scale[i, j] = 1.0 / math.sqrt(alpha[i, j] * cx * 0.5)
    cy = np.empty((nyq + 1, spec.ny))
    sy = np.empty((nyq + 1, spec.ny))
    for j in range(spec.ny):
        ky = math.pi * (j + 1)
        cy[:, j] = ky * np.cos(ky * y)
        sy[:, j] = np.sin(ky * y)
    slot = np.array([(mo.m + spec.mx) * spec.ny + mo.n - 1 for mo in mode_table(spec)])

    # columns in eigenvalue order; u = (d_y psi, -d_x psi) with
    # psi = scale * ex * sy, and grad omega = alpha grad psi = alpha (-u2, u1)
    mi, nj = np.divmod(slot, spec.ny)
    s = scale[mi, nj]
    a = alpha[mi, nj]
    npts = nx * (nyq + 1)
    K = len(slot)
    syn = np.empty((4, npts, K))
    u1, u2, wx, wy = syn
    u1[:] = s * (ex[:, None, mi] * cy[None, :, nj]).reshape(npts, K)
    u2[:] = -s * (dex[:, None, mi] * sy[None, :, nj]).reshape(npts, K)
    wx[:] = -a * u2
    wy[:] = a * u1
    syn4 = syn.reshape(4 * npts, K)
    psi = s * (ex[:, None, mi] * sy[None, :, nj]).reshape(npts, K)
    ana1 = (psi * w[:, None]).T.copy()
    exw = (ex * qx[:, None]).T.copy()
    syw = (sy * qy[:, None]).T.copy()
    for arr in (syn4, ana1, ex, dex, cy, sy, exw, syw, scale, alpha, slot):
        arr.setflags(write=False)
    return GridOperators(nx, nyq, syn4, ana1, ex, dex, cy, sy, exw, syw, scale, alpha, slot)


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
