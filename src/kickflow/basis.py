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


@dataclass(frozen=True)
class GridOperators:
    """Synthesis/analysis matrices and their 1-D factors for one (spec, grid) pair.

    The grid has nx points in x and nyq intervals in y, and every table
    holds its nx * (nyq - 1) interior nodes only.  Every eigenfield is
    e_k = grad-perp psi_k = (d_y psi_k, -d_x psi_k), and its vorticity is
    omega_k = alpha_k psi_k, so grad omega = (-u2, u1) of the state
    alpha * u.  ``syn2`` maps coefficient vectors to the point values of
    u1 and u2 at the nodes, stacked in that order; applied to the two
    columns [u, alpha * u] it gives all four fields.  ``ana1`` holds the
    stream functions psi_k times the trapezoid weights, so ``ana1 @ f`` is
    <f, psi_k> for every k.  Integrating by parts (x is periodic, psi_k
    vanishes on the walls) gives <g, e_k> = <curl g, psi_k>, and
    curl P(u . grad u) = u . grad omega, so ``ana1 @ (u1*omega_x +
    u2*omega_y)`` is the projected advection.  The integrand is a product
    of three band-limited fields, which the dealiased grid integrates
    exactly, so this equals the velocity form up to rounding.

    Leaving out the wall rows y = 0 and y = 1 changes only rounding: the
    analysis weights every node by psi_k, and sin(k_y y) is 0 at y = 0 and
    within rounding of 0 at y = 1 (there every ``ana1`` column would be at
    most 5.1e-19 on the default 55-mode grid), so the trapezoid sum over
    the interior nodes is the same sum.

    The stream functions are products psi_k = s_k E_m(x) sin(k_y y), so both
    matrices factor into 1-D tables over the (2*mx + 1) x ny grid of
    (m, n) slots, slot (m + mx) * ny + (n - 1):

    - ``ex``, ``dex`` (nx, 2*mx + 1): E_m and its x derivative;
    - ``cy``, ``sy`` (nyq - 1, ny): k_y cos(k_y y) and sin(k_y y);
    - ``exw`` (2*mx + 1, nx), ``syw`` (ny, nyq - 1): ``ex`` and ``sy``
      times the trapezoid weights, transposed, for the analysis;
    - ``scale``, ``alpha`` (2*mx + 1, ny): s_k and alpha_k by slot;
    - ``slot`` (K,): the slot of each mode in eigenvalue order, a
      permutation of range(K).

    Then psi_k = scale * ex (x) sy, u1 = scale * ex (x) cy and
    u2 = -scale * dex (x) sy, which is how ``syn2`` and ``ana1`` are built.
    """

    nx: int
    nyq: int
    syn2: np.ndarray  # (2*npts, K)
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
        return self.nx * (self.nyq - 1)


@lru_cache(maxsize=None)
def grid_operators(spec: DomainSpec, nx: int | None = None, nyq: int | None = None) -> GridOperators:
    """Build (and cache) the transform matrices for the given grid sizes.

    Each size left None is its dealiasing minimum, which the library uses;
    a larger grid changes only rounding.  Raises ValueError if either size
    is below the minimum.
    """
    nx_min, nyq_min = min_grid(spec)
    nx = nx_min if nx is None else nx
    nyq = nyq_min if nyq is None else nyq
    if nx < nx_min or nyq < nyq_min:
        raise ValueError(f"grid ({nx}, {nyq}) below dealiasing minimum ({nx_min}, {nyq_min})")
    L = spec.length
    x = L * np.arange(nx) / nx
    y = np.arange(1, nyq) / nyq
    # trapezoid weights, the same at every interior node
    qx, qy = L / nx, 1.0 / nyq

    # E_m is cos(k_x x) for m >= 0 and sin(k_x x) for m < 0
    m = np.arange(-spec.mx, spec.mx + 1)
    kx = 2.0 * math.pi * np.abs(m) / L
    cos, sin = np.cos(x[:, None] * kx), np.sin(x[:, None] * kx)
    ex = np.where(m >= 0, cos, sin)
    dex = np.where(m >= 0, -kx * sin, kx * cos)
    ky = math.pi * np.arange(1, spec.ny + 1)
    alpha = (kx * kx)[:, None] + ky * ky
    scale = 1.0 / np.sqrt(alpha * np.where(m == 0, L, L / 2.0)[:, None] * 0.5)
    cy = ky * np.cos(y[:, None] * ky)
    sy = np.sin(y[:, None] * ky)
    slot = np.array([(mo.m + spec.mx) * spec.ny + mo.n - 1 for mo in mode_table(spec)])

    # columns in eigenvalue order; u = (d_y psi, -d_x psi) with
    # psi = scale * ex * sy
    mi, nj = np.divmod(slot, spec.ny)
    s = scale[mi, nj]
    npts = nx * (nyq - 1)
    K = len(slot)
    syn2 = np.empty((2 * npts, K))  # C order: BLAS rounds an F-ordered product differently
    syn2[:npts] = s * (ex[:, None, mi] * cy[None, :, nj]).reshape(npts, K)
    syn2[npts:] = -s * (dex[:, None, mi] * sy[None, :, nj]).reshape(npts, K)
    psi = s * (ex[:, None, mi] * sy[None, :, nj]).reshape(npts, K)
    ana1 = (psi * (qx * qy)).T.copy()
    exw = (ex * qx).T.copy()
    syw = (sy * qy).T.copy()
    for arr in (syn2, ana1, ex, dex, cy, sy, exw, syw, scale, alpha, slot):
        arr.setflags(write=False)
    return GridOperators(nx, nyq, syn2, ana1, ex, dex, cy, sy, exw, syw, scale, alpha, slot)


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
