"""Correctness checks on the outputs of the benchmark's workloads.

The checks compare outputs with quantities the benchmark computes itself
(Stokes eigenvalues, absorbing-set constants, finite differences,
one-dimensional Wasserstein bounds, a particle-by-particle replay) or
with properties of the method (B(u) orthogonal to u, symmetry of the
distance).  Each raises ``CheckFailed`` with the offending value.  The
thresholds are those of the acceptance criteria named beside them.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

import kickflow

# The CLI's default problem: K = 55 modes on the period-4 strip, nu = 0.1,
# dt = 1e-3, two Legendre orders per kick, control delta 0.01.
LENGTH, NU, MX, NY, P_ORDER = 4.0, 0.1, 5, 5, 2
DELTA, EPS_TARGET, Q_TARGET = 1e-2, 0.1, 0.95
SPEC = kickflow.DomainSpec(LENGTH, NU)
CFG = kickflow.SolverConfig()
NOISE = kickflow.NoiseSpec()
MIX_COMPACTS = ((1.0, 0), (3.0, 10_000_000))  # (radius, id offset) of ensembles a, b
REL_ENERGY_BOUND = 5e-3  # criterion 1
ORTHOGONALITY_BOUND = 1e-10  # criterion 2
FD_BOUND, FD_EPS = 1e-4, 1e-5  # criterion 4
ROUNDOFF = 1e-9
LP_TOL = 1e-7  # LP values are compared at HiGHS's default feasibility tolerance


class CheckFailed(Exception):
    """An output disagrees with an independent computation or property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def stokes_alphas() -> np.ndarray:
    """Eigenvalues (2 pi |m| / L)^2 + (pi n)^2, ascending."""
    return np.sort([(2 * math.pi * abs(m) / LENGTH) ** 2 + (math.pi * n) ** 2
                    for m in range(-MX, MX + 1) for n in range(1, NY + 1)])


def kick_amplitudes() -> np.ndarray:
    """(P, K) bounds b = (1 + p)^-2 (1 + alpha)^-1 of the kick coordinates."""
    return np.array([(1 + p) ** -2.0 / (1 + stokes_alphas()) for p in range(P_ORDER)])


def absorbing(m1: float = 9.0) -> tuple[float, int]:
    """(absorbing radius squared, kicks for |u|^2 <= m1 to enter it)."""
    alpha = stokes_alphas()
    lam1 = alpha[0]
    m2 = float(np.sum(kick_amplitudes() ** 2 / alpha)) / (NU * NU * lam1)
    kappa = math.exp(-NU * lam1)
    arg = m1 * (1 - kappa) / m2
    k_star = math.ceil(math.log(arg) / (NU * lam1)) if arg > 1 else 0
    return 2 * m2 / (1 - kappa), k_star


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_field(path: Path) -> np.ndarray:
    header, values = Path(path).read_text().splitlines()[:2]
    require(header.startswith("KICKFLOW-FIELD"), f"{path}: not a field file")
    return np.array(values.split(","), dtype=float)


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def check_energy(norm_sq: np.ndarray, residuals: np.ndarray) -> None:
    """Per-kick residual relative to the larger endpoint energy (criterion 1)."""
    rel = residuals / np.maximum(norm_sq[:-1], norm_sq[1:])
    require(bool(np.all(rel <= REL_ENERGY_BOUND)),
            f"energy residual {rel.max():.3e} > {REL_ENERGY_BOUND} at kick {int(rel.argmax())}")


def check_absorbing(norm_sq: np.ndarray) -> None:
    """|u_k|^2 stays in the absorbing ball from k* on (criterion 8)."""
    rad_sq, k_star = absorbing()
    tail = norm_sq[k_star:]
    require(bool(np.all(tail <= rad_sq)),
            f"|u|^2 = {tail.max():.4e} after k* = {k_star} exceeds radius^2 {rad_sq:.4e}")


def check_orthogonality(u: np.ndarray, bu: np.ndarray) -> None:
    """|<B(u), u>| / (|u| |u|_1^2) at round-off (criterion 2)."""
    scale = np.linalg.norm(u) * float(np.sum(stokes_alphas() * u * u))
    ratio = abs(float(bu @ u)) / scale
    require(ratio <= ORTHOGONALITY_BOUND, f"|<B(u),u>| ratio {ratio:.3e}")


def trajectory(out: Path, u0: np.ndarray, kicks: int) -> None:
    rows = read_csv(out / "per_kick.csv")  # k, normH, normV, energy_residual
    require(rows.shape[0] == kicks and np.array_equal(rows[:, 0], np.arange(kicks)),
            f"per_kick.csv has {rows.shape[0]} rows, expected {kicks}")
    norm_sq = np.concatenate([[u0 @ u0], rows[:, 1] ** 2])
    check_energy(norm_sq, rows[:, 3])
    check_absorbing(norm_sq)
    u = read_field(out / "endpoint_field.csv")
    require(abs(np.linalg.norm(u) - rows[-1, 1]) <= ROUNDOFF * rows[-1, 1],
            "endpoint field does not match the last normH")
    check_orthogonality(u, kickflow.nonlinearity(u, SPEC))


# ---------------------------------------------------------------------------
# coupling
# ---------------------------------------------------------------------------

def check_psi1(psi1: np.ndarray) -> None:
    want = np.exp(-NU * stokes_alphas())
    err = float(np.max(np.abs(psi1 - want) / want))
    require(err <= 1e-12, f"psi1 differs from exp(-nu alpha) by {err:.2e}")


def check_fd_columns(psi1, psi2, u0, eta, columns) -> None:
    """Columns of diag(psi1) + psi2 against central differences (criterion 4)."""
    for j in columns:
        e = np.zeros_like(u0)
        e[j] = FD_EPS
        fd = (kickflow.time_one_map(u0 + e, eta, SPEC, CFG)
              - kickflow.time_one_map(u0 - e, eta, SPEC, CFG)) / (2 * FD_EPS)
        col = psi2[:, j].copy()
        col[j] += psi1[j]
        defect = float(np.linalg.norm(col - fd))
        require(defect <= FD_BOUND, f"Jacobian column {j} FD defect {defect:.2e} > {FD_BOUND}")


def check_gram(eigenvalues: np.ndarray) -> None:
    require(bool(np.all(eigenvalues > 0)), f"Gram eigenvalue {eigenvalues.min():.3e} <= 0")


def check_coupling_steps(rows: np.ndarray, steps: int) -> None:
    """Columns pair, k, dist, qhat, phi_norm, eps_hat (criterion 7)."""
    require(rows.shape[0] == steps, f"coupling_steps.csv has {rows.shape[0]} rows, expected {steps}")
    dist, qhat, eps_hat = rows[:, 2], rows[:, 3], rows[:, 5]
    require(bool(np.all(eps_hat <= EPS_TARGET)), f"eps_hat {eps_hat.max():.3e} > {EPS_TARGET}")
    q_geo = float(np.exp(np.mean(np.log(qhat))))
    require(q_geo <= Q_TARGET, f"geometric-mean q_hat {q_geo:.3f} > {Q_TARGET}")
    reached = np.concatenate([dist, dist[-1:] * qhat[-1:]])
    require(bool(np.all(reached <= DELTA)), f"pair distance {reached.max():.3e} > delta {DELTA}")


def coupling(lin: Path, cpl: Path, u0: np.ndarray, eta, steps: int, columns) -> None:
    psi1 = read_csv(lin / "psi1_diagonal.csv")[:, 1]
    check_psi1(psi1)
    check_gram(read_csv(lin / "gram_spectrum.csv")[:, 1])
    check_fd_columns(psi1, read_csv(lin / "psi2_matrix.csv"), u0, eta, columns)
    check_coupling_steps(read_csv(cpl / "coupling_steps.csv"), steps)


# ---------------------------------------------------------------------------
# distances (mixing and stationary)
# ---------------------------------------------------------------------------

def wasserstein_1d(x1, w1, x2, w2) -> float:
    z = np.concatenate([x1, x2])
    order = np.argsort(z, kind="stable")
    cdf = np.cumsum(np.concatenate([w1, -w2])[order])[:-1]
    return float(np.sum(np.abs(cdf) * np.diff(z[order])))


def distance_bounds(p1, w1, p2, w2, directions, radius) -> tuple[float, float]:
    """Lower bound: largest clamped-mean difference over the directions.
    Upper bound: largest W1 distance of the projections, which dominates
    every bounded-Lipschitz functional of Lipschitz constant <= 1."""
    lower = upper = 0.0
    for w in directions:
        x1, x2 = p1 @ w, p2 @ w
        g1 = 0.5 * np.clip(x1, -radius, radius) / max(1.0, radius)
        g2 = 0.5 * np.clip(x2, -radius, radius) / max(1.0, radius)
        lower = max(lower, abs(float(g1 @ w1 - g2 @ w2)))
        upper = max(upper, wasserstein_1d(x1, w1, x2, w2))
    return lower, upper


def check_distance_bounds(value: float, p1, w1, p2, w2, directions, radius, what: str) -> None:
    lower, upper = distance_bounds(p1, w1, p2, w2, directions, radius)
    require(lower - LP_TOL <= value <= upper + LP_TOL,
            f"{what} = {value:.6e} outside [{lower:.6e}, {upper:.6e}]")


def read_checkpoint(path: Path) -> list[dict]:
    """Ensembles of a KICKFLOW-CKPT file, after verifying its content hash."""
    lines = Path(path).read_text().splitlines()
    require(lines[0].startswith("KICKFLOW-CKPT") and lines[-1].startswith("HASH "),
            f"{path}: not a checkpoint")
    body = "\n".join(lines[1:-1]) + "\n"
    require(hashlib.sha256(body.encode()).hexdigest() == lines[-1][5:],
            f"{path}: content hash mismatch")
    out, i = [], 1
    while i < len(lines) - 1:
        head = dict(p.split("=") for p in lines[i].split(",")[1:])
        n = int(head["particles"])
        rows = np.array([ln.split(",") for ln in lines[i + 1:i + 1 + n]], dtype=float)
        out.append({"kick_index": int(head["kick_index"]), "seed": int(head["seed"]),
                    "ids": rows[:, 0].astype(int), "weights": rows[:, 1],
                    "particles": rows[:, 2:]})
        i += 1 + n
    return out


def check_replay(ens: dict, radius: float, id_offset: int, seed: int, kicks: int,
                 sample) -> None:
    """Replay particles with time_one_map from make_compact along their own streams."""
    n = ens["particles"].shape[0]
    start = kickflow.make_compact(SPEC, radius, n, seed, id_offset=id_offset).particles
    for i in sample:
        pid = id_offset + int(i)
        require(ens["ids"][i] == pid, f"particle {i} has id {ens['ids'][i]}, expected {pid}")
        u = start[i]
        for k in range(kicks):
            eta = kickflow.sample_kick(NOISE, SPEC, kickflow.kick_rng(seed, pid, k))
            u = kickflow.time_one_map(u, eta, SPEC, CFG)
        err = float(np.max(np.abs(u - ens["particles"][i])))
        require(err <= ROUNDOFF * max(1.0, float(np.linalg.norm(u))),
                f"particle {pid} differs from its replay by {err:.3e}")


def mixing(out: Path, ckpt: Path, seed: int, particles: int, kicks: int, sample) -> None:
    rows = read_csv(out / "mix_distances.csv")  # k, dist_lower, floor, ...
    require(rows.shape[0] == kicks + 1 and rows[-1, 0] == kicks,
            f"mix_distances.csv has {rows.shape[0]} rows, expected {kicks + 1}")
    ensembles = read_checkpoint(ckpt)
    require(len(ensembles) == 2, f"checkpoint holds {len(ensembles)} ensembles")
    for ens, (radius, offset) in zip(ensembles, MIX_COMPACTS):
        require(ens["kick_index"] == kicks and ens["particles"].shape[0] == particles,
                f"checkpoint ensemble at kick {ens['kick_index']} with "
                f"{ens['particles'].shape[0]} particles")
        check_replay(ens, radius, offset, seed, kicks, sample)
    a, b = ensembles
    dic = kickflow.ergodicity.default_test_dictionary(SPEC)
    check_distance_bounds(float(rows[-1, 1]), a["particles"], a["weights"], b["particles"],
                          b["weights"], dic.directions, dic.clamp_radius, "last dist_lower")


def krylov_reference(history: np.ndarray, burn_in: int) -> tuple[np.ndarray, np.ndarray]:
    """Pooled post-burn-in snapshots with equal weights."""
    pts = history[burn_in:].reshape(-1, history.shape[-1])
    return pts, np.full(pts.shape[0], 1.0 / pts.shape[0])


def halves(pts: np.ndarray):
    h = pts.shape[0] // 2
    w = np.full(h, 1.0 / h)
    return pts[:h], w, pts[h:2 * h], w


def stationary(result: dict, hist_a, hist_b, burn_in: int, directions, radius) -> None:
    pa, wa = krylov_reference(hist_a, burn_in)
    pb, wb = krylov_reference(hist_b, burn_in)
    check_distance_bounds(result["dist"], pa, wa, pb, wb, directions, radius, "stationary distance")
    for name, pts, floor in (("a", pa, result["floors"][0]), ("b", pb, result["floors"][1])):
        check_distance_bounds(floor, *halves(pts), directions, radius, f"split-half floor {name}")


def check_symmetry(d_ab: float, d_ba: float) -> None:
    require(abs(d_ab - d_ba) <= LP_TOL, f"d(a, b) = {d_ab!r} but d(b, a) = {d_ba!r}")


def check_self_distance(d_aa: float) -> None:
    require(abs(d_aa) <= LP_TOL, f"d(a, a) = {d_aa!r}")


def distance_properties(floor: float, history, burn_in: int, directions, radius) -> None:
    """Symmetry of the split-half floor, zero self-distance, point-mass closed form."""
    def ensemble(pts, w):
        return kickflow.EmpiricalEnsemble(pts, w, 0, 0, np.arange(len(w)))

    dic = kickflow.TestDictionary(directions, radius)
    pts, w = krylov_reference(history, burn_in)
    x1, w1, x2, w2 = halves(pts)
    check_symmetry(floor, kickflow.dual_lipschitz_lower(ensemble(x2, w2), ensemble(x1, w1), dic))
    check_self_distance(kickflow.dual_lipschitz_lower(ensemble(pts, w), ensemble(pts, w), dic))
    check_point_masses(kickflow.bl_distance_1d)


def check_point_masses(bl_distance_1d) -> None:
    """Unit point masses h apart are 2h / (2 + h) apart in the 1D BL metric."""
    one = np.ones(1)
    for h in (0.1, 1.0, 5.0):
        got = bl_distance_1d(np.zeros(1), one, np.full(1, h), one)
        require(abs(got - 2 * h / (2 + h)) <= LP_TOL,
                f"BL distance of point masses {h} apart is {got!r}, expected {2 * h / (2 + h)!r}")
