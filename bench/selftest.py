"""Self-tests of the benchmark: every check passes on a real output of its
workload and fails on a corrupted one.

    python3 -m pytest -q bench/selftest.py

The outputs come from the same CLI experiments and API calls as the
workloads, run in-process on fewer kicks, particles or snapshots; K and
dt stay at their fixed values.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import kickflow  # noqa: E402
from kickflow.cli import main as cli  # noqa: E402

SEED = 7


def fails(match, fn, *args):
    with pytest.raises(checks.CheckFailed, match=match):
        fn(*args)


def edit_csv(path: Path, row: int, col: int, value: float) -> None:
    lines = path.read_text().splitlines()
    cells = lines[1 + row].split(",")
    cells[col] = repr(value)
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def copy(tmp_path):
    def make(src: Path) -> Path:
        dst = tmp_path / src.name
        shutil.copytree(src, dst)
        return dst
    return make


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

KICKS = 9  # k* = 6, so three energies are held to the absorbing radius


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    d = tmp_path_factory.mktemp("simulate")
    wl = run.Trajectory(SEED, d)
    assert cli(["--seed", str(SEED), "--out", str(d / "out"), "simulate",
                "--u0", str(wl.u0_path), "--kicks", str(KICKS)]) == 0
    return d / "out", wl.u0


def test_trajectory_passes(simulated):
    checks.trajectory(*simulated, KICKS)


def test_trajectory_energy_residual(simulated, copy):
    out, u0 = simulated
    bad = copy(out)
    edit_csv(bad / "per_kick.csv", 4, 3, 1e-2)
    fails("energy residual", checks.trajectory, bad, u0, KICKS)


def test_trajectory_absorbing_radius(simulated, copy):
    out, u0 = simulated
    bad = copy(out)
    edit_csv(bad / "per_kick.csv", 6, 1, 1.0)
    fails("exceeds radius", checks.trajectory, bad, u0, KICKS)


def test_trajectory_row_count(simulated):
    fails("rows", checks.trajectory, simulated[0], simulated[1], KICKS + 1)


def test_trajectory_endpoint(simulated, copy):
    out, u0 = simulated
    bad = copy(out)
    lines = (bad / "endpoint_field.csv").read_text().splitlines()
    lines[1] = "0.5," + lines[1].split(",", 1)[1]
    (bad / "endpoint_field.csv").write_text("\n".join(lines) + "\n")
    fails("endpoint", checks.trajectory, bad, u0, KICKS)


def test_orthogonality(simulated):
    u = checks.read_field(simulated[0] / "endpoint_field.csv")
    bu = kickflow.nonlinearity(u, checks.SPEC)
    checks.check_orthogonality(u, bu)
    fails("B\\(u\\)", checks.check_orthogonality, u, bu + 1e-6 * u)


# ---------------------------------------------------------------------------
# coupling
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coupled(tmp_path_factory):
    d = tmp_path_factory.mktemp("coupling")
    wl = run.Coupling(SEED, d)
    for op in wl.ops(d):
        assert cli(op.args) == 0
    return d, wl


def test_coupling_passes(coupled):
    d, wl = coupled
    wl.check(d)


def test_coupling_psi1(coupled):
    psi1 = checks.read_csv(coupled[0] / "linearize" / "psi1_diagonal.csv")[:, 1]
    psi1[10] *= 1 + 1e-9
    fails("psi1", checks.check_psi1, psi1)


def test_coupling_gram(coupled):
    eig = checks.read_csv(coupled[0] / "linearize" / "gram_spectrum.csv")[:, 1]
    eig[-1] = -eig[-1]
    fails("Gram", checks.check_gram, eig)


def test_coupling_jacobian(coupled):
    d, wl = coupled
    lin = d / "linearize"
    psi1 = checks.read_csv(lin / "psi1_diagonal.csv")[:, 1]
    psi2 = checks.read_csv(lin / "psi2_matrix.csv")
    psi2[3, run.FD_COLUMNS[-1]] += 1e-3
    fails("FD defect", checks.check_fd_columns, psi1, psi2, wl.u0, wl.eta, run.FD_COLUMNS)


@pytest.mark.parametrize("col,value,match", [(5, 0.2, "eps_hat"), (3, 0.99, "q_hat"),
                                             (2, 0.02, "delta")])
def test_coupling_steps(coupled, col, value, match):
    rows = checks.read_csv(coupled[0] / "couple" / "coupling_steps.csv")
    rows[:, col] = value
    fails(match, checks.check_coupling_steps, rows, run.COUPLE_STEPS)


def test_coupling_row_count(coupled):
    rows = checks.read_csv(coupled[0] / "couple" / "coupling_steps.csv")
    fails("rows", checks.check_coupling_steps, rows[:-1], run.COUPLE_STEPS)


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

PARTICLES, SAMPLE = 16, (0, 5, 15)


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    d = tmp_path_factory.mktemp("mixing")
    assert cli(["--seed", str(SEED), "--out", str(d / "mix"), "mix", "--particles",
                str(PARTICLES), "--kicks", "1", "--compact", "r3",
                "--checkpoint", str(d / "mix" / "mix.ckpt")]) == 0
    return d / "mix"


def check_mixed(out: Path) -> None:
    checks.mixing(out, out / "mix.ckpt", SEED, PARTICLES, 1, SAMPLE)


def rewrite_checkpoint(path: Path, line: int, rehash: bool) -> None:
    import hashlib

    lines = path.read_text().splitlines()
    cells = lines[line].split(",")
    cells[5] = repr(float(cells[5]) + 1e-6)
    lines[line] = ",".join(cells)
    if rehash:
        body = "\n".join(lines[1:-1]) + "\n"
        lines[-1] = "HASH " + hashlib.sha256(body.encode()).hexdigest()
    path.write_text("\n".join(lines) + "\n")


def test_mixing_passes(mixed):
    check_mixed(mixed)


def test_mixing_replay(mixed, copy):
    bad = copy(mixed)
    rewrite_checkpoint(bad / "mix.ckpt", 2 + PARTICLES + 1 + SAMPLE[1], rehash=True)
    fails("replay", check_mixed, bad)


def test_mixing_hash(mixed, copy):
    bad = copy(mixed)
    rewrite_checkpoint(bad / "mix.ckpt", 2, rehash=False)
    fails("hash", check_mixed, bad)


@pytest.mark.parametrize("value", [0.0, 5.0])
def test_mixing_distance_bounds(mixed, copy, value):
    bad = copy(mixed)
    edit_csv(bad / "mix_distances.csv", 1, 1, value)
    fails("outside", check_mixed, bad)


def test_mixing_row_count(mixed):
    fails("rows", checks.mixing, mixed, mixed / "mix.ckpt", SEED, PARTICLES, 2, SAMPLE)


# ---------------------------------------------------------------------------
# stationary
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stationary(tmp_path_factory):
    d = tmp_path_factory.mktemp("stationary")
    wl = run.Stationary(SEED, d)
    small = {"hist_a": wl.hist_a[:4, :128], "hist_b": wl.hist_b[:4, :128], "burn_in": 1,
             "directions": wl.directions, "clamp_radius": 1.0}
    np.savez(d / "small.npz", **small)
    assert child.stationary(str(d / "small.npz"), str(d / "result.json")) == 0
    return json.loads((d / "result.json").read_text()), small


def check_stationary(result, small):
    checks.stationary(result, small["hist_a"], small["hist_b"], small["burn_in"],
                      small["directions"], small["clamp_radius"])


def test_stationary_passes(stationary):
    check_stationary(*stationary)


@pytest.mark.parametrize("key,value", [("dist", 0.0), ("dist", 5.0), ("floors", [5.0, 0.0])])
def test_stationary_bounds(stationary, key, value):
    result, small = stationary
    fails("outside", check_stationary, {**result, key: value}, small)


def test_distance_properties(stationary):
    result, small = stationary
    checks.distance_properties(result["floors"][0], small["hist_a"], small["burn_in"],
                               small["directions"], small["clamp_radius"])
    fails("d\\(b, a\\)", checks.check_symmetry, result["floors"][0], result["floors"][0] + 1e-6)
    fails("d\\(a, a\\)", checks.check_self_distance, 1e-6)


def test_point_masses():
    checks.check_point_masses(kickflow.bl_distance_1d)
    fails("point masses", checks.check_point_masses,
          lambda x1, w1, x2, w2: float(abs(x2[0] - x1[0])))


# ---------------------------------------------------------------------------
# the manifest and the tracer
# ---------------------------------------------------------------------------

def test_manifest_matches_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_self_time_excludes_children():
    spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 2.0, 5.0, 0, 7], ["inner", 6.0, 7.0, 0, 1]]
    agg = tracing.aggregate(spans)
    assert agg["outer"] == {"calls": 1, "self_s": 6.0, "total_s": 10.0, "count": 0}
    assert agg["inner"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0, "count": 8}
    assert agg["inner@7"] == {"calls": 1, "self_s": 3.0, "total_s": 3.0, "count": 7}
