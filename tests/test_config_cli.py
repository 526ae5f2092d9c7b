"""Config parsing, CLI exit codes, manifests, and checkpoint round-trips."""

import builtins
import hashlib
import json
import logging
import subprocess
import sys

import numpy as np
import pytest

from kickflow import experiments
from kickflow.basis import save_field
from kickflow.config import config_snapshot, load_config, parse_config
from kickflow.errors import ConfigError
from kickflow.ergodicity import make_compact
from kickflow.experiments import checkpoint_load, checkpoint_save, run


def _cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "kickflow.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


FAST_LINES = "solver.dt = 0.01\n"


class TestConfigParsing:
    def test_defaults(self):
        ec = parse_config("")
        assert ec.domain.length == 4.0
        assert ec.domain.viscosity == 0.1
        assert ec.solver.dt == 1e-3
        assert ec.noise.p_order == 2
        assert ec.experiment == "simulate"
        assert ec.seed == 0

    def test_full_round_trip(self):
        text = """
        # run setup
        domain.length = 8.0
        domain.viscosity = 0.05
        domain.mx = 3
        domain.ny = 4
        solver.dt = 0.002
        noise.P = 3
        noise.B0 = 0.5
        control.gamma = 1e-4
        control.M = 40
        experiment = couple
        seed = 99
        out_dir = results
        """
        ec = parse_config("\n".join(line.strip() for line in text.splitlines()))
        assert ec.domain.length == 8.0
        assert ec.domain.mx == 3
        assert ec.solver.dt == 0.002
        assert ec.noise.p_order == 3
        assert ec.control_gamma == 1e-4
        assert ec.control_rank == 40
        assert ec.experiment == "couple"
        assert ec.seed == 99
        assert ec.out_dir == "results"

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("seed = 1\nwhat.ever = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("domain.length = wide\n")

    def test_invalid_domain_value(self):
        with pytest.raises(ConfigError):
            parse_config("domain.viscosity = -0.1\n")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("experiment = fly\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just a line\n")

    def test_noise_seed_overrides_sampling(self):
        ec = parse_config("seed = 3\nnoise.seed = 12\n")
        assert ec.sampling_seed == 12
        assert parse_config("seed = 3\n").sampling_seed == 3

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_snapshot_is_complete(self):
        snap = config_snapshot(parse_config("domain.mx = 2\n"))
        assert snap["domain"]["mx"] == 2
        assert snap["solver"]["dt"] == 1e-3
        assert snap["noise"]["P"] == 2
        assert "experiment" in snap


class TestCliExitCodes:
    def test_spectrum_ok(self, tmp_path):
        res = _cli("--out", str(tmp_path), "spectrum")
        assert res.returncode == 0
        assert (tmp_path / "spectrum.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_config_error_is_exit_2_with_json_record(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no.such.key = 1\n")
        res = _cli("--config", str(cfg), "--out", str(tmp_path), "spectrum")
        assert res.returncode == 2
        record = json.loads(res.stderr.strip())
        assert record["error"] == "ConfigError"
        assert record["exit_code"] == 2

    def test_simulate_writes_plot_ready_csv(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_LINES)
        res = _cli("--config", str(cfg), "--out", str(tmp_path / "o"),
                   "simulate", "--kicks", "2")
        assert res.returncode == 0
        lines = (tmp_path / "o" / "per_kick.csv").read_text().splitlines()
        assert lines[0] == "k,normH,normV,energy_residual"
        assert len(lines) == 3

    def test_seed_changes_output(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_LINES)
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}"
            res = _cli("--config", str(cfg), "--seed", seed, "--out", str(out),
                       "simulate", "--kicks", "1")
            assert res.returncode == 0
            outs.append((out / "per_kick.csv").read_text())
        assert outs[0] != outs[1]

    def test_same_seed_reproduces_bytes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_LINES)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            res = _cli("--config", str(cfg), "--seed", "7", "--out", str(out),
                       "simulate", "--kicks", "2")
            assert res.returncode == 0
            outs.append((out / "per_kick.csv").read_bytes())
        assert outs[0] == outs[1]


class TestManifest:
    def test_hashes_match_outputs(self, tmp_path):
        ec = parse_config("solver.dt = 0.01\nout_dir = " + str(tmp_path / "m"))
        manifest = run(ec, {"kicks": 1})
        data = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert data["experiment"] == "simulate"
        assert data["config"]["solver"]["dt"] == 0.01
        assert data["wall_clock_s"] > 0
        for rec in data["outputs"]:
            digest = hashlib.sha256(open(rec["path"], "rb").read()).hexdigest()
            assert digest == rec["sha256"]
        assert manifest.outputs == data["outputs"]


def test_cli_import_leaves_scipy_out():
    code = "import sys, kickflow.cli; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


class TestCoupleSummary:
    def test_steps_reports_the_steps_run(self, tmp_path, caplog):
        """The pair reaches distance 1e-14 after about 27 steps and stops."""
        ec = parse_config(FAST_LINES + "experiment = couple\ncontrol.M = 55\n"
                          "control.gamma = 0.1\nout_dir = " + str(tmp_path))
        with caplog.at_level(logging.INFO, logger="kickflow"):
            run(ec, {"steps": 40})
        summary = json.loads((tmp_path / "coupling_summary.json").read_text())
        rows = (tmp_path / "coupling_steps.csv").read_text().splitlines()[1:]
        assert summary["steps_requested"] == 40
        assert summary["steps"] == len(rows) < 40
        assert "after %d of 40 steps" % len(rows) in caplog.text


class _FailingWriter:
    """A file that takes half of what is written, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        raise OSError(28, "No space left on device")


class TestCheckpoints:
    def test_failed_write_keeps_previous_checkpoint(self, spec, tmp_path, monkeypatch):
        a = make_compact(spec, 1.0, 4, seed=1)
        b = make_compact(spec, 3.0, 4, seed=1, id_offset=100)
        path = tmp_path / "ck.txt"
        checkpoint_save(a, b, path)
        before = path.read_bytes()
        monkeypatch.setattr(experiments, "open",
                            lambda f, mode: _FailingWriter(builtins.open(f, mode)),
                            raising=False)
        b.kick_index = 1
        with pytest.raises(OSError):
            checkpoint_save(a, b, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        la, lb = checkpoint_load(path, expect_k=spec.n_modes)
        assert lb.kick_index == 0
        assert np.array_equal(la.particles, a.particles)

    def test_round_trip_exact(self, spec, tmp_path):
        a = make_compact(spec, 1.0, 5, seed=1)
        b = make_compact(spec, 3.0, 5, seed=1, id_offset=100)
        b.kick_index = 7
        path = tmp_path / "ck.txt"
        checkpoint_save(a, b, path)
        la, lb = checkpoint_load(path, expect_k=spec.n_modes)
        assert np.array_equal(la.particles, a.particles)
        assert np.array_equal(lb.particles, b.particles)
        assert np.array_equal(lb.particle_ids, b.particle_ids)
        assert lb.kick_index == 7
        assert la.master_seed == a.master_seed

    def test_corruption_detected(self, spec, tmp_path):
        a = make_compact(spec, 1.0, 3, seed=1)
        path = tmp_path / "ck.txt"
        checkpoint_save(a, a, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(",", ",-", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="hash"):
            checkpoint_load(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ck.txt"
        path.write_text("KICKFLOW-CKPT v9,K=5\nHASH abc\n")
        with pytest.raises(ConfigError):
            checkpoint_load(path)

    def test_wrong_dimension(self, spec, tmp_path):
        a = make_compact(spec, 1.0, 3, seed=1)
        path = tmp_path / "ck.txt"
        checkpoint_save(a, a, path)
        with pytest.raises(ConfigError, match="K="):
            checkpoint_load(path, expect_k=spec.n_modes + 1)


class TestResume:
    def _mix(self, tmp_path, out, kicks, *extra):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_LINES)
        res = _cli("--config", str(cfg), "--seed", "4", "--out", str(tmp_path / out), "mix",
                   "--particles", "16", "--kicks", str(kicks), *extra)
        assert res.returncode == 0, res.stderr

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ck = tmp_path / "ck.txt"
        self._mix(tmp_path, "part", 2, "--checkpoint", str(ck))
        self._mix(tmp_path, "full", 5)
        self._mix(tmp_path, "res", 5, "--resume", str(ck))
        for name in ("mix_distances.csv", "mix_summary.json"):
            full = (tmp_path / "full" / name).read_bytes()
            assert (tmp_path / "res" / name).read_bytes() == full, name
        assert len((tmp_path / "res" / "mix_distances.csv").read_text().splitlines()) == 7

    def test_rows_must_match_the_checkpoint(self, tmp_path):
        ck = tmp_path / "ck.txt"
        self._mix(tmp_path, "one", 1, "--checkpoint", str(ck))
        rows_after_one = (tmp_path / "ck.txt.rows").read_bytes()
        self._mix(tmp_path, "two", 2, "--checkpoint", str(ck))
        (tmp_path / "ck.txt.rows").write_bytes(rows_after_one)
        ec = parse_config(FAST_LINES + "experiment = mix\nseed = 4\n")
        with pytest.raises(ConfigError, match="1 rows, but checkpoint"):
            run(ec, {"out": tmp_path / "res", "particles": 16, "kicks": 3, "resume": str(ck)})
        (tmp_path / "ck.txt.rows").unlink()
        with pytest.raises(ConfigError, match="cannot read"):
            run(ec, {"out": tmp_path / "res", "particles": 16, "kicks": 3, "resume": str(ck)})


BAD_INPUTS = {
    "missing-u0-file": ("simulate", "--u0", "/nonexistent/u0.field"),
    "u0-seed-not-a-number": ("simulate", "--u0", "random:x"),
    "no-draws": ("noise-check", "--draws", "0"),
    "no-particles": ("mix", "--particles", "0"),
    "negative-delta": ("couple", "--delta", "-1"),
    "negative-kicks": ("simulate", "--kicks", "-1"),
    "missing-kick-file": ("linearize", "--kick", "/nonexistent/eta.kick"),
    "missing-checkpoint": ("mix", "--resume", "/nonexistent/ck.txt"),
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_one_json_line_with_exit_2(tmp_path, argv):
    res = _cli("--out", str(tmp_path), *argv)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert not (tmp_path / "manifest.json").exists()


def test_non_finite_field_file_is_a_config_error(spec, tmp_path):
    path = tmp_path / "u.field"
    u = np.zeros(spec.n_modes)
    u[3] = np.nan
    save_field(u, path)
    with pytest.raises(ConfigError, match="non-finite"):
        run(parse_config("out_dir = " + str(tmp_path / "o")), {"u0": str(path)})


@pytest.mark.parametrize("line", ["control.delta = -1", "control.delta = inf",
                                  "control.q_target = 2", "control.M = 0",
                                  "control.gamma = 0", "control.epsilon_target = 0",
                                  "noise.seed = -1"])
def test_out_of_range_config_is_rejected_before_any_output(tmp_path, line):
    ec = parse_config(f"{line}\nexperiment = spectrum\nout_dir = {tmp_path / 'o'}\n")
    with pytest.raises(ConfigError):
        run(ec)
    assert not (tmp_path / "o").exists()
