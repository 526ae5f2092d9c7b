"""Config parsing, CLI exit codes, manifests, and checkpoint round-trips."""

import argparse
import builtins
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickflow import DomainSpec, NoiseSpec, cli, errors, experiments, stabilisation
from kickflow._blas import blas_threads
from kickflow.basis import save_field
from kickflow.config import _KEYS, config_snapshot, load_config, parse_config
from kickflow.errors import ConfigError
from kickflow.ergodicity import k_star, make_compact
from kickflow.experiments import checkpoint_load, checkpoint_save, run
from kickflow.noise import KickPath, save_kick


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
        """The subcommand names the experiment; a config key for it is unknown."""
        with pytest.raises(ConfigError, match="unknown key 'experiment'"):
            parse_config("experiment = mix\n")

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
        snap = config_snapshot(parse_config("domain.mx = 2\nsolver.dt = 0.01\n"
                                            "control.M = 40\nnoise.seed = 11\n"))
        assert snap == {
            "domain": {"length": 4.0, "viscosity": 0.1, "damping": 0.0, "mx": 2, "ny": 5},
            "solver": {"dt": 0.01},
            "noise": {"P": 2, "B0": 1.0, "s_t": 2.0, "s_x": 1.0},
            "control": {"M": 40, "gamma": None, "delta": 1e-2, "epsilon_target": 0.1},
            "seed": 0,
            "noise_seed": 11,
            "out_dir": "out",
        }


def _subcommands() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestOptionTable:
    """The experiment names and their options are listed once, in EXPERIMENT_OPTIONS."""

    def test_subcommands_are_the_experiments(self):
        assert list(_subcommands()) == list(experiments.EXPERIMENT_OPTIONS)

    def test_subcommand_options_are_the_table_options(self):
        for name, sub in _subcommands().items():
            dests = {a.dest for a in sub._actions if a.dest != "help"}
            assert dests == set(experiments.EXPERIMENT_OPTIONS[name][1]), name

    def test_zero_kicks_runs_no_kick(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "simulate", "--kicks", "0"]) == 0
        assert (tmp_path / "per_kick.csv").read_text() == "k,normH,normV,energy_residual\n"


class TestCliExitCodes:
    def test_help_is_exit_0(self):
        res = _cli("--help")
        assert res.returncode == 0
        assert res.stdout.startswith("usage: kickflow")

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
        manifest = run(ec, "simulate", {"kicks": 1})
        data = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert data["experiment"] == "simulate"
        assert data["config"]["solver"]["dt"] == 0.01
        assert data["wall_clock_s"] > 0
        for rec in data["outputs"]:
            digest = hashlib.sha256(open(rec["path"], "rb").read()).hexdigest()
            assert digest == rec["sha256"]
        assert manifest.outputs == data["outputs"]

    def test_provenance(self, tmp_path):
        run(parse_config("out_dir = " + str(tmp_path / "m")), "spectrum")
        data = json.loads((tmp_path / "m" / "manifest.json").read_text())
        prov = data["provenance"]
        assert prov["python"] == platform.python_version()
        assert prov["numpy"] == np.__version__
        assert set(prov["blas"]) == {"name", "version", "config"}
        assert prov["blas_threads"] == blas_threads()
        assert prov["stepping_threads"] in (1, 2)

    def test_mix_stage_timings(self, tmp_path):
        ec = parse_config(FAST_LINES + "out_dir = " + str(tmp_path / "m"))
        run(ec, "mix", {"particles": 8, "kicks": 2, "checkpoint": str(tmp_path / "ck.txt")})
        data = json.loads((tmp_path / "m" / "manifest.json").read_text())
        parts = [data["stages"][name]
                 for name in ("ensemble_step", "distances", "checkpoint", "io")]
        assert all(t > 0 for t in parts)
        assert sum(parts) <= data["wall_clock_s"]

    @pytest.mark.parametrize("experiment, opts, stages, kicks", [
        ("simulate", {"kicks": 2}, {"integrate", "energy", "io"}, 2),
        ("linearize", {}, {"integrate", "linearize", "io"}, 1),
        # the absorbed start; the tuning is timed inside couple, on its first step
        ("couple", {"steps": 1}, {"integrate", "couple", "io"},
         k_star(9.0, DomainSpec(4.0, 0.1), NoiseSpec()) + 1),
        ("noise-check", {"draws": 1000}, {"moments", "support", "correlation", "io"}, 0),
    ])
    def test_stage_timings_and_substeps(self, tmp_path, monkeypatch, experiment, opts,
                                        stages, kicks):
        """The stages fit inside the run, the substep counts are the work done,
        and the data files are the same bytes when the timers and counters do
        nothing."""
        ec = parse_config(FAST_LINES)
        manifest = run(ec, experiment, {**opts, "out": tmp_path / "timed"})
        assert set(manifest.stages) == stages
        assert all(t > 0 for t in manifest.stages.values())
        assert sum(manifest.stages.values()) <= manifest.wall_clock_s
        # one linearised solve, and for couple one per coupling step
        tangent_kicks = {"simulate": 0, "linearize": 1, "couple": 1, "noise-check": 0}[experiment]
        want = {"substeps": kicks * ec.solver.n_substeps} if kicks else {}
        if tangent_kicks:
            want["tangent_substeps"] = tangent_kicks * ec.solver.n_substeps
        assert manifest.counts == want
        monkeypatch.setattr(experiments._Emitter, "timed",
                            lambda self, stage: contextlib.nullcontext())
        monkeypatch.setattr(experiments._Emitter, "count", lambda self, name, n: None)
        untimed = run(ec, experiment, {**opts, "out": tmp_path / "untimed"})
        assert untimed.stages == {} and untimed.counts == {}
        assert [r["sha256"] for r in untimed.outputs] == [r["sha256"] for r in manifest.outputs]


def test_cli_import_leaves_scipy_out():
    code = ("import sys, kickflow.cli; "
            "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False False"


def test_import_puts_openblas_on_one_thread():
    """Importing kickflow sets one BLAS thread, whatever the environment asks for."""
    code = "import kickflow._blas as b; print(b.blas_threads())"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    assert res.returncode == 0, res.stderr
    if res.stdout.strip() == "None":
        pytest.skip("numpy's BLAS is not an OpenBLAS whose threads can be set")
    assert res.stdout.strip() == "1"


def test_unclassified_failure_is_one_json_line_with_exit_1(tmp_path, monkeypatch, capsys):
    def broken(ec, experiment, opts):
        raise RuntimeError("boom")

    monkeypatch.delenv("KICKFLOW_LOG", raising=False)
    monkeypatch.setattr(cli, "run", broken)
    assert cli.main(["--out", str(tmp_path / "o"), "spectrum"]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "RuntimeError", "message": "boom", "exit_code": 1}


class TestCoupleSummary:
    def test_steps_reports_the_steps_run(self, tmp_path, caplog):
        """The pair reaches distance 1e-14 after about 27 steps and stops."""
        ec = parse_config(FAST_LINES + "control.M = 55\n"
                          "control.gamma = 0.1\nout_dir = " + str(tmp_path))
        with caplog.at_level(logging.INFO, logger="kickflow"):
            run(ec, "couple", {"steps": 40})
        summary = json.loads((tmp_path / "coupling_summary.json").read_text())
        rows = (tmp_path / "coupling_steps.csv").read_text().splitlines()[1:]
        assert summary["steps_requested"] == 40
        assert summary["steps"] == len(rows) < 40
        assert "after %d of 40 steps" % len(rows) in caplog.text

    def test_no_step_tunes_no_control(self, tmp_path):
        """A delta under 1e-14 starts the pair coupled: it takes no step, no
        control is tuned, and the summary's M and gamma are null."""
        ec = parse_config(FAST_LINES + "out_dir = " + str(tmp_path))
        run(ec, "couple", {"steps": 2, "delta": 1e-15})
        summary = json.loads((tmp_path / "coupling_summary.json").read_text())
        assert summary["steps"] == 0
        assert summary["M"] is None and summary["gamma"] is None
        assert (tmp_path / "coupling_steps.csv").read_text().splitlines()[1:] == []

    def test_tuned_control_is_the_first_steps(self, tmp_path, monkeypatch):
        """Tuning runs once, on the operators of pair 0's first coupling step,
        and the later pair reuses its control."""
        calls = []
        tune = experiments.tune

        def spy(ops, *args):
            calls.append(ops)
            return tune(ops, *args)

        linearized = []
        linearize = stabilisation.linearize_kick

        def spy_linearize(*args):
            linearized.append(linearize(*args))
            return linearized[-1]

        monkeypatch.setattr(experiments, "tune", spy)
        monkeypatch.setattr(stabilisation, "linearize_kick", spy_linearize)
        ec = parse_config(FAST_LINES + "out_dir = " + str(tmp_path))
        manifest = run(ec, "couple", {"steps": 2, "pairs": 2})
        assert len(calls) == 1 and calls[0] is linearized[0]
        assert len(linearized) == 4
        assert manifest.counts["tangent_substeps"] == 4 * ec.solver.n_substeps
        summary = json.loads((tmp_path / "coupling_summary.json").read_text())
        ctl = tune(linearized[0], ec.control_epsilon_target, ec.noise, ec.domain)
        assert (summary["M"], summary["gamma"]) == (ctl.rank, ctl.gamma)


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


class _Stopped(Exception):
    """Stands for the process being killed."""


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
        ec = parse_config(FAST_LINES + "seed = 4\n")
        opts = {"out": tmp_path / "res", "particles": 16, "kicks": 3}
        with pytest.raises(ConfigError, match="1 rows, but checkpoint"):
            run(ec, "mix", {**opts, "resume": str(ck)})
        (tmp_path / "ck.txt.rows").unlink()
        with pytest.raises(ConfigError, match="cannot read"):
            run(ec, "mix", {**opts, "resume": str(ck)})

    def test_stop_between_the_two_checkpoint_writes(self, tmp_path, monkeypatch):
        """A run stopped after the first of a checkpoint's two files still resumes."""
        ec = parse_config(FAST_LINES + "seed = 4\n")
        ck = tmp_path / "ck.txt"
        opts = {"particles": 16, "kicks": 4}
        write = experiments._atomic_write
        writes = []

        def stop_at_the_fourth(path, text):
            writes.append(path)
            if len(writes) == 4:
                raise _Stopped
            write(path, text)

        monkeypatch.setattr(experiments, "_atomic_write", stop_at_the_fourth)
        with pytest.raises(_Stopped):
            run(ec, "mix", {**opts, "out": tmp_path / "cut", "checkpoint": str(ck)})
        monkeypatch.undo()
        run(ec, "mix", {**opts, "out": tmp_path / "res", "resume": str(ck)})
        run(ec, "mix", {**opts, "out": tmp_path / "full"})
        for name in ("mix_distances.csv", "mix_summary.json"):
            full = (tmp_path / "full" / name).read_bytes()
            assert (tmp_path / "res" / name).read_bytes() == full, name


BAD_INPUTS = {
    "missing-u0-file": ("simulate", "--u0", "/nonexistent/u0.field"),
    "u0-seed-not-a-number": ("simulate", "--u0", "random:x"),
    "no-draws": ("noise-check", "--draws", "0"),
    "no-particles": ("mix", "--particles", "0"),
    "negative-delta": ("couple", "--delta", "-1"),
    "negative-kicks": ("simulate", "--kicks", "-1"),
    "missing-kick-file": ("linearize", "--kick", "/nonexistent/eta.kick"),
    "kick-seed-not-a-number": ("linearize", "--kick", "seed:x"),
    "missing-checkpoint": ("mix", "--resume", "/nonexistent/ck.txt"),
    "missing-compact-file": ("mix", "--compact", "/nonexistent/points.csv"),
    "grid-below-minimum": ("--config", "{tmp}/coarse.cfg", "simulate", "--kicks", "1"),
    "grid-key-is-unknown": ("--config", "{tmp}/huge-grid.cfg", "simulate", "--kicks", "1"),
    "experiment-key-is-unknown": ("--config", "{tmp}/experiment.cfg", "simulate",
                                  "--kicks", "0"),
    "damping-nan": ("--config", "{tmp}/damping-nan.cfg", "simulate", "--kicks", "1"),
    "viscosity-inf": ("--config", "{tmp}/viscosity-inf.cfg", "simulate", "--kicks", "1"),
    "length-inf": ("--config", "{tmp}/length-inf.cfg", "simulate", "--kicks", "1"),
    "b0-inf": ("--config", "{tmp}/b0-inf.cfg", "simulate", "--kicks", "1"),
    "s-x-nan": ("--config", "{tmp}/s-x-nan.cfg", "simulate", "--kicks", "1"),
    "out-is-a-file": ("--out", "{tmp}/file", "spectrum"),
    "out-below-a-file": ("--out", "{tmp}/file/sub", "spectrum"),
    "zero-delta": ("couple", "--delta", "0"),
    "q-target-is-unknown": ("--config", "{tmp}/q_target.cfg", "spectrum"),
    "kicks-not-a-number": ("simulate", "--kicks", "abc"),
    "unknown-experiment": ("bogus",),
    "seed-after-the-experiment": ("simulate", "--seed", "7"),
    "config-not-text": ("--config", "{tmp}/binary", "spectrum"),
    "checkpoint-not-text": ("mix", "--particles", "4", "--kicks", "1", "--resume", "{tmp}/binary"),
    "checkpoint-header-malformed": ("mix", "--kicks", "1", "--resume", "{tmp}/bad-header.ck"),
    "checkpoint-rows-too-short": ("mix", "--kicks", "1", "--resume", "{tmp}/short-row.ck"),
    "kick-file-nan": ("linearize", "--kick", "{tmp}/nan.kick"),
    "kick-file-inf": ("linearize", "--kick", "{tmp}/inf.kick"),
    "compact-file-nan": ("mix", "--particles", "4", "--kicks", "1", "--compact", "{tmp}/nan.csv"),
    "compact-file-empty": ("mix", "--particles", "4", "--kicks", "1",
                           "--compact", "{tmp}/empty.csv"),
}


# the config files that BAD_INPUTS reads, as {tmp}/<name>.cfg
BAD_CONFIGS = {
    "coarse": "solver.nx = 3",
    "huge-grid": "solver.nx = 100000000",
    "experiment": "experiment = mix",
    "q_target": "control.q_target = 0.95",
    "damping-nan": "domain.damping = nan",
    "viscosity-inf": "domain.viscosity = inf",
    "length-inf": "domain.length = inf",
    "b0-inf": "noise.B0 = inf",
    "s-x-nan": "noise.s_x = nan",
}


def _write_bad_files(tmp: Path) -> None:
    """The other files that BAD_INPUTS reads: bytes that are not text,
    checkpoints whose hashes hold but whose content does not parse, and kick
    and point files that are empty or hold non-finite values."""
    (tmp / "file").write_text("a regular file\n")
    (tmp / "binary").write_bytes(bytes(range(256)))
    spec = DomainSpec(4.0, 0.1)
    (tmp / "bad-header.ck").write_text(experiments._hashed_text(
        f"{experiments.CKPT_MAGIC},K={spec.n_modes}", ["ENSEMBLE,seed=0"]))
    ens = make_compact(spec, 1.0, 2, seed=0)
    ens.kick_index = 1
    checkpoint_save(ens, ens, tmp / "short-row.ck")
    (tmp / "short-row.ck.rows").write_text(
        experiments._hashed_text(experiments.ROWS_MAGIC, ["0,0.5,0.1"]))
    for value in ("nan", "inf"):
        coeffs = np.zeros((NoiseSpec().p_order, spec.n_modes))
        coeffs[1, 3] = float(value)
        save_kick(KickPath(coeffs), tmp / f"{value}.kick")
    points = np.zeros((4, spec.n_modes))
    points[2, 5] = np.nan
    np.savetxt(tmp / "nan.csv", points, delimiter=",")
    (tmp / "empty.csv").write_text("")


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_is_one_json_line_with_exit_2(tmp_path, case):
    for name, line in BAD_CONFIGS.items():
        (tmp_path / f"{name}.cfg").write_text(line + "\n")
    _write_bad_files(tmp_path)
    out = tmp_path / "o"
    res = _cli("--out", str(out), *(arg.format(tmp=tmp_path) for arg in BAD_INPUTS[case]))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert not out.exists()


def test_non_finite_field_file_is_a_config_error(spec, tmp_path):
    path = tmp_path / "u.field"
    u = np.zeros(spec.n_modes)
    u[3] = np.nan
    save_field(u, path)
    with pytest.raises(ConfigError, match="non-finite"):
        run(parse_config("out_dir = " + str(tmp_path / "o")), "simulate", {"u0": str(path)})


@pytest.mark.parametrize("line", ["control.delta = -1", "control.delta = inf",
                                  "control.M = 0",
                                  "control.gamma = 0", "control.epsilon_target = 0",
                                  "noise.seed = -1"])
def test_out_of_range_config_is_rejected_before_any_output(tmp_path, line):
    ec = parse_config(f"{line}\nout_dir = {tmp_path / 'o'}\n")
    with pytest.raises(ConfigError):
        run(ec, "spectrum")
    assert not (tmp_path / "o").exists()


# Every value is small, so that each run is a tiny problem: at most 3 modes,
# solver.dt = 0.01 unless the config sets it, and never a default mix or couple.
_FUZZ_VALUES = st.sampled_from(["1", "1", "0.5", "0", "-1", "nan", "inf", "-inf", "x", ""])
# "key = value", "key value" (no '=') or a comment, from every key and two unknown ones
_FUZZ_LINES = st.tuples(st.sampled_from([*_KEYS, "control.q_target", "no.such", "#"]),
                        st.sampled_from(["=", "=", "=", ""]), _FUZZ_VALUES).map(" ".join)
_FUZZ_RUNS = st.one_of(
    st.just(["spectrum"]),
    st.sampled_from(["-1", "0", "1", "100", "x"]).map(lambda n: ["noise-check", "--draws", n]),
    st.tuples(st.sampled_from(["-1", "0", "1", "1", "x"]),
              st.sampled_from([[], [], ["--u0", "random:1"], ["--u0", "random:x"],
                               ["--u0", "/nonexistent/u0.field"]]))
    .map(lambda t: ["simulate", "--kicks", t[0], *t[1]]),
    st.sampled_from([[], ["bogus"]]),
)
_FUZZ_PREFIX = st.sampled_from([[], [], ["--seed", "3"], ["--seed", "-1"], ["--seed", "x"]])
_FUZZ_SUFFIX = st.sampled_from([[], [], [], ["--bogus"], ["--seed", "7"], ["extra"], ["--kicks"]])
_EXIT_CODES = {0} | {cls.exit_code for cls in vars(errors).values()
                     if isinstance(cls, type) and issubclass(cls, errors.KickflowError)
                     and cls is not errors.KickflowError}


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_FUZZ_LINES, max_size=3), prefix=_FUZZ_PREFIX, run_args=_FUZZ_RUNS,
       suffix=_FUZZ_SUFFIX)
def test_fuzzed_config_and_argv_fail_as_one_json_line(lines, prefix, run_args, suffix):
    """Exit 0 with a manifest, or a classified failure as one JSON line on
    stderr; exit 2 leaves no output directory."""
    keys = {line.split("=", 1)[0].strip() for line in lines}
    base = [line for line in ("solver.dt = 0.01", "domain.mx = 1", "domain.ny = 1")
            if line.split(" = ")[0] not in keys]
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        config.write_text("\n".join(base + lines) + "\n")
        argv = [*prefix, "--config", str(config), "--out", str(out), *run_args, *suffix]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        failures = stderr.getvalue().splitlines()
        assert code in _EXIT_CODES, (argv, failures)
        if code == 0:
            assert failures == [] and (out / "manifest.json").exists()
        else:
            assert len(failures) == 1 and json.loads(failures[0])["exit_code"] == code
        if code == 2:
            assert not out.exists()
