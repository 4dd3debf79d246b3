import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import nsfourier
from nsfourier import cli, coupler
from nsfourier.cli import main
from nsfourier.config import (RunConfig, parse_config, parse_config_text,
                              serialize_config)
from nsfourier.errors import ConfigError, RunError
from nsfourier.grid import read_snapshot


@pytest.fixture
def config_path(tmp_path):
    config = RunConfig(nx=24, ny=24, n_modes=6, t_final=0.03, dt=0.01,
                       m0_amplitude=0.01)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(config))
    return str(path)


def test_config_round_trip():
    config = RunConfig(nx=48, ny=32, dt=0.005, eps=2e-3)
    assert parse_config_text(serialize_config(config)) == config


def test_parse_defaults():
    config = parse_config_text("[grid]\nnx = 24\nny = 24\n")
    assert config.nx == 24
    assert config.dt == RunConfig().dt


def test_parse_collects_all_problems():
    text = "[grid]\nnx = banana\n[nowhere]\nfoo = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert len(err.value.problems) >= 2
    assert any("line 2" in p for p in err.value.problems)


def test_parse_rejects_delta_out_of_range():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[regularization]\ndelta = 1.5\n")
    assert any("(0, 1)" in p for p in err.value.problems)


def test_parse_rejects_zero_theta_floor():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[initial]\ntheta_floor = 0\n")
    assert any("theta_floor" in p for p in err.value.problems)


def test_parse_config_reads_a_path(config_path, tmp_path):
    assert parse_config(config_path) == parse_config_text(
        pathlib.Path(config_path).read_text())
    assert parse_config(tmp_path / "run.cfg") == parse_config(config_path)


def test_parse_config_reports_a_missing_file(tmp_path):
    missing = str(tmp_path / "nonexistent.cfg")
    with pytest.raises(ConfigError) as err:
        parse_config(missing)
    [problem] = err.value.problems
    assert problem.startswith("[Errno 2] No such file or directory")
    assert missing in problem


@pytest.mark.parametrize("name", ["garbage", "a=b.cfg"])
def test_parse_config_never_takes_its_argument_for_config_text(
        name, tmp_path, monkeypatch):
    # a bare word and a name holding '=' are both file names
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError) as err:
        parse_config(name)
    [problem] = err.value.problems
    assert problem == f"[Errno 2] No such file or directory: '{name}'"


def test_parse_reports_a_duplicate_key_with_the_other_problems():
    text = "[grid]\nnx = 8\nnx = 16\n[time]\ndt = oops\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.problems == [
        "line 3: duplicate key 'nx' in section [grid]",
        "line 5: cannot parse 'oops' as float for 'dt'"]


def test_kappa_hi_is_an_unknown_key(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("[conductivity]\nkappa_lo = 1.0\nkappa_hi = 2\n")
    assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: parse: line 3: unknown key 'kappa_hi' in section [conductivity]\n")


def test_kappa_lo_must_be_positive():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[conductivity]\nkappa_lo = 0\n")
    assert err.value.problems == ["conductivity.kappa_lo must be positive"]


def test_run_command(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", config_path, "--output-dir", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "[summary]" in captured.out
    assert (out / "diagnostics.csv").exists()
    assert (out / "snapshot_00000_rho.npz").exists()
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header.startswith("time,kinetic_energy,thermal_energy,")


def test_run_snapshots_read_back_bitwise(tmp_path, monkeypatch):
    # output_every 2 over 5 steps: states 0, 2, 4 and the final state 5
    config = RunConfig(nx=16, ny=12, Lx=1.3, Ly=0.7, n_modes=4, t_final=0.05,
                       dt=0.01, m0_amplitude=0.01, output_every=2)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(config))
    runs = []

    def keep(config):
        runs.append(coupler.run_simulation(config))
        return runs[-1]

    monkeypatch.setattr(cli, "run_simulation", keep)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    traj = runs[0]
    written = sorted(p.name for p in out.glob("snapshot_*"))
    stored = [0, 2, 4, 5]
    assert written == [f"snapshot_{i:05d}_{name}.npz"
                       for i in stored for name in ("rho", "theta")]
    for i in stored:
        state = traj.states[i]
        for name in ("rho", "theta"):
            field, time, read_name = read_snapshot(out / f"snapshot_{i:05d}_{name}.npz")
            assert read_name == name
            assert time == state.t
            assert field.grid == traj.grid
            assert (field.grid.Lx, field.grid.Ly) == (1.3, 0.7)
            assert np.array_equal(field.values, getattr(state, name).values)


def test_run_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[regularization]\ndelta = 2.0\n")
    code = main(["run", str(bad), "--output-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: parse:")


def test_run_reports_a_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nonexistent.cfg"
    code = main(["run", str(missing), "--output-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse: ")
    assert "No such file or directory" in err
    assert str(missing) in err


def test_run_reads_a_one_line_config_file_as_config_text(tmp_path, capsys):
    # the file's text is parsed, never taken for the name of another file
    bad = tmp_path / "one_line.cfg"
    bad.write_text("garbage\n")
    assert main(["run", str(bad), "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: parse: line 1: expected 'key = value', got 'garbage'\n")


def test_run_reports_a_value_error_in_a_step_as_a_run_error(
        config_path, tmp_path, capsys, monkeypatch):
    # parse_config has validated the config; a ValueError raised inside the
    # time loop is a run failure, not a parse error
    def failing_step(*args, **kwargs):
        raise ValueError("need eps > 0 where mu vanishes")

    monkeypatch.setattr(coupler, "fixed_point_step", failing_step)
    code = main(["run", config_path, "--output-dir", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: run: step from t = 0.0")


def test_run_halves_dt_past_cfl_cap(tmp_path, capsys):
    # at dt 0.01 the m0 = 1 flow moves 8 cells per step, past the 5-cell
    # cap; the step is retried at dt 0.005 instead of failing the run
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("[initial]\nm0_amplitude = 1.0\n[time]\nt_final = 0.02\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
    assert "steps = 4" in capsys.readouterr().out
    rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
    times = [float(row.split(",")[0]) for row in rows]
    assert times == pytest.approx([0.0, 0.005, 0.01, 0.015, 0.02], abs=1e-15)


def test_output_dir_env_variable_does_not_redirect_output(
        config_path, tmp_path, monkeypatch, capsys):
    # only --output-dir chooses where a run writes
    target = tmp_path / "env_out"
    monkeypatch.setenv("NSFOURIER_OUTPUT_DIR", str(target))
    out = tmp_path / "out"
    assert main(["run", config_path, "--output-dir", str(out)]) == 0
    capsys.readouterr()
    assert (out / "diagnostics.csv").exists()
    assert not target.exists()


def test_degiorgi_command(config_path, capsys):
    code = main(["degiorgi", config_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "[degiorgi-certificate]" in out
    assert "decay_ok = true" in out


def test_degiorgi_contradicted_certificate_is_a_run_error(tmp_path, capsys):
    # the ladder decays, but its bound exp(-1.6099) = 0.199908 lies above
    # the trajectory's minimum temperature, 0.1999
    path = tmp_path / "run.cfg"
    path.write_text("[grid]\nnx = 16\nny = 16\n[basis]\nn_modes = 4\n"
                    "[time]\nt_final = 0.02\ndt = 0.01\n")
    assert main(["degiorgi", str(path), "--kmax", "20", "--M", "1.6099"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: run: certificate claims theta >= 0.1999")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--kmax", "0", "k_max must be at least 1"),
    ("--M", "-1", "M must be positive and finite"),
    ("--omega", "-1", "omega must be non-negative and finite"),
    ("--M", "nan", "M must be positive and finite"),
    ("--M", "inf", "M must be positive and finite"),
    ("--omega", "nan", "omega must be non-negative and finite"),
], ids=["kmax", "M", "omega", "M-nan", "M-inf", "omega-nan"])
def test_degiorgi_rejects_bad_ladder_before_running(config_path, capsys,
                                                    monkeypatch, flag, value,
                                                    message):
    def no_run(config):
        raise AssertionError("the ladder arguments are checked before the run")

    monkeypatch.setattr(cli, "run_simulation", no_run)
    assert main(["degiorgi", config_path, flag, value]) == 2
    assert capsys.readouterr().err == f"error: parse: {message}\n"


def test_sweep_command(config_path, tmp_path, capsys):
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("6 1e-2 1e-2\n6 5e-3 1e-2\n")
    code = main(["sweep", config_path, "--schedule", str(schedule),
                 "--output-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "[sweep-report]" in out
    assert (tmp_path / "sweep_report.txt").exists()
    bands = [line for line in out.splitlines() if line.startswith("band ")]
    assert bands
    for line in bands:
        float(line.partition(" = ")[2])


def test_sweep_bad_schedule(config_path, tmp_path, capsys):
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("6 oops\n")
    code = main(["sweep", config_path, "--schedule", str(schedule),
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: parse:")


def test_sweep_rejects_an_invalid_schedule_entry_before_any_run(
        config_path, tmp_path, capsys):
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("6 1e-2 1e-2\n0 1e-3 1e-2\n4 1e-3 1.5\n")
    code = main(["sweep", config_path, "--schedule", str(schedule),
                 "--output-dir", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: parse: line 2: basis.n_modes must be at least 1; ")
    assert "line 3: regularization.delta must lie in" in captured.err
    assert not (tmp_path / "sweep_report.txt").exists()


def no_run(config):
    raise AssertionError("bad input is rejected before any run")


@pytest.mark.parametrize("section, key, value", [
    ("regularization", "eps", "nan"),
    ("time", "dt", "nan"),
    ("conductivity", "kappa_lo", "nan"),
    ("time", "t_final", "nan"),
    ("time", "t_final", "inf"),
], ids=["eps-nan", "dt-nan", "kappa_lo-nan", "t_final-nan", "t_final-inf"])
def test_run_rejects_a_non_finite_value_before_any_run(
        section, key, value, tmp_path, capsys, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text(f"[grid]\nnx = 8\nny = 8\n[basis]\nn_modes = 3\n"
                    f"[{section}]\n{key} = {value}\n")
    monkeypatch.setattr(cli, "run_simulation", no_run)
    assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: parse: {section}.{key} must be finite\n")


def test_sweep_rejects_a_non_finite_schedule_entry_before_any_run(
        config_path, tmp_path, capsys, monkeypatch):
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("3 nan 1e-2\n")
    monkeypatch.setattr(coupler, "run_simulation", no_run)
    code = main(["sweep", config_path, "--schedule", str(schedule),
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: parse: line 1: regularization.eps must be finite\n")


def test_every_non_finite_float_is_reported_under_its_config_name():
    nan = float("nan")
    floats = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]
    config = RunConfig(**dict.fromkeys(floats, nan))
    names, section = [], None
    for line in serialize_config(config).splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif line.endswith(" = nan"):
            names.append(f"{section}.{line.split(' = ')[0]}")
    assert len(names) == len(floats)
    assert [p for p in config.validate() if p.endswith(" must be finite")] == [
        f"{name} must be finite" for name in names]
    # a library caller gets the same check
    with pytest.raises(ValueError, match="^time.dt must be finite$"):
        coupler.run_simulation(RunConfig(nx=8, ny=8, n_modes=3, dt=nan))


def test_run_rejects_modes_the_grid_cannot_resolve(tmp_path, capsys,
                                                   monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(RunConfig(nx=8, ny=8)))
    monkeypatch.setattr(cli, "run_simulation", no_run)
    assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: parse: basis.n_modes: mode (5,6) not resolvable on a 8x8 grid\n")


def test_sweep_rejects_modes_the_grid_cannot_resolve_before_any_run(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(RunConfig(nx=16, ny=16, n_modes=4)))
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("4 1e-3 1e-2\n64 1e-3 1e-2\n")
    monkeypatch.setattr(coupler, "run_simulation", no_run)
    code = main(["sweep", str(path), "--schedule", str(schedule),
                 "--output-dir", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: parse: line 2: basis.n_modes: "
                            "mode (10,11) not resolvable on a 16x16 grid\n")
    assert not (tmp_path / "sweep_report.txt").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_output_dir_under_a_file_is_rejected_before_any_run(
        command, config_path, tmp_path, capsys, monkeypatch):
    regular = tmp_path / "regular_file"
    regular.write_text("")
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("6 1e-2 1e-2\n")
    monkeypatch.setattr(cli, "run_simulation", no_run)
    monkeypatch.setattr(coupler, "run_simulation", no_run)
    out = regular / "out"
    args = {"run": ["run", config_path],
            "sweep": ["sweep", config_path, "--schedule", str(schedule)]}
    assert main(args[command] + ["--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: parse: [Errno 20] Not a directory: '{out}'\n")


@pytest.mark.parametrize("command, name", [("run", "diagnostics.csv"),
                                           ("run", "snapshot_00003_theta.npz"),
                                           ("sweep", "sweep_report.txt")])
def test_an_unwritable_output_file_exits_2(command, name, config_path,
                                           tmp_path, capsys):
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("6 1e-2 1e-2\n")
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    args = {"run": ["run", config_path],
            "sweep": ["sweep", config_path, "--schedule", str(schedule)]}
    assert main(args[command] + ["--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: parse: [Errno 21] Is a directory: '{out / name}'\n")


def test_sweep_exits_3_after_reporting_a_failed_run(config_path, tmp_path,
                                                    capsys, monkeypatch):
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("6 1e-2 1e-2\n")

    def failing_run(config):
        raise RunError("step from t = 0.0 failed")

    monkeypatch.setattr(coupler, "run_simulation", failing_run)
    code = main(["sweep", config_path, "--schedule", str(schedule),
                 "--output-dir", str(tmp_path)])
    assert code == 3
    captured = capsys.readouterr()
    assert "completed = 0" in captured.out
    assert "aborted = step from t = 0.0 failed" in captured.out
    assert captured.err == "error: run: step from t = 0.0 failed\n"
    assert (tmp_path / "sweep_report.txt").exists()


def test_sweep_reports_a_missing_schedule_file(config_path, tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code = main(["sweep", config_path, "--schedule", str(missing),
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: parse: [Errno 2] No such file or directory: '{missing}'\n")


def test_check_h_pass(capsys):
    assert main(["check-h", "--form", "power", "--l", "1"]) == 0
    assert "passes = true" in capsys.readouterr().out


def test_check_h_fail(capsys):
    assert main(["check-h", "--form", "power", "--l", "1.5"]) == 4
    assert "passes = false" in capsys.readouterr().out


def test_lemma62_command(capsys):
    code = main(["lemma62", "--C", "1", "--A", "2", "--beta1", "2",
                 "--beta2", "3", "--K", "100", "--U0", "1", "--steps", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "6.656e-05" in out
    assert "converged = true" in out


def test_lemma62_threshold_command(capsys):
    code = main(["lemma62", "--C", "1", "--A", "2", "--beta1", "2",
                 "--beta2", "3", "--U0", "1", "--threshold"])
    assert code == 0
    assert "K0 = " in capsys.readouterr().out


def test_lemma62_bad_params(capsys):
    code = main(["lemma62", "--C", "1", "--A", "0.5", "--beta1", "2",
                 "--beta2", "3", "--K", "1", "--U0", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: parse:")


LEMMA62_ARGS = ["--C", "1", "--A", "2", "--beta1", "2", "--beta2", "3",
                "--U0", "1"]


@pytest.mark.parametrize("argv", [
    ["lemma62", "--K", "nan"] + LEMMA62_ARGS,
    ["lemma62", "--C", "1", "--A", "2", "--beta1", "2", "--beta2", "3",
     "--U0", "nan"],
    ["lemma62", "--C", "1", "--A", "2", "--beta1", "2", "--beta2", "inf",
     "--U0", "1", "--threshold"],
    ["check-h", "--form", "power", "--l", "nan"],
    ["check-h", "--form", "power", "--zmax", "0"],
    ["check-h", "--form", "power", "--zmax", "-5"],
    ["check-h", "--form", "truncated-log", "--cutoff", "inf"],
], ids=["lemma62-K-nan", "lemma62-U0-nan", "lemma62-beta2-inf", "check-h-l-nan",
        "check-h-zmax-0", "check-h-zmax-neg", "check-h-cutoff-inf"])
def test_a_nan_or_out_of_range_tool_argument_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parse: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command, target", [
    ("run", "run_simulation"),
    ("sweep", "continuation_sweep"),
    ("degiorgi", "run_simulation"),
    ("check-h", "check_h_admissible"),
    ("lemma62", "lemma62_iterate"),
])
@pytest.mark.parametrize("error, code, line", [
    (ConfigError(["bad key", "bad value"]), 2,
     "error: parse: bad key; bad value\n"),
    (ValueError("out of range"), 2, "error: parse: out of range\n"),
    (RunError("step failed"), 3, "error: run: step failed\n"),
], ids=["ConfigError", "ValueError", "RunError"])
def test_main_decides_the_exit_code(config_path, tmp_path, capsys,
                                    monkeypatch, command, target, error, code,
                                    line):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, failing)
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("6 1e-2 1e-2\n")
    argv = {
        "run": ["run", config_path, "--output-dir", str(tmp_path)],
        "sweep": ["sweep", config_path, "--schedule", str(schedule),
                  "--output-dir", str(tmp_path)],
        "degiorgi": ["degiorgi", config_path],
        "check-h": ["check-h", "--form", "power"],
        "lemma62": ["lemma62"] + LEMMA62_ARGS,
    }[command]
    assert main(argv) == code
    assert capsys.readouterr().err == line


IMPORT_GUARD = """
import sys
from nsfourier import cli
from nsfourier.coefficients import RenormFunction
from nsfourier.config import parse_config
from nsfourier.coupler import run_simulation
from nsfourier.degiorgi import ladder_run
from nsfourier.diagnostics import SeparableTestFunction, renorm_report

config_path, out = sys.argv[1:3]
assert cli.main(["run", config_path, "--output-dir", out]) == 0
traj = run_simulation(parse_config(config_path))
phi = SeparableTestFunction(traj.grid, traj.final.t)
renorm_report(traj, RenormFunction.power(1.0), phi, traj.delta, traj.laws)
ladder_run(traj, theta_floor=0.1, k_max=4, omega=0.0)
print("loaded = " + " ".join(
    m for m in ("scipy.integrate", "scipy.optimize", "scipy.special")
    if m in sys.modules))
"""


def test_run_and_verifiers_import_no_quadrature_or_root_finding(config_path,
                                                               tmp_path):
    # the coefficient layer is closed-form only; importing these SciPy
    # subpackages would add their load time to every `nsfourier run`
    src = os.path.dirname(os.path.dirname(nsfourier.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, config_path, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded = "
