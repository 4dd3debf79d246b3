import os
import pathlib
import subprocess
import sys

import pytest

import nsfourier
from nsfourier import cli, coupler
from nsfourier.cli import main
from nsfourier.config import RunConfig, parse_config, serialize_config
from nsfourier.errors import ConfigError, RunError


@pytest.fixture
def config_path(tmp_path):
    config = RunConfig(nx=24, ny=24, n_modes=6, t_final=0.03, dt=0.01,
                       m0_amplitude=0.01)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(config))
    return str(path)


def test_config_round_trip():
    config = RunConfig(nx=48, ny=32, dt=0.005, eps=2e-3)
    assert parse_config(serialize_config(config)) == config


def test_parse_defaults():
    config = parse_config("[grid]\nnx = 24\nny = 24\n")
    assert config.nx == 24
    assert config.dt == RunConfig().dt


def test_parse_collects_all_problems():
    text = "[grid]\nnx = banana\n[nowhere]\nfoo = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert len(err.value.problems) >= 2
    assert any("line 2" in p for p in err.value.problems)


def test_parse_rejects_delta_out_of_range():
    with pytest.raises(ConfigError) as err:
        parse_config("[regularization]\ndelta = 1.5\n")
    assert any("(0, 1)" in p for p in err.value.problems)


def test_parse_rejects_zero_theta_floor():
    with pytest.raises(ConfigError) as err:
        parse_config("[initial]\ntheta_floor = 0\n")
    assert any("theta_floor" in p for p in err.value.problems)


def test_parse_config_reads_a_path(config_path, tmp_path):
    assert parse_config(config_path) == parse_config(
        pathlib.Path(config_path).read_text())
    assert parse_config(tmp_path / "run.cfg") == parse_config(config_path)


def test_parse_config_reports_a_missing_file(tmp_path):
    missing = str(tmp_path / "nonexistent.cfg")
    with pytest.raises(ConfigError) as err:
        parse_config(missing)
    [problem] = err.value.problems
    assert problem.startswith("[Errno 2] No such file or directory")
    assert missing in problem


def test_run_command(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", config_path, "--output-dir", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "[summary]" in captured.out
    assert (out / "diagnostics.csv").exists()
    assert (out / "snapshot_00000_rho.txt").exists()
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header.startswith("time,kinetic_energy,thermal_energy,")


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


def test_output_dir_env_override(config_path, tmp_path, monkeypatch, capsys):
    target = tmp_path / "env_out"
    monkeypatch.setenv("NSFOURIER_OUTPUT_DIR", str(target))
    assert main(["run", config_path, "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (target / "diagnostics.csv").exists()


def test_degiorgi_command(config_path, capsys):
    code = main(["degiorgi", config_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "[degiorgi-certificate]" in out
    assert "decay_ok = true" in out


@pytest.mark.parametrize("flag, value, message", [
    ("--kmax", "0", "k_max must be at least 1"),
    ("--M", "-1", "M must be positive"),
    ("--omega", "-1", "omega must be non-negative"),
], ids=["kmax", "M", "omega"])
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
