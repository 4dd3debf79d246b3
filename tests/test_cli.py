import os

import pytest

from nsfourier.cli import main
from nsfourier.config import RunConfig, parse_config, serialize_config
from nsfourier.errors import ConfigError


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


def test_degiorgi_command(config_path, tmp_path, capsys):
    code = main(["degiorgi", config_path, "--output-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "[degiorgi-certificate]" in out
    assert "decay_ok = true" in out


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


def test_seed_flag_accepted(config_path, tmp_path, capsys):
    assert main(["--seed", "7", "run", config_path,
                 "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
