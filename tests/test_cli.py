"""Tests for the command-line interface: config handling and exit codes."""

import json

import pytest

from lagdyn import cli
from lagdyn.errors import ConfigError

# Tiny protocol overrides shared by the subprocess-free invocations.
# FAST is enough to simulate; model fitting needs the DISCOVER sizes.
FAST = ["--t-f", "0.05", "--n-real", "3"]
DISCOVER = ["--t-f", "0.5", "--n-real", "10"]


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------


def test_runconfig_round_trips():
    config = cli.RunConfig(system="harmonic", only=("a", "b"), seed=3,
                           dt=1e-4, output_dir="x")
    assert cli.RunConfig.from_dict(config.to_dict()) == config


def test_runconfig_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        cli.RunConfig.from_dict({"seed": 1, "bogus": 2})


def test_runconfig_parses_comma_lists():
    config = cli.RunConfig.from_dict({"only": "harmonic, duffing"})
    assert config.only == ("harmonic", "duffing")


def test_runconfig_from_file_requires_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        cli.RunConfig.from_file(path)
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        cli.RunConfig.from_file(path)


def test_flags_override_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7, "t_f": 0.05, "n_real": 3,
                                "output_dir": str(tmp_path / "out")}))
    code = run(["simulate", "--system", "harmonic", "--config", str(path),
                "--seed", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "# seed: 9\n" in out
    assert "(default)" not in out


def test_default_seed_documented_in_header(tmp_path, capsys):
    code = run(["simulate", "--system", "harmonic", *FAST,
                "--output-dir", str(tmp_path)])
    assert code == 0
    assert f"# seed: {cli.DEFAULT_SEED} (default)" in capsys.readouterr().out


def test_env_var_sets_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
    code = run(["simulate", "--system", "harmonic", *FAST])
    assert code == 0
    assert (target / "harmonic_ensemble.bin").exists()


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_unknown_system_exits_2_with_names(capsys):
    assert run(["simulate", "--system", "nope"]) == 2
    err = capsys.readouterr().err
    for name in ("harmonic", "pendulum", "duffing", "3dof", "wave", "beam"):
        assert name in err


def test_missing_system_exits_2():
    assert run(["simulate"]) == 2


def test_unstable_field_step_exits_3(tmp_path):
    assert run(["simulate", "--system", "wave", "--dt", "0.01",
                "--output-dir", str(tmp_path)]) == 3


def test_missing_ensemble_exits_4(tmp_path):
    assert run(["discover", "--system", "harmonic",
                "--ensemble", str(tmp_path / "missing.bin")]) == 4


def test_negative_dt_flag_exits_2_with_one_line(tmp_path, capsys):
    assert run(["simulate", "--system", "harmonic", "--dt", "-1",
                "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "dt must be" in err


def test_non_integer_seed_in_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": "abc"}))
    assert run(["simulate", "--system", "harmonic", "--config", str(path),
                "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed must be an integer" in err


def test_truncated_ensemble_exits_2(tmp_path, capsys):
    assert run(["simulate", "--system", "harmonic", *FAST,
                "--output-dir", str(tmp_path)]) == 0
    path = tmp_path / "harmonic_ensemble.bin"
    path.write_bytes(path.read_bytes()[:-8])
    capsys.readouterr()
    assert run(["discover", "--system", "harmonic", "--ensemble", str(path),
                "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "truncated" in err


def test_discovery_failure_exits_5(tmp_path):
    assert run(["discover", "--system", "harmonic", *FAST,
                "--lambda-lagrangian", "1e9",
                "--output-dir", str(tmp_path)]) == 5


def test_unknown_bench_name_exits_2(capsys):
    assert run(["bench", "--only", "nope"]) == 2
    assert "harmonic" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Subcommand behavior
# ---------------------------------------------------------------------------


def test_discover_writes_identical_artifacts_on_rerun(tmp_path):
    names = ["harmonic_lagrangian.json", "harmonic_diffusion.json",
             "harmonic_equations.json", "harmonic_hamiltonian.json",
             "harmonic_expressions.txt"]
    dirs = (tmp_path / "a", tmp_path / "b")
    for out in dirs:
        code = run(["discover", "--system", "harmonic", *DISCOVER,
                    "--output-dir", str(out)])
        assert code == 0
        for name in names:
            assert (out / name).exists()
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_simulate_then_discover_from_file(tmp_path, capsys):
    assert run(["simulate", "--system", "harmonic", *DISCOVER,
                "--output-dir", str(tmp_path)]) == 0
    ensemble = tmp_path / "harmonic_ensemble.bin"
    assert ensemble.exists()
    assert run(["discover", "--system", "harmonic",
                "--ensemble", str(ensemble),
                "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Xdd" in out


def test_bench_only_filter_writes_two_reports(tmp_path):
    code = run(["bench", "--only", "harmonic,duffing", "--t-f", "1.0",
                "--n-real", "30", "--prediction-n-real", "30",
                "--output-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "harmonic_report.json").exists()
    assert (tmp_path / "duffing_report.json").exists()
    assert not (tmp_path / "pendulum_report.json").exists()
    lines = (tmp_path / "bench_summary.csv").read_text().splitlines()
    assert lines[0].startswith("system,discovered_equation,relative_error")
    assert len(lines) == 3


def test_bench_summary_mirrors_report(tmp_path):
    code = run(["bench", "--only", "harmonic", "--t-f", "1.0",
                "--n-real", "30", "--prediction-n-real", "30",
                "--output-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "harmonic_report.json").read_text())
    lines = (tmp_path / "bench_summary.csv").read_text().splitlines()
    row = lines[1].split(",")
    assert row[0] == "harmonic"
    assert row[1] == report["discovered"]["equations"]
    assert float(row[2]) == report["errors"]["relative_pct"]
    assert float(row[3]) == report["errors"]["diffusion_pct"]
    assert row[4] == "ok"


def test_bench_failure_maps_discovery_exit(tmp_path):
    code = run(["bench", "--only", "harmonic", "--t-f", "0.5",
                "--n-real", "10", "--prediction-n-real", "10",
                "--lambda-lagrangian", "1e9",
                "--output-dir", str(tmp_path)])
    assert code == 5
    report = json.loads((tmp_path / "harmonic_report.json").read_text())
    assert report["status"] == "failed"
    lines = (tmp_path / "bench_summary.csv").read_text().splitlines()
    assert lines[1].endswith("failed:discover")
