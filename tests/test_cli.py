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


def _config_file(data, *argv):
    argv = argv or ("simulate", "--system", "harmonic")

    def build(tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        return [*argv, "--config", str(path)]
    return build


def _truncated_container(tmp_path):
    assert run(["simulate", "--system", "harmonic", *FAST,
                "--output-dir", str(tmp_path)]) == 0
    path = tmp_path / "harmonic_ensemble.bin"
    path.write_bytes(path.read_bytes()[:-8])
    return ["discover", "--system", "harmonic", "--ensemble", str(path)]


def _one_sample_container(tmp_path):
    # A well-formed container holding a single time sample per realization.
    path = tmp_path / "short.bin"
    header = {"format": "ensemble-v1", "dt": 1e-4, "n_real": 2, "coords": 1,
              "n_steps": 1, "spatial_grid": None}
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(32))
    return ["discover", "--system", "harmonic", "--ensemble", str(path)]


def _foreign_container(system, written_for):
    """discover --system `system` on a container written for another system."""
    def build(tmp_path):
        assert run(["simulate", "--system", written_for, *FAST,
                    "--output-dir", str(tmp_path)]) == 0
        path = tmp_path / f"{written_for}_ensemble.bin"
        return ["discover", "--system", system, "--ensemble", str(path)]
    return build


def _flags(*argv):
    return lambda tmp_path: list(argv)


# One row per bad input that reaches the CLI: (argv builder, exit code,
# fragment of the one-line message).
BAD_INPUTS = [
    pytest.param(_flags("discover", "--system", "harmonic", "--t-f", "0.00001",
                        "--n-real", "2"),
                 2, "shorter than one step", id="discover-window-below-one-step"),
    pytest.param(_flags("bench", "--only", "wave", "--t-f", "0.00001"),
                 2, "shorter than one step", id="bench-window-below-one-step"),
    pytest.param(_one_sample_container, 2, "at least 2 samples",
                 id="one-sample-ensemble"),
    pytest.param(_config_file({"lambda_lagrangian": "abc"}), 2,
                 "lambda_lagrangian must be a number",
                 id="string-lambda-in-config"),
    pytest.param(_flags("discover", "--system", "harmonic", *FAST,
                        "--lambda-lagrangian", "-1"),
                 2, "lambda_lagrangian must be", id="negative-lambda-flag"),
    pytest.param(_flags("bench", "--only", "harmonic", *FAST,
                        "--lambda-lagrangian", "nan"),
                 2, "lambda_lagrangian must be", id="nan-lambda-flag"),
    pytest.param(_flags("discover", "--system", "harmonic", *FAST,
                        "--rcond-diffusion", "inf"),
                 2, "rcond_diffusion must be", id="infinite-rcond-flag"),
    pytest.param(_config_file({"only": 5}, "bench"), 2,
                 "only must be a string or a list of strings",
                 id="number-only-in-config"),
    pytest.param(_config_file({"only": ["harmonic", 3]}, "bench"), 2,
                 "only must be a string or a list of strings",
                 id="number-in-only-list-in-config"),
    pytest.param(_config_file({"output_dir": 5}), 2,
                 "output_dir must be a string", id="number-output-dir-in-config"),
    pytest.param(_config_file({"ensemble": 3}, "discover", "--system", "harmonic"),
                 2, "ensemble must be a string", id="number-ensemble-in-config"),
    pytest.param(_config_file({"system": ["harmonic"]}, "simulate"), 2,
                 "system must be a string", id="list-system-in-config-simulate"),
    pytest.param(_config_file({"system": ["harmonic"]}, "discover"), 2,
                 "system must be a string", id="list-system-in-config-discover"),
    pytest.param(_foreign_container("harmonic", "3dof"), 2,
                 "ensemble has 3 coordinates, but system 'harmonic' has 1",
                 id="discover-harmonic-on-3dof-ensemble"),
    pytest.param(_foreign_container("3dof", "harmonic"), 2,
                 "ensemble has 1 coordinates, but system '3dof' has 3",
                 id="discover-3dof-on-harmonic-ensemble"),
    pytest.param(_foreign_container("beam", "wave"), 2,
                 "ensemble was simulated for system 'wave', not 'beam'",
                 id="discover-beam-on-wave-ensemble"),
]


def _exits_with_one_line(tmp_path, capsys, build, code, message):
    argv = build(tmp_path) + ["--output-dir", str(tmp_path)]
    capsys.readouterr()
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("build, code, message", BAD_INPUTS)
def test_bad_input_exits_with_one_line(tmp_path, capsys, build, code, message):
    _exits_with_one_line(tmp_path, capsys, build, code, message)


def test_negative_dt_flag_exits_2_with_one_line(tmp_path, capsys):
    _exits_with_one_line(
        tmp_path, capsys, _flags("simulate", "--system", "harmonic", "--dt", "-1"),
        2, "dt must be")


def test_non_integer_seed_in_config_exits_2(tmp_path, capsys):
    _exits_with_one_line(tmp_path, capsys, _config_file({"seed": "abc"}),
                         2, "seed must be an integer")


def test_truncated_ensemble_exits_2(tmp_path, capsys):
    _exits_with_one_line(tmp_path, capsys, _truncated_container, 2, "truncated")


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
