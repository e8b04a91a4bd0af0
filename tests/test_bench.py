"""Tests for benchmark reports: prediction, energy curves, report files."""

import dataclasses
import json
import math

import numpy as np
import pytest

from lagdyn import bench, discovery, sim
from lagdyn.errors import ConfigError, UnsupportedFormError

# Small harmonic configuration: short window, few realizations. Keeps the
# structural tests fast; accuracy bounds stay with the full-size runs.
SMALL = dataclasses.replace(
    bench.DEFAULT_CONFIGS["harmonic"], n_real=40, t_f=1.0,
    prediction_n_real=40,
)


@pytest.fixture(scope="module")
def small_report():
    return bench.run_benchmark("harmonic", SMALL)


# ---------------------------------------------------------------------------
# Configuration and model construction
# ---------------------------------------------------------------------------


def test_default_configs_cover_all_benchmarks():
    assert set(bench.DEFAULT_CONFIGS) == set(sim.BENCHMARK_NAMES)
    for config in bench.DEFAULT_CONFIGS.values():
        assert config.lambda_lagrangian > 0.0
        assert config.lambda_diffusion > 0.0
        assert config.prediction_factor >= 1.0


def test_training_protocol_overrides():
    spec = sim.benchmark_spec("harmonic")
    base = bench.DEFAULT_CONFIGS["harmonic"]
    dt, t_f, n_real = bench.training_protocol(spec, base)
    assert dt == pytest.approx(1.0 / spec.params["sample_rate"])
    assert t_f == spec.params["t_final"]
    assert n_real == spec.params["n_realizations"]
    custom = dataclasses.replace(base, dt=2e-4, t_f=0.5, n_real=7)
    assert bench.training_protocol(spec, custom) == (2e-4, 0.5, 7)


def test_discover_models_rejects_foreign_ensemble():
    harmonic = sim.benchmark_spec("harmonic")
    ens = sim.generate_ensemble(harmonic, 1e-3, 0.01, 2, base_seed=1)
    config = bench.DEFAULT_CONFIGS["harmonic"]
    gridded = dataclasses.replace(ens, spatial_grid=np.zeros(1))
    with pytest.raises(ConfigError, match="grid does not match"):
        bench.discover_models(gridded, "harmonic", harmonic, config)
    with pytest.raises(ConfigError, match="has 1 coordinates, but system '3dof' has 3"):
        bench.discover_models(ens, "3dof", sim.benchmark_spec("3dof"), config)
    wave = sim.benchmark_spec("wave")
    field = sim.generate_ensemble(wave, 1e-4, 1e-3, 2, base_seed=1)
    shifted = dataclasses.replace(field, spatial_grid=field.spatial_grid + 0.5)
    for foreign in (shifted, dataclasses.replace(field, spatial_grid=None)):
        with pytest.raises(ConfigError, match="grid does not match"):
            bench.discover_models(foreign, "wave", wave,
                                  bench.DEFAULT_CONFIGS["wave"])


def test_pooled_parameters_average_with_absent_zero():
    eom = discovery.EquationsOfMotion(
        coordinates=("a", "b"),
        target_coords=(0, 1),
        terms=(
            (discovery.EomTerm("x", 2.0, None),),
            (discovery.EomTerm("y", 4.0, None),),
        ),
        gains=(1.0, 3.0),
    )
    pooled = bench.pooled_parameters(eom)
    assert pooled == {"x": 1.0, "y": 2.0, "gain": 2.0}


def test_discovered_particle_spec_needs_images():
    spec = sim.benchmark_spec("harmonic")
    _, eom = bench.true_models("harmonic", spec,
                               bench.DEFAULT_CONFIGS["harmonic"])
    stripped = dataclasses.replace(eom, terms=(
        tuple(dataclasses.replace(t, image=None) for t in eom.terms[0]),
    ))
    with pytest.raises(UnsupportedFormError):
        bench.discovered_particle_spec(spec, stripped)


def test_discovered_field_spec_rejects_sign_flip():
    spec = sim.benchmark_spec("wave")
    _, eom = bench.true_models("wave", spec, bench.DEFAULT_CONFIGS["wave"])
    flipped = dataclasses.replace(eom, terms=tuple(
        tuple(dataclasses.replace(t, coefficient=-t.coefficient)
              for t in terms)
        for terms in eom.terms
    ))
    with pytest.raises(UnsupportedFormError):
        bench.discovered_field_spec(spec, flipped)


@pytest.mark.parametrize("name", ["harmonic", "pendulum", "duffing", "3dof"])
def test_discovered_particle_spec_reproduces_benchmark(name):
    # Built from the true equations, the discovered system evaluates the
    # benchmark's drift and Jacobian through the library's basis terms.
    spec = sim.benchmark_spec(name)
    _, eom = bench.true_models(name, spec, bench.DEFAULT_CONFIGS[name])
    found = bench.discovered_particle_spec(spec, eom)
    states = np.random.default_rng(5).uniform(-1.0, 1.0, (64, 2 * spec.dim))
    for fn in ("drift", "drift_jacobian"):
        got = getattr(found, fn)(states)
        want = getattr(spec, fn)(states)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(found.volatility(states), spec.volatility(states))
    single = found.drift(states[0])
    assert single.shape == (2 * spec.dim,)
    assert np.array_equal(single, found.drift(states[:1])[0])


@pytest.mark.parametrize("name", ["wave", "beam"])
def test_discovered_field_spec_reproduces_benchmark(name):
    spec = sim.benchmark_spec(name)
    _, eom = bench.true_models(name, spec, bench.DEFAULT_CONFIGS[name])
    found = bench.discovered_field_spec(spec, eom)
    u = np.random.default_rng(6).normal(size=(8, spec.dim))
    got, want = found.acceleration(u), spec.acceleration(u)
    if name == "wave":
        assert np.array_equal(got, want)
    else:
        # The pooled stiffness is a mean of five equal node coefficients.
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert found.params["max_stable_dt"] == pytest.approx(
        spec.params["max_stable_dt"], rel=1e-12)
    state = spec.initial_state
    assert np.array_equal(found.volatility(state), spec.volatility(state))


# ---------------------------------------------------------------------------
# Prediction comparison
# ---------------------------------------------------------------------------


def test_true_prediction_is_exact_on_shared_noise():
    # The reconstructed truth integrates the same drift values on the same
    # noise paths, so the two ensembles agree bit for bit.
    spec = sim.benchmark_spec("harmonic")
    _, eom = bench.true_models("harmonic", spec,
                               bench.DEFAULT_CONFIGS["harmonic"])
    bundle = bench.prediction_comparison(
        spec, eom, horizon=1.0, n_real=8, dt=1e-4, training_window=0.5,
    )
    assert bundle.diverged is None
    assert np.all(bundle.abs_error == 0.0)
    assert np.all(bundle.truth_2sigma == bundle.pred_2sigma)
    assert bundle.training_steps == 5000
    assert bundle.times.size == 10001


def test_prediction_training_only_bundle():
    spec = sim.benchmark_spec("harmonic")
    _, eom = bench.true_models("harmonic", spec,
                               bench.DEFAULT_CONFIGS["harmonic"])
    bundle = bench.prediction_comparison(
        spec, eom, horizon=0.5, n_real=4, dt=1e-4, training_window=0.5,
    )
    assert bundle.times.size == 5001
    assert bundle.times[-1] == pytest.approx(0.5)
    # The empty prediction window falls back to the full series.
    rms = bundle.rms_error_pct()
    assert set(rms) == {"X"}
    assert rms["X"] == 0.0


def test_prediction_rejects_short_horizon():
    spec = sim.benchmark_spec("harmonic")
    _, eom = bench.true_models("harmonic", spec,
                               bench.DEFAULT_CONFIGS["harmonic"])
    with pytest.raises(ConfigError):
        bench.prediction_comparison(
            spec, eom, horizon=0.4, n_real=4, dt=1e-4, training_window=0.5,
        )


def test_prediction_divergence_truncates_and_marks():
    # Flipping the restoring-force sign turns the oscillator into
    # exponential growth, so the discovered side blows up mid-run.
    spec = sim.benchmark_spec("harmonic")
    _, eom = bench.true_models("harmonic", spec,
                               bench.DEFAULT_CONFIGS["harmonic"])
    flipped = dataclasses.replace(eom, terms=tuple(
        tuple(dataclasses.replace(t, coefficient=-t.coefficient)
              for t in terms)
        for terms in eom.terms
    ))
    bundle = bench.prediction_comparison(
        spec, flipped, horizon=2.0, n_real=4, dt=1e-4, training_window=1.0,
    )
    assert bundle.diverged == "discovered"
    assert bundle.diverged_step is not None
    assert bundle.times.size == bundle.diverged_step
    assert np.all(np.isfinite(bundle.pred_mean))
    assert np.all(np.isfinite(bundle.abs_error))


# ---------------------------------------------------------------------------
# Hamiltonian evaluation
# ---------------------------------------------------------------------------


def test_hamiltonian_constant_on_noiseless_harmonic():
    spec = sim.benchmark_spec("harmonic")
    config = bench.DEFAULT_CONFIGS["harmonic"]
    lag, _ = bench.true_models("harmonic", spec, config)
    ham = discovery.legendre_transform(lag)
    states = sim.integrate_rk4(spec, 1e-4, 5000)
    h = bench.hamiltonian_trajectory(ham, states)
    # 0.5 * 1000 * 0.5^2 at the rest initial state
    assert h[0] == pytest.approx(125.0, rel=1e-12)
    assert np.max(np.abs(h - h[0])) / abs(h[0]) < 1e-3


def test_hamiltonian_zero_state_is_zero():
    spec = sim.benchmark_spec("pendulum")
    lag, _ = bench.true_models("pendulum", spec,
                               bench.DEFAULT_CONFIGS["pendulum"])
    ham = discovery.legendre_transform(lag)
    h = bench.hamiltonian_trajectory(ham, np.zeros((2, 3)))
    assert np.all(h == 0.0)


def test_hamiltonian_normalization_pendulum_rest():
    # cos-potential models carry H(0) = -9.81; the normalized curve starts
    # at the textbook value 9.81 * (1 - cos x0).
    spec = sim.benchmark_spec("pendulum")
    lag, _ = bench.true_models("pendulum", spec,
                               bench.DEFAULT_CONFIGS["pendulum"])
    ham = discovery.legendre_transform(lag)
    rest = np.array([[0.9], [0.0]])
    h = bench.hamiltonian_trajectory(ham, rest)
    assert h[0] == pytest.approx(9.81 * (1.0 - math.cos(0.9)), rel=1e-12)


def test_field_energy_conserved_without_noise():
    frozen = {"wave": (4.0, 43788.6814177186), "beam": (0.1035, 63.97024947986897)}
    for name, (stiffness, h0) in frozen.items():
        spec = sim.benchmark_spec(name)
        dt, _, _ = bench.training_protocol(spec, bench.DEFAULT_CONFIGS[name])
        states = sim.integrate_rk4(spec, dt, 5000)
        n = spec.dim
        h = bench.field_energy_series(spec, states[:n], states[n:], stiffness)
        assert h[0] == pytest.approx(h0, rel=1e-9)
        assert np.max(np.abs(h - h[0])) / abs(h[0]) < 1e-5


# ---------------------------------------------------------------------------
# Row-selected field simulation
# ---------------------------------------------------------------------------


def test_field_row_simulation_matches_full_ensemble(monkeypatch):
    spec = sim.benchmark_spec("wave")
    dt = 1e-4
    ens = sim.generate_ensemble(spec, dt=dt, t_f=0.02, n_real=3, base_seed=7)
    node = 10
    rows = sim.simulate_field_rows(
        spec, dt, 0.02, 3, 7, rows=[node, spec.dim + node],
    )
    assert np.array_equal(rows[:, 0], ens.displacement[:, node])
    assert np.array_equal(rows[:, 1], ens.velocity[:, node])
    # Chunked noise draws reproduce the one-shot stream across boundaries.
    monkeypatch.setattr(sim, "CHUNK_STEPS", 64)
    chunked = sim.simulate_field_rows(
        spec, dt, 0.02, 3, 7, rows=[node, spec.dim + node],
    )
    assert np.array_equal(chunked, rows)


# ---------------------------------------------------------------------------
# Reports and files
# ---------------------------------------------------------------------------


def test_report_sections_complete(small_report):
    assert small_report.status == "ok"
    assert small_report.failure is None
    payload = small_report.payload()
    for key in ("schema_version", "system", "seeds", "lambda", "protocol",
                "true", "discovered", "errors", "hamiltonian", "prediction",
                "files"):
        assert key in payload
    assert payload["seeds"] == {"training": bench.DEFAULT_SEED,
                                "prediction": bench.DEFAULT_SEED}
    assert "runtime_s" not in json.dumps(payload)


def test_report_error_matches_serialized_coefficients(small_report):
    payload = json.loads(small_report.to_json())
    recomputed = [
        discovery.relative_error(t, d)
        for t, d in zip(payload["true"]["coefficients"],
                        payload["discovered"]["coefficients"])
    ]
    assert abs(max(recomputed) - payload["errors"]["relative_pct"]) < 1e-12
    assert recomputed == pytest.approx(
        payload["errors"]["per_equation_pct"], abs=1e-12)


def test_report_files_are_reproducible(tmp_path):
    first = bench.run_benchmark("harmonic", SMALL)
    second = bench.run_benchmark("harmonic", SMALL)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    bench.write_report(first, dir_a)
    bench.write_report(second, dir_b)
    names = first.file_names()
    assert names == second.file_names()
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    # Wall-clock metadata lives outside the deterministic report files.
    sidecar = "harmonic_report.meta.json"
    assert sidecar not in names
    assert (dir_a / sidecar).exists()


def test_report_csv_schema(small_report, tmp_path):
    bench.write_report(small_report, tmp_path)
    lines = (tmp_path / "harmonic_prediction_X.csv").read_text().splitlines()
    assert lines[0] == "t,truth_mean,pred_mean,truth_2sigma,pred_2sigma,abs_error"
    assert len(lines) == 1 + small_report.prediction.times.size
    first = lines[1].split(",")
    assert first[0] == "0.0"
    ham_lines = (tmp_path / "harmonic_hamiltonian.csv").read_text().splitlines()
    assert ham_lines[0] == lines[0]
    assert len(ham_lines) == 1 + small_report.hamiltonian_times.size
    # The energy curve carries no ensemble spread.
    assert ham_lines[1].split(",")[3] == "0.0"


def test_run_benchmark_reports_stage_failure(tmp_path):
    config = dataclasses.replace(SMALL, lambda_lagrangian=1e9)
    report = bench.run_benchmark("harmonic", config)
    assert report.status == "failed"
    assert report.failure["stage"] == "discover"
    assert report.failure["code"] == "regression"
    payload = json.loads(report.to_json())
    assert payload["status"] == "failed"
    assert report.file_names() == ["harmonic_report.json"]
    written = bench.write_report(report, tmp_path)
    assert sorted(p.name for p in written) == [
        "harmonic_report.json", "harmonic_report.meta.json",
    ]
