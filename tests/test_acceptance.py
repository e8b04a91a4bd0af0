"""End-to-end acceptance gate.

One test per promised property, each at its stated tolerance: benchmark
accuracy and recovered parameters, exact support recovery, sparse/dense
regression equivalence, integrator strong orders, derivative stencil
orders, energy consistency, ensemble prediction tracking, and bit
reproducibility of benchmark reports.
"""

import numpy as np
import pytest

import helpers
from lagdyn import bench, discovery, regression, sim
from lagdyn.numdiff import (
    central_first_derivative,
    central_second_derivative,
    forward_first_derivative,
)

pytestmark = pytest.mark.slow

BENCHMARKS = ("harmonic", "pendulum", "duffing", "3dof", "wave", "beam")

PROBE_SUPPORTS = {
    "wave": [[f"ux{n}^2"] for n in bench.FIELD_PROBE_NODES],
    "beam": [[f"uxx{n}^2"] for n in bench.FIELD_PROBE_NODES],
}
PROBE_DIFFUSION = {
    name: [[f"u{n}^2"] for n in bench.FIELD_PROBE_NODES]
    for name in ("wave", "beam")
}


@pytest.fixture(scope="module")
def reports():
    """Full-size benchmark reports at default configuration and seed."""
    return {name: bench.run_benchmark(name) for name in BENCHMARKS}


def test_criterion_1_benchmark_accuracy_and_parameters(reports):
    for name, rep in reports.items():
        assert rep.status == "ok", f"{name}: {rep.failure}"
        assert rep.runtime_s <= 120.0, f"{name} took {rep.runtime_s:.1f}s"

    rel = {n: reports[n].errors["relative_pct"] for n in BENCHMARKS}
    assert rel["harmonic"] <= 1.0
    assert rel["pendulum"] <= 1.0
    assert rel["duffing"] <= 1.0
    assert max(reports["3dof"].errors["per_equation_pct"]) <= 0.5
    assert rel["wave"] <= 5.0
    assert rel["beam"] <= 1.0

    gain = reports["harmonic"].discovered_section["gains"][0]
    assert abs(gain - 1.0) <= 0.10 * 1.0
    gain = reports["pendulum"].discovered_section["gains"][0]
    assert abs(gain - 0.10) <= 0.20 * 0.10

    duffing_terms = set(reports["duffing"].discovered_section["supports"][0])
    assert {"X^2", "X^4"} <= duffing_terms

    tdof_terms = set().union(*reports["3dof"].discovered_section["supports"])
    assert {"X1^2", "(X2-X1)^2", "(X3-X2)^2"} <= tdof_terms

    c2 = -reports["wave"].discovered_section["coefficients"][0]["uxx"]
    assert abs(c2 - 4.0) <= 0.02 * 4.0
    kappa = reports["beam"].discovered_section["coefficients"][0]["uxxxx"]
    assert abs(kappa - 0.1035) <= 0.02 * 0.1035


def test_criterion_2_exact_support_recovery(reports):
    expected = {
        "harmonic": [["X^2"]],
        "pendulum": [["cos(X)"]],
        "duffing": [["X^2", "X^4"]],
        "3dof": [["(X2-X1)^2", "X1^2"],
                 ["(X2-X1)^2", "(X3-X2)^2"],
                 ["(X3-X2)^2"]],
        "wave": PROBE_SUPPORTS["wave"],
        "beam": PROBE_SUPPORTS["beam"],
    }
    expected_diffusion = {
        "harmonic": [["X^2"]],
        "pendulum": [["X^2"]],
        "duffing": [["X^2"]],
        "3dof": [["X1^2"], ["X2^2"], ["X3^2"]],
        "wave": PROBE_DIFFUSION["wave"],
        "beam": PROBE_DIFFUSION["beam"],
    }
    for name in BENCHMARKS:
        section = reports[name].discovered_section
        assert section["supports"] == expected[name], name
        assert section["diffusion_supports"] == expected_diffusion[name], name


def test_criterion_3_sparse_regression_matches_least_squares():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        p = int(rng.integers(1, 21))
        rows = int(rng.integers(p + 1, 501))
        features = rng.standard_normal((rows, p))
        target = features @ rng.standard_normal(p)
        target = target + 0.1 * rng.standard_normal(rows)
        dense = regression.least_squares(features, target)
        model = regression.stls(features, target, threshold=0.0)
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(model.coefficients - dense)) <= 1e-10 * scale


def test_criterion_4_integrator_strong_orders():
    counts = [16, 32, 64]
    errs = helpers.taylor_cubic_strong_errors(counts, 4096, 0.25, 400,
                                              base_seed=31)
    order = helpers.fitted_order([0.25 / c for c in counts], errs)
    assert 1.3 <= order <= 1.7, f"strong Taylor order {order:.3f}"

    dts = [1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256]
    errs = helpers.em_geometric_strong_errors(dts, 0.5, 400, base_seed=2024)
    order = helpers.fitted_order(dts, errs)
    assert 0.35 <= order <= 0.65, f"Euler-Maruyama order {order:.3f}"

    # Without noise the stochastic scheme follows the deterministic
    # trajectory at least as fast as dt^1.5.
    spec = helpers.silence(sim.benchmark_spec("harmonic"))
    dts = [4e-4, 2e-4, 1e-4]
    diffs = []
    for dt in dts:
        n = int(round(0.2 / dt))
        taylor = sim.integrate_taylor15(spec, dt, n, sim.NoiseStream(1))
        rk4 = sim.integrate_rk4(spec, dt, n)
        diffs.append(np.max(np.abs(taylor[:, -1] - rk4[:, -1])))
    assert helpers.fitted_order(dts, diffs) >= 1.5
    assert diffs[-1] < 1e-3


def test_criterion_5_stencil_convergence_orders():
    cases = (
        (central_first_derivative, np.cos, 2.0, slice(1, -1)),
        (forward_first_derivative, np.cos, 1.0, slice(0, -1)),
        (central_second_derivative, lambda t: -np.sin(t), 2.0, slice(1, -1)),
    )
    for fn, exact, nominal, interior in cases:
        steps, errors = [], []
        for n in (64, 128, 256, 512):
            dt = 2.0 * np.pi / n
            t = np.arange(n + 1) * dt
            err = np.abs(fn(np.sin(t), dt) - exact(t))
            steps.append(dt)
            errors.append(err[interior].max())
        order = helpers.fitted_order(steps, errors)
        assert abs(order - nominal) <= 0.15, f"{fn.__name__}: {order:.3f}"


def test_criterion_6_energy_consistency(reports):
    for name, rep in reports.items():
        summary = rep.hamiltonian_summary
        assert summary["true_drift_pct"] < 0.1, name
        assert summary["gap_pct"] < 1.0, name


def test_criterion_7_prediction_tracks_truth(reports):
    # Discrete systems: the report bundle already spans a prediction
    # window equal to the training window.
    for name in ("harmonic", "pendulum", "duffing", "3dof"):
        rms = reports[name].prediction.rms_error_pct()
        assert all(v < 5.0 for v in rms.values()), (name, rms)
    # Fields: rerun the comparison with the horizon doubled so the
    # prediction window matches the training window.
    for name in ("wave", "beam"):
        spec = sim.benchmark_spec(name)
        config = bench.DEFAULT_CONFIGS[name]
        dt, t_f, n_real = bench.training_protocol(spec, config)
        bundle = bench.prediction_comparison(
            spec, reports[name].equations, horizon=2.0 * t_f,
            n_real=n_real, base_seed=bench.DEFAULT_SEED, dt=dt,
            training_window=t_f,
        )
        assert bundle.diverged is None, name
        rms = bundle.rms_error_pct()
        assert all(v < 5.0 for v in rms.values()), (name, rms)


def test_criterion_8_reports_bit_reproducible(reports, tmp_path):
    for name in BENCHMARKS:
        rerun = bench.run_benchmark(name)
        dir_a = tmp_path / f"{name}_a"
        dir_b = tmp_path / f"{name}_b"
        bench.write_report(reports[name], dir_a)
        bench.write_report(rerun, dir_b)
        assert reports[name].file_names() == rerun.file_names()
        for fname in rerun.file_names():
            same = (dir_a / fname).read_bytes() == (dir_b / fname).read_bytes()
            assert same, f"{fname} differs between reruns"
