"""Tests for ensemble simulation: integrators, benchmarks, containers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import helpers
from lagdyn import sim
from lagdyn.errors import ConfigError, SimulationDivergedError, StabilityError


# ---------------------------------------------------------------------------
# Noise and seeding
# ---------------------------------------------------------------------------


def test_wiener_increments_deterministic():
    def dw(seed):
        normals = sim.NoiseStream(seed).standard_normals((64, 2))
        return sim.increments_from_normals(0.01, normals)[0]

    a, b, c = dw(7), dw(7), dw(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (64,)


def test_wiener_increments_moments():
    n = 200_000
    dt = 0.25
    normals = sim.NoiseStream(11).standard_normals((n, 2))
    dw = sim.increments_from_normals(dt, normals)[0]
    assert abs(dw.mean()) < 5e-3
    assert abs(dw.var() - dt) < 5e-3


def test_derived_seed_properties():
    seeds = [sim.derived_seed(123, k) for k in range(1000)]
    assert seeds == [sim.derived_seed(123, k) for k in range(1000)]
    assert len(set(seeds)) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    assert sim.derived_seed(123, 0) != sim.derived_seed(124, 0)


@given(st.integers(), st.integers(0, 2**40))
def test_derived_seed_is_a_deterministic_64_bit_value(base_seed, index):
    seed = sim.derived_seed(base_seed, index)
    assert seed == sim.derived_seed(base_seed, index)
    assert 0 <= seed < 2**64


def test_increments_from_normals_moments():
    dt = 0.1
    rng = np.random.default_rng(3)
    dw, dz = sim.increments_from_normals(dt, rng.standard_normal((200_000, 2)))
    assert abs(dw.var() - dt) / dt < 0.03
    assert abs(dz.var() - dt**3 / 3.0) / (dt**3 / 3.0) < 0.03
    cov = np.mean(dw * dz)
    assert abs(cov - dt**2 / 2.0) / (dt**2 / 2.0) < 0.03


# ---------------------------------------------------------------------------
# Deterministic limits against closed forms
# ---------------------------------------------------------------------------


def _quiet_harmonic():
    return helpers.silence(sim.benchmark_spec("harmonic"))


def test_taylor_quiet_harmonic_matches_closed_form():
    spec = _quiet_harmonic()
    dt, n = 1e-4, 10_000
    traj = sim.integrate_taylor15(spec, dt, n, sim.NoiseStream(1))
    t = np.arange(n + 1) * dt
    omega = math.sqrt(1000.0)
    # The deterministic part of the scheme is second order; its phase error
    # omega^3 dt^2 t / 6 bounds the position error at about 2.7e-5 here.
    assert np.max(np.abs(traj[0] - 0.5 * np.cos(omega * t))) < 5e-5
    assert np.max(np.abs(traj[1] + 0.5 * omega * np.sin(omega * t))) < 2e-3


def test_rk4_harmonic_matches_closed_form():
    spec = sim.benchmark_spec("harmonic")
    dt, n = 1e-4, 10_000
    traj = sim.integrate_rk4(spec, dt, n)
    t = np.arange(n + 1) * dt
    omega = math.sqrt(1000.0)
    assert np.max(np.abs(traj[0] - 0.5 * np.cos(omega * t))) < 1e-8


def test_taylor_quiet_agrees_with_rk4():
    spec = _quiet_harmonic()
    dt, n = 1e-4, 10_000
    taylor = sim.integrate_taylor15(spec, dt, n, sim.NoiseStream(1))
    rk4 = sim.integrate_rk4(spec, dt, n)
    assert np.max(np.abs(taylor[0] - rk4[0])) < 5e-5
    assert np.max(np.abs(taylor[1] - rk4[1])) < 2e-3


def test_taylor_quiet_second_order_against_rk4():
    spec = _quiet_harmonic()
    t_final = 0.2
    dts = [4e-4, 2e-4, 1e-4]
    errs = []
    for dt in dts:
        n = int(round(t_final / dt))
        taylor = sim.integrate_taylor15(spec, dt, n, sim.NoiseStream(1))
        rk4 = sim.integrate_rk4(spec, dt, n)
        errs.append(np.max(np.abs(taylor[:, -1] - rk4[:, -1])))
    order = helpers.fitted_order(dts, errs)
    assert 1.8 <= order <= 2.3


def test_rk4_pendulum_conserves_energy():
    spec = sim.benchmark_spec("pendulum")
    traj = sim.integrate_rk4(spec, 5e-4, 10_000)
    energy = 0.5 * traj[1] ** 2 - 9.81 * np.cos(traj[0])
    drift = np.max(np.abs(energy - energy[0])) / abs(energy[0])
    assert drift < 1e-8


# ---------------------------------------------------------------------------
# Stochastic integrity
# ---------------------------------------------------------------------------


def test_taylor_increment_injection_matches_stream_draws():
    spec = sim.benchmark_spec("harmonic")
    dt, n = 1e-3, 40
    a = sim.integrate_taylor15(spec, dt, n, sim.NoiseStream(99))
    normals = sim.NoiseStream(99).standard_normals((1, n, 1, 2))
    dw, dz = sim.increments_from_normals(dt, normals)
    b = sim.integrate_taylor15_increments(spec, dt, dw[0], dz[0])
    assert np.array_equal(a, b)


def test_increment_injection_validates_shapes():
    spec = sim.benchmark_spec("harmonic")
    with pytest.raises(ValueError):
        sim.integrate_taylor15_increments(
            spec, 1e-3, np.zeros((5, 1)), np.zeros((6, 1))
        )
    with pytest.raises(ValueError):
        sim.integrate_taylor15_increments(
            spec, 1e-3, np.zeros((5, 2)), np.zeros((5, 2))
        )


def test_ensemble_reproducible():
    spec = sim.benchmark_spec("harmonic")
    a = sim.generate_ensemble(spec, 1e-3, 0.05, 4, base_seed=77)
    b = sim.generate_ensemble(spec, 1e-3, 0.05, 4, base_seed=77)
    c = sim.generate_ensemble(spec, 1e-3, 0.05, 4, base_seed=78)
    assert np.array_equal(a.displacement, b.displacement)
    assert np.array_equal(a.velocity, b.velocity)
    assert not np.array_equal(a.displacement, c.displacement)


def test_ensemble_rows_match_single_trajectories():
    spec = sim.benchmark_spec("harmonic")
    ens = sim.generate_ensemble(spec, 1e-3, 0.05, 3, base_seed=77)
    for k in (0, 2):
        single = sim.integrate_taylor15(
            spec, 1e-3, 50, sim.NoiseStream(sim.derived_seed(77, k))
        )
        assert np.array_equal(ens.displacement[k], single[:1])
        assert np.array_equal(ens.velocity[k], single[1:])

    wave = sim.benchmark_spec("wave")
    ens = sim.generate_ensemble(wave, 1e-4, 0.005, 2, base_seed=5)
    single = sim.integrate_batch(wave, 1e-4, 50, 2, base_seed=5)[1]
    assert np.array_equal(ens.displacement[1], single[:101])
    assert np.array_equal(ens.velocity[1], single[101:])


def test_integrate_batch_matches_single_paths():
    harmonic = sim.benchmark_spec("harmonic")
    batch = sim.integrate_batch(harmonic, 1e-3, 30, 3, base_seed=21)
    single = sim.integrate_taylor15(
        harmonic, 1e-3, 30, sim.NoiseStream(sim.derived_seed(21, 2))
    )
    assert np.array_equal(batch[2], single)

    geo = helpers.geometric_ou_spec()
    batch = sim.integrate_batch(geo, 1e-3, 30, 3, base_seed=21, method="euler")
    single = sim.integrate_batch(geo, 1e-3, 30, 1, base_seed=21,
                                 method="euler")[0]
    assert np.array_equal(batch[0], single)

    with pytest.raises(ConfigError):
        sim.integrate_batch(harmonic, 1e-3, 10, 2, 0, method="leapfrog")


@pytest.fixture(scope="module")
def harmonic_ensemble():
    spec = sim.benchmark_spec("harmonic")
    return sim.generate_ensemble(spec, 1e-4, 1.0, 200, base_seed=424242)


def test_harmonic_ensemble_mean_tracks_unforced_motion(harmonic_ensemble):
    ens = harmonic_ensemble
    omega = math.sqrt(1000.0)
    mean = ens.displacement[:, 0, :].mean(axis=0)
    assert np.max(np.abs(mean - 0.5 * np.cos(omega * ens.times))) < 0.01


def test_harmonic_ensemble_variance_matches_theory(harmonic_ensemble):
    # Var[X(t)] = (sigma/omega)^2 * (t/2 - sin(2 omega t)/(4 omega)),
    # about 4.97e-4 at t = 1 for sigma = 1, omega^2 = 1000.
    ens = harmonic_ensemble
    var = ens.displacement[:, 0, -1].var(ddof=1)
    assert 3e-4 < var < 7e-4


def test_em_strong_order_half_on_multiplicative_system():
    dts = [1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256]
    errs = helpers.em_geometric_strong_errors(dts, 0.5, 150, base_seed=2024)
    order = helpers.fitted_order(dts, errs)
    assert 0.3 <= order <= 0.75


def test_taylor_strong_order_on_cubic_system():
    errs = helpers.taylor_cubic_strong_errors(
        [8, 16, 32], 4096, 0.25, 60, base_seed=31
    )
    order = helpers.fitted_order([0.25 / 8, 0.25 / 16, 0.25 / 32], errs)
    assert 1.15 <= order <= 1.9


def test_taylor_beats_order_15_on_linear_system():
    dts = [1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64]
    errs = helpers.ou_conditional_strong_errors(dts, 1.0, 2.0, 200, base_seed=6)
    order = helpers.fitted_order(dts, errs)
    assert order > 1.3


# ---------------------------------------------------------------------------
# Field systems
# ---------------------------------------------------------------------------


def test_wave_pinned_nodes_hold_zero():
    spec = sim.benchmark_spec("wave")
    ens = sim.generate_ensemble(spec, 1e-4, 0.01, 2, base_seed=9)
    assert np.all(ens.displacement[:, 0, :] == 0.0)
    assert np.all(ens.displacement[:, -1, :] == 0.0)
    assert np.all(ens.velocity[:, 0, :] == 0.0)
    assert np.all(ens.velocity[:, -1, :] == 0.0)
    assert np.all(np.isfinite(ens.displacement))


def test_wave_stability_guard():
    spec = sim.benchmark_spec("wave")
    with pytest.raises(StabilityError):
        sim.integrate_batch(spec, 6e-3, 10, 1, base_seed=0)
    with pytest.raises(StabilityError):
        sim.generate_ensemble(spec, 6e-3, 0.06, 2, base_seed=0)


def test_wave_quiet_energy_windowed_drift():
    spec = helpers.silence(sim.benchmark_spec("wave"))
    traj = sim.integrate_batch(spec, 1e-4, 10_000, 1, base_seed=0)[0]
    u, v = traj[:101], traj[101:]
    grad = (u[1:] - u[:-1]) / 0.01
    energy = 0.5 * np.sum(v**2, axis=0) + 2.0 * np.sum(grad**2, axis=0)
    head = energy[:1000].mean()
    tail = energy[-1000:].mean()
    assert abs(tail - head) / head < 0.01


def test_wave_smooth_mode_returns_after_one_period():
    base = sim.benchmark_spec("wave")
    x = base.spatial.grid
    u0 = np.sin(np.pi * x)
    u0[[0, -1]] = 0.0
    spec = dataclasses.replace(
        helpers.silence(base),
        initial_state=np.concatenate([u0, np.zeros_like(u0)]),
    )
    # standing mode sin(pi x) cos(pi c t) has period 2/c = 1
    traj = sim.integrate_batch(spec, 1e-4, 10_000, 1, base_seed=0)[0]
    assert np.max(np.abs(traj[:101, -1] - u0)) < 1e-3


def test_wave_acceleration_oracle():
    spec = sim.benchmark_spec("wave")
    x = spec.spatial.grid
    u = np.sin(np.pi * x)
    a = spec.acceleration(u)
    expected = -4.0 * np.pi**2 * np.sin(np.pi * x)
    rel = np.abs(a[1:-1] - expected[1:-1]) / np.max(np.abs(expected))
    assert np.max(rel) < 1e-3
    assert a[0] == 0.0 and a[-1] == 0.0


def test_beam_stability_guard():
    spec = sim.benchmark_spec("beam")
    assert spec.params["max_stable_dt"] > 1e-4
    with pytest.raises(StabilityError):
        sim.integrate_batch(spec, 2e-4, 10, 1, base_seed=0)


def test_beam_biharmonic_interior_oracle():
    x = np.arange(101) * 0.01
    u = np.sin(3.0 * x)
    d4 = sim._beam_biharmonic(u, 0.01)
    expected = 81.0 * np.sin(3.0 * x)
    rel = np.abs(d4[4:97] - expected[4:97]) / np.max(np.abs(expected))
    assert np.max(rel) < 1e-2


def test_beam_biharmonic_exact_on_linear_fields():
    # The free-end ghost extrapolations reproduce linear fields exactly, so
    # the fourth difference vanishes away from the clamped end.
    x = np.arange(101) * 0.01
    d4 = sim._beam_biharmonic(2.0 * x + 1.0, 0.01)
    assert np.max(np.abs(d4[2:])) < 1e-5


def test_beam_mode_shape_is_admissible():
    psi = 0.596864 * np.pi
    # psi is a root of 1 + cos(psi) cosh(psi) = 0 (clamped-free condition)
    assert abs(1.0 + math.cos(psi) * math.cosh(psi)) < 1e-3
    x = np.arange(101) * 0.01
    phi = sim.cantilever_mode_shape(x, psi, 1.0)
    assert abs(phi[0]) < 1e-12
    slope0 = (-3.0 * phi[0] + 4.0 * phi[1] - phi[2]) / 0.02
    assert abs(slope0) < 0.05
    assert 1.9 < abs(phi[-1]) < 2.1


def test_beam_acceleration_oracle_interior():
    spec = sim.benchmark_spec("beam")
    psi = spec.params["mode_wavenumber"]
    x = spec.spatial.grid
    phi = sim.cantilever_mode_shape(x, psi, 1.0)
    a = spec.acceleration(phi)
    expected = -0.1035 * psi**4 * phi[50]
    assert abs(a[50] - expected) / abs(expected) < 0.01


def test_beam_quiet_trajectory_oscillates_in_first_mode():
    spec = helpers.silence(sim.benchmark_spec("beam"))
    traj = sim.integrate_batch(spec, 1e-4, 20_000, 1, base_seed=0)[0]
    u = traj[:101]
    peak = np.max(np.abs(u))
    assert 1.9 < peak < 2.2
    # first-mode frequency sqrt(0.1035) * psi^2, tip = phi(1) cos(omega t)
    omega = math.sqrt(0.1035) * spec.params["mode_wavenumber"] ** 2
    predicted_tip = u[-1, 0] * math.cos(2.0 * omega)
    assert abs(u[-1, -1] - predicted_tip) < 0.02


# ---------------------------------------------------------------------------
# Benchmark catalog
# ---------------------------------------------------------------------------


def test_benchmark_names_and_unknown():
    assert sim.BENCHMARK_NAMES == (
        "3dof", "beam", "duffing", "harmonic", "pendulum", "wave"
    )
    for name in sim.BENCHMARK_NAMES:
        spec = sim.benchmark_spec(name)
        assert spec.initial_state.size == 2 * spec.dim
    with pytest.raises(ConfigError):
        sim.benchmark_spec("nope")


def test_benchmark_protocol_parameters():
    protocol = {
        "harmonic": (1.0, 10_000.0, 200),
        "pendulum": (5.0, 2_000.0, 200),
        "duffing": (1.0, 10_000.0, 200),
        "3dof": (1.0, 10_000.0, 200),
        "wave": (1.0, 10_000.0, 30),
        "beam": (2.0, 10_000.0, 20),
    }
    for name, (t_final, rate, n_real) in protocol.items():
        p = sim.benchmark_spec(name).params
        assert p["t_final"] == t_final
        assert p["sample_rate"] == rate
        assert p["n_realizations"] == n_real


def test_benchmark_initial_states():
    assert np.array_equal(
        sim.benchmark_spec("harmonic").initial_state, [0.5, 0.0]
    )
    assert np.array_equal(
        sim.benchmark_spec("pendulum").initial_state, [0.9, 0.0]
    )
    assert np.array_equal(
        sim.benchmark_spec("duffing").initial_state, [0.4, 0.0]
    )
    assert np.array_equal(
        sim.benchmark_spec("3dof").initial_state,
        [0.25, 0.5, 0.0, 0.0, 0.0, 0.0],
    )
    wave = sim.benchmark_spec("wave")
    u0 = wave.initial_state[:101]
    assert u0[0] == 0.0 and u0[-1] == 0.0
    assert abs(u0[1] - math.cos(0.02 * math.pi)) < 1e-12
    assert abs(u0[50] - math.cos(math.pi)) < 1e-12
    beam = sim.benchmark_spec("beam")
    assert beam.initial_state[0] == 0.0
    assert 1.9 < beam.initial_state[100] < 2.1
    assert np.all(beam.initial_state[101:] == 0.0)


def test_benchmark_acceleration_oracles():
    assert sim.benchmark_spec("harmonic").acceleration(
        np.array([0.1])
    ) == pytest.approx([-100.0])
    assert sim.benchmark_spec("pendulum").acceleration(
        np.array([0.9])
    ) == pytest.approx([-9.81 * math.sin(0.9)])
    assert sim.benchmark_spec("duffing").acceleration(
        np.array([0.4])
    ) == pytest.approx([-1000.0 * 0.4 - 2500.0 * 0.4**3])
    assert sim.benchmark_spec("3dof").acceleration(
        np.array([1.0, 0.0, 0.0])
    ) == pytest.approx([-2000.0, 1000.0, 0.0])


def test_benchmark_noise_gains():
    gains = {
        "harmonic": 1.0,
        "pendulum": 0.1,
        "duffing": 1.0,
    }
    for name, g in gains.items():
        spec = sim.benchmark_spec(name)
        vol = spec.volatility(spec.initial_state)
        assert np.array_equal(vol, [0.0, g])
    spec = sim.benchmark_spec("3dof")
    vol = spec.volatility(spec.initial_state)
    assert np.array_equal(vol, [0, 0, 0, 1.0, 1.0, 1.0])
    wave = sim.benchmark_spec("wave")
    vol = wave.volatility(wave.initial_state)
    assert np.all(vol[:101] == 0.0)
    assert np.all(vol[102:201] == 2.0)
    assert vol[101] == 0.0 and vol[201] == 0.0
    beam = sim.benchmark_spec("beam")
    vol = beam.volatility(beam.initial_state)
    assert vol[101] == 0.0
    assert np.all(vol[102:] == 20.0)


def test_all_benchmarks_short_ensemble_smoke():
    for name in sim.BENCHMARK_NAMES:
        spec = sim.benchmark_spec(name)
        dt = 5e-4 if name == "pendulum" else 1e-4
        ens = sim.generate_ensemble(spec, dt, 30 * dt, 2, base_seed=1)
        assert ens.displacement.shape == (2, spec.dim, 31)
        assert np.all(np.isfinite(ens.displacement))
        assert np.all(np.isfinite(ens.velocity))
        if spec.spatial is not None:
            for node in spec.spatial.constrained:
                assert np.all(ens.displacement[:, node, :] == 0.0)


# ---------------------------------------------------------------------------
# Failure handling
# ---------------------------------------------------------------------------


def test_divergence_guard_reports_step_and_realization():
    spec = sim.SystemSpec(
        name="explosive",
        kind="sde",
        dim=1,
        drift=lambda y: y**3,
        volatility=lambda y: np.zeros(np.shape(y)),
        initial_state=np.array([2.0]),
        drift_jacobian=lambda y: (3.0 * y**2)[..., None],
    )
    with pytest.raises(SimulationDivergedError) as err:
        sim.integrate_taylor15(spec, 0.5, 50, sim.NoiseStream(0))
    assert err.value.step is not None and err.value.step >= 1
    assert "realization 0" in str(err.value)


def test_divergence_guard_catches_non_finite():
    spec = sim.SystemSpec(
        name="nan-drift",
        kind="sde",
        dim=1,
        drift=lambda y: np.full(np.shape(y), np.nan),
        volatility=lambda y: np.zeros(np.shape(y)),
        initial_state=np.array([0.1]),
        drift_jacobian=lambda y: np.zeros(y.shape[:-1] + (1, 1)),
    )
    with pytest.raises(SimulationDivergedError):
        sim.integrate_taylor15(spec, 0.01, 5, sim.NoiseStream(0))


def test_generate_ensemble_validates_arguments():
    spec = sim.benchmark_spec("harmonic")
    with pytest.raises(ValueError):
        sim.generate_ensemble(spec, 0.0, 1.0, 2, base_seed=0)
    with pytest.raises(ValueError):
        sim.generate_ensemble(spec, 1e-3, 0.0, 2, base_seed=0)
    with pytest.raises(ValueError):
        sim.generate_ensemble(spec, 1e-3, 1.0, 0, base_seed=0)
    scalar = helpers.geometric_ou_spec()
    with pytest.raises(ConfigError):
        sim.generate_ensemble(scalar, 1e-3, 0.1, 2, base_seed=0)


_HARMONIC = sim.benchmark_spec("harmonic")
_WAVE = sim.benchmark_spec("wave")
_DT = 1e-3


def _increments(shape):
    return sim.integrate_taylor15_increments(
        _HARMONIC, _DT, np.zeros(shape), np.zeros(shape))


# One row per bad stepping argument and public stepper; every stepper
# reaches the same checks in sim._simulate.
FRONT_DOOR = [
    pytest.param(lambda: sim.generate_ensemble(_HARMONIC, 0.0, 0.1, 2, 0),
                 ValueError, id="ensemble-zero-dt"),
    pytest.param(lambda: sim.generate_ensemble(_HARMONIC, -_DT, 0.1, 2, 0),
                 ValueError, id="ensemble-negative-dt"),
    pytest.param(lambda: sim.generate_ensemble(_HARMONIC, _DT, 0.1, 0, 0),
                 ValueError, id="ensemble-no-realizations"),
    pytest.param(lambda: sim.generate_ensemble(_HARMONIC, _DT, _DT / 4, 2, 0),
                 ValueError, id="ensemble-zero-steps"),
    pytest.param(lambda: sim.simulate_rows(_HARMONIC, 0.0, 0.1, 2, 0, [0]),
                 ValueError, id="rows-zero-dt"),
    pytest.param(lambda: sim.simulate_rows(_HARMONIC, _DT, 0.1, 0, 0, [0]),
                 ValueError, id="rows-no-realizations"),
    pytest.param(lambda: sim.simulate_rows(_HARMONIC, _DT, _DT / 4, 2, 0, [0]),
                 ValueError, id="rows-zero-steps"),
    pytest.param(lambda: sim.simulate_field_rows(_WAVE, -1e-4, 0.01, 2, 0, [50]),
                 ValueError, id="field-rows-negative-dt"),
    pytest.param(lambda: sim.simulate_field_rows(_WAVE, 1e-4, 0.01, 0, 0, [50]),
                 ValueError, id="field-rows-no-realizations"),
    pytest.param(lambda: sim.simulate_field_rows(_WAVE, 1e-4, 2e-5, 2, 0, [50]),
                 ValueError, id="field-rows-zero-steps"),
    pytest.param(lambda: sim.simulate_field_rows(_HARMONIC, _DT, 0.1, 2, 0, [0]),
                 ConfigError, id="field-rows-particle-system"),
    pytest.param(lambda: sim.integrate_batch(_HARMONIC, 0.0, 10, 2, 0),
                 ValueError, id="batch-zero-dt"),
    pytest.param(lambda: sim.integrate_batch(_HARMONIC, _DT, 10, 0, 0),
                 ValueError, id="batch-no-realizations"),
    pytest.param(lambda: sim.integrate_batch(_HARMONIC, _DT, 0, 2, 0),
                 ValueError, id="batch-zero-steps"),
    pytest.param(lambda: sim.integrate_batch(_WAVE, 1e-4, 10, 2, 0,
                                             method="taylor15"),
                 ConfigError, id="batch-taylor-on-field"),
    pytest.param(lambda: sim.integrate_batch(_HARMONIC, _DT, 10, 2, 0,
                                             method="leapfrog"),
                 ConfigError, id="batch-unknown-method"),
    pytest.param(lambda: sim.integrate_taylor15(_HARMONIC, 0.0, 10,
                                                sim.NoiseStream(0)),
                 ValueError, id="taylor-zero-dt"),
    pytest.param(lambda: sim.integrate_taylor15(_HARMONIC, _DT, 0,
                                                sim.NoiseStream(0)),
                 ValueError, id="taylor-zero-steps"),
    pytest.param(lambda: sim.integrate_taylor15(_WAVE, 1e-4, 10,
                                                sim.NoiseStream(0)),
                 ConfigError, id="taylor-on-field"),
    pytest.param(lambda: sim.integrate_taylor15_increments(
                     _HARMONIC, 0.0, np.zeros((5, 1)), np.zeros((5, 1))),
                 ValueError, id="increments-zero-dt"),
    pytest.param(lambda: _increments((0, 5, 1)), ValueError,
                 id="increments-no-realizations"),
    pytest.param(lambda: _increments((0, 1)), ValueError,
                 id="increments-zero-steps"),
    pytest.param(lambda: sim.integrate_taylor15_increments(
                     _WAVE, 1e-4, np.zeros((5, 99)), np.zeros((5, 99))),
                 ConfigError, id="increments-on-field"),
]


@pytest.mark.parametrize("call, error", FRONT_DOOR)
def test_steppers_reject_bad_stepping_arguments(call, error):
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# Container round trips
# ---------------------------------------------------------------------------


def test_container_round_trip(tmp_path):
    spec = sim.benchmark_spec("harmonic")
    ens = sim.generate_ensemble(spec, 1e-3, 0.05, 3, base_seed=4)
    path = tmp_path / "harmonic.ens"
    sim.save_ensemble(ens, path)
    back = sim.load_ensemble(path)
    assert back.dt == ens.dt
    assert np.array_equal(back.displacement, ens.displacement)
    assert np.array_equal(back.velocity, ens.velocity)
    assert back.spatial_grid is None

    wave = sim.benchmark_spec("wave")
    ens = sim.generate_ensemble(wave, 1e-4, 0.003, 2, base_seed=4)
    path = tmp_path / "wave.ens"
    sim.save_ensemble(ens, path)
    back = sim.load_ensemble(path)
    assert np.array_equal(back.displacement, ens.displacement)
    assert np.array_equal(back.spatial_grid, wave.spatial.grid)


def test_container_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x00\x01\x02 not a container\n" + b"\x00" * 64)
    with pytest.raises(ConfigError):
        sim.load_ensemble(path)
    path = tmp_path / "wrong.bin"
    path.write_bytes(b'{"format": "other"}\n')
    with pytest.raises(ConfigError):
        sim.load_ensemble(path)


@st.composite
def _ensembles(draw):
    n_real, coords, n_steps = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                               draw(st.integers(2, 6)))
    samples = hnp.arrays(float, (n_real, coords, n_steps),
                         elements=st.floats(allow_nan=False, allow_infinity=False))
    grid = hnp.arrays(float, coords, elements=st.floats(-10.0, 10.0))
    return sim.Ensemble(
        dt=draw(st.floats(1e-9, 1e3)), n_steps=n_steps, n_real=n_real,
        coords=coords, displacement=draw(samples), velocity=draw(samples),
        spatial_grid=draw(st.none() | grid),
    )


@given(_ensembles())
def test_container_round_trip_property(tmp_path_factory, ens):
    path = tmp_path_factory.mktemp("container") / "ens.bin"
    sim.save_ensemble(ens, path)
    back = sim.load_ensemble(path)
    assert (back.dt, back.n_real, back.coords, back.n_steps) == (
        ens.dt, ens.n_real, ens.coords, ens.n_steps)
    assert np.array_equal(back.displacement, ens.displacement)
    assert np.array_equal(back.velocity, ens.velocity)
    if ens.spatial_grid is None:
        assert back.spatial_grid is None
    else:
        assert np.array_equal(back.spatial_grid, ens.spatial_grid)


@given(_ensembles(), st.data())
def test_truncated_container_is_rejected(tmp_path_factory, ens, data):
    path = tmp_path_factory.mktemp("container") / "ens.bin"
    sim.save_ensemble(ens, path)
    full = path.read_bytes()
    cut = data.draw(st.integers(1, len(full)), label="bytes cut")
    path.write_bytes(full[:-cut])
    with pytest.raises(ConfigError):
        sim.load_ensemble(path)
