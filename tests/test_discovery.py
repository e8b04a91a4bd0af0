"""Tests for Lagrangian, diffusion, equation-of-motion, and Hamiltonian discovery."""

import json

import numpy as np
import pytest

import helpers
from lagdyn import bench
from lagdyn import discovery as dv
from lagdyn import library as lb
from lagdyn import regression, sim
from lagdyn.errors import (ConfigError, LagdynError, RegressionError,
                           UnsupportedFormError)


@pytest.fixture(scope="module")
def quiet_harmonic_run():
    spec = helpers.silence(sim.benchmark_spec("harmonic"))
    ens = sim.generate_ensemble(spec, dt=1e-4, t_f=1.0, n_real=3, base_seed=5)
    libs = lb.build_lagrangian_library("harmonic", 1)
    model = dv.discover_lagrangian(ens, libs, 100.0, rcond=1e-8)
    glib = lb.build_diffusion_library("harmonic", 1)
    diff = dv.discover_diffusion(ens, model, glib, 0.3, rcond=1e-4)
    return ens, model, diff


@pytest.fixture(scope="module")
def harmonic_run():
    ens = sim.generate_ensemble(
        sim.benchmark_spec("harmonic"), dt=1e-4, t_f=1.0, n_real=200,
        base_seed=1234,
    )
    libs = lb.build_lagrangian_library("harmonic", 1)
    model = dv.discover_lagrangian(ens, libs, 100.0, rcond=1e-8)
    glib = lb.build_diffusion_library("harmonic", 1)
    diff = dv.discover_diffusion(ens, model, glib, 0.3, rcond=1e-4)
    return ens, model, diff


@pytest.fixture(scope="module")
def pendulum_run():
    ens = sim.generate_ensemble(
        sim.benchmark_spec("pendulum"), dt=5e-4, t_f=5.0, n_real=200,
        base_seed=1234,
    )
    libs = lb.build_lagrangian_library("pendulum", 1)
    model = dv.discover_lagrangian(ens, libs, 0.8, rcond=1e-4)
    glib = lb.build_diffusion_library("pendulum", 1)
    diff = dv.discover_diffusion(ens, model, glib, 0.003, rcond=1e-4)
    return ens, model, diff


@pytest.fixture(scope="module")
def duffing_run():
    ens = sim.generate_ensemble(
        sim.benchmark_spec("duffing"), dt=1e-4, t_f=1.0, n_real=200,
        base_seed=1234,
    )
    libs = lb.build_lagrangian_library("duffing", 1)
    model = dv.discover_lagrangian(ens, libs, 150.0, rcond=1e-8)
    glib = lb.build_diffusion_library("duffing", 1)
    diff = dv.discover_diffusion(ens, model, glib, 0.3, rcond=1e-4)
    return ens, model, diff


@pytest.fixture(scope="module")
def threedof_run():
    ens = sim.generate_ensemble(
        sim.benchmark_spec("3dof"), dt=1e-4, t_f=1.0, n_real=200,
        base_seed=1234,
    )
    libs = lb.build_lagrangian_library("3dof", 3)
    model = dv.discover_lagrangian(ens, libs, 100.0, rcond=1e-8)
    glib = lb.build_diffusion_library("3dof", 3)
    diff = dv.discover_diffusion(ens, model, glib, 0.3, rcond=1e-4)
    return ens, model, diff


class TestExpressionFormatting:
    def test_signs_and_kinetic(self):
        text = dv.format_terms(("0.5*Xd^2",), {"X^2": -500.0})
        assert text == "0.5*Xd^2 - 500.0*X^2"

    def test_multiple_kinetic_labels_join_with_plus(self):
        text = dv.format_terms(("0.5*v0^2", "0.5*v1^2"), {"X1^2": -500.0})
        assert text == "0.5*v0^2 + 0.5*v1^2 - 500.0*X1^2"

    def test_empty_is_zero(self):
        assert dv.format_terms((), {}) == "0"


class TestLagrangianDiscovery:
    def test_quiet_support_and_coefficient(self, quiet_harmonic_run):
        # Noiseless data: the only surviving term is the true quadratic and
        # its coefficient is limited by the time stencil bias alone.
        _, model, _ = quiet_harmonic_run
        terms = model.particles[0].terms
        assert set(terms) == {"X^2"}
        assert terms["X^2"] == pytest.approx(-500.0, rel=1e-3)

    def test_harmonic_support_and_coefficient(self, harmonic_run):
        _, model, _ = harmonic_run
        terms = model.particles[0].terms
        assert set(terms) == {"X^2"}
        assert terms["X^2"] == pytest.approx(-500.0, rel=0.01)

    def test_pendulum_support_and_coefficient(self, pendulum_run):
        _, model, _ = pendulum_run
        terms = model.particles[0].terms
        assert set(terms) == {"cos(X)"}
        assert terms["cos(X)"] == pytest.approx(9.81, rel=0.01)

    def test_duffing_support_and_coefficients(self, duffing_run):
        _, model, _ = duffing_run
        terms = model.particles[0].terms
        assert set(terms) == {"X^2", "X^4"}
        assert -2.0 * terms["X^2"] == pytest.approx(1000.0, rel=0.01)
        assert -4.0 * terms["X^4"] == pytest.approx(2500.0, rel=0.01)

    def test_threedof_supports_and_coefficients(self, threedof_run):
        _, model, _ = threedof_run
        wanted = [
            {"X1^2", "(X2-X1)^2"},
            {"(X2-X1)^2", "(X3-X2)^2"},
            {"(X3-X2)^2"},
        ]
        for particle, want in zip(model.particles, wanted):
            assert set(particle.terms) == want
            for coeff in particle.terms.values():
                assert coeff == pytest.approx(-500.0, rel=0.005)

    def test_threedof_total_merges_shared_labels_by_mean(self, threedof_run):
        _, model, _ = threedof_run
        twice = [
            p.terms["(X2-X1)^2"]
            for p in model.particles
            if "(X2-X1)^2" in p.terms
        ]
        assert len(twice) == 2
        assert model.total["(X2-X1)^2"] == pytest.approx(
            sum(twice) / 2.0, abs=1e-12
        )

    def test_model_json_is_sorted_and_loadable(self, harmonic_run):
        _, model, _ = harmonic_run
        payload = json.loads(model.to_json())
        assert payload["total"] == model.total
        assert model.to_json() == json.dumps(payload, sort_keys=True)


class TestDiffusionDiscovery:
    def test_quiet_data_retains_nothing(self, quiet_harmonic_run):
        _, _, diff = quiet_harmonic_run
        assert diff.all_zero
        assert np.all(diff.gains == 0.0)

    def test_harmonic_gain(self, harmonic_run):
        _, _, diff = harmonic_run
        eq = diff.equations[0]
        assert eq.active_labels == ("X^2",)
        assert eq.gain == pytest.approx(1.0, rel=0.01)

    def test_pendulum_gain(self, pendulum_run):
        _, _, diff = pendulum_run
        eq = diff.equations[0]
        assert eq.active_labels == ("X^2",)
        assert eq.gain == pytest.approx(0.1, rel=0.02)

    def test_duffing_gain(self, duffing_run):
        _, _, diff = duffing_run
        eq = diff.equations[0]
        assert eq.active_labels == ("X^2",)
        assert eq.gain == pytest.approx(1.0, rel=0.01)

    def test_threedof_gains(self, threedof_run):
        _, _, diff = threedof_run
        for eq, want in zip(diff.equations, ("X1^2", "X2^2", "X3^2")):
            assert eq.active_labels == (want,)
            assert eq.gain == pytest.approx(1.0, rel=0.01)

    def test_loose_cutoff_retains_unrootable_terms(self, duffing_run):
        # Without the singular-value cutoff the near-duplicate candidate
        # pairs inflate past any workable threshold and the retained set
        # stops being a pure squared displacement.
        ens, model, _ = duffing_run
        glib = lb.build_diffusion_library("duffing", 1)
        with pytest.raises(UnsupportedFormError):
            dv.discover_diffusion(ens, model, glib, 0.3, rcond=None)

    def test_misaligned_library_rejected(self, harmonic_run):
        ens, model, _ = harmonic_run
        with pytest.raises(ConfigError):
            dv.discover_diffusion(ens, model, [], 0.3)


class TestEquationsOfMotion:
    def test_harmonic_truth_table(self):
        libs = lb.build_lagrangian_library("harmonic", 1)
        model = dv.LagrangianModel.from_terms(libs, [{"X^2": -500.0}])
        eom = dv.derive_equations_of_motion(model)
        assert eom.expression == "Xdd + 1000.0*X = 0.0*Wd"
        assert eom.parameters(0) == {"X": 1000.0, "gain": 0.0}

    def test_pendulum_truth_table(self):
        libs = lb.build_lagrangian_library("pendulum", 1)
        model = dv.LagrangianModel.from_terms(libs, [{"cos(X)": 9.81}])
        eom = dv.derive_equations_of_motion(model)
        assert eom.expression == "Xdd + 9.81*sin(X) = 0.0*Wd"
        u = np.array([[0.3]])
        v = np.zeros((1, 1))
        accel = eom.acceleration_series(u, v)
        assert accel[0, 0] == pytest.approx(-9.81 * np.sin(0.3), abs=1e-12)

    def test_duffing_truth_table(self):
        libs = lb.build_lagrangian_library("duffing", 1)
        model = dv.LagrangianModel.from_terms(
            libs, [{"X^2": -500.0, "X^4": -625.0}]
        )
        eom = dv.derive_equations_of_motion(model)
        assert eom.expression == "Xdd + 1000.0*X + 2500.0*X^3 = 0.0*Wd"
        u = np.array([[0.3]])
        accel = eom.acceleration_series(u, np.zeros((1, 1)))
        assert accel[0, 0] == pytest.approx(-1000.0 * 0.3 - 2500.0 * 0.027,
                                            abs=1e-10)

    def test_threedof_truth_table(self):
        libs = lb.build_lagrangian_library("3dof", 3)
        model = dv.LagrangianModel.from_terms(libs, [
            {"X1^2": -500.0, "(X2-X1)^2": -500.0},
            {"(X2-X1)^2": -500.0, "(X3-X2)^2": -500.0},
            {"(X3-X2)^2": -500.0},
        ])
        eom = dv.derive_equations_of_motion(model)
        u = np.array([[0.1], [0.25], [-0.2]])
        accel = eom.acceleration_series(u, np.zeros((3, 1)))
        stiffness = 1000.0 * np.array(
            [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
        )
        assert np.allclose(accel.ravel(), -stiffness @ u.ravel(), atol=1e-9)

    def test_wave_truth_table(self):
        libs = lb.build_lagrangian_library("wave", 101)
        model = dv.LagrangianModel.from_terms([libs[49]], [{"ux50^2": -2.0}])
        eom = dv.derive_equations_of_motion(model)
        assert eom.expression == "u50dd - 4.0*uxx = 0.0*Wd"
        # Pointwise drift: +c^2 times the central Laplacian at the node.
        u = np.zeros((101, 3))
        u[49], u[50], u[51] = 0.2, 0.5, 0.1
        accel = eom.acceleration_series(u, np.zeros((101, 3)), dx=0.01)
        lap = (0.2 - 2.0 * 0.5 + 0.1) / 0.01**2
        assert accel[0, 0] == pytest.approx(4.0 * lap, rel=1e-12)

    def test_beam_truth_table(self):
        libs = lb.build_lagrangian_library("beam", 101)
        model = dv.LagrangianModel.from_terms(
            [libs[49]], [{"uxx50^2": -0.05175}]
        )
        eom = dv.derive_equations_of_motion(model)
        assert eom.expression == "u50dd + 0.1035*uxxxx = 0.0*Wd"
        assert eom.parameters(0) == {"uxxxx": 0.1035, "gain": 0.0}
        with pytest.raises(UnsupportedFormError):
            eom.acceleration_series(np.zeros((101, 2)), np.zeros((101, 2)),
                                    dx=0.01)

    def test_discovered_threedof_acceleration(self, threedof_run):
        _, model, diff = threedof_run
        eom = dv.derive_equations_of_motion(model, diff)
        u = np.array([[0.2], [-0.1], [0.4]])
        accel = eom.acceleration_series(u, np.zeros((3, 1)))
        stiffness = 1000.0 * np.array(
            [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
        )
        truth = -stiffness @ u.ravel()
        assert np.allclose(accel.ravel(), truth, rtol=0.02, atol=0.5)
        assert np.allclose(eom.gains, 1.0, rtol=0.01)

    def test_json_loadable(self, harmonic_run):
        _, model, diff = harmonic_run
        eom = dv.derive_equations_of_motion(model, diff)
        payload = json.loads(eom.to_json())
        assert payload["equations"][0]["coordinate"] == "X"


class TestHamiltonian:
    def test_harmonic_truth_table(self):
        libs = lb.build_lagrangian_library("harmonic", 1)
        model = dv.LagrangianModel.from_terms(libs, [{"X^2": -500.0}])
        ham = dv.legendre_transform(model)
        assert ham.expression == "H = 0.5*v0^2 + 500.0*X^2"
        value = ham.evaluate(np.array([[0.3]]), np.array([[2.0]]))
        assert value[0] == pytest.approx(0.5 * 4.0 + 500.0 * 0.09, abs=1e-12)

    def test_transform_is_an_involution(self):
        libs = lb.build_lagrangian_library("duffing", 1)
        model = dv.LagrangianModel.from_terms(
            libs, [{"X^2": -500.0, "X^4": -625.0}]
        )
        ham = dv.legendre_transform(model)
        assert ham.terms == {"X^2": 500.0, "X^4": 625.0}

    def test_threedof_kinetic_block_formatting(self):
        libs = lb.build_lagrangian_library("3dof", 3)
        model = dv.LagrangianModel.from_terms(libs, [
            {"X1^2": -500.0}, {}, {},
        ])
        ham = dv.legendre_transform(model)
        assert ham.expression == (
            "H = 0.5*v0^2 + 0.5*v1^2 + 0.5*v2^2 + 500.0*X1^2"
        )

    def test_velocity_cubic_rejected(self):
        libs = lb.build_lagrangian_library("harmonic", 1)
        model = dv.LagrangianModel.from_terms(libs, [{"Xd^3": 0.2}])
        with pytest.raises(UnsupportedFormError):
            dv.legendre_transform(model)

    def test_velocity_trig_rejected(self):
        libs = lb.build_lagrangian_library("harmonic", 1)
        model = dv.LagrangianModel.from_terms(libs, [{"sin(Xd)": 0.5}])
        with pytest.raises(UnsupportedFormError):
            dv.legendre_transform(model)


class TestRelativeError:
    def test_exact_match_is_zero(self):
        params = {"a": 2.0, "b": -1.0}
        assert dv.relative_error(params, dict(params)) == 0.0

    def test_two_norm_arithmetic(self):
        true = {"k": 1000.0, "gain": 1.0}
        found = {"k": 1000.12, "gain": 1.03}
        want = 100.0 * np.hypot(0.12, 0.03) / np.hypot(1000.0, 1.0)
        assert dv.relative_error(true, found) == pytest.approx(want, rel=1e-12)

    def test_union_of_keys(self):
        # A missing discovered term counts as zero; an extra one counts
        # fully against the estimate.
        true = {"a": 3.0, "b": 4.0}
        found = {"a": 3.0, "c": 12.0}
        assert dv.relative_error(true, found) == pytest.approx(
            100.0 * np.sqrt(4.0**2 + 12.0**2) / 5.0, rel=1e-12
        )

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            dv.relative_error({"a": 0.0}, {"a": 1.0})


class TestSelfConsistency:
    def test_harmonic_round_trip(self, harmonic_run):
        # Simulate the discovered system and rediscover: coefficients and
        # gain must land near the first-pass values.
        _, model, diff = harmonic_run
        k_hat = -2.0 * model.particles[0].terms["X^2"]
        g_hat = float(diff.gains[0])

        def accel(u):
            return -k_hat * u

        def accel_jac(u):
            jac = np.zeros(u.shape[:-1] + (1, 1))
            jac[..., 0, 0] = -k_hat
            return jac

        spec = sim.second_order_spec(
            "rediscovered-harmonic", accel, np.array([g_hat]),
            np.array([0.5, 0.0]), {}, accel_jac,
        )
        ens = sim.generate_ensemble(spec, dt=1e-4, t_f=1.0, n_real=200,
                                    base_seed=999)
        libs = lb.build_lagrangian_library("harmonic", 1)
        again = dv.discover_lagrangian(ens, libs, 100.0, rcond=1e-8)
        terms = again.particles[0].terms
        assert set(terms) == {"X^2"}
        assert terms["X^2"] == pytest.approx(-k_hat / 2.0, rel=0.005)
        glib = lb.build_diffusion_library("harmonic", 1)
        diff2 = dv.discover_diffusion(ens, again, glib, 0.3, rcond=1e-4)
        assert diff2.equations[0].active_labels == ("X^2",)
        assert diff2.equations[0].gain == pytest.approx(g_hat, rel=0.02)


@pytest.mark.parametrize("name, n_real, t_f", [
    ("wave", 3, 0.02), ("beam", 2, 0.02), ("3dof", 3, 0.01),
    ("harmonic", 3, 0.05),
])
def test_diffusion_features_are_the_live_dense_columns(name, n_real, t_f,
                                                       monkeypatch):
    # Every probe (fields) or coordinate (discrete systems), on a training
    # record: the features that reach stls are bitwise the dense
    # reference's nonzero-capable columns in library order, every column
    # left out is exactly zero, and the fit keeps the same labels with the
    # same coefficients (so the same gains, or the same error).
    spec = sim.benchmark_spec(name)
    config = bench.DEFAULT_CONFIGS[name]
    dt = bench.training_protocol(spec, config)[0]
    libs, glibs = bench.discovery_libraries(name, spec, config)
    rows = dv.training_rows(libs, glibs, spec.dim)
    ens = sim.generate_ensemble(spec, dt, t_f, n_real, base_seed=17,
                                rows=rows)
    lag = bench.true_models(name, spec, config)[0]
    calls = []

    def recording_stls(A, b, threshold, rcond=None):
        model = regression.stls(A, b, threshold, rcond=rcond)
        calls.append((A, b, model))
        return model

    monkeypatch.setattr(dv, "stls", recording_stls)
    for lam in (config.lambda_diffusion, 1e9):
        calls.clear()
        try:
            outcome = dv.discover_diffusion(ens, lag, glibs, lam,
                                            rcond=config.rcond_diffusion)
        except LagdynError as exc:
            outcome = exc
        fitted = []
        for lib, (A, b, model) in zip(glibs, calls):
            dense, live = helpers.dense_diffusion_features(lib, ens)
            assert A.tobytes() == dense[:, live].tobytes()
            dropped = sorted(set(range(lib.size)) - set(live))
            assert np.all(dense[:, dropped] == 0.0)
            reference = regression.stls(dense, b, lam,
                                        rcond=config.rcond_diffusion)
            assert [live[j] for j in model.active_set] == reference.active_set
            assert (model.coefficients[model.active_set].tobytes()
                    == reference.coefficients[reference.active_set].tobytes())
            fitted.append((lib, reference))
        # The reference outcome of the last fit: the error the dense fit
        # raises, or every coordinate's labels and squared gain.
        lib, reference = fitted[-1]
        own = lib.bases.index(next(
            b for b in lib.bases if b.form == "monomial" and b.degree == 2
            and not b.on_velocity and b.coords == (lib.target_coord,)))
        bad = [lib.labels[j] for j in reference.active_set if j != own]
        if bad:
            assert isinstance(outcome, UnsupportedFormError)
            assert str(outcome).endswith(str(bad))
            continue
        if reference.active_set and reference.coefficients[own] < 0.0:
            assert isinstance(outcome, RegressionError)
            continue
        assert len(fitted) == len(outcome.equations)
        for eq, (lib, reference) in zip(outcome.equations, fitted):
            assert eq.active_labels == tuple(
                lib.labels[j] for j in reference.active_set)
            beta = reference.coefficients[reference.active_set]
            assert eq.beta == (float(beta[-1]) if beta.size else 0.0)


class TestFieldDiscovery:
    def test_wave_node_pipeline(self):
        ens = sim.generate_ensemble(
            sim.benchmark_spec("wave"), dt=1e-4, t_f=1.0, n_real=30,
            base_seed=1234,
        )
        libs = lb.build_lagrangian_library("wave", 101)
        glibs = lb.build_diffusion_library("wave", 101)
        model = dv.discover_lagrangian(ens, [libs[49]], 1.0, rcond=1e-4)
        terms = model.particles[0].terms
        assert set(terms) == {"ux50^2"}
        assert terms["ux50^2"] == pytest.approx(-2.0, rel=0.01)
        diff = dv.discover_diffusion(ens, model, [glibs[49]], 0.5,
                                     rcond=1e-4)
        assert diff.equations[0].active_labels == ("u50^2",)
        assert diff.equations[0].gain == pytest.approx(2.0, rel=0.01)

    def test_beam_node_pipeline(self):
        ens = sim.generate_ensemble(
            sim.benchmark_spec("beam"), dt=1e-4, t_f=2.0, n_real=20,
            base_seed=1234,
        )
        libs = lb.build_lagrangian_library("beam", 101)
        glibs = lb.build_diffusion_library("beam", 101)
        model = dv.discover_lagrangian(ens, [libs[49]], 0.02, rcond=1e-4)
        terms = model.particles[0].terms
        assert set(terms) == {"uxx50^2"}
        assert terms["uxx50^2"] == pytest.approx(-0.05175, rel=0.01)
        diff = dv.discover_diffusion(ens, model, [glibs[49]], 100.0,
                                     rcond=1e-3)
        assert diff.equations[0].active_labels == ("u50^2",)
        assert diff.equations[0].gain == pytest.approx(20.0, rel=0.01)
