"""Oracle tests for the finite-difference kernels.

Expected values come from symbolic differentiation of the test functions
(polynomials, sin) and from the classic uniform-grid stencil tables; the
convergence orders are checked empirically against the declared ones.
"""

import numpy as np
import pytest

from helpers import fitted_order
from lagdyn.numdiff import (
    DECLARED_ORDERS,
    central_first_derivative,
    central_second_derivative,
    forward_first_derivative,
)


class TestCentralFirstDerivative:
    def test_quadratic_exact_everywhere(self):
        t = np.linspace(0.0, 1.0, 11)
        got = central_first_derivative(t**2, 0.1)
        assert np.allclose(got, 2.0 * t, atol=1e-12)

    def test_linear_ramp_constant_slope(self):
        t = np.arange(7) * 0.25
        got = central_first_derivative(3.0 * t - 1.0, 0.25)
        assert np.allclose(got, 3.0, atol=1e-13)

    def test_sin_convergence_order(self):
        steps, errors = [], []
        for n in (64, 128, 256, 512):
            dt = 2.0 * np.pi / n
            t = np.arange(n + 1) * dt
            err = np.abs(central_first_derivative(np.sin(t), dt) - np.cos(t))
            steps.append(dt)
            errors.append(err[1:-1].max())
        order = fitted_order(steps, errors)
        assert 1.9 <= order <= 2.1

    def test_linearity(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=20)
        g = rng.normal(size=20)
        lhs = central_first_derivative(2.0 * f - 0.5 * g, 0.1)
        rhs = 2.0 * central_first_derivative(f, 0.1) - 0.5 * central_first_derivative(
            g, 0.1
        )
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_batched_last_axis(self):
        t = np.linspace(0.0, 1.0, 9)
        batch = np.stack([t**2, 2.0 * t])
        got = central_first_derivative(batch, t[1] - t[0])
        assert np.allclose(got[0], 2.0 * t, atol=1e-12)
        assert np.allclose(got[1], 2.0, atol=1e-12)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            central_first_derivative(np.zeros(2), 0.1)

    def test_bad_step_raises(self):
        with pytest.raises(ValueError):
            central_first_derivative(np.zeros(5), 0.0)


class TestForwardFirstDerivative:
    def test_linear_exact(self):
        t = np.arange(6) * 0.2
        got = forward_first_derivative(5.0 * t, 0.2)
        assert np.allclose(got, 5.0, atol=1e-12)

    def test_sin_convergence_order(self):
        steps, errors = [], []
        for n in (64, 128, 256, 512):
            dt = 2.0 * np.pi / n
            t = np.arange(n + 1) * dt
            err = np.abs(forward_first_derivative(np.sin(t), dt) - np.cos(t))
            steps.append(dt)
            errors.append(err[:-1].max())
        order = fitted_order(steps, errors)
        assert 0.85 <= order <= 1.15

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            forward_first_derivative(np.zeros(1), 0.1)


class TestCentralSecondDerivative:
    def test_quadratic_exact(self):
        t = np.arange(0.0, 1.05, 0.1)
        got = central_second_derivative(t**2, 0.1)
        assert np.allclose(got, 2.0, atol=1e-10)

    def test_sin_error_quarters_when_step_halves(self):
        errs = []
        for n in (100, 200):
            dt = 2.0 * np.pi / n
            t = np.arange(n + 1) * dt
            err = np.abs(central_second_derivative(np.sin(t), dt) + np.sin(t))
            errs.append(err[1:-1].max())
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_constant_is_zero(self):
        got = central_second_derivative(np.full(8, 3.7), 0.05)
        assert np.allclose(got, 0.0, atol=1e-10)

    def test_three_samples_supported(self):
        got = central_second_derivative(np.array([0.0, 1.0, 4.0]), 1.0)
        assert np.allclose(got, 2.0, atol=1e-12)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            central_second_derivative(np.zeros(2), 0.1)


class TestDeclaredOrders:
    def test_time_stencils_achieve_declared_orders(self):
        measured = {}
        for name, fn in (
            ("central_first_derivative", central_first_derivative),
            ("forward_first_derivative", forward_first_derivative),
        ):
            steps, errors = [], []
            for n in (64, 128, 256, 512):
                dt = 2.0 * np.pi / n
                t = np.arange(n + 1) * dt
                err = np.abs(fn(np.sin(t), dt) - np.cos(t))
                steps.append(dt)
                errors.append(err[1:-1].max())
            measured[name] = fitted_order(steps, errors)
        steps, errors = [], []
        for n in (64, 128, 256, 512):
            dt = 2.0 * np.pi / n
            t = np.arange(n + 1) * dt
            err = np.abs(central_second_derivative(np.sin(t), dt) + np.sin(t))
            steps.append(dt)
            errors.append(err[1:-1].max())
        measured["central_second_derivative"] = fitted_order(steps, errors)
        for name, order in measured.items():
            assert abs(order - DECLARED_ORDERS[name]) <= 0.15, name
