"""Shared oracle helpers for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np

from lagdyn import bench, sim
from lagdyn.errors import SimulationDivergedError

# Acceptance criterion 2: the exact Lagrangian and diffusion supports of
# each benchmark at its default configuration.
CRITERION_2_SUPPORTS = {
    "harmonic": [["X^2"]],
    "pendulum": [["cos(X)"]],
    "duffing": [["X^2", "X^4"]],
    "3dof": [["(X2-X1)^2", "X1^2"],
             ["(X2-X1)^2", "(X3-X2)^2"],
             ["(X3-X2)^2"]],
    "wave": [[f"ux{n}^2"] for n in bench.FIELD_PROBE_NODES],
    "beam": [[f"uxx{n}^2"] for n in bench.FIELD_PROBE_NODES],
}
CRITERION_2_DIFFUSION = {
    "harmonic": [["X^2"]],
    "pendulum": [["X^2"]],
    "duffing": [["X^2"]],
    "3dof": [["X1^2"], ["X2^2"], ["X3^2"]],
    "wave": [[f"u{n}^2"] for n in bench.FIELD_PROBE_NODES],
    "beam": [[f"u{n}^2"] for n in bench.FIELD_PROBE_NODES],
}


def fitted_order(steps, errors) -> float:
    """Least-squares slope of log(error) against log(step)."""
    steps = np.asarray(steps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0])


def silence(spec: sim.SystemSpec) -> sim.SystemSpec:
    """Copy of a system spec with all noise gains set to zero."""
    return dataclasses.replace(
        spec, volatility=lambda y: np.zeros(np.shape(y))
    )


def geometric_ou_spec() -> sim.SystemSpec:
    """dX = -X dt + X dW: multiplicative noise, exactly solvable.

    X(t) = X(0) exp(-1.5 t + W(t)), so the endpoint depends on the driving
    path only through W(t_final). Euler-Maruyama has strong order 0.5 here.
    """
    return sim.SystemSpec(
        name="geometric-ou",
        kind="sde",
        dim=1,
        drift=lambda y: -y,
        volatility=lambda y: y,
        initial_state=np.array([1.0]),
    )


def em_geometric_strong_errors(dts, t_final, n_real, base_seed) -> np.ndarray:
    """Endpoint RMS strong error of Euler-Maruyama on the geometric system.

    The exact endpoint is evaluated on the same Wiener path the scheme
    consumed, reconstructed from the per-realization seed.
    """
    spec = geometric_ou_spec()
    errs = []
    for dt in dts:
        n = int(round(t_final / dt))
        states = sim.integrate_batch(
            spec, dt, n, n_real, base_seed, method="euler"
        )
        end = states[:, 0, -1]
        w_final = np.empty(n_real)
        for k in range(n_real):
            xi = sim.NoiseStream(
                sim.derived_seed(base_seed, k)
            ).standard_normals((n, 1))
            w_final[k] = np.sqrt(dt) * xi.sum()
        exact = np.exp(-1.5 * t_final + w_final)
        errs.append(float(np.sqrt(np.mean((end - exact) ** 2))))
    return np.array(errs)


def cubic_additive_spec() -> sim.SystemSpec:
    """dX = -4 X^3 dt + dW: additive noise with curved drift.

    The drift's second derivative is nonzero, so the strong Taylor 1.5
    scheme converges at genuine order 1.5 (no superconvergence).
    """

    def drift(y):
        return -4.0 * y**3

    def jacobian(y):
        return (-12.0 * y**2)[..., None]

    def curvature(y):
        return -24.0 * y

    return sim.SystemSpec(
        name="cubic-additive",
        kind="sde",
        dim=1,
        drift=drift,
        volatility=lambda y: np.ones(np.shape(y)),
        initial_state=np.array([1.0]),
        drift_jacobian=jacobian,
        noise_curvature=curvature,
    )


def taylor_cubic_strong_errors(
    coarse_counts, fine_steps, t_final, n_real, base_seed
) -> np.ndarray:
    """Endpoint RMS strong error of the Taylor scheme on the cubic system.

    A pathwise reference X = Y + W with Y' = -4 (Y + W)^3 is solved with
    Heun's method on a fine grid; the coarse scheme consumes Wiener
    increments and integrated deviations aggregated from the same fine
    path, so the comparison is path-coupled.

    Args:
        coarse_counts: Coarse step counts; each must divide fine_steps.
        fine_steps: Fine-grid step count for the reference.
        t_final: Endpoint time.
        n_real: Number of realizations.
        base_seed: Noise seed.

    Returns:
        RMS endpoint errors, one per coarse count.
    """
    spec = cubic_additive_spec()
    x0 = float(spec.initial_state[0])
    hf = t_final / fine_steps
    dw_fine = np.sqrt(hf) * sim.NoiseStream(base_seed).standard_normals(
        (n_real, fine_steps)
    )
    w = np.concatenate(
        [np.zeros((n_real, 1)), np.cumsum(dw_fine, axis=1)], axis=1
    )

    y = np.full(n_real, x0)
    for j in range(fine_steps):
        f1 = -4.0 * (y + w[:, j]) ** 3
        f2 = -4.0 * (y + hf * f1 + w[:, j + 1]) ** 3
        y = y + 0.5 * hf * (f1 + f2)
    x_ref = y + w[:, -1]

    errs = []
    for n_coarse in coarse_counts:
        if fine_steps % n_coarse:
            raise ValueError("coarse counts must divide fine_steps")
        m = fine_steps // n_coarse
        h = t_final / n_coarse
        starts = w[:, 0:fine_steps:m]
        ends = w[:, m::m]
        inner = w[:, :fine_steps].reshape(n_real, n_coarse, m)
        # trapezoid of (W - W_start) over each coarse block
        sums = inner.sum(axis=2) - inner[:, :, 0]
        dz = hf * (sums - (m - 1) * starts + 0.5 * (ends - starts))
        dw = ends - starts
        states = sim.integrate_taylor15_increments(
            spec, h, dw[:, :, None], dz[:, :, None]
        )
        errs.append(float(np.sqrt(np.mean((states[:, 0, -1] - x_ref) ** 2))))
    return np.array(errs)


def ou_additive_spec(theta: float) -> sim.SystemSpec:
    """dX = -theta X dt + dW: linear drift, additive unit noise."""

    def jacobian(y):
        return np.broadcast_to(np.array([[-theta]]), y.shape[:-1] + (1, 1))

    return sim.SystemSpec(
        name="ou-additive",
        kind="sde",
        dim=1,
        drift=lambda y: -theta * y,
        volatility=lambda y: np.ones(np.shape(y)),
        initial_state=np.array([1.0]),
        drift_jacobian=jacobian,
    )


def ou_conditional_strong_errors(
    dts, t_final, theta, n_real, base_seed
) -> np.ndarray:
    """Endpoint RMS error of the Taylor scheme against an exact oracle.

    The oracle advances the exact transition conditioned on the same
    (dW, dZ) pair the scheme consumed each step, drawing the conditional
    remainder (variance O(h^5) per step) from an independent stream. On
    this linear system the scheme's h^1.5 error term vanishes, so the
    measured slope exceeds 1.5 (about 2).
    """
    spec = ou_additive_spec(theta)
    errs = []
    for dt in dts:
        n = int(round(t_final / dt))
        states = sim.integrate_batch(
            spec, dt, n, n_real, base_seed, method="taylor15"
        )
        end = states[:, 0, -1]

        xi = np.empty((n_real, n, 2))
        for k in range(n_real):
            draws = sim.NoiseStream(
                sim.derived_seed(base_seed, k)
            ).standard_normals((n, 1, 2))
            xi[k] = draws[:, 0, :]
        dw, dz = sim.increments_from_normals(dt, xi)

        h = dt
        decay = np.exp(-theta * h)
        c1 = (1.0 - decay) / theta
        c2 = (1.0 - decay * (1.0 + theta * h)) / theta**2
        k1 = 4.0 * c1 / h - 6.0 * c2 / h**2
        k2 = -6.0 * c1 / h**2 + 12.0 * c2 / h**3
        var_i = (1.0 - decay**2) / (2.0 * theta)
        resid_var = max(var_i - k1 * c1 - k2 * c2, 0.0)
        resid_sd = np.sqrt(resid_var)
        xi3 = sim.NoiseStream(
            sim.derived_seed(base_seed + 987654321, 0)
        ).standard_normals((n_real, n))

        x = np.full(n_real, float(spec.initial_state[0]))
        for i in range(n):
            x = x * decay + k1 * dw[:, i] + k2 * dz[:, i] + resid_sd * xi3[:, i]
        errs.append(float(np.sqrt(np.mean((end - x) ** 2))))
    return np.array(errs)


# ---------------------------------------------------------------------------
# Reference steppers: one step at a time on one-shot noise draws
# ---------------------------------------------------------------------------


def one_shot_normals(base_seed: int, n_real: int, shape) -> np.ndarray:
    """Whole-horizon standard normals of each realization, (n_real, *shape)."""
    normals = np.empty((n_real,) + tuple(shape))
    for k in range(n_real):
        stream = sim.NoiseStream(sim.derived_seed(base_seed, k))
        normals[k] = stream.standard_normals(shape)
    return normals


def _reference_check(states, step, blow_up):
    worst = np.abs(states).max(axis=tuple(range(1, states.ndim)))
    bad = ~np.isfinite(worst) | (worst > blow_up)
    if bad.any():
        raise SimulationDivergedError(
            f"trajectory diverged at step {step}", step=step)


def reference_kick_drift(spec, dt, n_steps, normals,
                         blow_up=sim.BLOW_UP_BOUND) -> np.ndarray:
    """Kick-drift field stepper; normals (B, n_steps, n_noise).

    Returns the full state (B, 2n, n_steps + 1).
    """
    n = spec.dim
    y0 = np.asarray(spec.initial_state, dtype=float)
    g0 = np.asarray(spec.volatility(y0))
    noise_idx = np.flatnonzero(g0 != 0.0)
    gains = g0[n:]
    v_noise_idx = noise_idx - n
    batch = normals.shape[0]
    constrained = list(spec.spatial.constrained)
    out = np.empty((batch, 2 * n, n_steps + 1))
    u = np.broadcast_to(y0[:n], (batch, n)).copy()
    v = np.broadcast_to(y0[n:], (batch, n)).copy()
    u[:, constrained] = 0.0
    v[:, constrained] = 0.0
    out[:, :n, 0] = u
    out[:, n:, 0] = v
    sqdt = np.sqrt(dt)
    dw = np.zeros((batch, n))
    for i in range(n_steps):
        dw[:, v_noise_idx] = sqdt * normals[:, i, :]
        v = v + dt * spec.acceleration(u) + gains * dw
        v[:, constrained] = 0.0
        u = u + dt * v
        u[:, constrained] = 0.0
        _reference_check(u, i + 1, blow_up)
        out[:, :n, i + 1] = u
        out[:, n:, i + 1] = v
    return out


def reference_taylor15(spec, dt, n_steps, normals,
                       blow_up=sim.BLOW_UP_BOUND) -> np.ndarray:
    """Additive-noise Taylor 1.5 stepper; normals (B, n_steps, n_noise, 2).

    Returns the full state (B, n_state, n_steps + 1).
    """
    dw, dz = sim.increments_from_normals(dt, normals)
    y0 = np.asarray(spec.initial_state, dtype=float)
    n_state = y0.size
    g0 = np.asarray(spec.volatility(y0))
    noise_idx = np.flatnonzero(g0 != 0.0)
    batch = dw.shape[0]
    out = np.empty((batch, n_state, n_steps + 1))
    y = np.broadcast_to(y0, (batch, n_state)).copy()
    out[:, :, 0] = y
    dt2 = dt * dt
    dw_full = np.zeros((batch, n_state))
    dz_full = np.zeros((batch, n_state))
    for i in range(n_steps):
        dw_full[:, noise_idx] = dw[:, i, :]
        dz_full[:, noise_idx] = dz[:, i, :]
        a = spec.drift(y)
        jac = spec.drift_jacobian(y)
        ja = np.einsum("...ij,...j->...i", jac, a)
        jbz = np.einsum("...ij,...j->...i", jac, g0 * dz_full)
        curv = spec.noise_curvature(y) if spec.noise_curvature is not None else 0.0
        y = y + a * dt + g0 * dw_full + jbz + 0.5 * dt2 * (ja + 0.5 * curv)
        _reference_check(y, i + 1, blow_up)
        out[:, :, i + 1] = y
    return out


def reference_states(spec, dt, n_steps, n_real, base_seed) -> np.ndarray:
    """Full-state ensemble (n_real, n_state, n_steps + 1) of the reference
    stepper of spec's kind, each realization on its derived seed."""
    n_noise = int(np.count_nonzero(spec.volatility(spec.initial_state)))
    if spec.kind == "spde":
        normals = one_shot_normals(base_seed, n_real, (n_steps, n_noise))
        return reference_kick_drift(spec, dt, n_steps, normals)
    normals = one_shot_normals(base_seed, n_real, (n_steps, n_noise, 2))
    return reference_taylor15(spec, dt, n_steps, normals)


def reference_prediction(true_spec, pred_spec, dt, n_steps, n_real,
                         base_seed, rows) -> dict:
    """Shared-seed comparison with each side simulated on its own.

    A side that diverges is re-run up to its last stable step; the earlier
    divergence (truth on a tie) marks the comparison, both series are cut
    to the shorter length, and a side that failed on the first step gets
    zero statistics.
    """

    def side(spec):
        try:
            return reference_states(spec, dt, n_steps, n_real, base_seed)[:, rows], None
        except SimulationDivergedError as exc:
            last_ok = exc.step - 1
            if last_ok < 1:
                return None, exc.step
            states = reference_states(spec, dt, last_ok, n_real, base_seed)
            return states[:, rows], exc.step

    truth, truth_fail = side(true_spec)
    pred, pred_fail = side(pred_spec)
    diverged, step = None, None
    if truth_fail is not None:
        diverged, step = "truth", truth_fail
    if pred_fail is not None and (step is None or pred_fail < step):
        diverged, step = "discovered", pred_fail
    length = min(s.shape[2] if s is not None else 1 for s in (truth, pred))

    def stats(series):
        if series is None:
            zeros = np.zeros((len(rows), length))
            return zeros, zeros
        cut = series[:, :, :length]
        return cut.mean(axis=0), 2.0 * cut.std(axis=0)

    truth_mean, truth_2s = stats(truth)
    pred_mean, pred_2s = stats(pred)
    return {"diverged": diverged, "diverged_step": step,
            "times": np.arange(length) * dt,
            "truth_mean": truth_mean, "pred_mean": pred_mean,
            "truth_2sigma": truth_2s, "pred_2sigma": pred_2s}
