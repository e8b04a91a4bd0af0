"""End-to-end benchmark harness.

Chains simulate -> discover -> derive -> evaluate for each benchmark
system, compares the discovered dynamics against the truth under shared
noise seeds, and writes one JSON report per benchmark plus one CSV per
plotted curve, all byte-reproducible from (config, seed).
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lagdyn import discovery, library, sim
from lagdyn.errors import (
    ConfigError,
    LagdynError,
    SimulationDivergedError,
    UnsupportedFormError,
)

REPORT_SCHEMA_VERSION = 1
DEFAULT_SEED = 1234
CSV_COLUMNS = ("t", "truth_mean", "pred_mean", "truth_2sigma",
               "pred_2sigma", "abs_error")
FIELD_PROBE_NODES = (20, 35, 50, 65, 80)
FIELD_REPORT_NODE = 50


@dataclass(frozen=True)
class BenchmarkConfig:
    """Per-benchmark pipeline settings.

    Attributes:
        lambda_lagrangian: Sparsity threshold of the Lagrangian regression.
        rcond_lagrangian: Singular-value cutoff of the Lagrangian solve.
        lambda_diffusion: Sparsity threshold of the diffusion regression.
        rcond_diffusion: Singular-value cutoff of the diffusion solve.
        prediction_factor: Prediction horizon as a multiple of the
            training window (2.0 for discrete systems, 1.5 for fields).
        prediction_n_real: Realizations in the prediction comparison.
        probe_nodes: Grid nodes where field discovery runs (None for
            discrete systems, which use every coordinate).
        n_real: Training realizations override (None: protocol value).
        dt: Time step override (None: protocol value).
        t_f: Training window override (None: protocol value).
    """

    lambda_lagrangian: float
    rcond_lagrangian: float | None
    lambda_diffusion: float
    rcond_diffusion: float | None
    prediction_factor: float = 2.0
    prediction_n_real: int = 200
    probe_nodes: tuple[int, ...] | None = None
    n_real: int | None = None
    dt: float | None = None
    t_f: float | None = None


DEFAULT_CONFIGS: dict[str, BenchmarkConfig] = {
    "harmonic": BenchmarkConfig(100.0, 1e-8, 0.3, 1e-4),
    "pendulum": BenchmarkConfig(0.8, 1e-4, 0.003, 1e-4),
    "duffing": BenchmarkConfig(150.0, 1e-8, 0.3, 1e-4),
    "3dof": BenchmarkConfig(100.0, 1e-8, 0.3, 1e-4),
    "wave": BenchmarkConfig(1.0, 1e-4, 0.5, 1e-4, prediction_factor=1.5,
                            probe_nodes=FIELD_PROBE_NODES),
    "beam": BenchmarkConfig(0.02, 1e-4, 100.0, 1e-3, prediction_factor=1.5,
                            probe_nodes=FIELD_PROBE_NODES),
}

# True Lagrangian density of each discrete benchmark, one term map per
# particle (the kinetic term is implicit with coefficient 1). A particle's
# map holds only the potential terms its own coordinate varies.
_TRUE_DENSITY = {
    "harmonic": [{"X^2": -500.0}],
    "pendulum": [{"cos(X)": 9.81}],
    "duffing": [{"X^2": -500.0, "X^4": -625.0}],
    "3dof": [
        {"X1^2": -500.0, "(X2-X1)^2": -500.0},
        {"(X2-X1)^2": -500.0, "(X3-X2)^2": -500.0},
        {"(X3-X2)^2": -500.0},
    ],
}
# Per-node field density coefficients: 0.5*c^2 for the squared slope,
# 0.5*stiffness_ratio for the squared curvature, with the EL sign.
_TRUE_FIELD_DENSITY = {"wave": ("ux{0}^2", -2.0), "beam": ("uxx{0}^2", -0.05175)}
_TRUE_GAINS = {
    "harmonic": (1.0,),
    "pendulum": (0.1,),
    "duffing": (1.0,),
    "3dof": (1.0, 1.0, 1.0),
    "wave": (2.0,),
    "beam": (20.0,),
}


def training_protocol(spec: sim.SystemSpec,
                      config: BenchmarkConfig) -> tuple[float, float, int]:
    """Training (dt, t_f, n_real) of a benchmark, overrides applied.

    Raises:
        ConfigError: if the window is shorter than one step, which would
            leave a single sample to differentiate.
    """
    dt = config.dt if config.dt is not None else 1.0 / spec.params["sample_rate"]
    t_f = config.t_f if config.t_f is not None else spec.params["t_final"]
    n_real = (config.n_real if config.n_real is not None
              else spec.params["n_realizations"])
    if round(t_f / dt) < 1:
        raise ConfigError(
            f"training window t_f={t_f:g} is shorter than one step dt={dt:g}"
        )
    return float(dt), float(t_f), int(n_real)


def _probe_library_indices(spec: sim.SystemSpec,
                           probe_nodes: tuple[int, ...]) -> list[int]:
    """Positions of the probe nodes in the free-node library list."""
    free = [i for i in range(spec.dim) if i not in spec.spatial.constrained]
    positions = {node: j for j, node in enumerate(free)}
    missing = [n for n in probe_nodes if n not in positions]
    if missing:
        raise ConfigError(f"probe nodes not on the free grid: {missing}")
    return [positions[n] for n in probe_nodes]


def true_models(
    name: str, spec: sim.SystemSpec, config: BenchmarkConfig
) -> tuple[discovery.LagrangianModel, discovery.EquationsOfMotion]:
    """True Lagrangian and equations of motion with the true noise gains."""
    libs = library.build_lagrangian_library(name, spec.dim)
    if name in _TRUE_DENSITY:
        selected = libs
        terms = [dict(t) for t in _TRUE_DENSITY[name]]
    else:
        nodes = config.probe_nodes or FIELD_PROBE_NODES
        selected = [libs[i] for i in _probe_library_indices(spec, nodes)]
        pattern, coeff = _TRUE_FIELD_DENSITY[name]
        terms = [{pattern.format(node): coeff} for node in nodes]
    lag = discovery.LagrangianModel.from_terms(selected, terms)
    eom = discovery.derive_equations_of_motion(lag, None)
    gains = _TRUE_GAINS[name]
    if len(gains) == 1 and len(eom.target_coords) > 1:
        gains = gains * len(eom.target_coords)
    return lag, replace(eom, gains=np.array(gains, dtype=float))


def discovery_libraries(
    name: str, spec: sim.SystemSpec, config: BenchmarkConfig
) -> tuple[list[library.CandidateLibrary], list[library.CandidateLibrary]]:
    """Lagrangian and diffusion libraries of discovery, probe nodes applied."""
    libs = library.build_lagrangian_library(name, spec.dim)
    glibs = library.build_diffusion_library(name, spec.dim)
    if config.probe_nodes is not None:
        idx = _probe_library_indices(spec, config.probe_nodes)
        libs = [libs[i] for i in idx]
        glibs = [glibs[i] for i in idx]
    return libs, glibs


def training_record(
    spec: sim.SystemSpec,
    config: BenchmarkConfig,
    libraries: tuple[list[library.CandidateLibrary],
                     list[library.CandidateLibrary]],
    seed: int,
) -> sim.TrainingRecord:
    """Simulate the training ensemble, keeping only the rows discovery reads.

    Every coordinate for a discrete system; the probe neighbourhoods for a
    field. Discovery on the record gives the bytes it gives on the full
    ensemble.
    """
    dt, t_f, n_real = training_protocol(spec, config)
    rows = discovery.training_rows(*libraries, spec.dim)
    return sim.generate_ensemble(spec, dt=dt, t_f=t_f, n_real=n_real,
                                 base_seed=seed, rows=rows)


def discover_models(
    ensemble: sim.Ensemble | sim.TrainingRecord,
    name: str,
    spec: sim.SystemSpec,
    config: BenchmarkConfig,
    libraries: tuple[list[library.CandidateLibrary],
                     list[library.CandidateLibrary]],
) -> tuple[discovery.LagrangianModel, discovery.DiffusionModel,
           discovery.EquationsOfMotion]:
    """Run the discovery pipeline on a training ensemble.

    Args:
        ensemble: Full ensemble or training record of the system.
        name: Benchmark name.
        spec: Benchmark system.
        config: Pipeline settings.
        libraries: The discovery_libraries of (name, spec, config).

    Raises:
        ConfigError: if the ensemble's coordinates, grid or system name
            are not those of the system.
    """
    if ensemble.coords != spec.dim:
        raise ConfigError(
            f"ensemble has {ensemble.coords} coordinates, but system "
            f"'{name}' has {spec.dim}"
        )
    same_grid = (ensemble.spatial_grid is None if spec.spatial is None
                 else np.array_equal(ensemble.spatial_grid, spec.spatial.grid))
    if not same_grid:
        raise ConfigError(f"ensemble grid does not match system '{name}'")
    if ensemble.system is not None and ensemble.system != spec.name:
        raise ConfigError(
            f"ensemble was simulated for system '{ensemble.system}', "
            f"not '{name}'"
        )
    libs, glibs = libraries
    lag = discovery.discover_lagrangian(
        ensemble, libs, config.lambda_lagrangian,
        rcond=config.rcond_lagrangian,
    )
    diff = discovery.discover_diffusion(
        ensemble, lag, glibs, config.lambda_diffusion,
        rcond=config.rcond_diffusion,
    )
    eom = discovery.derive_equations_of_motion(lag, diff)
    return lag, diff, eom


def pooled_parameters(eom: discovery.EquationsOfMotion) -> dict[str, float]:
    """Average per-equation coefficients (absent terms count zero)."""
    labels = sorted({t.label for terms in eom.terms for t in terms})
    n_eq = len(eom.terms)
    pooled = {}
    for label in labels:
        total = sum(t.coefficient for terms in eom.terms for t in terms
                    if t.label == label)
        pooled[label] = float(total / n_eq)
    pooled["gain"] = float(np.mean(eom.gains))
    return pooled


def coefficient_tables(
    eom: discovery.EquationsOfMotion, pooled: bool
) -> list[dict[str, float]]:
    """Per-equation (or pooled) coefficient maps including the gain."""
    if pooled:
        return [pooled_parameters(eom)]
    return [eom.parameters(i) for i in range(len(eom.terms))]


# ---------------------------------------------------------------------------
# Discovered systems as simulatable specs
# ---------------------------------------------------------------------------

# Field operator of each pooled stiffness label: the sign that turns the
# label's coefficient into a stiffness, the operator, and the system name
# used in messages.
_FIELD_OPERATORS = {
    "uxx": (-1.0, sim.laplacian_operator, "wave"),
    "uxxxx": (1.0, sim.biharmonic_operator, "beam"),
}


def _protocol_params(spec: sim.SystemSpec) -> dict:
    keys = ("t_final", "sample_rate", "n_realizations", "max_stable_dt")
    return {k: spec.params[k] for k in keys if k in spec.params}


def discovered_particle_spec(
    true_spec: sim.SystemSpec, eom: discovery.EquationsOfMotion
) -> sim.SystemSpec:
    """Simulatable system built from discovered discrete equations.

    The acceleration is eom.acceleration_series and its Jacobian the
    library's basis partials, both on the coordinate-first layout (n, B).
    """
    n = true_spec.dim
    if len(eom.target_coords) != n or tuple(eom.target_coords) != tuple(range(n)):
        raise ConfigError("equations must cover every coordinate in order")
    for terms in eom.terms:
        for term in terms:
            if term.image is None:
                raise UnsupportedFormError(
                    f"term '{term.label}' has no simulatable image"
                )

    def accel(u):
        # Drift images read positions only, so u also stands in for v.
        columns = u.reshape(-1, n).T
        return eom.acceleration_series(columns, columns).T.reshape(u.shape)

    def accel_jac(u):
        columns = u.reshape(-1, n).T
        jac = np.zeros(u.shape[:-1] + (n, n))
        for i, terms in enumerate(eom.terms):
            for term in terms:
                for j in term.image.coords:
                    grad, _ = library.basis_partials(term.image, columns,
                                                     columns, None, j)
                    if grad is not None:
                        jac[..., i, j] -= (term.coefficient
                                           * grad.reshape(u.shape[:-1]))
        return jac

    return sim.second_order_spec(
        f"{true_spec.name}-discovered", accel,
        np.asarray(eom.gains, dtype=float), true_spec.initial_state,
        _protocol_params(true_spec), accel_jac,
    )


def discovered_field_spec(
    true_spec: sim.SystemSpec, eom: discovery.EquationsOfMotion
) -> sim.SystemSpec:
    """Simulatable field built from pooled discovered node equations.

    The operator follows the discovered stiffness label (uxx or uxxxx).
    """
    if true_spec.spatial is None:
        raise ConfigError("discovered field spec needs grid geometry")
    pooled = pooled_parameters(eom)
    drift_labels = sorted(set(pooled) - {"gain"})
    if len(drift_labels) != 1 or drift_labels[0] not in _FIELD_OPERATORS:
        raise UnsupportedFormError(
            f"field equations must be slope or curvature driven, "
            f"got {drift_labels}"
        )
    sign, operator, kind = _FIELD_OPERATORS[drift_labels[0]]
    stiffness = sign * pooled[drift_labels[0]]
    if stiffness <= 0:
        raise UnsupportedFormError(f"discovered {kind} operator is unstable")
    accel, max_stable_dt = operator(stiffness, true_spec.spatial.dx)
    params = _protocol_params(true_spec)
    params["max_stable_dt"] = max_stable_dt
    return sim.second_order_spec(
        f"{true_spec.name}-discovered", accel,
        np.full(true_spec.dim, pooled["gain"]), true_spec.initial_state,
        params, geometry=true_spec.spatial,
    )


def discovered_spec(true_spec: sim.SystemSpec,
                    eom: discovery.EquationsOfMotion) -> sim.SystemSpec:
    """Simulatable system of a discovered EOM, discrete or field."""
    if true_spec.kind == "spde":
        return discovered_field_spec(true_spec, eom)
    return discovered_particle_spec(true_spec, eom)


# ---------------------------------------------------------------------------
# Prediction comparison
# ---------------------------------------------------------------------------


@dataclass
class PredictionBundle:
    """Ensemble statistics of truth and discovered dynamics on shared noise.

    Attributes:
        system: Benchmark name.
        labels: Curve labels, one per reported coordinate.
        times: Sample times, truncated with the series on divergence.
        truth_mean: Truth ensemble mean, shape (n_curves, n_times).
        pred_mean: Discovered-system ensemble mean, same shape.
        truth_2sigma: 2 x standard deviation of the truth ensemble.
        pred_2sigma: 2 x standard deviation of the discovered ensemble.
        abs_error: |truth_mean - pred_mean|.
        training_steps: Sample index where the training window ends.
        horizon: Requested final time.
        n_real: Realizations per side.
        diverged: None, or "truth"/"discovered" when a side diverged.
        diverged_step: First failing step of the diverged side.
    """

    system: str
    labels: tuple[str, ...]
    times: np.ndarray
    truth_mean: np.ndarray
    pred_mean: np.ndarray
    truth_2sigma: np.ndarray
    pred_2sigma: np.ndarray
    abs_error: np.ndarray
    training_steps: int
    horizon: float
    n_real: int
    diverged: str | None = None
    diverged_step: int | None = None

    def rms_error_pct(self) -> dict[str, float]:
        """Prediction-window RMS error as a percentage of the response RMS.

        Uses the post-training window when present, the full series for a
        training-only bundle.
        """
        start = self.training_steps
        if start >= self.times.size - 1:
            start = 0
        out = {}
        for j, label in enumerate(self.labels):
            err = self.abs_error[j, start:]
            ref = self.truth_mean[j, start:]
            denom = float(np.sqrt(np.mean(ref**2)))
            if denom == 0.0:
                out[label] = float("inf")
                continue
            out[label] = float(
                100.0 * np.sqrt(np.mean(err**2)) / denom
            )
        return out


def prediction_comparison(
    true_spec: sim.SystemSpec,
    eom: discovery.EquationsOfMotion,
    horizon: float,
    n_real: int,
    base_seed: int = DEFAULT_SEED,
    dt: float | None = None,
    training_window: float | None = None,
) -> PredictionBundle:
    """Simulate truth and discovered dynamics on shared noise paths.

    Both systems integrate with the same scheme, the same step, and the
    same per-realization seeds, so differences in the compared means come
    from the model coefficients, not from Monte Carlo noise. A horizon
    equal to the training window produces a training-only bundle.

    Args:
        true_spec: Reference benchmark system.
        eom: Discovered equations of motion.
        horizon: Final time, >= the training window.
        n_real: Realizations per side.
        base_seed: Ensemble seed shared by both sides.
        dt: Time step (None: the spec's protocol step).
        training_window: Training duration (None: the spec's protocol).

    Returns:
        PredictionBundle; on divergence of either side the series are
        truncated to the surviving prefix and the bundle carries the
        divergence marker.
    """
    if dt is None:
        dt = 1.0 / true_spec.params["sample_rate"]
    if training_window is None:
        training_window = true_spec.params["t_final"]
    if horizon < training_window - 1e-12:
        raise ConfigError("prediction horizon is shorter than the training window")
    pred_spec = discovered_spec(true_spec, eom)
    if true_spec.kind == "spde":
        labels = (f"u{FIELD_REPORT_NODE}",)
        simulate, rows = sim.simulate_field_rows, [FIELD_REPORT_NODE]
    else:
        labels = tuple(eom.coordinates)
        simulate, rows = sim.simulate_rows, range(true_spec.dim)

    # One batch steps both sides on one noise draw and stops at the first
    # divergence of either.
    diverged = None
    diverged_step = None
    failed: set[int] = set()
    try:
        series = simulate(true_spec, dt, horizon, n_real, base_seed, rows=rows,
                          partners=(pred_spec,))
    except SimulationDivergedError as exc:
        series = exc.partial[0]
        diverged_step = exc.step
        failed = {k // n_real for k in exc.realizations}
        diverged = "truth" if 0 in failed else "discovered"
    truth, pred = series.reshape((2, n_real) + series.shape[1:])
    length = series.shape[2]
    times = np.arange(length) * dt

    def stats(side, samples):
        # A side that fails on the first step has no samples to average.
        if diverged_step == 1 and side in failed:
            zeros = np.zeros((len(labels), length))
            return zeros, zeros
        return samples.mean(axis=0), 2.0 * samples.std(axis=0)

    truth_mean, truth_2s = stats(0, truth)
    pred_mean, pred_2s = stats(1, pred)
    return PredictionBundle(
        system=true_spec.name,
        labels=labels,
        times=times,
        truth_mean=truth_mean,
        pred_mean=pred_mean,
        truth_2sigma=truth_2s,
        pred_2sigma=pred_2s,
        abs_error=np.abs(truth_mean - pred_mean),
        training_steps=int(round(training_window / dt)),
        horizon=float(horizon),
        n_real=n_real,
        diverged=diverged,
        diverged_step=diverged_step,
    )


# ---------------------------------------------------------------------------
# Hamiltonian evaluation
# ---------------------------------------------------------------------------


def hamiltonian_trajectory(
    model: discovery.HamiltonianModel,
    trajectory: np.ndarray,
) -> np.ndarray:
    """Hamiltonian series along a state trajectory, with V(0) = 0.

    The value at the zero state is subtracted, so the series does not
    depend on the constant a potential such as -cos(X) carries.

    Args:
        model: Hamiltonian to evaluate.
        trajectory: States, shape (2n, N_t): displacement block stacked
            over velocity block.

    Returns:
        Array (N_t,).
    """
    states = np.asarray(trajectory, dtype=float)
    if states.ndim != 2 or states.shape[0] % 2 != 0:
        raise ConfigError("trajectory must stack displacement and velocity")
    n = states.shape[0] // 2
    rest = np.zeros((n, 1))
    return (model.evaluate(states[:n], states[n:])
            - model.evaluate(rest, rest)[0])


def _beam_quadratic_operator(n: int, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Weighted biharmonic (W A, w): the symmetric discrete bending form.

    The free-end trapezoid half weight symmetrizes the ghost-node operator
    exactly, so 0.5 sum(w v^2) + 0.5 kappa u.(W A u) is conserved by the
    noiseless dynamics.
    """
    a = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        a[:, j] = sim._beam_biharmonic(e, dx)
    w = np.ones(n)
    w[-1] = 0.5
    return w[:, None] * a, w


def field_energy_series(
    spec: sim.SystemSpec,
    displacement: np.ndarray,
    velocity: np.ndarray,
    stiffness: float,
) -> np.ndarray:
    """Discrete energy of a field trajectory.

    Pinned geometries use the stretched-gap form including the boundary
    gaps; clamped-free geometries use the trapezoid-weighted biharmonic
    quadratic form. Both are conserved by the noiseless dynamics, so true
    and discovered Hamiltonians differ only through ``stiffness``.

    Args:
        spec: Field system carrying the grid geometry.
        displacement: Node displacements, shape (n, N_t).
        velocity: Node velocities, shape (n, N_t).
        stiffness: c^2 for second-order fields, the flexural stiffness
            ratio for fourth-order fields.

    Returns:
        Energy series, shape (N_t,).
    """
    if spec.spatial is None:
        raise ConfigError("field energy needs grid geometry")
    dx = spec.spatial.dx
    if spec.spatial.boundary == "pinned-both":
        gaps = (displacement[1:] - displacement[:-1]) / dx
        potential = 0.5 * stiffness * (gaps**2).sum(axis=0)
        kinetic = 0.5 * (velocity**2).sum(axis=0)
        return kinetic + potential
    weighted_op, w = _beam_quadratic_operator(spec.dim, dx)
    potential = 0.5 * stiffness * np.einsum(
        "it,it->t", displacement, weighted_op @ displacement
    )
    kinetic = 0.5 * (w[:, None] * velocity**2).sum(axis=0)
    return kinetic + potential


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class BenchmarkReport:
    """Everything run_benchmark produced for one system.

    The deterministic content serializes through payload()/to_json();
    wall-clock runtime stays out of the payload and goes to a sidecar
    file so rerun bytes are identical.
    """

    name: str
    seed: int
    config: BenchmarkConfig
    status: str
    failure: dict | None
    protocol: dict
    true_section: dict | None
    discovered_section: dict | None
    errors: dict | None
    hamiltonian_summary: dict | None
    prediction: PredictionBundle | None
    hamiltonian_times: np.ndarray | None
    hamiltonian_true: np.ndarray | None
    hamiltonian_discovered: np.ndarray | None
    runtime_s: float = 0.0
    # Discovered model object, kept for further evaluation; not serialized.
    equations: discovery.EquationsOfMotion | None = None

    def file_names(self) -> list[str]:
        names = [f"{self.name}_report.json"]
        if self.prediction is not None:
            names += [
                f"{self.name}_prediction_{label}.csv"
                for label in self.prediction.labels
            ]
        if self.hamiltonian_times is not None:
            names.append(f"{self.name}_hamiltonian.csv")
        return names

    def payload(self) -> dict:
        pred = None
        if self.prediction is not None:
            pred = {
                "horizon": self.prediction.horizon,
                "n_real": self.prediction.n_real,
                "training_steps": self.prediction.training_steps,
                "labels": list(self.prediction.labels),
                "rms_error_pct": self.prediction.rms_error_pct(),
                "diverged": self.prediction.diverged,
                "diverged_step": self.prediction.diverged_step,
            }
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "system": self.name,
            "status": self.status,
            "failure": self.failure,
            "seeds": {"training": self.seed, "prediction": self.seed},
            "lambda": {
                "lagrangian": self.config.lambda_lagrangian,
                "diffusion": self.config.lambda_diffusion,
            },
            "rcond": {
                "lagrangian": self.config.rcond_lagrangian,
                "diffusion": self.config.rcond_diffusion,
            },
            "protocol": self.protocol,
            "true": self.true_section,
            "discovered": self.discovered_section,
            "errors": self.errors,
            "hamiltonian": self.hamiltonian_summary,
            "prediction": pred,
            "files": self.file_names(),
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"


def _csv_rows(path: Path, times, truth_mean, pred_mean, truth_2s, pred_2s):
    abs_error = np.abs(truth_mean - pred_mean)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i in range(times.size):
            writer.writerow([
                repr(float(times[i])),
                repr(float(truth_mean[i])),
                repr(float(pred_mean[i])),
                repr(float(truth_2s[i])),
                repr(float(pred_2s[i])),
                repr(float(abs_error[i])),
            ])


def write_report(report: BenchmarkReport, out_dir: str | Path) -> list[Path]:
    """Write the report JSON, its runtime sidecar, and the curve CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    report_path = out / f"{report.name}_report.json"
    report_path.write_text(report.to_json())
    written.append(report_path)
    meta_path = out / f"{report.name}_report.meta.json"
    meta_path.write_text(json.dumps({"runtime_s": report.runtime_s}) + "\n")
    written.append(meta_path)
    if report.prediction is not None:
        bundle = report.prediction
        for j, label in enumerate(bundle.labels):
            path = out / f"{report.name}_prediction_{label}.csv"
            _csv_rows(path, bundle.times, bundle.truth_mean[j],
                      bundle.pred_mean[j], bundle.truth_2sigma[j],
                      bundle.pred_2sigma[j])
            written.append(path)
    if report.hamiltonian_times is not None:
        zeros = np.zeros_like(report.hamiltonian_times)
        path = out / f"{report.name}_hamiltonian.csv"
        _csv_rows(path, report.hamiltonian_times, report.hamiltonian_true,
                  report.hamiltonian_discovered, zeros, zeros)
        written.append(path)
    return written


def _field_equation_text(pooled: dict[str, float]) -> str:
    drift = {k: v for k, v in pooled.items() if k != "gain"}
    body = discovery.format_terms((), drift)
    lhs = "u_tt" if body == "0" else f"u_tt + {body}"
    lhs = lhs.replace("+ -", "- ")
    return f"{lhs} = {repr(float(pooled['gain']))}*Wd"


def _drift_pct(series: np.ndarray) -> float:
    return float(100.0 * np.abs(series - series[0]).max() / abs(series[0]))


def run_benchmark(
    name: str,
    config: BenchmarkConfig | None = None,
    seed: int = DEFAULT_SEED,
) -> BenchmarkReport:
    """Full pipeline for one benchmark.

    Simulates the training ensemble, discovers the Lagrangian, diffusion,
    equations of motion and Hamiltonian, compares predictions of the
    discovered system against the truth on shared noise, and evaluates
    energy conservation on the noiseless trajectory. Any pipeline failure
    produces a report with status "failed" naming the stage.

    Args:
        name: Benchmark name.
        config: Pipeline settings (None: the benchmark default).
        seed: Base seed for training and prediction ensembles.

    Returns:
        BenchmarkReport (write it with write_report).
    """
    if config is None:
        config = DEFAULT_CONFIGS[name]
    start = time.perf_counter()
    spec = sim.benchmark_spec(name)
    dt, t_f, n_real = training_protocol(spec, config)
    protocol = {
        "dt": dt,
        "t_final": t_f,
        "n_real": n_real,
        "prediction_factor": config.prediction_factor,
        "prediction_n_real": config.prediction_n_real,
        "probe_nodes": (None if config.probe_nodes is None
                        else list(config.probe_nodes)),
    }
    is_field = spec.kind == "spde"

    def fail(stage: str, exc: LagdynError) -> BenchmarkReport:
        return BenchmarkReport(
            name=name, seed=seed, config=config, status="failed",
            failure={"stage": stage, "code": exc.code, "message": str(exc)},
            protocol=protocol, true_section=None, discovered_section=None,
            errors=None, hamiltonian_summary=None, prediction=None,
            hamiltonian_times=None, hamiltonian_true=None,
            hamiltonian_discovered=None,
            runtime_s=time.perf_counter() - start,
        )

    # Training records only the rows the libraries read, so the libraries
    # are built first; a failure to build them is still a discovery one.
    try:
        libraries = discovery_libraries(name, spec, config)
    except LagdynError as exc:
        return fail("discover", exc)

    try:
        ensemble = training_record(spec, config, libraries, seed)
    except LagdynError as exc:
        return fail("simulate", exc)

    try:
        lag, diff, eom = discover_models(ensemble, name, spec, config,
                                         libraries)
    except LagdynError as exc:
        return fail("discover", exc)
    # The training data is not read past discovery; free it before the
    # prediction comparison allocates.
    del ensemble

    try:
        lag_true, eom_true = true_models(name, spec, config)
        if is_field:
            ham_true = ham_disc = None
            pooled_true = pooled_parameters(eom_true)
            pooled_disc = pooled_parameters(eom)
            stiff_label = "uxx" if "uxx" in pooled_true else "uxxxx"
            sign = _FIELD_OPERATORS[stiff_label][0]
            stiff_true = sign * pooled_true[stiff_label]
            stiff_disc = sign * pooled_disc.get(stiff_label, 0.0)
            density_label = "(u_x)^2" if stiff_label == "uxx" else "(u_xx)^2"
            ham_true_text = discovery.format_terms(
                ("0.5*ut^2",), {density_label: 0.5 * stiff_true})
            ham_disc_text = discovery.format_terms(
                ("0.5*ut^2",), {density_label: 0.5 * stiff_disc})
        else:
            ham_true = discovery.legendre_transform(lag_true)
            ham_disc = discovery.legendre_transform(lag)
            ham_true_text = ham_true.expression
            ham_disc_text = ham_disc.expression
    except LagdynError as exc:
        return fail("derive", exc)

    try:
        training_steps = int(round(t_f / dt))
        det_states = sim.integrate_rk4(spec, dt, training_steps)
        if is_field:
            n = spec.dim
            h_true = field_energy_series(spec, det_states[:n],
                                         det_states[n:], stiff_true)
            h_disc = field_energy_series(spec, det_states[:n],
                                         det_states[n:], stiff_disc)
        else:
            h_true = hamiltonian_trajectory(ham_true, det_states)
            h_disc = hamiltonian_trajectory(ham_disc, det_states)
        gap_pct = float(
            100.0 * np.abs(h_disc - h_true).max() / np.abs(h_true).max()
        )
        hamiltonian_summary = {
            "true_drift_pct": _drift_pct(h_true),
            "discovered_drift_pct": _drift_pct(h_disc),
            "gap_pct": gap_pct,
            "true_expression": ham_true_text,
            "discovered_expression": ham_disc_text,
        }

        horizon = config.prediction_factor * t_f
        bundle = prediction_comparison(
            spec, eom, horizon, config.prediction_n_real, base_seed=seed,
            dt=dt, training_window=t_f,
        )

        true_tables = coefficient_tables(eom_true, pooled=is_field)
        disc_tables = coefficient_tables(eom, pooled=is_field)
        per_equation = [
            discovery.relative_error(t, d)
            for t, d in zip(true_tables, disc_tables)
        ]
        gains_true = np.asarray(eom_true.gains, dtype=float)
        gains_disc = (np.full_like(gains_true, pooled_parameters(eom)["gain"])
                      if is_field else np.asarray(eom.gains, dtype=float))
        diffusion_pct = float(
            100.0 * np.linalg.norm(gains_disc - gains_true)
            / np.linalg.norm(gains_true)
        )
        errors = {
            "relative_pct": max(per_equation),
            "per_equation_pct": per_equation,
            "diffusion_pct": diffusion_pct,
        }
        true_section = {
            "lagrangian": lag_true.expression,
            "equations": (_field_equation_text(pooled_parameters(eom_true))
                          if is_field else eom_true.expression),
            "hamiltonian": ham_true_text,
            "coefficients": true_tables,
            "gains": [float(g) for g in gains_true],
        }
        discovered_section = {
            "lagrangian": lag.expression,
            "diffusion": diff.expression,
            "equations": (_field_equation_text(pooled_parameters(eom))
                          if is_field else eom.expression),
            "hamiltonian": ham_disc_text,
            "coefficients": disc_tables,
            "gains": [float(g) for g in gains_disc],
            "supports": [sorted(p.terms) for p in lag.particles],
            "diffusion_supports": [list(eq.active_labels)
                                   for eq in diff.equations],
        }
    except LagdynError as exc:
        return fail("evaluate", exc)

    return BenchmarkReport(
        name=name, seed=seed, config=config, status="ok", failure=None,
        protocol=protocol, true_section=true_section,
        discovered_section=discovered_section, errors=errors,
        hamiltonian_summary=hamiltonian_summary, prediction=bundle,
        hamiltonian_times=np.arange(training_steps + 1) * dt,
        hamiltonian_true=h_true, hamiltonian_discovered=h_disc,
        runtime_s=time.perf_counter() - start, equations=eom,
    )
