"""Model discovery: Lagrangian, diffusion gain, equations of motion, Hamiltonian.

The first-moment pipeline per coordinate: assemble ensemble-expected
Euler-Lagrange features, split off the kinetic column as the regression
label, and solve label = -features @ C with sequential threshold least
squares. The second-moment pipeline squares the per-realization
Euler-Lagrange residual of the discovered Lagrangian, scales by dt, and
regresses it on the diffusion library; retained squared candidates are
square-rooted into noise gains. Downstream transforms derive the printable
equations of motion and the Hamiltonian.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

import numpy as np

from lagdyn.errors import ConfigError, RegressionError, UnsupportedFormError
from lagdyn.library import (
    BasisDescriptor,
    CandidateLibrary,
    basis_partials,
    basis_reads,
    difference,
    el_transform,
    eval_basis,
    monomial,
    trig,
)
from lagdyn.regression import stls
from lagdyn.sim import Ensemble, TrainingRecord

_KINETIC_PATTERN = re.compile(r"^0\.5\*(\w+)\^2$")


def _fmt(x: float) -> str:
    return repr(float(x))


def _position_name(kinetic_label: str) -> str:
    """Position coordinate name encoded in a kinetic basis label."""
    match = _KINETIC_PATTERN.match(kinetic_label)
    if not match:
        raise ConfigError(f"unrecognized kinetic label '{kinetic_label}'")
    vel = match.group(1)
    if vel.startswith("u") and len(vel) > 1 and vel[1] == "d":
        return "u" + vel[2:]
    if vel.endswith("d"):
        return vel[:-1]
    raise ConfigError(f"unrecognized velocity name '{vel}'")


def format_terms(kinetic_labels: tuple[str, ...], terms: dict[str, float]) -> str:
    """Render kinetic labels (unit coefficient) plus coefficient terms."""
    parts: list[str] = [
        label if j == 0 else f"+ {label}"
        for j, label in enumerate(kinetic_labels)
    ]
    for label in sorted(terms):
        coeff = terms[label]
        piece = f"{_fmt(abs(coeff))}*{label}"
        if not parts:
            parts.append(piece if coeff >= 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if coeff >= 0 else f"- {piece}")
    if not parts:
        return "0"
    head, *rest = parts
    return " ".join([head] + rest)


# ---------------------------------------------------------------------------
# Lagrangian discovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParticleLagrangian:
    """Discovered Lagrangian density for one coordinate.

    Attributes:
        target_coord: Coordinate index the density serves.
        kinetic_label: Label of the kinetic basis (coefficient exactly 1).
        terms: Retained coefficients of C as label -> value.
        residual_norm: Two-norm of the sparse regression residual.
    """

    target_coord: int
    kinetic_label: str
    terms: dict[str, float]
    residual_norm: float


@dataclass(frozen=True)
class LagrangianModel:
    """Total discovered Lagrangian: one density per coordinate, summed.

    Attributes:
        particles: Per-coordinate densities, one per input library.
        registry: Basis descriptors by label for every candidate seen.
        lambda_used: Sparsity threshold used.
    """

    particles: tuple[ParticleLagrangian, ...]
    registry: dict[str, BasisDescriptor]
    lambda_used: float

    @property
    def total(self) -> dict[str, float]:
        """Merged non-kinetic terms of the summed Lagrangian.

        A label shared by several particle densities names one physical
        term (a coupling both regressions see), so colliding labels merge
        by mean rather than by sum.
        """
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for particle in self.particles:
            for label, coeff in particle.terms.items():
                sums[label] = sums.get(label, 0.0) + coeff
                counts[label] = counts.get(label, 0) + 1
        return {label: sums[label] / counts[label] for label in sums}

    @property
    def kinetic_labels(self) -> tuple[str, ...]:
        return tuple(p.kinetic_label for p in self.particles)

    @property
    def expression(self) -> str:
        lines = [
            f"L_{p.target_coord} = "
            + format_terms((p.kinetic_label,), p.terms)
            for p in self.particles
        ]
        lines.append("L = " + format_terms(self.kinetic_labels, self.total))
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "lambda": self.lambda_used,
            # The momentum time stencil of the feature transform.
            "stencil": "forward",
            "particles": [
                {
                    "target_coord": p.target_coord,
                    "kinetic": p.kinetic_label,
                    "terms": p.terms,
                    "residual_norm": p.residual_norm,
                }
                for p in self.particles
            ],
            "total": self.total,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_terms(
        cls,
        libraries: list[CandidateLibrary],
        per_particle_terms: list[dict[str, float]],
    ) -> "LagrangianModel":
        """Hand-build a model from known coefficients (for truth baselines)."""
        if len(libraries) != len(per_particle_terms):
            raise ConfigError("one term mapping per library is required")
        particles = []
        registry: dict[str, BasisDescriptor] = {}
        for lib, terms in zip(libraries, per_particle_terms):
            for basis in lib.bases:
                registry[basis.label] = basis
            if lib.kinetic_index is None:
                raise ConfigError("Lagrangian libraries need a kinetic basis")
            kinetic_label = lib.bases[lib.kinetic_index].label
            unknown = set(terms) - (set(lib.labels) - {kinetic_label})
            if unknown:
                raise ConfigError(f"labels not in the library: {sorted(unknown)}")
            particles.append(ParticleLagrangian(
                target_coord=lib.target_coord,
                kinetic_label=kinetic_label,
                terms={s: float(c) for s, c in terms.items()},
                residual_norm=0.0,
            ))
        return cls(
            particles=tuple(particles),
            registry=registry,
            lambda_used=0.0,
        )


def discover_lagrangian(
    ensemble: Ensemble | TrainingRecord,
    libraries: list[CandidateLibrary],
    lam: float,
    rcond: float | None = None,
) -> LagrangianModel:
    """Discover the sparse Lagrangian density of every coordinate.

    Per coordinate: Euler-Lagrange features -> kinetic label split ->
    sequential threshold regression of label = -features @ C. The kinetic
    coefficient is 1 by construction; discovered C carry the signs the
    densities enter the total Lagrangian with. The momentum is
    differentiated with the forward time stencil, which keeps the one-step
    drift identity of explicit schemes exact in expectation.

    Args:
        ensemble: Training data: an Ensemble, or a TrainingRecord of the
            rows training_rows names.
        libraries: One candidate library per target coordinate.
        lam: Sparsity threshold in the units of the discovered coefficients.
            The regression thresholds raw coefficients rather than
            standardized ones: velocity-bearing candidate columns carry the
            ensemble-mean noise of the kick increments amplified by the time
            stencil, so a standardized threshold cannot separate them from
            true terms, while their raw coefficients stay near zero.
        rcond: Singular-value cutoff for the regression kernel. Candidate
            families (monomial ladders, trigonometric harmonics) are nearly
            dependent on narrow-amplitude data; the cutoff stops the solver
            from inverting those directions and inflating coefficients.

    Returns:
        LagrangianModel over all coordinates.
    """
    if not libraries:
        raise ConfigError("at least one candidate library is required")
    particles = []
    registry: dict[str, BasisDescriptor] = {}
    for lib in libraries:
        for basis in lib.bases:
            registry[basis.label] = basis
        label, features, names = el_transform(lib, ensemble)
        model = stls(features, -label, lam, rcond=rcond)
        if not model.active_set:
            raise RegressionError(
                f"empty discovered support for coordinate {lib.target_coord}: "
                f"label norm {np.linalg.norm(label):.6e}, dense residual "
                f"unexplained at threshold {lam}"
            )
        terms = {
            names[j]: float(model.coefficients[j]) for j in model.active_set
        }
        particles.append(ParticleLagrangian(
            target_coord=lib.target_coord,
            kinetic_label=lib.bases[lib.kinetic_index].label,
            terms=terms,
            residual_norm=model.residual_norm,
        ))
    return LagrangianModel(
        particles=tuple(particles),
        registry=registry,
        lambda_used=lam,
    )


# ---------------------------------------------------------------------------
# Diffusion discovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffusionEquation:
    """Discovered noise gain for one coordinate's equation.

    Attributes:
        target_coord: Coordinate index.
        coordinate: Position coordinate name (for the potential printout).
        beta: Retained squared-space coefficient (0 for an empty model).
        gain: sqrt(beta), the additive noise gain.
        active_labels: Labels retained by the sparse regression.
        residual_norm: Regression residual norm.
    """

    target_coord: int
    coordinate: str
    beta: float
    gain: float
    active_labels: tuple[str, ...]
    residual_norm: float


@dataclass(frozen=True)
class DiffusionModel:
    """Discovered Wiener potential (noise gains) across coordinates.

    Attributes:
        equations: Per-coordinate results, aligned with the Lagrangian.
        lambda_used: Sparsity threshold used.
        all_zero: True when no equation retained any candidate (the
            expected outcome on noiseless data).
        notes: Human-readable caveats (e.g. nearly constant coordinates).
    """

    equations: tuple[DiffusionEquation, ...]
    lambda_used: float
    all_zero: bool
    notes: tuple[str, ...]

    @property
    def gains(self) -> np.ndarray:
        return np.array([eq.gain for eq in self.equations])

    @property
    def pooled_gain(self) -> float:
        """Mean per-equation gain: the pooling rule for shared parameters."""
        return float(self.gains.mean())

    @property
    def gain_spread(self) -> float:
        return float(self.gains.std())

    @property
    def expression(self) -> str:
        lines = []
        for eq in self.equations:
            rhs = f"{_fmt(eq.gain)}*{eq.coordinate}" if eq.gain else "0"
            lines.append(f"sigma_{eq.coordinate} = {rhs}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "lambda": self.lambda_used,
            "all_zero": self.all_zero,
            "notes": list(self.notes),
            "pooled_gain": self.pooled_gain,
            "gain_spread": self.gain_spread,
            "equations": [
                {
                    "target_coord": eq.target_coord,
                    "coordinate": eq.coordinate,
                    "beta": eq.beta,
                    "gain": eq.gain,
                    "active_labels": list(eq.active_labels),
                    "residual_norm": eq.residual_norm,
                }
                for eq in self.equations
            ],
        }
        return json.dumps(payload, sort_keys=True)


def _is_square_of(basis: BasisDescriptor, coord: int | None = None) -> bool:
    """True for a squared displacement monomial (of ``coord`` if given)."""
    if basis.form != "monomial" or basis.on_velocity or basis.degree != 2:
        return False
    return coord is None or basis.coords == (coord,)


def _is_displacement(basis: BasisDescriptor) -> bool:
    """True for a plain displacement u_i, whose mean is the realization sum / N."""
    return basis.form == "monomial" and not basis.on_velocity and basis.degree == 1


def training_rows(
    libraries: list[CandidateLibrary],
    diff_libraries: list[CandidateLibrary],
    coords: int,
) -> list[int]:
    """State rows that discover_lagrangian and discover_diffusion read.

    Row i is the displacement of coordinate i and row coords + i its
    velocity. A TrainingRecord of these rows (sim.generate_ensemble with
    ``rows``) gives both discoveries the bytes the full Ensemble gives: the
    feature partials and the residual read the rows found here, and the
    means of plain displacement columns come from the record's realization
    sum, which covers every coordinate.

    Args:
        libraries: Lagrangian libraries, one per target coordinate.
        diff_libraries: Diffusion libraries aligned with them.
        coords: Number of coordinates of the system.
    """
    disp: set[int] = set()
    vel: set[int] = set()

    def add(reads):
        disp.update(reads[0])
        vel.update(reads[1])

    for lib in libraries:
        for basis in lib.bases:
            add(basis_reads(basis, coords, lib.target_coord))
    for lib in diff_libraries:
        # The residual's momentum and the nearly-constant note.
        add(({lib.target_coord}, {lib.target_coord}))
        for basis in lib.bases:
            if not (_is_square_of(basis) or _is_displacement(basis)):
                add(basis_reads(basis, coords))
    return sorted(disp) + [coords + i for i in sorted(vel)]


def _el_residual(
    particle: ParticleLagrangian,
    registry: dict[str, BasisDescriptor],
    u,
    v,
    dx: float | None,
    dt: float,
) -> np.ndarray:
    """Forward-difference Euler-Lagrange residual of one realization.

    Rows cover time indices 0..N_t-2; the forward difference of the
    momentum leaves exactly the one-step noise increment plus the drift
    mismatch of the discovered model.
    """
    target = particle.target_coord
    momentum = v[target].copy()
    potential = np.zeros(u.shape[1])
    for label, coeff in particle.terms.items():
        pu, pv = basis_partials(registry[label], u, v, dx, target)
        if pv is not None:
            momentum += coeff * pv
        if pu is not None:
            potential += coeff * pu
    return (momentum[1:] - momentum[:-1]) / dt - potential[:-1]


def discover_diffusion(
    ensemble: Ensemble | TrainingRecord,
    lagrangian: LagrangianModel,
    diff_library: list[CandidateLibrary],
    lam: float,
    rcond: float | None = None,
) -> DiffusionModel:
    """Discover additive noise gains from squared Euler-Lagrange residuals.

    The regression target for each coordinate is dt times the ensemble
    second moment of the per-realization residual of the discovered
    Lagrangian, a discrete surrogate for the small-step limit. Feature
    columns, in library order: a squared displacement monomial of the
    target coordinate is the image of a linear Wiener potential, a
    constant 1; squared monomials of other coordinates contribute nothing
    and are left out; every other candidate enters by its literal ensemble
    expectation and is not square-rootable, so retaining one raises an
    unsupported-form error.

    Args:
        ensemble: The training data the Lagrangian was discovered from.
        lagrangian: Discovered Lagrangian (drift to subtract).
        diff_library: One diffusion library per coordinate, aligned with
            the Lagrangian's particles.
        lam: Sparsity threshold on raw squared-space coefficients, so it is
            commensurate with the squared gain it has to keep.
        rcond: Singular-value cutoff for the regression kernel.

    Returns:
        DiffusionModel with per-coordinate gains (all-zero models are
        flagged, not errors: noiseless data legitimately retains nothing).
    """
    dt = ensemble.dt
    if len(diff_library) != len(lagrangian.particles):
        raise ConfigError(
            "one diffusion library per discovered coordinate is required"
        )
    for lib, particle in zip(diff_library, lagrangian.particles):
        if lib.target_coord != particle.target_coord:
            raise ConfigError(
                "diffusion libraries misaligned with the Lagrangian particles"
            )
    dx = None
    if ensemble.spatial_grid is not None:
        dx = float(ensemble.spatial_grid[1] - ensemble.spatial_grid[0])
    rows = ensemble.n_steps - 1

    # Literal expectation columns, one block per basis tuple: libraries
    # share them whenever they share bases.
    literal_cache: dict[tuple[BasisDescriptor, ...], np.ndarray] = {}

    def literal_means(bases: tuple[BasisDescriptor, ...]) -> np.ndarray:
        """Mean of every non-square basis, (rows, count) in library order."""
        if bases not in literal_cache:
            literal = [b for b in bases if not _is_square_of(b)]
            acc = np.zeros((rows, len(literal)))
            plain = [j for j, b in enumerate(literal) if _is_displacement(b)]
            if plain:
                total = ensemble.displacement_sum()
                for j in plain:
                    acc[:, j] = total[literal[j].coords[0], :rows]
            others = [j for j, b in enumerate(literal)
                      if not _is_displacement(b)]
            for k in range(ensemble.n_real):
                u, v = ensemble.realization(k)
                for j in others:
                    acc[:, j] += eval_basis(literal[j], u, v, dx=dx)[:rows]
            acc /= ensemble.n_real
            literal_cache[bases] = acc
        return literal_cache[bases]

    equations = []
    notes: list[str] = []
    for lib, particle in zip(diff_library, lagrangian.particles):
        tc = lib.target_coord
        target = np.zeros(rows)
        for k in range(ensemble.n_real):
            res = _el_residual(particle, lagrangian.registry,
                               *ensemble.realization(k), dx, dt)
            target += res * res
        target *= dt / ensemble.n_real

        # The target's own square is the constant column; squares of other
        # coordinates are left out.
        kept = [b for b in lib.bases
                if _is_square_of(b, tc) or not _is_square_of(b)]
        literal = iter(literal_means(lib.bases).T)
        features = np.column_stack([
            np.ones(rows) if _is_square_of(b) else next(literal) for b in kept
        ])
        model = stls(features, target, lam, rcond=rcond)

        beta = 0.0
        retained = [kept[j].label for j in model.active_set]
        bad = [kept[j].label for j in model.active_set
               if not _is_square_of(kept[j])]
        if bad:
            raise UnsupportedFormError(
                "diffusion regression retained terms without a closed-form "
                f"square root: {bad}"
            )
        for j in model.active_set:
            beta = float(model.coefficients[j])
        if beta < 0.0:
            raise RegressionError(
                f"negative squared-space diffusion coefficient {beta:.6e} "
                f"for coordinate {tc}: sign error"
            )
        coord_name = _position_name(particle.kinetic_label)
        if retained:
            series = np.stack([ensemble.realization(k)[0][tc]
                               for k in range(ensemble.n_real)])
            span = float(series.max() - series.min())
            scale = float(np.abs(series).max())
            if scale > 0 and span < 1e-9 * scale:
                notes.append(
                    f"coordinate {coord_name} is nearly constant; the "
                    "linear potential acts as a constant gain"
                )
        equations.append(DiffusionEquation(
            target_coord=tc,
            coordinate=coord_name,
            beta=beta,
            gain=float(np.sqrt(beta)),
            active_labels=tuple(retained),
            residual_norm=model.residual_norm,
        ))
    all_zero = all(not eq.active_labels for eq in equations)
    return DiffusionModel(
        equations=tuple(equations),
        lambda_used=lam,
        all_zero=all_zero,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Equations of motion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EomTerm:
    """One drift term of a normal-form equation of motion.

    The equation reads: u_dd + sum(coefficient * term) = gain * dW; the
    image descriptor evaluates the term on trajectory data (None for
    spatial derivatives beyond second order, which need a dedicated
    stencil).
    """

    label: str
    coefficient: float
    image: BasisDescriptor | None


@dataclass(frozen=True)
class EquationsOfMotion:
    """Normal-form second-order equations assembled from discovered models.

    Attributes:
        coordinates: Position coordinate names per equation.
        target_coords: Coordinate indices per equation.
        terms: Per-equation drift terms (sorted by label).
        gains: Per-equation additive noise gains.
    """

    coordinates: tuple[str, ...]
    target_coords: tuple[int, ...]
    terms: tuple[tuple[EomTerm, ...], ...]
    gains: np.ndarray

    def parameters(self, index: int) -> dict[str, float]:
        """Coefficient table of one equation, including the noise gain."""
        table = {t.label: t.coefficient for t in self.terms[index]}
        table["gain"] = float(self.gains[index])
        return table

    @property
    def expression(self) -> str:
        lines = []
        for name, eq_terms, gain in zip(self.coordinates, self.terms,
                                        self.gains):
            body = format_terms(
                (), {t.label: t.coefficient for t in eq_terms}
            )
            lhs = f"{name}dd" if body == "0" else f"{name}dd + {body}"
            # Fold the leading "+ -c" that format_terms would never emit:
            lhs = lhs.replace("+ -", "- ")
            lines.append(f"{lhs} = {_fmt(float(gain))}*Wd")
        return "\n".join(lines)

    def acceleration_series(
        self,
        displacement: np.ndarray,
        velocity: np.ndarray,
        dx: float | None = None,
    ) -> np.ndarray:
        """Drift acceleration of every equation on trajectory samples.

        The samples may be a time series or any batch of states; the
        discovered systems of the benchmark step through this method.

        Args:
            displacement: Positions, shape (n, N_t).
            velocity: Velocities, shape (n, N_t).
            dx: Grid spacing for spatial terms.

        Returns:
            Array (n_equations, N_t) of -sum(coefficient * term).
        """
        out = np.zeros((len(self.terms), displacement.shape[1]))
        for i, eq_terms in enumerate(self.terms):
            for term in eq_terms:
                if term.image is None:
                    raise UnsupportedFormError(
                        f"term '{term.label}' has no pointwise evaluator"
                    )
                out[i] -= term.coefficient * eval_basis(
                    term.image, displacement, velocity, dx=dx
                )
        return out

    def to_json(self) -> str:
        payload = {
            "equations": [
                {
                    "coordinate": name,
                    "target_coord": tc,
                    "terms": {t.label: t.coefficient for t in eq_terms},
                    "gain": float(gain),
                }
                for name, tc, eq_terms, gain in zip(
                    self.coordinates, self.target_coords, self.terms,
                    self.gains,
                )
            ]
        }
        return json.dumps(payload, sort_keys=True)


def _eom_terms_for(
    basis: BasisDescriptor, coeff: float, target: int,
    coordinates: dict[int, str],
) -> list[EomTerm]:
    """Euler-Lagrange image of one density term on one equation's LHS."""
    if basis.form == "constant":
        return []
    if basis.form == "monomial" and not basis.on_velocity:
        d = basis.degree
        coord = basis.coords[0]
        image = monomial(coordinates[coord], coord, d - 1)
        return [EomTerm(label=image.label, coefficient=-coeff * d, image=image)]
    if basis.form == "trig" and not basis.on_velocity:
        k = basis.frequency
        coord = basis.coords[0]
        flipped = "cos" if basis.trig == "sin" else "sin"
        sign = -1.0 if basis.trig == "sin" else 1.0
        image = trig(flipped, k, coordinates[coord], coord)
        return [EomTerm(label=image.label, coefficient=sign * coeff * k,
                        image=image)]
    if basis.form == "difference-monomial":
        a, b = basis.coords
        d = basis.degree
        sign = -1.0 if target == a else 1.0
        image = difference(coordinates, a, b, d - 1)
        return [EomTerm(label=image.label, coefficient=sign * coeff * d,
                        image=image)]
    if basis.form == "spatial-monomial" and basis.degree == 2:
        if basis.derivative_order == 1:
            # EL of a squared slope density is +2 times the Laplacian.
            image = BasisDescriptor(
                form="spatial-monomial", label="uxx", coords=basis.coords,
                degree=1, derivative_order=2,
            )
            return [EomTerm(label="uxx", coefficient=2.0 * coeff, image=image)]
        if basis.derivative_order == 2:
            # EL of a squared curvature density is -2 times the biharmonic.
            return [EomTerm(label="uxxxx", coefficient=-2.0 * coeff,
                            image=None)]
    raise UnsupportedFormError(
        f"no normal-form equation image for retained term '{basis.label}'"
    )


def derive_equations_of_motion(
    lagrangian: LagrangianModel,
    diffusion: DiffusionModel | None = None,
) -> EquationsOfMotion:
    """Assemble u_dd + drift(u) = gain * dW from the discovered models.

    The acceleration coefficient is 1 by the unit kinetic construction;
    retained velocity-dependent densities have no normal-form image and
    raise an unsupported-form error.

    Args:
        lagrangian: Discovered Lagrangian.
        diffusion: Discovered noise model; omitted means zero gains.

    Returns:
        EquationsOfMotion aligned with the Lagrangian's particles.
    """
    if diffusion is not None and len(diffusion.equations) != len(
        lagrangian.particles
    ):
        raise ConfigError("diffusion model misaligned with the Lagrangian")
    coordinates = {
        p.target_coord: _position_name(p.kinetic_label)
        for p in lagrangian.particles
    }
    all_terms = []
    names = []
    for particle in lagrangian.particles:
        merged: dict[str, EomTerm] = {}
        for label, coeff in particle.terms.items():
            basis = lagrangian.registry[label]
            for term in _eom_terms_for(
                basis, coeff, particle.target_coord, coordinates
            ):
                prev = merged.get(term.label)
                merged[term.label] = term if prev is None else replace(
                    prev, coefficient=prev.coefficient + term.coefficient)
        all_terms.append(tuple(merged[s] for s in sorted(merged)))
        names.append(coordinates[particle.target_coord])
    if diffusion is None:
        gains = np.zeros(len(lagrangian.particles))
    else:
        gains = diffusion.gains
    return EquationsOfMotion(
        coordinates=tuple(names),
        target_coords=tuple(p.target_coord for p in lagrangian.particles),
        terms=tuple(all_terms),
        gains=gains,
    )


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HamiltonianModel:
    """Hamiltonian of a discovered Lagrangian: H = sum_i (dL/dv_i) v_i - L.

    Attributes:
        kinetic_coords: Coordinate indices carrying a kinetic term.
        terms: Non-kinetic terms as label -> coefficient.
        registry: Basis descriptors by label.
    """

    kinetic_coords: tuple[int, ...]
    terms: dict[str, float]
    registry: dict[str, BasisDescriptor]

    @property
    def expression(self) -> str:
        kin = tuple(f"0.5*v{c}^2" for c in self.kinetic_coords)
        return "H = " + format_terms(kin, self.terms)

    def evaluate(
        self,
        displacement: np.ndarray,
        velocity: np.ndarray,
        dx: float | None = None,
    ) -> np.ndarray:
        """Hamiltonian time series on one realization.

        Args:
            displacement: Positions, shape (n, N_t).
            velocity: Velocities, shape (n, N_t).
            dx: Grid spacing for spatial terms.

        Returns:
            Array (N_t,).
        """
        out = np.zeros(displacement.shape[1])
        for c in self.kinetic_coords:
            out += 0.5 * velocity[c] ** 2
        for label, coeff in self.terms.items():
            out += coeff * eval_basis(
                self.registry[label], displacement, velocity, dx=dx
            )
        return out

    def to_json(self) -> str:
        payload = {
            "kinetic_coords": list(self.kinetic_coords),
            "terms": self.terms,
        }
        return json.dumps(payload, sort_keys=True)


def _legendre_flip(basis: BasisDescriptor, coeff: float) -> float:
    """Image of one density coefficient under H = sum(dL/dv * v) - L.

    Position-only terms flip sign; quadratic velocity monomials map to
    themselves; any other velocity dependence breaks the quadratic-kinetic
    assumption.
    """
    velocity_forms = (
        basis.on_velocity
        or basis.form == "kinetic"
        or (basis.form == "product" and any(basis.velocity_mask))
    )
    if not velocity_forms:
        return -coeff
    if basis.form == "monomial" and basis.degree == 2:
        return coeff
    raise UnsupportedFormError(
        f"non-quadratic velocity dependence in term '{basis.label}'"
    )


def legendre_transform(lagrangian: LagrangianModel) -> HamiltonianModel:
    """Hamiltonian of the discovered Lagrangian.

    For L = sum 0.5 u_t^2 - V(u, u_x) this is exactly sum 0.5 u_t^2 + V:
    every non-kinetic term flips sign (quadratic velocity terms map to
    themselves). Terms with other velocity dependence raise an
    unsupported-form error.
    """
    terms = {
        label: _legendre_flip(lagrangian.registry[label], coeff)
        for label, coeff in lagrangian.total.items()
    }
    return HamiltonianModel(
        kinetic_coords=tuple(p.target_coord for p in lagrangian.particles),
        terms=terms,
        registry=lagrangian.registry,
    )


# ---------------------------------------------------------------------------
# Error metric
# ---------------------------------------------------------------------------


def relative_error(
    true_params: dict[str, float], discovered_params: dict[str, float]
) -> float:
    """Percentage relative two-norm error over the union of term sets.

    Args:
        true_params: Reference coefficients by term label.
        discovered_params: Discovered coefficients; absent terms count 0.

    Returns:
        100 * ||theta - theta*|| / ||theta||.
    """
    keys = sorted(set(true_params) | set(discovered_params))
    truth = np.array([float(true_params.get(k, 0.0)) for k in keys])
    found = np.array([float(discovered_params.get(k, 0.0)) for k in keys])
    norm = np.linalg.norm(truth)
    if norm == 0.0:
        raise ValueError("relative error is undefined for zero true parameters")
    return float(100.0 * np.linalg.norm(truth - found) / norm)
