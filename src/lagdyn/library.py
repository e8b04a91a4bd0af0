"""Candidate basis libraries and ensemble-expected Euler-Lagrange features.

A candidate Lagrangian (or diffusion potential) is a sparse combination of
basis descriptors: monomials of positions and velocities, pairwise
difference monomials, trigonometric terms, spatial-derivative monomials of
field values, and absolute-value products. Every descriptor evaluates
pointwise on trajectory samples, and its partial derivatives with respect
to positions and velocities are available in closed form, so the
Euler-Lagrange image of a whole library can be assembled over an ensemble:

    EL_i(D) = d/dt (dD/dv_i) - dD/du_i

averaged over realizations. For spatial-derivative monomials the position
derivative is the discrete variational derivative of the node-summed
density, attributed to the same-node basis column (cross-node columns are
zero); the gradient family uses forward differences and the curvature
family central second differences, so the variational images reproduce the
narrow [1,-2,1]/dx^2 and [1,-4,6,-4,1]/dx^4 operators exactly at interior
nodes. Accumulation order over realizations is fixed, so results are
bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from lagdyn import numdiff
from lagdyn.errors import ConfigError, RegressionError
from lagdyn.sim import Ensemble, TrainingRecord

FORMS = (
    "constant",
    "kinetic",
    "monomial",
    "difference-monomial",
    "trig",
    "spatial-monomial",
    "abs-product",
    "abs",
    "product",
)


@dataclass(frozen=True)
class BasisDescriptor:
    """One candidate term.

    Attributes:
        form: One of FORMS.
        label: Unique printable name.
        coords: Coordinate indices the term reads. Forms use them as:
            monomial/trig/abs/abs-product/kinetic (c,), difference-monomial
            (a, b) meaning (u_a - u_b), spatial-monomial (node,), product
            (a, b).
        degree: Monomial exponent where applicable.
        trig: "sin" or "cos" for the trig form.
        frequency: Trig frequency multiplier.
        on_velocity: Whether the form's variable is the velocity instead of
            the position (monomial, trig, abs, abs-product).
        velocity_mask: For the product form, whether each factor reads the
            velocity.
        derivative_order: For spatial-monomial, the spatial derivative
            order of the field value being raised to `degree` (1 = slope,
            2 = curvature).
    """

    form: str
    label: str
    coords: tuple[int, ...] = ()
    degree: int = 0
    trig: str = ""
    frequency: float = 0.0
    on_velocity: bool = False
    velocity_mask: tuple[bool, ...] = ()
    derivative_order: int = 0

    def __post_init__(self):
        if self.form not in FORMS:
            raise ConfigError(f"unknown basis form '{self.form}'")


@dataclass(frozen=True)
class CandidateLibrary:
    """Ordered basis list serving one target coordinate.

    Attributes:
        bases: The m descriptors, order fixed.
        target_coord: Coordinate (particle or grid node) whose equation of
            motion this library serves.
        kinetic_index: Position of the target's kinetic-energy basis
            (0.5 v^2), or None for diffusion libraries.
    """

    bases: tuple[BasisDescriptor, ...]
    target_coord: int
    kinetic_index: int | None

    def __post_init__(self):
        if len(self.bases) < 2:
            raise ConfigError("a candidate library needs at least 2 bases")
        labels = [b.label for b in self.bases]
        if len(set(labels)) != len(labels):
            raise ConfigError("basis labels must be unique")
        if self.kinetic_index is not None:
            if not 0 <= self.kinetic_index < len(self.bases):
                raise ConfigError("kinetic index out of range")
            if self.bases[self.kinetic_index].form != "kinetic":
                raise ConfigError("kinetic index does not point at a kinetic basis")

    @property
    def size(self) -> int:
        return len(self.bases)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.bases)


@dataclass
class ElFeatureMatrix:
    """Ensemble-expected Euler-Lagrange images of a library.

    Attributes:
        values: Array (N_t, m); column j is E[EL_target(basis_j)].
        labels: Column labels, length m.
        target_coord: Coordinate the EL operator was taken at.
        kinetic_index: Column of the kinetic basis (None for none).
        dt: Sampling step of the underlying ensemble.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    target_coord: int
    kinetic_index: int | None
    dt: float

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.labels):
            raise ConfigError("feature matrix shape does not match labels")


# ---------------------------------------------------------------------------
# Pointwise evaluation and analytic partial derivatives
# ---------------------------------------------------------------------------


def _series(basis: BasisDescriptor, slot: int,
            displacement: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    coord = basis.coords[slot]
    if coord < 0 or coord >= displacement.shape[0]:
        raise ConfigError(
            f"basis '{basis.label}' reads coordinate {coord}, "
            f"but the data has {displacement.shape[0]}"
        )
    if basis.form == "product":
        use_velocity = basis.velocity_mask[slot]
    elif basis.form == "kinetic":
        use_velocity = True
    else:
        use_velocity = basis.on_velocity
    return velocity[coord] if use_velocity else displacement[coord]


def _spatial_value(u: np.ndarray, dx: float, order: int, node: int) -> np.ndarray:
    """Discrete spatial derivative of the field at one node.

    Order 1 uses the forward difference (backward at the last node); order
    2 the central second difference (4-point one-sided at the ends). These
    conventions make the library's variational derivatives match the
    narrow interior operators (see _variational_delta).
    """
    n = u.shape[0]
    if order == 1:
        if node < n - 1:
            return (u[node + 1] - u[node]) / dx
        return (u[node] - u[node - 1]) / dx
    if order == 2:
        if 1 <= node <= n - 2:
            return (u[node + 1] - 2.0 * u[node] + u[node - 1]) / dx**2
        if node == 0:
            return (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / dx**2
        return (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / dx**2
    raise ConfigError(f"unsupported spatial derivative order {order}")


def _variational_delta(
    u: np.ndarray, dx: float, order: int, degree: int, node: int
) -> np.ndarray:
    """d/du_node of sum_j (D_order u @ j)^degree, interior density rows.

    Order 1 sums forward-difference rows j = 0..n-2; the derivative at an
    interior node is -(g_node - g_{node-1})/dx with g = degree * slope^
    (degree-1), which for degree 2 is exactly -2 [1,-2,1] u / dx^2. Order 2
    sums central rows j = 1..n-2, giving (g_{node-1} - 2 g_node +
    g_{node+1})/dx^2, exactly 2 * [1,-4,6,-4,1] u / dx^4 for degree 2 at
    nodes 2..n-3. Rows outside the grid contribute zero.
    """
    n = u.shape[0]

    def g1(j):
        if 0 <= j <= n - 2:
            slope = (u[j + 1] - u[j]) / dx
            return degree * slope ** (degree - 1)
        return 0.0

    def g2(j):
        if 1 <= j <= n - 2:
            curv = (u[j + 1] - 2.0 * u[j] + u[j - 1]) / dx**2
            return degree * curv ** (degree - 1)
        return 0.0

    if order == 1:
        return -(g1(node) - g1(node - 1)) / dx
    if order == 2:
        return (g2(node - 1) - 2.0 * g2(node) + g2(node + 1)) / dx**2
    raise ConfigError(f"unsupported spatial derivative order {order}")


def eval_basis(
    basis: BasisDescriptor,
    displacement: np.ndarray,
    velocity: np.ndarray,
    dx: float | None = None,
) -> np.ndarray:
    """Evaluate one basis on one realization.

    Args:
        basis: Descriptor to evaluate.
        displacement: Positions, shape (n, N_t).
        velocity: Velocities, shape (n, N_t).
        dx: Grid spacing; required for spatial-monomial bases.

    Returns:
        Value series, shape (N_t,).
    """
    form = basis.form
    if form == "constant":
        return np.ones(displacement.shape[1])
    if form == "kinetic":
        return 0.5 * _series(basis, 0, displacement, velocity) ** 2
    if form == "monomial":
        return _series(basis, 0, displacement, velocity) ** basis.degree
    if form == "difference-monomial":
        a = _series(basis, 0, displacement, velocity)
        b = _series(basis, 1, displacement, velocity)
        return (a - b) ** basis.degree
    if form == "trig":
        x = _series(basis, 0, displacement, velocity)
        fn = np.sin if basis.trig == "sin" else np.cos
        return fn(basis.frequency * x)
    if form == "spatial-monomial":
        if dx is None:
            raise ConfigError(
                f"basis '{basis.label}' needs a grid spacing to evaluate"
            )
        coord = basis.coords[0]
        if coord < 0 or coord >= displacement.shape[0]:
            raise ConfigError(
                f"basis '{basis.label}' reads node {coord}, "
                f"but the field has {displacement.shape[0]} nodes"
            )
        return _spatial_value(
            displacement, dx, basis.derivative_order, coord
        ) ** basis.degree
    if form == "abs-product":
        x = _series(basis, 0, displacement, velocity)
        return x * np.abs(x)
    if form == "abs":
        return np.abs(_series(basis, 0, displacement, velocity))
    if form == "product":
        a = _series(basis, 0, displacement, velocity)
        b = _series(basis, 1, displacement, velocity)
        return a * b
    raise ConfigError(f"unknown basis form '{form}'")


def basis_partials(
    basis: BasisDescriptor,
    displacement: np.ndarray,
    velocity: np.ndarray,
    dx: float | None,
    target: int,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Analytic (dD/du_target, dD/dv_target) series for one realization.

    Returns None in a slot to mean an identically zero derivative. For the
    spatial-monomial form the position derivative is the node-summed
    density's variational derivative at the target, reported on the
    same-node basis only (zero for other nodes).
    """
    form = basis.form
    if form == "constant":
        return None, None
    if form == "kinetic":
        if basis.coords[0] != target:
            return None, None
        return None, _series(basis, 0, displacement, velocity)
    if form == "monomial":
        if basis.coords[0] != target:
            return None, None
        x = _series(basis, 0, displacement, velocity)
        d = basis.degree
        grad = float(d) * x ** (d - 1) if d > 1 else np.ones_like(x)
        return (None, grad) if basis.on_velocity else (grad, None)
    if form == "difference-monomial":
        a, b = basis.coords
        if target != a and target != b:
            return None, None
        diff = (
            _series(basis, 0, displacement, velocity)
            - _series(basis, 1, displacement, velocity)
        )
        d = basis.degree
        grad = float(d) * diff ** (d - 1) if d > 1 else np.ones_like(diff)
        if target == b:
            grad = -grad
        return grad, None
    if form == "trig":
        if basis.coords[0] != target:
            return None, None
        x = _series(basis, 0, displacement, velocity)
        k = basis.frequency
        if basis.trig == "sin":
            grad = k * np.cos(k * x)
        else:
            grad = -k * np.sin(k * x)
        return (None, grad) if basis.on_velocity else (grad, None)
    if form == "spatial-monomial":
        if basis.coords[0] != target:
            return None, None
        if dx is None:
            raise ConfigError(
                f"basis '{basis.label}' needs a grid spacing to differentiate"
            )
        return (
            _variational_delta(
                displacement, dx, basis.derivative_order, basis.degree, target
            ),
            None,
        )
    if form == "abs-product":
        if basis.coords[0] != target:
            return None, None
        x = _series(basis, 0, displacement, velocity)
        grad = 2.0 * np.abs(x)
        return (None, grad) if basis.on_velocity else (grad, None)
    if form == "abs":
        if basis.coords[0] != target:
            return None, None
        x = _series(basis, 0, displacement, velocity)
        grad = np.sign(x)
        return (None, grad) if basis.on_velocity else (grad, None)
    if form == "product":
        pu = None
        pv = None
        for slot, other in ((0, 1), (1, 0)):
            if basis.coords[slot] != target:
                continue
            grad = _series(basis, other, displacement, velocity)
            if basis.velocity_mask[slot]:
                pv = grad if pv is None else pv + grad
            else:
                pu = grad if pu is None else pu + grad
        return pu, pv
    raise ConfigError(f"unknown basis form '{form}'")


class _ReadLog:
    """Stands in for a (n, N_t) block and logs the coordinates read from it."""

    def __init__(self, n: int):
        self.shape = (n, 1)
        self.read: set[int] = set()

    def __getitem__(self, index) -> np.ndarray:
        self.read.add(int(index) % self.shape[0])
        return np.zeros(1)


def basis_reads(
    basis: BasisDescriptor, n: int, target: int | None = None
) -> tuple[set[int], set[int]]:
    """Coordinates whose displacement and velocity a basis reads.

    With a target, those that basis_partials(basis, ..., target) reads;
    without, those that eval_basis reads. Found by running the evaluator
    on zero samples, so the answer cannot drift from the evaluators.

    Args:
        basis: Descriptor.
        n: Number of coordinates of the data.
        target: Coordinate of the partial derivatives, or None.

    Returns:
        (displacement coordinates, velocity coordinates).
    """
    u, v = _ReadLog(n), _ReadLog(n)
    if target is None:
        eval_basis(basis, u, v, dx=1.0)
    else:
        basis_partials(basis, u, v, 1.0, target)
    return u.read, v.read


# ---------------------------------------------------------------------------
# Euler-Lagrange feature assembly
# ---------------------------------------------------------------------------

_STENCILS = {
    "central": numdiff.central_first_derivative,
    "forward": numdiff.forward_first_derivative,
}


def el_transform(
    lib: CandidateLibrary,
    ensemble: Ensemble | TrainingRecord,
    stencil: str = "central",
) -> ElFeatureMatrix:
    """Assemble E[d/dt dD/dv_i - dD/du_i] for every basis in a library.

    The momentum derivative is differentiated in time per realization
    (with the chosen stencil) before averaging; the position derivative is
    averaged directly. Bases that do not involve the target coordinate
    produce exact zero columns.

    Args:
        lib: Candidate library with its target coordinate.
        ensemble: Simulation data: a full Ensemble, or a TrainingRecord
            holding the rows of training_rows (see discovery).
        stencil: "central" (default) or "forward" momentum time stencil.

    Returns:
        ElFeatureMatrix of shape (N_t, m).
    """
    if stencil not in _STENCILS:
        raise ConfigError(f"unknown momentum stencil '{stencil}'")
    derivative = _STENCILS[stencil]
    dx = None
    if ensemble.spatial_grid is not None:
        dx = float(ensemble.spatial_grid[1] - ensemble.spatial_grid[0])

    n_t = ensemble.n_steps
    m = lib.size
    sums = np.zeros((m, n_t))
    for k in range(ensemble.n_real):
        u, v = ensemble.realization(k)
        for j, basis in enumerate(lib.bases):
            pu, pv = basis_partials(basis, u, v, dx, lib.target_coord)
            if pv is not None:
                sums[j] += derivative(pv, ensemble.dt)
            if pu is not None:
                sums[j] -= pu
    sums /= ensemble.n_real
    values = sums.T
    bad = ~np.all(np.isfinite(values), axis=0)
    if bad.any():
        label = lib.bases[int(np.flatnonzero(bad)[0])].label
        raise RegressionError(
            f"non-finite Euler-Lagrange column for basis '{label}'"
        )
    return ElFeatureMatrix(
        values=values,
        labels=lib.labels,
        target_coord=lib.target_coord,
        kinetic_index=lib.kinetic_index,
        dt=ensemble.dt,
    )


def split_kinetic(
    fm: ElFeatureMatrix, lib: CandidateLibrary
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Separate the kinetic column (regression label) from the features.

    The discovered coefficients C satisfy label = -features @ C: the
    Euler-Lagrange image of the full Lagrangian (unit kinetic coefficient
    plus C on the rest) vanishes, so the kinetic column moves across the
    equality with a sign flip.

    Returns:
        (label, features, feature_labels): label is the kinetic basis
        column (N_t,), features the remaining columns (N_t, m-1).
    """
    if lib.kinetic_index is None or fm.kinetic_index != lib.kinetic_index:
        raise ConfigError("feature matrix and library kinetic columns disagree")
    idx = lib.kinetic_index
    label = fm.values[:, idx].copy()
    features = np.delete(fm.values, idx, axis=1)
    labels = tuple(s for j, s in enumerate(fm.labels) if j != idx)
    return label, features, labels


# ---------------------------------------------------------------------------
# Library builders
# ---------------------------------------------------------------------------

_DISCRETE_KINDS = ("harmonic", "pendulum", "duffing", "3dof")
_FIELD_KINDS = ("wave", "beam")

def _coord_names(n: int) -> tuple[list[str], list[str]]:
    if n == 1:
        return ["X"], ["Xd"]
    return [f"X{i + 1}" for i in range(n)], [f"X{i + 1}d" for i in range(n)]


def _mono_label(name: str, degree: int) -> str:
    return name if degree == 1 else f"{name}^{degree}"


def _trig_label(fn: str, freq: float, name: str) -> str:
    k = int(freq)
    inner = name if k == 1 else f"{k}{name}"
    return f"{fn}({inner})"


def _sde_lagrangian_bases(
    pos_names: Sequence[str],
    vel_names: Sequence[str],
    degree_cap: int,
    velocity_degrees: Sequence[int],
    pos_freqs: Sequence[int],
    vel_freqs: Sequence[int],
    include_constant: bool,
    difference_pairs: Sequence[tuple[int, int]] = (),
    difference_degrees: Sequence[int] = (),
) -> list[BasisDescriptor]:
    n = len(pos_names)
    bases: list[BasisDescriptor] = []
    if include_constant:
        bases.append(BasisDescriptor(form="constant", label="1"))
    for i in range(n):
        bases.append(BasisDescriptor(
            form="kinetic", label=f"0.5*{vel_names[i]}^2", coords=(i,)
        ))
    for i in range(n):
        for d in range(1, degree_cap + 1):
            bases.append(BasisDescriptor(
                form="monomial", label=_mono_label(pos_names[i], d),
                coords=(i,), degree=d,
            ))
    for i in range(n):
        for d in velocity_degrees:
            bases.append(BasisDescriptor(
                form="monomial", label=_mono_label(vel_names[i], d),
                coords=(i,), degree=d, on_velocity=True,
            ))
    for i in range(n):
        for k in pos_freqs:
            for fn in ("sin", "cos"):
                bases.append(BasisDescriptor(
                    form="trig", label=_trig_label(fn, k, pos_names[i]),
                    coords=(i,), trig=fn, frequency=float(k),
                ))
    for i in range(n):
        for k in vel_freqs:
            for fn in ("sin", "cos"):
                bases.append(BasisDescriptor(
                    form="trig", label=_trig_label(fn, k, vel_names[i]),
                    coords=(i,), trig=fn, frequency=float(k),
                    on_velocity=True,
                ))
    for a, b in difference_pairs:
        for d in difference_degrees:
            label = f"({pos_names[a]}-{pos_names[b]})^{d}"
            bases.append(BasisDescriptor(
                form="difference-monomial", label=label, coords=(a, b),
                degree=d,
            ))
    return bases


def _scaled_nodes(n: int, fractions: Sequence[float]) -> list[int]:
    return [int(round(f * (n - 1))) for f in fractions]


def _field_lagrangian_bases(
    kind: str, n: int
) -> tuple[list[BasisDescriptor], list[int]]:
    bases: list[BasisDescriptor] = [BasisDescriptor(form="constant", label="1")]
    if kind == "wave":
        free = list(range(1, n - 1))
    else:
        free = list(range(1, n))
    for i in free:
        bases.append(BasisDescriptor(
            form="kinetic", label=f"0.5*ud{i}^2", coords=(i,)
        ))
    if kind == "wave":
        for i in free:
            bases.append(BasisDescriptor(
                form="spatial-monomial", label=f"ux{i}^2", coords=(i,),
                degree=2, derivative_order=1,
            ))
        quad_nodes = [i for i in free if i % 2 == 1]
        quartic_nodes = _scaled_nodes(n, (0.25, 0.49, 0.75))
        trig_nodes = _scaled_nodes(n, (0.33, 0.67))
    else:
        for i in free:
            bases.append(BasisDescriptor(
                form="spatial-monomial", label=f"uxx{i}^2", coords=(i,),
                degree=2, derivative_order=2,
            ))
        for i in free:
            bases.append(BasisDescriptor(
                form="spatial-monomial", label=f"ux{i}^2", coords=(i,),
                degree=2, derivative_order=1,
            ))
        quad_nodes = list(free)
        quartic_nodes = _scaled_nodes(
            n, tuple(0.05 + 0.1 * j for j in range(10))
        )
        trig_nodes = quartic_nodes
    for i in quad_nodes:
        bases.append(BasisDescriptor(
            form="monomial", label=f"u{i}^2", coords=(i,), degree=2
        ))
    for i in quartic_nodes:
        bases.append(BasisDescriptor(
            form="monomial", label=f"u{i}^4", coords=(i,), degree=4
        ))
    for i in trig_nodes:
        bases.append(BasisDescriptor(
            form="trig", label=f"sin(3u{i})", coords=(i,), trig="sin",
            frequency=3.0,
        ))
    return bases, free


def build_lagrangian_library(kind: str, coords: int) -> list[CandidateLibrary]:
    """Build the candidate Lagrangian library for a benchmark class.

    Returns one CandidateLibrary per target coordinate (particle for
    discrete systems, unconstrained grid node for fields); all returned
    libraries share the same ordered basis list, differing in target and
    kinetic column. Default compositions are a documented reconstruction
    that fixes the per-benchmark library sizes (25/25/15/50/254/421).

    Args:
        kind: One of harmonic, pendulum, duffing, 3dof, wave, beam.
        coords: Number of coordinates (particles or grid nodes).

    Returns:
        List of per-target CandidateLibrary objects.
    """
    if kind not in _DISCRETE_KINDS + _FIELD_KINDS:
        raise ConfigError(f"unknown library kind '{kind}'")

    if kind in _FIELD_KINDS:
        if coords < 7:
            raise ConfigError("field libraries need at least 7 grid nodes")
        bases, free = _field_lagrangian_bases(kind, coords)
        frozen = tuple(bases)
        labels = [b.label for b in frozen]
        libs = []
        for i in free:
            libs.append(CandidateLibrary(
                bases=frozen,
                target_coord=i,
                kinetic_index=labels.index(f"0.5*ud{i}^2"),
            ))
        return libs

    expected_coords = {"harmonic": 1, "pendulum": 1, "duffing": 1, "3dof": 3}
    if coords != expected_coords[kind]:
        raise ConfigError(
            f"'{kind}' has {expected_coords[kind]} coordinate(s), got {coords}"
        )
    defaults = {
        "harmonic": dict(degree_cap=3, velocity_degrees=(1, 3),
                         pos_freqs=(1, 2, 3, 4, 5), vel_freqs=(1, 2, 3, 4),
                         include_constant=True),
        "pendulum": dict(degree_cap=3, velocity_degrees=(1, 3),
                         pos_freqs=(1, 2, 3, 4, 5), vel_freqs=(1, 2, 3, 4),
                         include_constant=True),
        "duffing": dict(degree_cap=6, velocity_degrees=(1, 3, 4),
                        pos_freqs=(3,), vel_freqs=(1,),
                        include_constant=True),
        "3dof": dict(degree_cap=3, velocity_degrees=(1, 3),
                     pos_freqs=(1, 2), vel_freqs=(1, 2),
                     include_constant=False,
                     difference_pairs=((1, 0), (2, 1)),
                     difference_degrees=(2, 3, 4, 5)),
    }[kind]
    pos_names, vel_names = _coord_names(coords)
    bases = _sde_lagrangian_bases(pos_names, vel_names, **defaults)
    frozen = tuple(bases)
    labels = [b.label for b in frozen]
    return [
        CandidateLibrary(
            bases=frozen,
            target_coord=i,
            kinetic_index=labels.index(f"0.5*{vel_names[i]}^2"),
        )
        for i in range(coords)
    ]


def build_diffusion_library(kind: str, coords: int) -> list[CandidateLibrary]:
    """Build the candidate diffusion (Wiener potential) library.

    Returns one CandidateLibrary per target equation sharing the same
    bases; defaults fix the per-benchmark sizes (12/12/12/17/204/200).

    Args:
        kind: Benchmark class name.
        coords: Number of coordinates.
    """
    if kind not in _DISCRETE_KINDS + _FIELD_KINDS:
        raise ConfigError(f"unknown library kind '{kind}'")

    bases: list[BasisDescriptor] = []
    if kind in ("harmonic", "pendulum", "duffing"):
        if coords != 1:
            raise ConfigError(f"'{kind}' has 1 coordinate, got {coords}")
        bases = [
            BasisDescriptor(form="monomial", label="X", coords=(0,), degree=1),
            BasisDescriptor(form="monomial", label="Xd", coords=(0,), degree=1,
                            on_velocity=True),
            BasisDescriptor(form="monomial", label="X^2", coords=(0,), degree=2),
            BasisDescriptor(form="monomial", label="Xd^2", coords=(0,), degree=2,
                            on_velocity=True),
            BasisDescriptor(form="product", label="X*Xd", coords=(0, 0),
                            velocity_mask=(False, True)),
            BasisDescriptor(form="trig", label="sin(X)", coords=(0,),
                            trig="sin", frequency=1.0),
            BasisDescriptor(form="trig", label="cos(X)", coords=(0,),
                            trig="cos", frequency=1.0),
            BasisDescriptor(form="trig", label="sin(Xd)", coords=(0,),
                            trig="sin", frequency=1.0, on_velocity=True),
            BasisDescriptor(form="trig", label="cos(Xd)", coords=(0,),
                            trig="cos", frequency=1.0, on_velocity=True),
            BasisDescriptor(form="abs-product", label="X|X|", coords=(0,)),
            BasisDescriptor(form="abs-product", label="Xd|Xd|", coords=(0,),
                            on_velocity=True),
            BasisDescriptor(form="abs", label="|X|", coords=(0,)),
        ]
        targets = [0]
    elif kind == "3dof":
        if coords != 3:
            raise ConfigError(f"'3dof' has 3 coordinates, got {coords}")
        pos_names, vel_names = _coord_names(3)
        for i in range(3):
            bases.append(BasisDescriptor(
                form="monomial", label=pos_names[i], coords=(i,), degree=1))
        for i in range(3):
            bases.append(BasisDescriptor(
                form="monomial", label=vel_names[i], coords=(i,), degree=1,
                on_velocity=True))
        for i in range(3):
            bases.append(BasisDescriptor(
                form="monomial", label=f"{pos_names[i]}^2", coords=(i,),
                degree=2))
        for i in range(3):
            bases.append(BasisDescriptor(
                form="monomial", label=f"{vel_names[i]}^2", coords=(i,),
                degree=2, on_velocity=True))
        for i in range(3):
            bases.append(BasisDescriptor(
                form="trig", label=f"sin({pos_names[i]})", coords=(i,),
                trig="sin", frequency=1.0))
        bases.append(BasisDescriptor(
            form="product", label="X1*X2", coords=(0, 1),
            velocity_mask=(False, False)))
        bases.append(BasisDescriptor(
            form="product", label="X2*X3", coords=(1, 2),
            velocity_mask=(False, False)))
        targets = [0, 1, 2]
    else:
        if coords < 7:
            raise ConfigError("field libraries need at least 7 grid nodes")
        n = coords
        if kind == "wave":
            free = list(range(1, n - 1))
        else:
            free = list(range(1, n))
        for i in free:
            bases.append(BasisDescriptor(
                form="monomial", label=f"u{i}", coords=(i,), degree=1))
        for i in free:
            bases.append(BasisDescriptor(
                form="monomial", label=f"u{i}^2", coords=(i,), degree=2))
        if kind == "wave":
            mid = _scaled_nodes(n, (0.5,))[0]
            bases += [
                BasisDescriptor(form="monomial", label=f"ud{mid}",
                                coords=(mid,), degree=1, on_velocity=True),
                BasisDescriptor(form="monomial", label=f"ud{mid}^2",
                                coords=(mid,), degree=2, on_velocity=True),
                BasisDescriptor(form="spatial-monomial", label=f"ux{mid}",
                                coords=(mid,), degree=1, derivative_order=1),
                BasisDescriptor(form="spatial-monomial", label=f"ux{mid}^2",
                                coords=(mid,), degree=2, derivative_order=1),
                BasisDescriptor(form="trig", label=f"sin(u{mid})",
                                coords=(mid,), trig="sin", frequency=1.0),
                BasisDescriptor(form="trig", label=f"cos(ud{mid})",
                                coords=(mid,), trig="cos", frequency=1.0,
                                on_velocity=True),
            ]
        targets = list(free)
    frozen = tuple(bases)
    return [
        CandidateLibrary(bases=frozen, target_coord=i, kinetic_index=None)
        for i in targets
    ]


# ---------------------------------------------------------------------------
# Composition dump
# ---------------------------------------------------------------------------


def library_to_json(lib: CandidateLibrary) -> str:
    """Serialize a library's full composition for run audit trails."""
    payload = {
        "target_coord": lib.target_coord,
        "kinetic_index": lib.kinetic_index,
        "size": lib.size,
        "bases": [
            {
                "label": b.label,
                "form": b.form,
                "coords": list(b.coords),
                "degree": b.degree,
                "trig": b.trig,
                "frequency": b.frequency,
                "on_velocity": b.on_velocity,
                "velocity_mask": list(b.velocity_mask),
                "derivative_order": b.derivative_order,
            }
            for b in lib.bases
        ],
    }
    return json.dumps(payload, sort_keys=True)
