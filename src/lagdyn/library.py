"""Candidate basis libraries and ensemble-expected Euler-Lagrange features.

A candidate Lagrangian (or diffusion potential) is a sparse combination of
basis descriptors: monomials of positions and velocities, pairwise
difference monomials, trigonometric terms, spatial-derivative monomials of
field values, and, in diffusion libraries only, absolute values and
products. Each form has one constructor, which derives the label from the
descriptor's fields; one rule (_targets) lists both builders' targets.
Every descriptor evaluates pointwise on trajectory samples; the forms a
Lagrangian library holds also have closed-form partial derivatives with
respect to positions and velocities (the diffusion-only forms are never
differentiated), so the Euler-Lagrange image of a whole library can be
assembled over an ensemble:

    EL_i(D) = d/dt (dD/dv_i) - dD/du_i

averaged over realizations. For spatial-derivative monomials the position
derivative is the discrete variational derivative of the node-summed
density, attributed to the same-node basis (cross-node bases have a zero
image); the gradient family uses forward differences and the curvature
family central second differences, so the variational images reproduce the
narrow [1,-2,1]/dx^2 and [1,-4,6,-4,1]/dx^4 operators exactly at interior
nodes. Only bases whose image at the target can be nonzero are assembled.
Accumulation order over realizations is fixed, so results are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from lagdyn import numdiff
from lagdyn.errors import ConfigError, RegressionError
from lagdyn.sim import Ensemble, TrainingRecord

# The forms a Lagrangian library holds; only they have closed-form partials.
_LAGRANGIAN_FORMS = (
    "constant",
    "kinetic",
    "monomial",
    "difference-monomial",
    "trig",
    "spatial-monomial",
)
FORMS = _LAGRANGIAN_FORMS + ("abs-product", "abs", "product")


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


# ---------------------------------------------------------------------------
# Basis constructors: each derives its label from its fields
# ---------------------------------------------------------------------------

_CONSTANT = BasisDescriptor(form="constant", label="1")


def monomial(name: str, coord: int, degree: int,
             on_velocity: bool = False) -> BasisDescriptor:
    """name^degree of one coordinate; labelled name at degree 1, and the
    constant basis "1" at degree 0."""
    if degree == 0:
        return _CONSTANT
    return BasisDescriptor(
        form="monomial", label=name if degree == 1 else f"{name}^{degree}",
        coords=(coord,), degree=degree, on_velocity=on_velocity,
    )


def trig(fn: str, freq: float, name: str, coord: int,
         on_velocity: bool = False) -> BasisDescriptor:
    """fn(freq * name) for fn sin or cos; labelled fn(name) at frequency 1,
    fn(3name) at frequency 3."""
    k = int(freq)
    inner = name if k == 1 else f"{k}{name}"
    return BasisDescriptor(
        form="trig", label=f"{fn}({inner})", coords=(coord,), trig=fn,
        frequency=float(freq), on_velocity=on_velocity,
    )


def difference(names: Sequence[str] | dict[int, str], a: int, b: int,
               degree: int) -> BasisDescriptor:
    """(u_a - u_b)^degree, with names[i] the name of coordinate i;
    labelled (A-B) at degree 1, (A-B)^degree above."""
    label = f"({names[a]}-{names[b]})"
    if degree != 1:
        label += f"^{degree}"
    return BasisDescriptor(
        form="difference-monomial", label=label, coords=(a, b), degree=degree,
    )


def _kinetic(vel_name: str, coord: int) -> BasisDescriptor:
    return BasisDescriptor(form="kinetic", label=f"0.5*{vel_name}^2",
                           coords=(coord,))


def _spatial(order: int, node: int, degree: int) -> BasisDescriptor:
    """Slope (order 1, uxN) or curvature (order 2, uxxN) at node N, raised
    to degree."""
    name = f"u{'x' * order}{node}"
    return BasisDescriptor(
        form="spatial-monomial", label=monomial(name, node, degree).label,
        coords=(node,), degree=degree, derivative_order=order,
    )


def _product(pos_names: Sequence[str], vel_names: Sequence[str], a: int,
             b: int, velocity_mask: tuple[bool, bool] = (False, False)
             ) -> BasisDescriptor:
    """Product of two coordinate series, labelled A*B."""
    names = [(vel_names if on_v else pos_names)[c]
             for c, on_v in zip((a, b), velocity_mask)]
    return BasisDescriptor(
        form="product", label="*".join(names), coords=(a, b),
        velocity_mask=velocity_mask,
    )


def _abs(form: str, name: str, coord: int,
         on_velocity: bool = False) -> BasisDescriptor:
    """|x| (form abs) or x|x| (form abs-product)."""
    label = f"|{name}|" if form == "abs" else f"{name}|{name}|"
    return BasisDescriptor(
        form=form, label=label, coords=(coord,), on_velocity=on_velocity,
    )


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
    x = _series(basis, 0, displacement, velocity)
    if form == "kinetic":
        return 0.5 * x ** 2
    if form == "monomial":
        return x ** basis.degree
    if form == "trig":
        fn = np.sin if basis.trig == "sin" else np.cos
        return fn(basis.frequency * x)
    if form == "abs-product":
        return x * np.abs(x)
    if form == "abs":
        return np.abs(x)
    y = _series(basis, 1, displacement, velocity)
    if form == "difference-monomial":
        return (x - y) ** basis.degree
    return x * y  # product


def basis_partials(
    basis: BasisDescriptor,
    displacement: np.ndarray,
    velocity: np.ndarray,
    dx: float | None,
    target: int,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Analytic (dD/du_target, dD/dv_target) series for one realization.

    Returns None in a slot to mean an identically zero derivative. Only
    the forms a Lagrangian library holds have partials. For the
    spatial-monomial form the position derivative is the node-summed
    density's variational derivative at the target, reported on the
    same-node basis only (zero for other nodes).
    """
    form = basis.form
    if form not in _LAGRANGIAN_FORMS:
        raise ConfigError(
            f"basis '{basis.label}' has no closed-form partials ({form} form)"
        )
    if form == "constant" or target not in basis.coords:
        return None, None
    if form == "kinetic":
        return None, _series(basis, 0, displacement, velocity)
    if form == "spatial-monomial":
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
    if form == "difference-monomial":
        diff = (
            _series(basis, 0, displacement, velocity)
            - _series(basis, 1, displacement, velocity)
        )
        d = basis.degree
        grad = float(d) * diff ** (d - 1) if d > 1 else np.ones_like(diff)
        if target == basis.coords[1]:
            grad = -grad
        return grad, None
    x = _series(basis, 0, displacement, velocity)
    if form == "monomial":
        d = basis.degree
        grad = float(d) * x ** (d - 1) if d > 1 else np.ones_like(x)
    else:
        k = basis.frequency
        if basis.trig == "sin":
            grad = k * np.cos(k * x)
        else:
            grad = -k * np.sin(k * x)
    return (None, grad) if basis.on_velocity else (grad, None)


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

def _live_bases(lib: CandidateLibrary, n: int) -> list[int]:
    """Bases whose partials at the target are not both identically zero.

    basis_partials decides None from the descriptor and the target alone,
    so zero samples answer for every ensemble of n coordinates. The other
    bases have an exactly zero Euler-Lagrange column.
    """
    return [
        j for j, basis in enumerate(lib.bases)
        if any(p is not None for p in basis_partials(
            basis, _ReadLog(n), _ReadLog(n), 1.0, lib.target_coord))
    ]


def el_transform(
    lib: CandidateLibrary,
    ensemble: Ensemble | TrainingRecord,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Assemble E[d/dt dD/dv_i - dD/du_i] for the bases that read the target.

    The momentum derivative is forward-differenced in time per realization
    before averaging; the position derivative is averaged directly. Bases
    whose partials at the target are identically zero are not assembled.

    The discovered coefficients C satisfy label = -features @ C: the
    Euler-Lagrange image of the full Lagrangian (unit kinetic coefficient
    plus C on the rest) vanishes, so the kinetic column moves across the
    equality with a sign flip.

    Args:
        lib: Candidate Lagrangian library with its target coordinate.
        ensemble: Simulation data: a full Ensemble, or a TrainingRecord
            holding the rows of training_rows (see discovery).

    Returns:
        (label, features, feature_labels): label is the kinetic basis
        column (N_t,), features the other assembled columns (N_t, p) in
        library order, feature_labels their basis labels.
    """
    if lib.kinetic_index is None:
        raise ConfigError("Euler-Lagrange features need a kinetic basis")
    dx = None
    if ensemble.spatial_grid is not None:
        dx = float(ensemble.spatial_grid[1] - ensemble.spatial_grid[0])

    live = _live_bases(lib, ensemble.coords)
    sums = np.zeros((len(live), ensemble.n_steps))
    for k in range(ensemble.n_real):
        u, v = ensemble.realization(k)
        for row, j in enumerate(live):
            pu, pv = basis_partials(lib.bases[j], u, v, dx, lib.target_coord)
            if pv is not None:
                sums[row] += numdiff.forward_first_derivative(pv, ensemble.dt)
            if pu is not None:
                sums[row] -= pu
    sums /= ensemble.n_real
    bad = ~np.all(np.isfinite(sums), axis=1)
    if bad.any():
        label = lib.bases[live[int(np.flatnonzero(bad)[0])]].label
        raise RegressionError(
            f"non-finite Euler-Lagrange column for basis '{label}'"
        )
    kinetic = live.index(lib.kinetic_index)
    rest = [row for row in range(len(live)) if row != kinetic]
    return (
        sums[kinetic],
        sums[rest].T,
        tuple(lib.bases[live[row]].label for row in rest),
    )


# ---------------------------------------------------------------------------
# Library builders
# ---------------------------------------------------------------------------

# Particle count of each discrete benchmark class.
_PARTICLES = {"harmonic": 1, "pendulum": 1, "duffing": 1, "3dof": 3}
_FIELD_KINDS = ("wave", "beam")


def _targets(kind: str, coords: int) -> list[int]:
    """Target coordinates of a kind's libraries, its coordinate count checked.

    Every particle; every wave node except the two clamped ends; every
    beam node except the root.
    """
    if kind in _PARTICLES:
        if coords != _PARTICLES[kind]:
            raise ConfigError(
                f"'{kind}' has {_PARTICLES[kind]} coordinate(s), got {coords}"
            )
        return list(range(coords))
    if kind not in _FIELD_KINDS:
        raise ConfigError(f"unknown library kind '{kind}'")
    if coords < 7:
        raise ConfigError("field libraries need at least 7 grid nodes")
    return list(range(1, coords - 1 if kind == "wave" else coords))


def _coord_names(kind: str, n: int) -> tuple[list[str], list[str]]:
    """Position and velocity names: X, Xd for one particle, X1, X1d, ...
    for several, u0, ud0, ... on a grid."""
    if kind in _FIELD_KINDS:
        return [f"u{i}" for i in range(n)], [f"ud{i}" for i in range(n)]
    if n == 1:
        return ["X"], ["Xd"]
    return [f"X{i + 1}" for i in range(n)], [f"X{i + 1}d" for i in range(n)]


def _libraries(
    bases: Sequence[BasisDescriptor],
    targets: Sequence[int],
    vel_names: Sequence[str] | None = None,
) -> list[CandidateLibrary]:
    """One library per target over the shared bases; given velocity
    names, each points at its target's kinetic basis."""
    frozen = tuple(bases)
    return [
        CandidateLibrary(
            bases=frozen,
            target_coord=i,
            kinetic_index=(None if vel_names is None
                           else frozen.index(_kinetic(vel_names[i], i))),
        )
        for i in targets
    ]


def _particle_lagrangian_bases(
    pos_names: Sequence[str],
    vel_names: Sequence[str],
    degree_cap: int,
    velocity_degrees: Sequence[int],
    pos_freqs: Sequence[int],
    vel_freqs: Sequence[int],
    difference_pairs: Sequence[tuple[int, int]] = (),
    difference_degrees: Sequence[int] = (),
) -> list[BasisDescriptor]:
    n = len(pos_names)
    bases: list[BasisDescriptor] = []
    for names, degrees, on_velocity in (
            (pos_names, range(1, degree_cap + 1), False),
            (vel_names, velocity_degrees, True)):
        for i in range(n):
            for d in degrees:
                bases.append(monomial(names[i], i, d, on_velocity))
    for names, freqs, on_velocity in ((pos_names, pos_freqs, False),
                                      (vel_names, vel_freqs, True)):
        for i in range(n):
            for k in freqs:
                for fn in ("sin", "cos"):
                    bases.append(trig(fn, k, names[i], i, on_velocity))
    for a, b in difference_pairs:
        for d in difference_degrees:
            bases.append(difference(pos_names, a, b, d))
    return bases


def _scaled_nodes(n: int, fractions: Sequence[float]) -> list[int]:
    return [int(round(f * (n - 1))) for f in fractions]


def _field_lagrangian_bases(
    kind: str, n: int, free: Sequence[int], pos_names: Sequence[str]
) -> list[BasisDescriptor]:
    bases: list[BasisDescriptor] = []
    if kind == "wave":
        orders = (1,)
        quad_nodes = [i for i in free if i % 2 == 1]
        quartic_nodes = _scaled_nodes(n, (0.25, 0.49, 0.75))
        trig_nodes = _scaled_nodes(n, (0.33, 0.67))
    else:
        orders = (2, 1)
        quad_nodes = list(free)
        quartic_nodes = _scaled_nodes(
            n, tuple(0.05 + 0.1 * j for j in range(10))
        )
        trig_nodes = quartic_nodes
    for order in orders:
        for i in free:
            bases.append(_spatial(order, i, 2))
    for i in quad_nodes:
        bases.append(monomial(pos_names[i], i, 2))
    for i in quartic_nodes:
        bases.append(monomial(pos_names[i], i, 4))
    for i in trig_nodes:
        bases.append(trig("sin", 3, pos_names[i], i))
    return bases


# Discrete compositions: position degrees 1..degree_cap, velocity degrees,
# position and velocity trig frequencies, and for 3dof the neighbour
# differences.
_PARTICLE_TERMS = {
    "harmonic": dict(degree_cap=3, velocity_degrees=(1, 3),
                     pos_freqs=(1, 2, 3, 4, 5), vel_freqs=(1, 2, 3, 4)),
    "pendulum": dict(degree_cap=3, velocity_degrees=(1, 3),
                     pos_freqs=(1, 2, 3, 4, 5), vel_freqs=(1, 2, 3, 4)),
    "duffing": dict(degree_cap=6, velocity_degrees=(1, 3, 4),
                    pos_freqs=(3,), vel_freqs=(1,)),
    "3dof": dict(degree_cap=3, velocity_degrees=(1, 3),
                 pos_freqs=(1, 2), vel_freqs=(1, 2),
                 difference_pairs=((1, 0), (2, 1)),
                 difference_degrees=(2, 3, 4, 5)),
}


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
    targets = _targets(kind, coords)
    pos_names, vel_names = _coord_names(kind, coords)
    # The coupled 3dof library has no constant basis.
    bases = [] if kind == "3dof" else [_CONSTANT]
    for i in targets:
        bases.append(_kinetic(vel_names[i], i))
    if kind in _FIELD_KINDS:
        bases += _field_lagrangian_bases(kind, coords, targets, pos_names)
    else:
        bases += _particle_lagrangian_bases(pos_names, vel_names,
                                            **_PARTICLE_TERMS[kind])
    return _libraries(bases, targets, vel_names)


def build_diffusion_library(kind: str, coords: int) -> list[CandidateLibrary]:
    """Build the candidate diffusion (Wiener potential) library.

    Returns one CandidateLibrary per target equation sharing the same
    bases; defaults fix the per-benchmark sizes (12/12/12/17/204/200).

    Args:
        kind: Benchmark class name.
        coords: Number of coordinates.
    """
    targets = _targets(kind, coords)
    pos_names, vel_names = _coord_names(kind, coords)
    # Degrees 1 and 2 of each target's displacement and a particle's velocity.
    families = [(pos_names, False)]
    if kind not in _FIELD_KINDS:
        families.append((vel_names, True))
    bases: list[BasisDescriptor] = []
    for d in (1, 2):
        for names, on_velocity in families:
            for i in targets:
                bases.append(monomial(names[i], i, d, on_velocity))
    if kind == "wave":
        mid = _scaled_nodes(coords, (0.5,))[0]
        bases += [
            monomial(vel_names[mid], mid, 1, on_velocity=True),
            monomial(vel_names[mid], mid, 2, on_velocity=True),
            _spatial(1, mid, 1),
            _spatial(1, mid, 2),
            trig("sin", 1, pos_names[mid], mid),
            trig("cos", 1, vel_names[mid], mid, on_velocity=True),
        ]
    elif kind == "3dof":
        for i in targets:
            bases.append(trig("sin", 1, pos_names[i], i))
        bases.append(_product(pos_names, vel_names, 0, 1))
        bases.append(_product(pos_names, vel_names, 1, 2))
    elif kind in _PARTICLES:
        bases.append(_product(pos_names, vel_names, 0, 0, (False, True)))
        for names, on_velocity in ((pos_names, False), (vel_names, True)):
            for fn in ("sin", "cos"):
                bases.append(trig(fn, 1, names[0], 0, on_velocity))
        bases += [
            _abs("abs-product", pos_names[0], 0),
            _abs("abs-product", vel_names[0], 0, on_velocity=True),
            _abs("abs", pos_names[0], 0),
        ]
    return _libraries(bases, targets)
