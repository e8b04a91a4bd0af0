"""Tests for candidate libraries and Euler-Lagrange feature assembly."""

import hashlib

import numpy as np
import pytest

import helpers
from lagdyn import bench, discovery
from lagdyn import library as lb
from lagdyn import sim
from lagdyn.errors import ConfigError, RegressionError


def _labels(lib):
    return lib.labels


# ---------------------------------------------------------------------------
# Descriptor evaluation
# ---------------------------------------------------------------------------


def test_eval_monomial_square():
    basis = lb.BasisDescriptor(form="monomial", label="X^2", coords=(0,), degree=2)
    u = np.array([[0.5]])
    v = np.array([[0.0]])
    assert lb.eval_basis(basis, u, v) == pytest.approx(0.25)


def test_eval_cosine_at_zero():
    basis = lb.BasisDescriptor(
        form="trig", label="cos(X)", coords=(0,), trig="cos", frequency=1.0
    )
    u = np.array([[0.0]])
    v = np.array([[0.0]])
    assert lb.eval_basis(basis, u, v) == pytest.approx(1.0)


def test_eval_difference_square():
    basis = lb.BasisDescriptor(
        form="difference-monomial", label="(X2-X1)^2", coords=(1, 0), degree=2
    )
    u = np.array([[0.25], [0.5]])
    v = np.zeros((2, 1))
    assert lb.eval_basis(basis, u, v) == pytest.approx(0.0625)


def test_eval_remaining_forms():
    u = np.array([[3.0, -2.0]])
    v = np.array([[4.0, 0.5]])
    kin = lb.BasisDescriptor(form="kinetic", label="0.5*Xd^2", coords=(0,))
    assert lb.eval_basis(kin, u, v) == pytest.approx([8.0, 0.125])
    const = lb.BasisDescriptor(form="constant", label="1")
    assert lb.eval_basis(const, u, v) == pytest.approx([1.0, 1.0])
    absp = lb.BasisDescriptor(form="abs-product", label="X|X|", coords=(0,))
    assert lb.eval_basis(absp, u, v) == pytest.approx([9.0, -4.0])
    ab = lb.BasisDescriptor(form="abs", label="|X|", coords=(0,))
    assert lb.eval_basis(ab, u, v) == pytest.approx([3.0, 2.0])
    prod = lb.BasisDescriptor(
        form="product", label="X*Xd", coords=(0, 0), velocity_mask=(False, True)
    )
    assert lb.eval_basis(prod, u, v) == pytest.approx([12.0, -1.0])
    vmono = lb.BasisDescriptor(
        form="monomial", label="Xd^3", coords=(0,), degree=3, on_velocity=True
    )
    assert lb.eval_basis(vmono, u, v) == pytest.approx([64.0, 0.125])


def test_eval_spatial_values_polynomial_oracles():
    n, dx = 41, 0.025
    x = np.arange(n) * dx
    # Forward difference of 3x^2 + 2x is 6x + 2 + 3dx exactly.
    u = (3.0 * x**2 + 2.0 * x)[:, None]
    grad = lb.BasisDescriptor(
        form="spatial-monomial", label="ux10", coords=(10,), degree=1,
        derivative_order=1,
    )
    assert lb.eval_basis(grad, u, np.zeros_like(u), dx=dx) == pytest.approx(
        6.0 * x[10] + 2.0 + 3.0 * dx
    )
    # The last node falls back to the backward difference: 6x + 2 - 3dx.
    last = lb.BasisDescriptor(
        form="spatial-monomial", label="ux", coords=(n - 1,), degree=1,
        derivative_order=1,
    )
    assert lb.eval_basis(last, u, np.zeros_like(u), dx=dx) == pytest.approx(
        6.0 * x[-1] + 2.0 - 3.0 * dx
    )
    # Central second difference of x^3 gives 6x exactly at interior nodes.
    u3 = (x**3)[:, None]
    curv = lb.BasisDescriptor(
        form="spatial-monomial", label="uxx7", coords=(7,), degree=1,
        derivative_order=2,
    )
    assert lb.eval_basis(curv, u3, np.zeros_like(u3), dx=dx) == pytest.approx(
        6.0 * x[7]
    )
    # The one-sided end stencil is exact for quadratics: curvature of x^2 is 2.
    u2 = (x**2)[:, None]
    for node in (0, n - 1):
        end = lb.BasisDescriptor(
            form="spatial-monomial", label=f"uxx{node}", coords=(node,),
            degree=1, derivative_order=2,
        )
        assert lb.eval_basis(end, u2, np.zeros_like(u2), dx=dx) == pytest.approx(
            2.0
        )


def test_eval_rejects_bad_inputs():
    u = np.zeros((1, 4))
    v = np.zeros((1, 4))
    out_of_range = lb.BasisDescriptor(
        form="monomial", label="X6", coords=(5,), degree=1
    )
    with pytest.raises(ConfigError):
        lb.eval_basis(out_of_range, u, v)
    spatial = lb.BasisDescriptor(
        form="spatial-monomial", label="ux0", coords=(0,), degree=1,
        derivative_order=1,
    )
    with pytest.raises(ConfigError):
        lb.eval_basis(spatial, u, v)  # no grid spacing
    with pytest.raises(ConfigError):
        lb.BasisDescriptor(form="mystery", label="?")


# ---------------------------------------------------------------------------
# Analytic partial derivatives against finite differences
# ---------------------------------------------------------------------------


def _fd_partials(basis, u, v, dx, target, h=1e-6):
    def value(du, dv):
        return lb.eval_basis(basis, u + du, v + dv, dx=dx)

    bump_u = np.zeros_like(u)
    bump_u[target] = h
    bump_v = np.zeros_like(v)
    bump_v[target] = h
    pu = (value(bump_u, 0.0) - value(-bump_u, 0.0)) / (2.0 * h)
    pv = (value(0.0, bump_v) - value(0.0, -bump_v)) / (2.0 * h)
    return pu, pv


def test_partials_match_finite_differences():
    rng = np.random.default_rng(42)
    n_states = 100
    signs = rng.choice([-1.0, 1.0], size=(3, n_states))
    u = signs * rng.uniform(0.2, 1.0, size=(3, n_states))
    v = -signs * rng.uniform(0.2, 1.0, size=(3, n_states))
    bag = [
        lb.BasisDescriptor(form="constant", label="1"),
        lb.BasisDescriptor(form="kinetic", label="k1", coords=(1,)),
        lb.BasisDescriptor(form="monomial", label="m1", coords=(0,), degree=3),
        lb.BasisDescriptor(form="monomial", label="m2", coords=(2,), degree=1),
        lb.BasisDescriptor(form="monomial", label="m3", coords=(1,), degree=4,
                           on_velocity=True),
        lb.BasisDescriptor(form="difference-monomial", label="d1",
                           coords=(1, 0), degree=3),
        lb.BasisDescriptor(form="difference-monomial", label="d2",
                           coords=(2, 1), degree=2),
        lb.BasisDescriptor(form="trig", label="t1", coords=(0,), trig="sin",
                           frequency=3.0),
        lb.BasisDescriptor(form="trig", label="t2", coords=(2,), trig="cos",
                           frequency=2.0, on_velocity=True),
    ]
    for basis in bag:
        for target in range(3):
            pu, pv = lb.basis_partials(basis, u, v, None, target)
            fd_u, fd_v = _fd_partials(basis, u, v, None, target)
            got_u = np.zeros(n_states) if pu is None else pu
            got_v = np.zeros(n_states) if pv is None else pv
            assert np.allclose(got_u, fd_u, rtol=1e-6, atol=1e-8), basis.label
            assert np.allclose(got_v, fd_v, rtol=1e-6, atol=1e-8), basis.label
    # Diffusion-only forms are evaluated, never differentiated.
    abs_basis = lb.BasisDescriptor(form="abs", label="|X|", coords=(0,))
    with pytest.raises(ConfigError, match="no closed-form partials"):
        lb.basis_partials(abs_basis, u, v, None, 0)


def _density_sum(u, dx, order, degree):
    n = u.shape[0]
    if order == 1:
        rows = [(u[j + 1] - u[j]) / dx for j in range(n - 1)]
    else:
        rows = [
            (u[j + 1] - 2.0 * u[j] + u[j - 1]) / dx**2 for j in range(1, n - 1)
        ]
    return sum(r**degree for r in rows)


def test_variational_delta_matches_density_finite_difference():
    rng = np.random.default_rng(7)
    n, dx = 21, 0.05
    u = rng.normal(size=n)
    h = 1e-6
    for order in (1, 2):
        for degree in (2, 3, 4):
            for node in range(n):
                bump = np.zeros(n)
                bump[node] = h
                fd = (
                    _density_sum(u + bump, dx, order, degree)
                    - _density_sum(u - bump, dx, order, degree)
                ) / (2.0 * h)
                got = lb._variational_delta(u, dx, order, degree, node)
                assert np.allclose(got, fd, rtol=1e-5, atol=1e-6)


def test_variational_delta_reproduces_narrow_operators():
    rng = np.random.default_rng(11)
    n, dx = 101, 0.01
    u = rng.normal(size=n)
    lap = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
    for i in range(1, n - 1):
        got = lb._variational_delta(u, dx, 1, 2, i)
        assert got == pytest.approx(-2.0 * lap[i - 1], rel=1e-12)
    d4 = (
        u[:-4] - 4.0 * u[1:-3] + 6.0 * u[2:-2] - 4.0 * u[3:-1] + u[4:]
    ) / dx**4
    for i in range(2, n - 2):
        got = lb._variational_delta(u, dx, 2, 2, i)
        assert got == pytest.approx(2.0 * d4[i - 2], rel=1e-12)


# ---------------------------------------------------------------------------
# Library builders: frozen compositions
# ---------------------------------------------------------------------------


def test_single_particle_lagrangian_compositions():
    for kind, size in (("harmonic", 25), ("pendulum", 25), ("duffing", 15)):
        libs = lb.build_lagrangian_library(kind, 1)
        assert len(libs) == 1
        lib = libs[0]
        assert lib.size == size
        assert lib.target_coord == 0
        assert lib.bases[lib.kinetic_index].label == "0.5*Xd^2"
        assert len(set(lib.labels)) == size
    harm = lb.build_lagrangian_library("harmonic", 1)[0].labels
    for want in ("1", "X", "X^2", "X^3", "Xd", "Xd^3", "sin(5X)", "cos(4Xd)"):
        assert want in harm
    duff = lb.build_lagrangian_library("duffing", 1)[0].labels
    for want in ("X^6", "Xd^4", "sin(3X)", "cos(Xd)"):
        assert want in duff
    assert "cos(X)" not in duff


def test_three_particle_lagrangian_composition():
    libs = lb.build_lagrangian_library("3dof", 3)
    assert len(libs) == 3
    assert all(lib.size == 50 for lib in libs)
    assert libs[0].bases is libs[1].bases is libs[2].bases
    labels = libs[0].labels
    assert "1" not in labels
    for want in ("0.5*X1d^2", "0.5*X3d^2", "X2^3", "X3d^3", "sin(2X2)",
                 "cos(2X1d)", "(X2-X1)^2", "(X3-X2)^5"):
        assert want in labels
    assert [libs[i].target_coord for i in range(3)] == [0, 1, 2]
    assert libs[1].bases[libs[1].kinetic_index].label == "0.5*X2d^2"


def test_field_lagrangian_compositions():
    wave = lb.build_lagrangian_library("wave", 101)
    assert len(wave) == 99
    assert all(lib.size == 254 for lib in wave)
    labels = wave[0].labels
    for want in ("1", "0.5*ud1^2", "0.5*ud99^2", "ux1^2", "ux99^2", "u1^2",
                 "u99^2", "u25^4", "u49^4", "u75^4", "sin(3u33)", "sin(3u67)"):
        assert want in labels
    assert "u2^2" not in labels  # displacement squares sit on odd nodes only
    assert "uxx1^2" not in labels
    mid = next(lib for lib in wave if lib.target_coord == 50)
    assert mid.bases[mid.kinetic_index].label == "0.5*ud50^2"

    beam = lb.build_lagrangian_library("beam", 101)
    assert len(beam) == 100
    assert all(lib.size == 421 for lib in beam)
    labels = beam[0].labels
    for want in ("1", "0.5*ud100^2", "uxx1^2", "uxx100^2", "ux50^2", "u100^2",
                 "u5^4", "u95^4", "sin(3u5)", "sin(3u95)"):
        assert want in labels
    assert "u0^2" not in labels  # the clamped node carries no candidates


def test_diffusion_compositions():
    for kind in ("harmonic", "pendulum", "duffing"):
        libs = lb.build_diffusion_library(kind, 1)
        assert len(libs) == 1
        lib = libs[0]
        assert lib.kinetic_index is None
        assert lib.labels == (
            "X", "Xd", "X^2", "Xd^2", "X*Xd", "sin(X)", "cos(X)", "sin(Xd)",
            "cos(Xd)", "X|X|", "Xd|Xd|", "|X|",
        )
    three = lb.build_diffusion_library("3dof", 3)
    assert len(three) == 3
    assert all(lib.size == 17 for lib in three)
    labels = three[0].labels
    for want in ("X1", "X3d", "X2^2", "X1d^2", "sin(X3)", "X1*X2", "X2*X3"):
        assert want in labels
    wave = lb.build_diffusion_library("wave", 101)
    assert len(wave) == 99
    assert all(lib.size == 204 for lib in wave)
    labels = wave[0].labels
    for want in ("u1", "u99", "u1^2", "u99^2", "ud50", "ud50^2", "ux50",
                 "ux50^2", "sin(u50)", "cos(ud50)"):
        assert want in labels
    beam = lb.build_diffusion_library("beam", 101)
    assert len(beam) == 100
    assert all(lib.size == 200 for lib in beam)
    labels = beam[0].labels
    assert "u100" in labels and "u100^2" in labels
    assert all(s.startswith("u") and "d" not in s for s in labels)


def test_library_options_contract():
    with pytest.raises(ConfigError):
        lb.build_lagrangian_library("vortex", 1)
    with pytest.raises(ConfigError):
        lb.build_lagrangian_library("3dof", 2)
    with pytest.raises(ConfigError):
        lb.build_lagrangian_library("wave", 5)
    with pytest.raises(ConfigError, match="unknown library kind"):
        lb.build_diffusion_library("vortex", 1)
    with pytest.raises(ConfigError, match="'3dof' has 3 coordinate"):
        lb.build_diffusion_library("3dof", 2)
    with pytest.raises(ConfigError, match="at least 7 grid nodes"):
        lb.build_diffusion_library("wave", 5)


# SHA-256 of each benchmark-size library's (bases, target, kinetic index)
# reprs, computed before the builders were rewritten on the basis
# constructors; Lagrangian before diffusion.
PINNED_LIBRARIES = {
    "harmonic": ("226eaeb9a9a83a3d28cced84af4b80f21cc2cf75c28e36c2513278e296b10bd6",
                 "3060de54041275a0bdccb2f3f8fb80a76b2b8683de49a5891f9516ea7d6afbf1"),
    "pendulum": ("226eaeb9a9a83a3d28cced84af4b80f21cc2cf75c28e36c2513278e296b10bd6",
                 "3060de54041275a0bdccb2f3f8fb80a76b2b8683de49a5891f9516ea7d6afbf1"),
    "duffing": ("c3e4672bfc9c219e223be75f9a37fc9c11af4c53acf35b404479500b9cd6b5fc",
                "3060de54041275a0bdccb2f3f8fb80a76b2b8683de49a5891f9516ea7d6afbf1"),
    "3dof": ("ed5129ea998e47fae75ba9b9cecbcfc5ebd7e078afbb1bb8fd670afbadfff597",
             "35a6283da19be052d9c9c0f93031fd67491f5f8fdb9d81897c3c520dc41a4239"),
    "wave": ("62a240980dd2e9796385cde7505befc13b7ff2880348f49ec09cc30489cbd68f",
             "cba9205985eff602841ba5ef0404ed8774585e6a103e2df02be82079dfc28a4d"),
    "beam": ("111ba0712cb478d05ef1ae23a3b12197d2a30fd8ab503a061afb81d13d961c0f",
             "e0edb3bc4a5eef81305691d02fbdc3845fed6088d18f2ab3505d0988bedaf54e"),
}


def test_library_compositions_are_pinned():
    digests = []
    for kind, pinned in PINNED_LIBRARIES.items():
        dim = sim.benchmark_spec(kind).dim
        for build, want in zip((lb.build_lagrangian_library,
                                lb.build_diffusion_library), pinned):
            text = "\n".join(repr((lib.bases, lib.target_coord, lib.kinetic_index))
                             for lib in build(kind, dim))
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == want, (kind, build.__name__)
            digests.append(digest)
    overall = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert overall.startswith("a530b1876d16463c")


def test_candidate_library_validation():
    kin = lb.BasisDescriptor(form="kinetic", label="k", coords=(0,))
    mono = lb.BasisDescriptor(form="monomial", label="m", coords=(0,), degree=2)
    with pytest.raises(ConfigError):
        lb.CandidateLibrary(bases=(kin,), target_coord=0, kinetic_index=0)
    with pytest.raises(ConfigError):
        lb.CandidateLibrary(
            bases=(kin, lb.BasisDescriptor(form="kinetic", label="k", coords=(0,))),
            target_coord=0, kinetic_index=0,
        )
    with pytest.raises(ConfigError):
        lb.CandidateLibrary(bases=(kin, mono), target_coord=0, kinetic_index=1)
    with pytest.raises(ConfigError):
        lb.CandidateLibrary(bases=(kin, mono), target_coord=0, kinetic_index=5)
    lib = lb.CandidateLibrary(bases=(kin, mono), target_coord=0, kinetic_index=0)
    assert lib.size == 2


# ---------------------------------------------------------------------------
# Euler-Lagrange transform
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quiet_harmonic():
    spec = helpers.silence(sim.benchmark_spec("harmonic"))
    return sim.generate_ensemble(spec, dt=1e-3, t_f=0.5, n_real=3, base_seed=5)


def _columns(lib, ens):
    """Assembled Euler-Lagrange columns by basis label, kinetic included."""
    label, features, names = lb.el_transform(lib, ens)
    columns = dict(zip(names, features.T))
    columns[lib.bases[lib.kinetic_index].label] = label
    return columns


def test_el_kinetic_reproduces_acceleration(quiet_harmonic):
    # Noiseless Taylor 1.5 steps v by dt * (-1000 x - 500 dt v), so the
    # forward difference of the momentum is exactly that on rows
    # 0..N_t-2 (the last row repeats the backward difference).
    lib = lb.build_lagrangian_library("harmonic", 1)[0]
    label, _, _ = lb.el_transform(lib, quiet_harmonic)
    mean_x = quiet_harmonic.displacement.mean(axis=0)[0]
    mean_v = quiet_harmonic.velocity.mean(axis=0)[0]
    expected = (-1000.0 * mean_x - 500.0 * quiet_harmonic.dt * mean_v)[:-1]
    assert np.linalg.norm(label[:-1] - expected) <= 1e-12 * np.linalg.norm(expected)


def test_el_monomial_columns_are_exact_expectations(quiet_harmonic):
    lib = lb.build_lagrangian_library("harmonic", 1)[0]
    columns = _columns(lib, quiet_harmonic)
    mean_x = quiet_harmonic.displacement.mean(axis=0)[0]
    col_sq = columns["X^2"]
    assert np.allclose(col_sq, -2.0 * mean_x, rtol=1e-12, atol=1e-14)
    col_lin = columns["X"]
    assert np.allclose(col_lin, -1.0, rtol=0, atol=1e-12)
    # The constant's image is identically zero, so it gets no column.
    assert "1" not in columns


def test_el_expectation_linearity(quiet_harmonic):
    lib = lb.build_lagrangian_library("harmonic", 1)[0]
    columns = _columns(lib, quiet_harmonic)
    combined = np.zeros(quiet_harmonic.n_steps)
    for k in range(quiet_harmonic.n_real):
        u = quiet_harmonic.displacement[k, 0]
        combined += -(1.0 + 2.0 * u)  # EL image of the density X + X^2
    combined /= quiet_harmonic.n_real
    total = columns["X"] + columns["X^2"]
    assert np.allclose(total, combined, rtol=1e-12, atol=1e-13)


def test_el_transform_is_deterministic(quiet_harmonic):
    lib = lb.build_lagrangian_library("harmonic", 1)[0]
    a = lb.el_transform(lib, quiet_harmonic)
    b = lb.el_transform(lib, quiet_harmonic)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[2] == b[2]


def test_el_transform_needs_a_kinetic_basis(quiet_harmonic):
    diffusion = lb.build_diffusion_library("harmonic", 1)[0]
    with pytest.raises(ConfigError, match="kinetic"):
        lb.el_transform(diffusion, quiet_harmonic)


def test_el_transform_flags_non_finite_column(quiet_harmonic):
    lib = lb.build_lagrangian_library("harmonic", 1)[0]
    ens = sim.Ensemble(
        dt=quiet_harmonic.dt,
        n_steps=quiet_harmonic.n_steps,
        n_real=quiet_harmonic.n_real,
        coords=quiet_harmonic.coords,
        displacement=quiet_harmonic.displacement.copy(),
        velocity=quiet_harmonic.velocity.copy(),
    )
    ens.displacement[0, 0, 3] = np.nan
    with pytest.raises(RegressionError, match="X\\^2"):
        lb.el_transform(lib, ens)


def test_el_cross_coordinate_difference_terms():
    spec = helpers.silence(sim.benchmark_spec("3dof"))
    ens = sim.generate_ensemble(spec, dt=1e-3, t_f=0.2, n_real=2, base_seed=9)
    libs = lb.build_lagrangian_library("3dof", 3)
    mean_u = ens.displacement.mean(axis=0)
    mean_v = ens.velocity.mean(axis=0)
    diff21 = mean_u[1] - mean_u[0]
    cols0, cols1, cols2 = (_columns(lib, ens) for lib in libs)
    label = "(X2-X1)^2"
    assert np.allclose(cols0[label], 2.0 * diff21, rtol=1e-12, atol=1e-12)
    assert np.allclose(cols1[label], -2.0 * diff21, rtol=1e-12, atol=1e-12)
    assert label not in cols2
    # Kinetic columns reproduce each particle's noiseless Taylor 1.5 step:
    # forward-differenced, the velocity update of the linear chain is
    # -K (x + dt v / 2) on rows 0..N_t-2.
    stiff = 1000.0 * np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                               [0.0, -1.0, 1.0]])
    accel = -stiff @ (mean_u + 0.5 * ens.dt * mean_v)
    for i, cols in enumerate((cols0, cols1, cols2)):
        col = cols[libs[i].bases[libs[i].kinetic_index].label][:-1]
        expected = accel[i, :-1]
        assert np.linalg.norm(col - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("name, n_real, t_f", [
    ("wave", 3, 0.02), ("beam", 2, 0.02), ("3dof", 3, 0.01),
    ("pendulum", 3, 0.05),
])
def test_el_features_are_the_live_dense_columns(name, n_real, t_f):
    # Every probe (fields) or coordinate (discrete systems): the assembled
    # columns are bitwise the dense reference's nonzero-capable columns in
    # library order, every column left out is exactly zero, and the
    # sparse regression keeps the same terms with the same coefficients.
    spec = sim.benchmark_spec(name)
    config = bench.DEFAULT_CONFIGS[name]
    dt = bench.training_protocol(spec, config)[0]
    ens = sim.generate_ensemble(spec, dt, t_f, n_real, base_seed=17)
    libs, _ = bench.discovery_libraries(name, spec, config)
    for lib in libs:
        label, features, names = lb.el_transform(lib, ens)
        dense, live = helpers.dense_el_features(lib, ens)
        kinetic = lib.kinetic_index
        kept = [j for j in live if j != kinetic]
        assert names == tuple(lib.labels[j] for j in kept)
        assert label.tobytes() == dense[:, kinetic].tobytes()
        assert features.tobytes() == dense[:, kept].tobytes()
        dropped = sorted(set(range(lib.size)) - set(kept) - {kinetic})
        assert np.all(dense[:, dropped] == 0.0)
        rest = [j for j in range(lib.size) if j != kinetic]
        for lam in (config.lambda_lagrangian, 0.0):
            model = discovery.stls(features, -label, lam,
                                   rcond=config.rcond_lagrangian)
            reference = discovery.stls(np.delete(dense, kinetic, axis=1),
                                       -label, lam,
                                       rcond=config.rcond_lagrangian)
            assert [names[j] for j in model.active_set] == [
                lib.labels[rest[j]] for j in reference.active_set]
            assert (model.coefficients[model.active_set].tobytes()
                    == reference.coefficients[reference.active_set].tobytes())


def _synthetic_field_ensemble(seed, n=101, n_steps=5, n_real=2):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, n)
    disp = np.empty((n_real, n, n_steps))
    vel = rng.normal(size=(n_real, n, n_steps))
    # Smooth random fields: a few low-order sine modes per realization.
    for k in range(n_real):
        for t in range(n_steps):
            coef = rng.normal(size=4)
            disp[k, :, t] = sum(
                c * np.sin((m + 1) * np.pi * grid) for m, c in enumerate(coef)
            )
    return sim.Ensemble(
        dt=0.01, n_steps=n_steps, n_real=n_real, coords=n,
        displacement=disp, velocity=vel, spatial_grid=grid,
    )


def test_el_wave_gradient_column_matches_narrow_laplacian():
    ens = _synthetic_field_ensemble(21)
    dx = 0.01
    libs = lb.build_lagrangian_library("wave", 101)
    lib = next(l for l in libs if l.target_coord == 50)
    columns = _columns(lib, ens)
    mean_u = ens.displacement.mean(axis=0)
    lap50 = (mean_u[51] - 2.0 * mean_u[50] + mean_u[49]) / dx**2
    col = columns["ux50^2"]
    assert np.allclose(col, 2.0 * lap50, rtol=1e-10, atol=1e-8)
    # Off-target spatial terms are attributed to their own node only, so
    # they get no column at this target.
    assert "ux49^2" not in columns
    assert "u49^2" not in columns


def test_el_beam_curvature_column_matches_biharmonic():
    ens = _synthetic_field_ensemble(22)
    dx = 0.01
    libs = lb.build_lagrangian_library("beam", 101)
    lib = next(l for l in libs if l.target_coord == 50)
    columns = _columns(lib, ens)
    mean_u = ens.displacement.mean(axis=0)
    d4 = (
        mean_u[48] - 4.0 * mean_u[49] + 6.0 * mean_u[50] - 4.0 * mean_u[51]
        + mean_u[52]
    ) / dx**4
    # The curvature density enters the potential with a positive raw
    # derivative, so its Euler-Lagrange column is -2 times the biharmonic.
    col = columns["uxx50^2"]
    assert np.allclose(col, -2.0 * d4, rtol=1e-10, atol=1e-6)
    lap50 = (mean_u[51] - 2.0 * mean_u[50] + mean_u[49]) / dx**2
    col_grad = columns["ux50^2"]
    assert np.allclose(col_grad, 2.0 * lap50, rtol=1e-10, atol=1e-8)
    assert "uxx49^2" not in columns
