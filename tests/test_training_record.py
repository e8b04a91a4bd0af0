"""Training records: discovery from the recorded rows equals discovery from
the full ensemble, bit for bit, and unrecorded rows cannot be read."""

import dataclasses

import numpy as np
import pytest

from lagdyn import bench, discovery, library, sim
from lagdyn.errors import LagdynError

SEED = 11
# A few realizations over a short window: a field record takes about
# 0.05 s.
SMALL = {"n_real": 3, "t_f": 0.05}


def _record_and_ensemble(name, **overrides):
    spec = sim.benchmark_spec(name)
    config = dataclasses.replace(bench.DEFAULT_CONFIGS[name],
                                 **{**SMALL, **overrides})
    libraries = bench.discovery_libraries(name, spec, config)
    record = bench.training_record(spec, config, libraries, SEED)
    dt, t_f, n_real = bench.training_protocol(spec, config)
    full = sim.generate_ensemble(spec, dt, t_f, n_real, SEED)
    return spec, config, libraries, record, full


def _discover(monkeypatch, data, name, spec, config, libraries):
    """Every regression input and the outcome of discovery on ``data``."""
    calls = []

    def recording_stls(A, b, *args, **kwargs):
        calls.append((np.array(A), np.array(b)))
        return original(A, b, *args, **kwargs)

    original = discovery.stls
    monkeypatch.setattr(discovery, "stls", recording_stls)
    try:
        models = bench.discover_models(data, name, spec, config, libraries)
        outcome = [m.to_json() for m in models] + [list(models[1].notes)]
    except LagdynError as exc:
        outcome = repr(exc)
    monkeypatch.undo()
    return calls, outcome


# On data this short the default diffusion fit keeps literal terms and
# fails; a huge threshold keeps nothing, so whole fitted models compare.
@pytest.mark.parametrize("name, lambda_diffusion", [
    ("wave", None), ("wave", 1e9), ("beam", None), ("beam", 1e9),
    ("harmonic", None), ("3dof", None),
])
def test_record_discovery_matches_full_ensemble(monkeypatch, name,
                                                lambda_diffusion):
    overrides = ({} if lambda_diffusion is None
                 else {"lambda_diffusion": lambda_diffusion})
    spec, config, libraries, record, full = _record_and_ensemble(
        name, **overrides)
    libs, glibs = libraries
    # What the residual and the nearly-constant note read.
    for k in range(full.n_real):
        for lib in glibs:
            for recorded, entire in zip(record.realization(k),
                                        full.realization(k)):
                assert np.array_equal(recorded[lib.target_coord],
                                      entire[lib.target_coord])
    # Every regression input (the Lagrangian features and kinetic label of
    # each probe, the diffusion features with their literal means, the
    # residual targets) and the fitted models with their notes, or the
    # same error.
    calls_full, outcome_full = _discover(monkeypatch, full, name, spec,
                                         config, libraries)
    calls_record, outcome_record = _discover(monkeypatch, record, name, spec,
                                             config, libraries)
    # A diffusion fit that fails stops discovery after its coordinate.
    assert len(calls_full) == len(calls_record) > len(libs)
    for (a_full, b_full), (a_rec, b_rec) in zip(calls_full, calls_record):
        assert a_full.tobytes() == a_rec.tobytes()
        assert b_full.tobytes() == b_rec.tobytes()
    assert outcome_full == outcome_record
    if lambda_diffusion is not None:
        assert isinstance(outcome_full, list)
        assert len(calls_full) == len(libs) + len(glibs)


def test_literal_means_are_realization_means():
    # The plain displacement columns of the diffusion features come from
    # the realization sum; they equal the mean built realization by
    # realization from the basis values.
    _, _, (_, glibs), record, full = _record_and_ensemble("beam")
    rows = full.n_steps - 1
    for basis in glibs[0].bases[:100]:
        assert basis.form == "monomial" and basis.degree == 1
        acc = np.zeros(rows)
        for k in range(full.n_real):
            acc += library.eval_basis(basis, full.displacement[k],
                                      full.velocity[k])[:rows]
        acc /= full.n_real
        node = basis.coords[0]
        for data in (full, record):
            mean = data.displacement_sum()[node, :rows] / data.n_real
            assert mean.tobytes() == acc.tobytes()


@pytest.mark.parametrize("name", ["wave", "beam", "harmonic", "3dof"])
def test_realization_sum_adds_in_order(monkeypatch, name):
    # Twelve realizations: numpy's pairwise summation of 8 or more terms
    # rounds differently from adding them one at a time.
    monkeypatch.setattr(sim, "CHUNK_STEPS", 7)
    spec, _, libraries, record, full = _record_and_ensemble(name, n_real=12)
    expected = np.zeros(full.displacement.shape[1:])
    for k in range(full.n_real):
        expected += full.displacement[k]
    assert record.total.tobytes() == expected.tobytes()
    assert full.displacement_sum().tobytes() == expected.tobytes()
    # Chunked recording keeps the recorded rows exact as well.
    for k in range(full.n_real):
        u, v = record.realization(k)
        for node in record.disp_nodes:
            assert np.array_equal(u[node], full.displacement[k, node])
        for node in record.vel_nodes:
            assert np.array_equal(v[node], full.velocity[k, node])


def test_record_rows_are_those_discovery_reads():
    rows = {}
    for name in sim.BENCHMARK_NAMES:
        spec = sim.benchmark_spec(name)
        libraries = bench.discovery_libraries(name, spec,
                                              bench.DEFAULT_CONFIGS[name])
        rows[name] = discovery.training_rows(*libraries, spec.dim)
    probes = bench.FIELD_PROBE_NODES
    n = 101
    # Wave: slopes read the probe and its neighbours (node 51 also serves
    # ux50 of the diffusion library); velocity at the probes.
    assert rows["wave"] == sorted(p + d for p in probes for d in (-1, 0, 1)) + [
        n + p for p in probes]
    # Beam: curvatures read the probe +-2 nodes.
    assert rows["beam"] == sorted(
        p + d for p in probes for d in (-2, -1, 0, 1, 2)) + [n + p for p in probes]
    # Away from node 50, the diffusion library's literal columns (ud50,
    # ux50, sin(u50), cos(ud50)) still read nodes 50 and 51.
    wave = sim.benchmark_spec("wave")
    one_probe = dataclasses.replace(bench.DEFAULT_CONFIGS["wave"],
                                    probe_nodes=(20,))
    libraries = bench.discovery_libraries("wave", wave, one_probe)
    assert discovery.training_rows(*libraries, n) == [19, 20, 21, 50, 51,
                                                      n + 20, n + 50]
    # Discrete systems: every coordinate.
    for name, dim in (("harmonic", 1), ("pendulum", 1), ("duffing", 1),
                      ("3dof", 3)):
        assert rows[name] == list(range(2 * dim))


def test_record_refuses_unrecorded_rows():
    _, _, _, record, _ = _record_and_ensemble("wave")
    u, v = record.realization(0)
    assert np.array_equal(u[50], record.displacement[0, record.disp_nodes.index(50)])
    with pytest.raises(LookupError, match="coordinate 10 was not recorded"):
        u[10]
    with pytest.raises(LookupError):
        v[21]
    with pytest.raises(LookupError):
        u[-1]  # node 100
    # A basis outside the recorded neighbourhoods raises instead of reading
    # zeros.
    lib = bench.discovery_libraries("wave", sim.benchmark_spec("wave"),
                                    bench.DEFAULT_CONFIGS["wave"])[0][0]
    other = dataclasses.replace(lib, target_coord=10,
                                kinetic_index=lib.bases.index(next(
                                    b for b in lib.bases if b.label == "0.5*ud10^2")))
    with pytest.raises(LookupError):
        library.el_transform(other, record)


def test_generate_ensemble_rejects_bad_rows():
    spec = sim.benchmark_spec("harmonic")
    for rows in ([], [-1], [2]):
        with pytest.raises(LagdynError, match="rows must be"):
            sim.generate_ensemble(spec, 1e-3, 0.01, 2, 0, rows=rows)
