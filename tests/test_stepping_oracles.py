"""Chunked production steppers against per-step reference oracles.

The oracles in helpers step one system per batch, one step per loop pass,
on noise drawn for the whole horizon at once. The production loops draw
noise in chunks and may step several systems in one batch. Every
comparison here is bitwise.
"""

import dataclasses

import numpy as np
import pytest

import helpers
from lagdyn import bench, sim

DT = 1e-4
CHUNKS = (1, 7, 1000)


def _discovered(name, scale=1.01, gain_scale=1.0):
    """Discovered spec from the true equations with scaled coefficients."""
    spec = sim.benchmark_spec(name)
    _, eom = bench.true_models(name, spec, bench.DEFAULT_CONFIGS[name])
    eom = dataclasses.replace(
        eom,
        terms=tuple(tuple(dataclasses.replace(t, coefficient=scale * t.coefficient)
                          for t in terms) for terms in eom.terms),
        gains=np.asarray(eom.gains) * gain_scale,
    )
    return spec, eom, bench.discovered_spec(spec, eom)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", ["wave", "beam", "harmonic", "3dof"])
def test_full_state_ensemble_matches_oracle(name, chunk, monkeypatch):
    monkeypatch.setattr(sim, "CHUNK_STEPS", chunk)
    spec = sim.benchmark_spec(name)
    n_steps = 40
    ens = sim.generate_ensemble(spec, DT, n_steps * DT, 3, base_seed=17)
    oracle = helpers.reference_states(spec, DT, n_steps, 3, 17)
    n = spec.dim
    assert np.array_equal(ens.displacement, oracle[:, :n])
    assert np.array_equal(ens.velocity, oracle[:, n:])


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", ["wave", "beam"])
def test_selected_field_rows_match_oracle(name, chunk, monkeypatch):
    monkeypatch.setattr(sim, "CHUNK_STEPS", chunk)
    spec = sim.benchmark_spec(name)
    rows = [50, spec.dim + 20, 3, 4, spec.dim + 21]
    got = sim.simulate_field_rows(spec, DT, 40 * DT, 3, 5, rows)
    oracle = helpers.reference_states(spec, DT, 40, 3, 5)
    assert np.array_equal(got, oracle[:, rows])


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", ["wave", "harmonic", "3dof"])
def test_joint_run_matches_single_runs(name, chunk, monkeypatch):
    monkeypatch.setattr(sim, "CHUNK_STEPS", chunk)
    spec, _, pred = _discovered(name)
    rows = [50] if spec.kind == "spde" else range(spec.dim)
    joint = sim.simulate_rows(spec, DT, 30 * DT, 4, 9, rows, partners=(pred,))
    truth = sim.simulate_rows(spec, DT, 30 * DT, 4, 9, rows)
    alone = sim.simulate_rows(pred, DT, 30 * DT, 4, 9, rows)
    assert np.array_equal(joint, np.concatenate([truth, alone]))
    assert not np.array_equal(truth, alone)


def test_joint_run_with_other_noise_layout_draws_its_own_noise(monkeypatch):
    # A noiseless partner has no noise coordinates: it cannot share the
    # truth's draw and steps on streams of its own.
    spec, _, pred = _discovered("3dof", gain_scale=0.0)
    monkeypatch.setattr(sim, "CHUNK_STEPS", 7)
    joint = sim.simulate_rows(spec, DT, 30 * DT, 3, 4, range(3),
                              partners=(pred,))
    monkeypatch.undo()
    truth = sim.simulate_rows(spec, DT, 30 * DT, 3, 4, range(3))
    alone = sim.simulate_rows(pred, DT, 30 * DT, 3, 4, range(3))
    assert np.array_equal(joint, np.concatenate([truth, alone]))


def _compare(bundle, oracle):
    assert bundle.diverged == oracle["diverged"]
    assert bundle.diverged_step == oracle["diverged_step"]
    for key in ("times", "truth_mean", "pred_mean", "truth_2sigma",
                "pred_2sigma"):
        assert np.array_equal(getattr(bundle, key), oracle[key]), key


@pytest.mark.parametrize("gain_scale, side, steps", [
    (1.0, None, None), (1e9, "discovered", (2, 200)), (1e14, "discovered", (1, 1)),
])
def test_field_comparison_matches_oracle(gain_scale, side, steps):
    spec, eom, pred = _discovered("wave", gain_scale=gain_scale)
    bundle = bench.prediction_comparison(
        spec, eom, horizon=200 * DT, n_real=3, base_seed=8, dt=DT,
        training_window=100 * DT)
    oracle = helpers.reference_prediction(spec, pred, DT, 200, 3, 8, [50])
    assert bundle.diverged == side
    if steps is not None:
        assert steps[0] <= bundle.diverged_step <= steps[1]
    _compare(bundle, oracle)


def test_field_comparison_with_diverging_truth_matches_oracle():
    base, eom, pred = _discovered("wave")
    loud = np.asarray(base.volatility(base.initial_state)) * 1e9
    truth = dataclasses.replace(
        base, volatility=lambda y: np.broadcast_to(loud, np.shape(y)))
    bundle = bench.prediction_comparison(
        truth, eom, horizon=200 * DT, n_real=3, base_seed=8, dt=DT,
        training_window=100 * DT)
    oracle = helpers.reference_prediction(truth, pred, DT, 200, 3, 8, [50])
    assert bundle.diverged == "truth"
    _compare(bundle, oracle)


def test_particle_comparison_divergence_matches_oracle():
    spec, eom, pred = _discovered("harmonic", scale=-1.0)
    bundle = bench.prediction_comparison(
        spec, eom, horizon=2.0, n_real=4, dt=DT, training_window=1.0)
    oracle = helpers.reference_prediction(spec, pred, DT, 20000, 4,
                                          bench.DEFAULT_SEED, [0])
    assert bundle.diverged == "discovered"
    _compare(bundle, oracle)
