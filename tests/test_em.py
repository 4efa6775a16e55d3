import json
import math

import numpy as np
import pytest

from conftest import random_dataset, random_model, schema_of_length
from oracles import (
    component_bound,
    finite_diff_gate_gradient,
    maximize_component_bound,
    naive_posterior_row,
)
from rulemix.binarizer import BinaryDataset
from rulemix.em import (
    DegenerateComponentError,
    EmConfig,
    e_step,
    fit,
    gate_gradient,
    gate_objective,
    lower_bound,
    m_step_closed_form,
    m_step_gate,
    reseed_components,
)
from rulemix.mixture import MixtureModel, joint_log_likelihood


def test_e_step_uniform_for_identical_components():
    ds = random_dataset(0, n=10, l=3)
    l = ds.n_bits
    model = MixtureModel(
        np.zeros((3, l + 1)), np.full((3, l), 0.4), np.zeros(3), np.ones(3), ds.schema
    )
    beta = e_step(model, ds)
    assert np.allclose(beta, 1.0 / 3.0, atol=1e-14)


def test_e_step_near_one_hot_when_one_component_dominates():
    ds = random_dataset(1, n=8, l=2)
    eta = np.stack([np.clip(ds.bits.mean(axis=0), 0.2, 0.8), np.array([0.5, 0.5])])
    model = MixtureModel(
        np.zeros((2, 3)),
        eta,
        np.array([0.0, 500.0]),  # second component's mean is absurdly far
        np.array([1.0, 1.0]),
        ds.schema,
    )
    beta = e_step(model, ds)
    assert np.all(beta[:, 0] >= 1.0 - 1e-6)
    assert np.allclose(beta.sum(axis=1), 1.0, atol=1e-10)


def test_e_step_matches_bayes_rule_oracle():
    ds = random_dataset(2, n=2, l=2)
    model = random_model(3, k=2, schema=ds.schema)
    beta = e_step(model, ds)
    for i in range(2):
        expected = naive_posterior_row(model, ds.bits[i], ds.z[i])
        assert np.allclose(beta[i], expected, atol=1e-10)


def test_e_step_rows_sum_to_one():
    ds = random_dataset(4, n=60, l=6)
    model = random_model(5, k=4, schema=ds.schema)
    beta = e_step(model, ds)
    assert np.all(beta >= 0) and np.all(beta <= 1)
    assert np.allclose(beta.sum(axis=1), 1.0, atol=1e-10)


def test_m_step_single_component_is_plain_moments():
    ds = random_dataset(6, n=25, l=4)
    beta = np.ones((25, 1))
    eta, mu, lam = m_step_closed_form(beta, ds)
    assert np.allclose(eta[0], ds.bits.mean(axis=0), atol=1e-12)
    assert mu[0] == pytest.approx(ds.z.mean(), abs=1e-12)
    assert lam[0] == pytest.approx(1.0 / ds.z.var(), rel=1e-12)


def test_m_step_clamps_lambda_when_variance_vanishes():
    ds = random_dataset(7, n=10, l=2)
    flat = BinaryDataset(ds.bits, np.full(10, 1.25), ds.schema)
    _, _, lam = m_step_closed_form(np.ones((10, 1)), flat, lambda_bounds=(1e-6, 1e6))
    assert lam[0] == 1e6


def test_m_step_zero_mass_raises_with_component():
    ds = random_dataset(8, n=6, l=2)
    beta = np.zeros((6, 2))
    beta[:, 0] = 1.0
    with pytest.raises(DegenerateComponentError) as err:
        m_step_closed_form(beta, ds)
    assert err.value.component == 1


def test_m_step_not_beaten_by_numerical_maximizer():
    ds = random_dataset(9, n=5, l=2)
    rng = np.random.default_rng(10)
    beta = rng.dirichlet(np.ones(2), size=5)
    bounds = (1e-6, 1e6)
    eta, mu, lam = m_step_closed_form(beta, ds, bounds)
    for k in range(2):
        ours = component_bound(eta[k], mu[k], lam[k], beta[:, k], ds.bits, ds.z)
        challenger = maximize_component_bound(beta[:, k], ds.bits, ds.z, bounds, seed=k)
        assert ours >= challenger - 1e-8


def test_gate_uniform_beta_keeps_symmetric_optimum():
    ds = random_dataset(11, n=20, l=3)
    k = 4
    beta = np.full((20, k), 1.0 / k)
    config = EmConfig(n_components=k, seed=0)
    w0 = np.zeros((k, 4))
    w = m_step_gate(beta, ds, w0, config)
    design = np.concatenate([ds.bits, np.ones((20, 1))], axis=1)
    assert gate_objective(w, beta, design, config.gate_ridge) >= 20 * math.log(1.0 / k) - 1e-12


def test_gate_separable_bit_reaches_full_accuracy():
    schema = schema_of_length(1)
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, size=(40, 1)).astype(float)
    ds = BinaryDataset(bits, rng.normal(size=40), schema)
    beta = np.stack([bits[:, 0], 1.0 - bits[:, 0]], axis=1)
    config = EmConfig(n_components=2, seed=0, gate_max_iters=200)
    w0 = np.zeros((2, 2))
    w = m_step_gate(beta, ds, w0, config)
    design = np.concatenate([bits, np.ones((40, 1))], axis=1)
    j0 = gate_objective(w0, beta, design, config.gate_ridge)
    assert gate_objective(w, beta, design, config.gate_ridge) > j0
    pred = np.argmax(design @ w.T, axis=1)
    assert np.array_equal(pred, np.argmax(beta, axis=1))


def test_gate_gradient_matches_central_differences():
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2, size=(10, 3)).astype(float)
    design = np.concatenate([bits, np.ones((10, 1))], axis=1)
    beta = rng.dirichlet(np.ones(3), size=10)
    w = rng.normal(scale=0.5, size=(3, 4))
    ridge = 1e-8
    analytic = gate_gradient(w, beta, design, ridge)
    numeric = finite_diff_gate_gradient(
        lambda wc: gate_objective(wc, beta, design, ridge), w, h=1e-5
    )
    denom = max(1.0, float(np.abs(numeric).max()))
    assert np.abs(analytic - numeric).max() / denom <= 1e-5


def test_gate_never_returns_worse_than_start():
    rng = np.random.default_rng(14)
    ds = random_dataset(15, n=30, l=4)
    config = EmConfig(n_components=3, seed=0)
    design = np.concatenate([ds.bits, np.ones((30, 1))], axis=1)
    for trial in range(10):
        beta = rng.dirichlet(np.ones(3), size=30)
        w0 = rng.normal(scale=2.0, size=(3, 5))
        w = m_step_gate(beta, ds, w0, config)
        assert gate_objective(w, beta, design, config.gate_ridge) >= (
            gate_objective(w0, beta, design, config.gate_ridge) - 1e-12
        )


def test_lower_bound_tight_at_posterior():
    ds = random_dataset(16, n=30, l=4)
    model = random_model(17, k=3, schema=ds.schema)
    beta = e_step(model, ds)
    ll = joint_log_likelihood(model, ds)
    assert lower_bound(model, beta, ds) == pytest.approx(ll, abs=1e-8)


def test_lower_bound_exact_for_single_component():
    ds = random_dataset(18, n=12, l=3)
    model = random_model(19, k=1, schema=ds.schema)
    beta = np.ones((12, 1))
    assert lower_bound(model, beta, ds) == joint_log_likelihood(model, ds)


def test_lower_bound_never_exceeds_likelihood():
    ds = random_dataset(20, n=15, l=3)
    model = random_model(21, k=3, schema=ds.schema)
    ll = joint_log_likelihood(model, ds)
    rng = np.random.default_rng(22)
    for _ in range(100):
        beta = rng.dirichlet(np.ones(3), size=15)
        assert lower_bound(model, beta, ds) <= ll + 1e-9


def test_fit_single_component_converges_in_two_iterations():
    ds = random_dataset(23, n=40, l=4)
    model, report = fit(ds, EmConfig(n_components=1, restarts=1, seed=0))
    best = report.restarts[report.best_restart]
    assert best.iters <= 2
    assert model.mu[0] == pytest.approx(ds.z.mean(), abs=1e-9)


def test_fit_traces_monotone():
    for seed in range(5):
        ds = random_dataset(seed + 30, n=50, l=5)
        _, report = fit(ds, EmConfig(n_components=3, restarts=2, max_iters=40, seed=seed))
        for run in report.restarts:
            trace = run.objective_trace
            assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))


def test_fit_is_deterministic():
    ds = random_dataset(40, n=30, l=4)
    config = EmConfig(n_components=2, restarts=3, seed=5)
    m1, r1 = fit(ds, config)
    m2, r2 = fit(ds, config)
    assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())
    assert np.array_equal(m1.gate_weights, m2.gate_weights)
    assert np.array_equal(m1.eta, m2.eta)
    assert np.array_equal(m1.mu, m2.mu)
    assert np.array_equal(m1.lam, m2.lam)


def test_fit_report_json_layout():
    ds = random_dataset(41, n=20, l=3)
    _, report = fit(ds, EmConfig(n_components=2, restarts=2, seed=1))
    doc = report.to_json_dict()
    assert set(doc) == {"restarts", "best_restart"}
    assert len(doc["restarts"]) == 2
    for run in doc["restarts"]:
        assert set(run) == {"iters", "objective_trace", "failed", "reseed_events"}
        assert run["iters"] == len(run["objective_trace"])
        assert run["failed"] is False


def test_fit_requires_enough_rows():
    ds = random_dataset(42, n=3, l=2)
    with pytest.raises(ValueError):
        fit(ds, EmConfig(n_components=4))


def test_fit_relabeling_keeps_likelihood():
    ds = random_dataset(43, n=40, l=4)
    model, _ = fit(ds, EmConfig(n_components=3, restarts=2, seed=2))
    perm = [1, 2, 0]
    permuted = MixtureModel(
        model.gate_weights[perm], model.eta[perm], model.mu[perm], model.lam[perm], ds.schema
    )
    assert joint_log_likelihood(permuted, ds) == pytest.approx(
        joint_log_likelihood(model, ds), rel=1e-12
    )


def test_reseed_assigns_worst_rows_one_hot():
    rng = np.random.default_rng(44)
    beta = rng.dirichlet(np.ones(4), size=10)
    beta[:, 2] = 0.0
    beta /= beta.sum(axis=1, keepdims=True)
    scores = np.arange(10.0)  # row 0 is explained worst
    events = reseed_components(beta, [2], scores)
    assert events == 1
    chunk = math.ceil(10 / 4)
    assert np.all(beta[:chunk, 2] == 1.0)
    assert np.allclose(beta.sum(axis=1), 1.0, atol=1e-12)
    assert beta[:chunk, [0, 1, 3]].sum() == 0.0


def test_fit_without_intercept_uses_uniform_gate_at_zero_bits():
    ds = random_dataset(45, n=30, l=3)
    model, _ = fit(ds, EmConfig(n_components=2, restarts=2, seed=3, intercept=False))
    assert model.gate_weights.shape == (2, 3)
    assert np.allclose(model.gate_batch(np.zeros((1, 3))), 0.5, atol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        EmConfig(n_components=0)
    with pytest.raises(ValueError):
        EmConfig(n_components=2, rel_tol=1.5)
    with pytest.raises(ValueError):
        EmConfig(n_components=2, lambda_bounds=(1.0, 0.5))
