import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulemix.em
from conftest import random_dataset, random_model, schema_of_length
from oracles import (
    component_bound,
    finite_diff_gate_gradient,
    maximize_component_bound,
    naive_posterior_row,
)
from rulemix.binarizer import BinaryDataset
from rulemix.em import (
    GATE_RIDGE,
    LAMBDA_BOUNDS,
    DegenerateComponentError,
    EmConfig,
    RestartTrace,
    e_step,
    fit,
    gate_gradient,
    gate_objective,
    lower_bound,
    m_step_closed_form,
    m_step_gate,
    reseed_components,
)
from rulemix.mixture import MixtureModel, gate_design, joint_log_likelihood


def test_e_step_uniform_for_identical_components():
    ds = random_dataset(0, n=10, l=3)
    l = ds.n_bits
    model = MixtureModel(
        np.zeros((3, l + 1)), np.full((3, l), 0.4), np.zeros(3), np.ones(3), ds.schema
    )
    beta, _ = e_step(model, ds)
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
    beta, _ = e_step(model, ds)
    assert np.all(beta[:, 0] >= 1.0 - 1e-6)
    assert np.allclose(beta.sum(axis=1), 1.0, atol=1e-10)


def test_e_step_matches_bayes_rule_oracle():
    ds = random_dataset(2, n=2, l=2)
    model = random_model(3, k=2, schema=ds.schema)
    beta, _ = e_step(model, ds)
    for i in range(2):
        expected = naive_posterior_row(model, ds.bits[i], ds.z[i])
        assert np.allclose(beta[i], expected, atol=1e-10)


def test_e_step_rows_sum_to_one():
    ds = random_dataset(4, n=60, l=6)
    model = random_model(5, k=4, schema=ds.schema)
    beta, row_ll = e_step(model, ds)
    assert np.all(beta >= 0) and np.all(beta <= 1)
    assert np.allclose(beta.sum(axis=1), 1.0, atol=1e-10)
    assert row_ll.shape == (60,)
    assert float(row_ll.sum()) == joint_log_likelihood(model, ds)


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
    _, _, lam = m_step_closed_form(np.ones((10, 1)), flat)
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
    eta, mu, lam = m_step_closed_form(beta, ds)
    for k in range(2):
        ours = component_bound(eta[k], mu[k], lam[k], beta[:, k], ds.bits, ds.z)
        challenger = maximize_component_bound(beta[:, k], ds.bits, ds.z, LAMBDA_BOUNDS, seed=k)
        assert ours >= challenger - 1e-8


def test_gate_uniform_beta_keeps_symmetric_optimum():
    ds = random_dataset(11, n=20, l=3)
    k = 4
    beta = np.full((20, k), 1.0 / k)
    config = EmConfig(n_components=k, seed=0)
    w0 = np.zeros((k, 4))
    w = m_step_gate(beta, ds, w0, config)
    design = np.concatenate([ds.bits, np.ones((20, 1))], axis=1)
    assert gate_objective(w, beta, design, GATE_RIDGE) >= 20 * math.log(1.0 / k) - 1e-12


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
    j0 = gate_objective(w0, beta, design, GATE_RIDGE)
    assert gate_objective(w, beta, design, GATE_RIDGE) > j0
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
        assert gate_objective(w, beta, design, GATE_RIDGE) >= (
            gate_objective(w0, beta, design, GATE_RIDGE) - 1e-12
        )


def test_lower_bound_tight_at_posterior():
    ds = random_dataset(16, n=30, l=4)
    model = random_model(17, k=3, schema=ds.schema)
    beta, _ = e_step(model, ds)
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
    assert json.dumps(asdict(r1)) == json.dumps(asdict(r2))
    assert np.array_equal(m1.gate_weights, m2.gate_weights)
    assert np.array_equal(m1.eta, m2.eta)
    assert np.array_equal(m1.mu, m2.mu)
    assert np.array_equal(m1.lam, m2.lam)


def test_fit_report_json_layout():
    ds = random_dataset(41, n=20, l=3)
    _, report = fit(ds, EmConfig(n_components=2, restarts=2, seed=1))
    doc = asdict(report)
    assert set(doc) == {"restarts", "best_restart"}
    assert len(doc["restarts"]) == 2
    for run in doc["restarts"]:
        assert set(run) == {"iters", "objective_trace", "failed", "reseed_events"}
        assert run["iters"] == len(run["objective_trace"])
        assert run["failed"] is False


def three_clusters():
    """Ten rows at each of z = -5, 0, 5, each cluster with its own bit pattern."""
    rng = np.random.default_rng(46)
    bits = np.repeat([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], 10, axis=0)
    z = np.repeat([-5.0, 0.0, 5.0], 10) + rng.normal(0.0, 0.1, 30)
    return BinaryDataset(bits, z, schema_of_length(2))


# No small natural dataset drives a component's mass below 1e-10 * N, so the
# tests below raise DEGENERATE_MASS_FACTOR (and lower MAX_RESEEDS_PER_RUN) to
# reach the reseed and failure paths of the EM driver.


def test_fit_restarts_reseed_and_finish(monkeypatch):
    monkeypatch.setattr(rulemix.em, "DEGENERATE_MASS_FACTOR", 0.3)
    model, report = fit(three_clusters(), EmConfig(n_components=3, restarts=6, seed=0))
    runs = report.restarts
    assert any(r.reseed_events > 0 for r in runs)
    assert not any(r.failed for r in runs)
    finals = [r.objective_trace[-1] for r in runs]
    assert report.best_restart == finals.index(max(finals))
    # every restart, reseeded or not, converges (rel_tol 1e-6) to the three-cluster optimum
    assert finals == pytest.approx([max(finals)] * 6, rel=1e-6)
    assert joint_log_likelihood(model, three_clusters()) == max(finals)


def test_fit_best_restart_skips_failed_restarts(monkeypatch):
    monkeypatch.setattr(rulemix.em, "DEGENERATE_MASS_FACTOR", 0.3)
    monkeypatch.setattr(rulemix.em, "MAX_RESEEDS_PER_RUN", 0)
    _, report = fit(three_clusters(), EmConfig(n_components=3, restarts=6, seed=0))
    failed = [r.failed for r in report.restarts]
    assert len(failed) == 6 and any(failed) and not all(failed)
    assert any(r.failed and r.objective_trace for r in report.restarts)  # failed mid-run
    for r in report.restarts:
        assert r.iters == len(r.objective_trace)
        assert r.failed == (r.reseed_events > 0)
    finals = {i: r.objective_trace[-1] for i, r in enumerate(report.restarts) if not r.failed}
    assert report.best_restart == max(finals, key=finals.get)


def test_fit_best_restart_rule(monkeypatch):
    # stubbed restarts: a failed one with the highest objective, then a tie
    finals = [(1.0, False), (9.0, True), (3.0, False), (3.0, False), (2.0, False)]
    runs = iter(
        (f"model {r}", RestartTrace(1, [obj], failed, 0)) for r, (obj, failed) in enumerate(finals)
    )
    monkeypatch.setattr(rulemix.em, "_run_em", lambda *args: next(runs))
    model, report = fit(random_dataset(48, n=10, l=2), EmConfig(n_components=2, restarts=5))
    assert (model, report.best_restart) == ("model 2", 2)
    assert [r.failed for r in report.restarts] == [f for _, f in finals]


def test_fit_all_restarts_failed_raises(monkeypatch):
    # every component of a K=2 fit holds less than all N rows
    monkeypatch.setattr(rulemix.em, "DEGENERATE_MASS_FACTOR", 1.0)
    with pytest.raises(RuntimeError, match="all EM restarts failed"):
        fit(three_clusters(), EmConfig(n_components=2, restarts=3, seed=0))


def test_fit_equal_objectives_pick_earliest_restart():
    ds = random_dataset(47, n=20, l=3)
    _, report = fit(ds, EmConfig(n_components=1, restarts=4, seed=0))
    finals = [r.objective_trace[-1] for r in report.restarts]
    assert finals == [finals[0]] * 4
    assert report.best_restart == 0


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
        EmConfig(n_components=2, gate_max_iters=0)


def permuted_and_doubled(seed, n, l, k):
    """A random dataset with responsibilities, a row permutation of both, and
    both with every row repeated once."""
    ds = random_dataset(seed, n=n, l=l)
    rng = np.random.default_rng(seed + 1)
    beta = rng.dirichlet(np.ones(k), size=n)
    perm = rng.permutation(n)
    shuffled = BinaryDataset(ds.bits[perm], ds.z[perm], ds.schema)
    doubled = BinaryDataset(np.tile(ds.bits, (2, 1)), np.tile(ds.z, 2), ds.schema)
    return ds, beta, (shuffled, beta[perm]), (doubled, np.tile(beta, (2, 1)))


row_sets = dict(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 40),
    l=st.integers(1, 5),
    k=st.integers(1, 4),
)


@settings(max_examples=60, deadline=None)
@given(**row_sets)
def test_closed_form_m_step_invariant_to_row_order_and_duplication(seed, n, l, k):
    ds, beta, shuffled, doubled = permuted_and_doubled(seed, n, l, k)
    expected = m_step_closed_form(beta, ds)
    for data, b in (shuffled, doubled):
        for got, want in zip(m_step_closed_form(b, data), expected):
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(**row_sets, intercept=st.booleans())
def test_gate_objective_and_gradient_are_sums_over_rows(seed, n, l, k, intercept):
    # at ridge 0 both are sums of per-row terms: row order does not matter
    # and repeating every row doubles them
    ds, beta, shuffled, doubled = permuted_and_doubled(seed, n, l, k)
    weights = np.random.default_rng(seed + 2).normal(size=(k, l + intercept))
    design = gate_design(ds.bits, intercept)
    value = gate_objective(weights, beta, design, 0.0)
    grad = gate_gradient(weights, beta, design, 0.0)
    for (data, b), scale in ((shuffled, 1.0), (doubled, 2.0)):
        d = gate_design(data.bits, intercept)
        assert gate_objective(weights, b, d, 0.0) == pytest.approx(scale * value, rel=1e-9)
        assert np.allclose(gate_gradient(weights, b, d, 0.0), scale * grad, rtol=1e-9, atol=1e-9)
