import functools
import json
import math
import warnings
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from scipy.special import log_softmax as scipy_log_softmax

import rulemix.em
from conftest import random_dataset, random_model, schema_of_length
from golden.compare import OBJECTIVE_ATOL_PER_ROW
from oracles import (
    component_bound,
    finite_diff_gate_gradient,
    lower_bound,
    maximize_component_bound,
    naive_joint_ll,
    naive_posterior_row,
    unfused_m_step_gate,
    unstacked_e_step,
    unstacked_m_step_closed_form,
)
from rulemix.binarizer import BinaryDataset, SplitSchema, build_dataset, extract_splits
from rulemix.data import gen_xor
from rulemix.em import (
    GATE_RIDGE,
    LAMBDA_BOUNDS,
    EmConfig,
    e_step,
    fit,
    gate_gradient,
    gate_objective,
    m_step_closed_form,
    m_step_gate,
    reseed_components,
)
from rulemix.mixture import MixtureModel, extract_rules, gate_design
from rulemix.trainer import GbtConfig, fit_gbt


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
    assert float(row_ll.sum()) == pytest.approx(naive_joint_ll(model, ds), abs=1e-9)


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
    with pytest.raises(ValueError, match=r"^component 1 has zero responsibility mass$"):
        m_step_closed_form(beta, ds)


def test_m_step_not_beaten_by_numerical_maximizer():
    ds = random_dataset(9, n=5, l=2)
    rng = np.random.default_rng(10)
    beta = rng.dirichlet(np.ones(2), size=5)
    eta, mu, lam = m_step_closed_form(beta, ds)
    for k in range(2):
        ours = component_bound(eta[k], mu[k], lam[k], beta[:, k], ds.bits, ds.z)
        challenger = maximize_component_bound(beta[:, k], ds.bits, ds.z, LAMBDA_BOUNDS, seed=k)
        assert ours >= challenger - 1e-8


def gate_value(weights, beta, design):
    """The gate objective ``m_step_gate`` maximizes, at ``weights``."""
    return gate_objective(weights, beta.T @ design, design)[0]


def gate_alone(beta, data, w_init, config):
    """``m_step_gate`` on a stack of one, given responsibilities: the weights,
    the number of gradients and the last gradient's norm."""
    moments = beta.T @ data.design
    weights, iters, norms = m_step_gate(moments[None], data.design, w_init[None], config)
    return weights[0], iters[0], norms[0]


def test_gate_uniform_beta_keeps_symmetric_optimum():
    ds = random_dataset(11, n=20, l=3)
    k = 4
    beta = np.full((20, k), 1.0 / k)
    config = EmConfig(n_components=k, seed=0)
    w0 = np.zeros((k, 4))
    w, _, _ = gate_alone(beta, ds, w0, config)
    design = np.concatenate([ds.bits, np.ones((20, 1))], axis=1)
    assert gate_value(w, beta, design) >= 20 * math.log(1.0 / k) - 1e-12


def test_gate_separable_bit_reaches_full_accuracy():
    schema = schema_of_length(1)
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, size=(40, 1)).astype(float)
    ds = BinaryDataset(bits, rng.normal(size=40), schema)
    beta = np.stack([bits[:, 0], 1.0 - bits[:, 0]], axis=1)
    config = EmConfig(n_components=2, seed=0, gate_max_iters=200)
    w0 = np.zeros((2, 2))
    w, _, _ = gate_alone(beta, ds, w0, config)
    design = np.concatenate([bits, np.ones((40, 1))], axis=1)
    assert gate_value(w, beta, design) > gate_value(w0, beta, design)
    pred = np.argmax(design @ w.T, axis=1)
    assert np.array_equal(pred, np.argmax(beta, axis=1))


def test_gate_gradient_matches_central_differences():
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2, size=(10, 3)).astype(float)
    design = np.concatenate([bits, np.ones((10, 1))], axis=1)
    beta = rng.dirichlet(np.ones(3), size=10)
    w = rng.normal(scale=0.5, size=(3, 4))
    moments = beta.T @ design
    _, shifted = gate_objective(w, moments, design)
    analytic = gate_gradient(w, moments, design, shifted)
    numeric = finite_diff_gate_gradient(lambda wc: gate_objective(wc, moments, design)[0], w, h=1e-5)
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
        w, _, _ = gate_alone(beta, ds, w0, config)
        assert gate_value(w, beta, design) >= gate_value(w0, beta, design) - 1e-12


def gate_problem(ds, rng, k, kind, w_scale):
    """Responsibilities of ``kind`` and start weights for a gate M-step on ``ds``."""
    n, l = ds.bits.shape
    if kind == "soft":
        beta = rng.dirichlet(np.ones(k), size=n)
    elif kind == "labels":  # a function of the bits: separable, weights run off
        beta = np.eye(k)[(ds.bits @ 2.0 ** np.arange(l)).astype(int) % k]
    elif kind == "zeros":  # zero moments: rows not summing to 1 are valid input too
        beta = np.zeros((n, k))
    else:
        beta = np.full((n, k), 1.0 / k)
    return beta, rng.normal(0.0, w_scale, size=(k, l + 1))


def fused_gate_matches_unfused(seed, n, l, k, kind, w_scale, gate_max_iters):
    """Run ``m_step_gate`` on a stack of one and the unfused oracle on one
    input, require the same weights, the same objective and gradient call
    counts (on the ``rulemix.em`` bindings the loop looks up) and the same
    last gradient norm; return why the oracle stopped."""
    ds = random_dataset(seed, n=n, l=l)
    beta, w0 = gate_problem(ds, np.random.default_rng(seed + 1), k, kind, w_scale)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("gate_objective", "gate_gradient"):
            mp.setattr(rulemix.em, name, counted(name, getattr(rulemix.em, name)))
        config = EmConfig(n_components=k, gate_max_iters=gate_max_iters)
        weights, iters, grad_norm = gate_alone(beta, ds, w0, config)
    want, objective_calls, norms, stop = unfused_m_step_gate(beta, ds, w0, gate_max_iters)
    assert np.array_equal(weights, want)
    assert calls == {"gate_objective": objective_calls, "gate_gradient": len(norms)}
    assert (iters, grad_norm) == (len(norms), norms[-1])
    return stop


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 40),
    l=st.integers(1, 5),
    k=st.integers(1, 4),
    kind=st.sampled_from(["soft", "labels", "uniform", "zeros"]),
    w_scale=st.sampled_from([0.0, 0.5, 3.0]),
    gate_max_iters=st.integers(1, 120),
)
def test_fused_gate_step_matches_unfused_oracle(seed, n, l, k, kind, w_scale, gate_max_iters):
    event(fused_gate_matches_unfused(seed, n, l, k, kind, w_scale, gate_max_iters))


@pytest.mark.parametrize(
    "case, stop",
    [
        ((0, 30, 4, 3, "soft", 0.5, 40), "cap"),
        ((0, 30, 3, 2, "labels", 0.0, 120), "gradient"),  # after 76 gradients
        ((1, 30, 4, 2, "soft", 0.5, 120), "gradient"),  # after 83 gradients
        ((0, 30, 3, 2, "zeros", 0.0, 120), "gradient"),  # after 29 gradients
    ],
)
def test_fused_gate_step_matches_unfused_oracle_at_each_stop(case, stop):
    # No input of these kinds reaches the step floor: the gradient is the
    # objective's for any moments, so some trial gains; see the test below.
    assert fused_gate_matches_unfused(*case) == stop


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 40),
    l=st.integers(1, 5),
    k=st.integers(1, 4),
    problems=st.lists(
        st.tuples(st.sampled_from(["soft", "labels", "uniform", "zeros"]), st.sampled_from([0.0, 0.5, 3.0])),
        min_size=1,
        max_size=4,
    ),
    gate_max_iters=st.integers(1, 120),
)
def test_stacked_gate_step_matches_oracle_per_slice(seed, n, l, k, problems, gate_max_iters):
    # the slices of one stack stop at different rounds and for different
    # reasons; each must still get exactly what it gets alone, and the stack
    # must run exactly as many objective rounds as its longest slice alone
    ds = random_dataset(seed, n=n, l=l)
    rng = np.random.default_rng(seed + 1)
    betas, w0s = zip(*(gate_problem(ds, rng, k, kind, w_scale) for kind, w_scale in problems))
    config = EmConfig(n_components=k, gate_max_iters=gate_max_iters)
    moments = np.stack([beta.T @ ds.design for beta in betas])
    objective, rounds = rulemix.em.gate_objective, []

    def counted(*args):
        rounds.append(None)
        return objective(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rulemix.em, "gate_objective", counted)
        weights, iters, grad_norms = m_step_gate(moments, ds.design, np.stack(w0s), config)
    assert len(weights) == len(iters) == len(grad_norms) == len(problems)
    objective_calls = []
    for r, (beta, w0) in enumerate(zip(betas, w0s)):
        want, calls, norms, stop = unfused_m_step_gate(beta, ds, w0, gate_max_iters)
        assert np.array_equal(weights[r], want)
        assert (iters[r], grad_norms[r]) == (len(norms), norms[-1])
        objective_calls.append(calls)
        event(stop)
    assert len(rounds) == max(objective_calls)


def test_gate_slice_at_step_floor_leaves_with_its_start(monkeypatch):
    # every trial of slice 0 is scored 1 lower, so its line search halves
    # from 1 down past the 1e-20 floor (67 trials) while the others go on
    ds, moments, w0, config = gate_stack()
    alone = [m_step_gate(m[None], ds.design, w[None], config) for m, w in zip(moments, w0)]
    objective, calls = rulemix.em.gate_objective, []

    def lowered(weights, stacked, *args):
        values, probs = objective(weights, stacked, *args)
        calls.append(np.array_equal(stacked[0], moments[0]))  # slice 0 is live
        if len(calls) > 1 and calls[-1]:
            values[0] -= 1.0
        return values, probs

    monkeypatch.setattr(rulemix.em, "gate_objective", lowered)
    weights, iters, norms = m_step_gate(moments, ds.design, w0, config)
    assert sum(calls[1:]) == 67
    assert np.array_equal(weights[0], w0[0]) and iters[0] == 1
    for r in (1, 2):
        assert np.array_equal(weights[r], alone[r][0][0])
        assert (iters[r], norms[r]) == (alone[r][1][0], alone[r][2][0])


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    l=st.integers(0, 6),
    k=st.integers(1, 5),
    scale=st.floats(0.01, 100.0),
    ridge=st.sampled_from([0.0, GATE_RIDGE, 1.0]),
)
def test_gate_moments_value_equals_weighted_log_softmax(seed, n, l, k, scale, ridge):
    # (beta.T @ design) * W sums beta * logits when the rows of beta sum to 1,
    # so the moments form is the weighted log-likelihood up to rounding; the
    # ridge is the module's, patched for each example
    rng = np.random.default_rng(seed)
    design = gate_design(rng.integers(0, 2, size=(n, l)).astype(float))
    weights = rng.normal(0.0, scale, size=(k, l + 1))
    beta = rng.dirichlet(np.ones(k), size=n)
    logits = design @ weights.T
    want = (beta * scipy_log_softmax(logits, axis=1)).sum() - 0.5 * ridge * (weights * weights).sum()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rulemix.em, "GATE_RIDGE", ridge)
        got, _ = gate_objective(weights, beta.T @ design, design)
    # the moments form sums terms as large as |W| times the design: allow their rounding
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14 * (design @ np.abs(weights).T).sum())


def gate_stack():
    """Dataset, moments of one-hot responsibilities, zero start weights and
    config for a stack of three K = 3 gate problems."""
    ds = random_dataset(0, n=30, l=4)
    betas = np.eye(3)[np.random.default_rng(1).integers(0, 3, size=(3, 30))]
    moments = np.stack([beta.T @ ds.design for beta in betas])
    return ds, moments, np.zeros((3, 3, 5)), EmConfig(n_components=3)


def test_gate_names_restart_non_finite_at_start():
    ds, moments, w0, config = gate_stack()
    w0[1, 2, 0] = math.nan
    with pytest.raises(RuntimeError, match="^restart 4: gate objective non-finite at the initial point$"):
        m_step_gate(moments, ds.design, w0, config, [0, 4, 7])


def test_gate_names_restart_non_finite_in_line_search(monkeypatch, gate_gradient_norms):
    # no finite start reaches a non-finite trial without numpy overflow
    # warnings, so one slice's value in a later round of trials is replaced
    objective = rulemix.em.gate_objective
    stacks = []

    def poisoned(weights, *args):
        values, shifted = objective(weights, *args)
        stacks.append(len(weights))
        if len(stacks) == 12:
            values[-1] = math.inf
        return values, shifted

    monkeypatch.setattr(rulemix.em, "gate_objective", poisoned)
    ds, moments, w0, config = gate_stack()
    with pytest.raises(RuntimeError) as raised:
        rulemix.em.m_step_gate(moments, ds.design, w0, config, [0, 4, 7])
    assert stacks == [3] * 12  # every slice was searching, so the last is restart 7
    (norms,) = gate_gradient_norms[7]  # its gradients before the bad trial
    assert len(norms) > 1
    assert str(raised.value) == (
        f"restart 7: gate objective became non-finite during line search (iteration {len(norms) - 1})"
    )


def test_lower_bound_tight_at_posterior():
    ds = random_dataset(16, n=30, l=4)
    model = random_model(17, k=3, schema=ds.schema)
    beta, row_ll = e_step(model, ds)
    ll = float(row_ll.sum())
    assert lower_bound(model, beta, ds) == pytest.approx(ll, abs=1e-8)


def test_lower_bound_exact_for_single_component():
    ds = random_dataset(18, n=12, l=3)
    model = random_model(19, k=1, schema=ds.schema)
    beta = np.ones((12, 1))
    assert lower_bound(model, beta, ds) == pytest.approx(float(e_step(model, ds)[1].sum()), rel=1e-12)


def test_lower_bound_never_exceeds_likelihood():
    ds = random_dataset(20, n=15, l=3)
    model = random_model(21, k=3, schema=ds.schema)
    ll = float(e_step(model, ds)[1].sum())
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


def test_fit_traces_monotone(monkeypatch):
    monkeypatch.setattr(rulemix.em, "MAX_ITERS", 40)
    for seed in range(5):
        ds = random_dataset(seed + 30, n=50, l=5)
        _, report = fit(ds, EmConfig(n_components=3, restarts=2, seed=seed))
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
        assert set(run) == {
            "iters", "objective_trace", "failed", "reseed_events", "gate_iters", "gate_final_grad_norms"
        }
        assert run["iters"] == len(run["objective_trace"])
        assert run["failed"] is False
        # one gate M-step per EM iteration
        assert len(run["gate_iters"]) == len(run["gate_final_grad_norms"]) == run["iters"]
        assert all(1 <= i <= 50 for i in run["gate_iters"])
    json.dumps(doc, allow_nan=False)


def test_restart_trace_records_each_gate_step(gate_gradient_norms):
    ds = random_dataset(49, n=30, l=4)
    _, report = fit(ds, EmConfig(n_components=3, restarts=2, seed=3, gate_max_iters=20))
    assert sorted(gate_gradient_norms) == [0, 1]
    for r, run in enumerate(report.restarts):
        assert run.gate_iters == [len(s) for s in gate_gradient_norms[r]]
        assert run.gate_final_grad_norms == [s[-1] for s in gate_gradient_norms[r]]
    steps = [s for per_restart in gate_gradient_norms.values() for s in per_restart]
    assert 20 in [len(s) for s in steps]  # some step used the whole budget


def three_clusters():
    """Ten rows at each of z = -5, 0, 5, each cluster with its own bit pattern."""
    rng = np.random.default_rng(46)
    bits = np.repeat([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], 10, axis=0)
    z = np.repeat([-5.0, 0.0, 5.0], 10) + rng.normal(0.0, 0.1, 30)
    return BinaryDataset(bits, z, schema_of_length(2))


def five_rows():
    """One split at 0.5 over five rows, z -10 on its left and 10 on its right:
    two bit patterns, so with K = 3 a component can die and be revived."""
    bits = np.array([[0.0], [1.0], [0.0], [1.0], [1.0]])
    return BinaryDataset(bits, np.array([-10.0, 10.0, -10.0, 10.0, 10.0]), SplitSchema([0], [0.5]))


def test_fit_with_more_components_than_bit_patterns_finishes():
    reseeds = 0
    for seed in range(20):
        _, report = fit(five_rows(), EmConfig(n_components=3, restarts=10, seed=seed))
        assert not any(r.failed for r in report.restarts)
        reseeds += sum(r.reseed_events for r in report.restarts)
    assert reseeds > 0


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 12),
    l=st.integers(0, 3),
    k=st.integers(1, 5),
    restarts=st.integers(1, 10),
)
def test_fit_finishes_when_z_is_a_function_of_the_bits(seed, n, l, k, restarts):
    # random bit patterns, and z one random value per pattern, as an
    # ensemble's predictions are; with K above the number of patterns a
    # component can die and be revived, and none may reach the M-step with
    # zero mass
    assume(k <= n)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1 << l, size=n)
    bits = ((codes[:, None] >> np.arange(l)) & 1).astype(float)
    data = BinaryDataset(bits, rng.integers(-20, 21, size=1 << l).astype(float)[codes], schema_of_length(l))
    _, report = fit(data, EmConfig(n_components=k, restarts=restarts, seed=seed))
    event(f"reseeded: {any(r.reseed_events for r in report.restarts)}")
    assert not report.restarts[report.best_restart].failed


def test_fit_restarts_reseed_and_finish():
    data = five_rows()
    model, report = fit(data, EmConfig(n_components=3, restarts=10, seed=7))  # three restarts reseed
    runs = report.restarts
    assert any(r.reseed_events > 0 for r in runs)
    assert not any(r.failed for r in runs)
    finals = [r.objective_trace[-1] for r in runs]
    assert report.best_restart == finals.index(max(finals))
    assert float(e_step(model, data)[1].sum()) == max(finals)


# The tests below raise DEGENERATE_MASS_FACTOR (and lower MAX_RESEEDS_PER_RUN)
# so that restarts on the three-cluster data fail on reseed.


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
    # A stubbed stacked E-step gives restart r the objective finals[r] at each
    # step; a restart marked failed gets responsibilities that leave component
    # 1 empty, so with no reseed allowed it fails at its second iteration.
    finals = [(1.0, False), (9.0, True), (3.0, False), (3.0, False), (2.0, False)]
    data = random_dataset(48, n=10, l=2)
    monkeypatch.setattr(rulemix.em, "MAX_RESEEDS_PER_RUN", 0)
    monkeypatch.setattr(rulemix.em, "MAX_ITERS", 2)

    def stub_fit(finals):
        done = [r for r, (_, failed) in enumerate(finals) if not failed]
        stacks = iter([range(len(finals)), done])  # the restarts of each E-step's stack
        built = []

        def stub_e_step(stacked, data):
            restarts = next(stacks)
            assert len(stacked[0]) == len(restarts)
            beta = np.full((len(restarts), len(data), 2), 0.5)
            row_ll = np.zeros((len(restarts), len(data)))
            for p, r in enumerate(restarts):
                objective, failed = finals[r]
                row_ll[p, 0] = objective
                if failed:
                    beta[p] = np.eye(2)[[0] * len(data)]
            return beta, row_ll

        def recorded_model(*args):
            built.append(MixtureModel(*args))
            return built[-1]

        monkeypatch.setattr(rulemix.em, "e_step", stub_e_step)
        monkeypatch.setattr(rulemix.em, "MixtureModel", recorded_model)
        config = EmConfig(n_components=2, restarts=len(finals))
        fitted = fit(data, config)
        assert len(built) == len(done)  # once per restart, after the loop, in restart order
        return fitted, dict(zip(done, built))

    (model, report), models = stub_fit(finals)
    assert report.best_restart == 2  # not the failed restart 1; restart 2 before the equal 3
    assert model is models[2]
    assert [r.failed for r in report.restarts] == [f for _, f in finals]
    assert [r.objective_trace for r in report.restarts] == [[v] if f else [v, v] for v, f in finals]
    with pytest.raises(RuntimeError, match="all EM restarts failed"):
        stub_fit([(1.0, True), (2.0, True)])


def responsibility_stack(rng, n, k, restarts, layout):
    """Each restart's (N, K) responsibilities as ``fit`` holds them alone, and
    their (R, N, K) stack as ``fit`` holds them together: the C-ordered
    Dirichlet draws, or ("e-step") each the transpose of a C-ordered (K, N)
    array, as an E-step returns it."""
    alone = [rng.dirichlet(np.ones(k), size=n) for _ in range(restarts)]
    if layout == "draw":
        return alone, np.stack(alone)
    alone = [np.ascontiguousarray(b.T).T for b in alone]
    return alone, np.stack([b.T for b in alone]).swapaxes(-1, -2)


def layout_of(a):
    return a.flags.c_contiguous, a.flags.f_contiguous


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 40),
    l=st.integers(0, 8),
    k=st.integers(1, 6),
    restarts=st.integers(1, 10),
    layout=st.sampled_from(["draw", "e-step"]),
)
def test_stacked_closed_form_and_e_step_equal_slices_alone(seed, n, l, k, restarts, layout):
    # one call on a stack gives each slice the very floats of a call on that
    # slice alone, and those are the floats of the unstacked forms; one
    # slice's dead component is revived on the stack and alone, as fit does
    ds = random_dataset(seed, n=n, l=l)
    rng = np.random.default_rng(seed + 1)
    alone, beta = responsibility_stack(rng, n, k, restarts, layout)
    if k > 1:
        r, dead = rng.integers(restarts), rng.integers(1, k)
        for b in (alone[r], beta[r]):
            b[:, 0] += b[:, dead]
            b[:, dead] = 0.0
            assert reseed_components(b, [dead]) == 1
    event(layout)
    stacked = m_step_closed_form(beta, ds)
    assert [a.shape for a in stacked] == [(restarts, k, l), (restarts, k), (restarts, k)]
    for r, b in enumerate(alone):
        assert layout_of(beta[r]) == layout_of(b)
        want = m_step_closed_form(b, ds)
        for got, one, unstacked in zip(stacked, want, unstacked_m_step_closed_form(b, ds)):
            assert np.array_equal(got[r], one) and np.array_equal(one, unstacked)
    weights = rng.normal(0.0, 1.0, size=(restarts, k, l + 1))
    stacked_beta, stacked_ll = e_step((weights, *stacked), ds)
    assert stacked_beta.shape == (restarts, n, k) and stacked_ll.shape == (restarts, n)
    for r in range(restarts):
        model = MixtureModel(weights[r], *(a[r] for a in stacked), ds.schema)
        (want_beta, want_ll), (old_beta, old_ll) = e_step(model, ds), unstacked_e_step(model, ds)
        assert layout_of(stacked_beta[r]) == layout_of(want_beta) == layout_of(old_beta)
        assert np.array_equal(stacked_beta[r], want_beta) and np.array_equal(want_beta, old_beta)
        assert np.array_equal(stacked_ll[r], want_ll) and np.array_equal(want_ll, old_ll)


def gate_slice_by_slice(moments, design, w_init, config, restart_ids=None):
    """``m_step_gate`` run on each slice of the stack alone."""
    weights, iters, norms = zip(*(m_step_gate(m[None], design, w[None], config) for m, w in zip(moments, w_init)))
    return np.concatenate(weights), [i for (i,) in iters], [g for (g,) in norms]


def closed_form_slice_by_slice(beta, data):
    """``m_step_closed_form`` run on each slice of the stack alone."""
    return tuple(np.stack(a) for a in zip(*(m_step_closed_form(b, data) for b in beta)))


def e_step_slice_by_slice(stacked, data):
    """``e_step`` run on each restart's model alone, its responsibilities
    stacked in the layout of a stacked call."""
    betas, row_lls = zip(*(e_step(MixtureModel(*params, data.schema), data) for params in zip(*stacked)))
    return np.stack([b.T for b in betas]).swapaxes(-1, -2), np.stack(row_lls)


lockstep_cases = pytest.mark.parametrize(
    "data, config, reseed_cap",
    [
        (random_dataset(50, n=40, l=5), EmConfig(n_components=3, restarts=4, seed=2, gate_max_iters=30), None),
        (three_clusters(), EmConfig(n_components=3, restarts=6, seed=0), 0),
    ],
    ids=["random", "one-fails-on-reseed-cap"],
)


def cap_reseeds(monkeypatch, reseed_cap):
    if reseed_cap is not None:  # as in test_fit_best_restart_skips_failed_restarts
        monkeypatch.setattr(rulemix.em, "DEGENERATE_MASS_FACTOR", 0.3)
        monkeypatch.setattr(rulemix.em, "MAX_RESEEDS_PER_RUN", reseed_cap)


@lockstep_cases
def test_lockstep_restarts_equal_restarts_run_alone(monkeypatch, data, config, reseed_cap):
    cap_reseeds(monkeypatch, reseed_cap)
    model, report = fit(data, config)
    monkeypatch.setattr(rulemix.em, "m_step_gate", gate_slice_by_slice)
    monkeypatch.setattr(rulemix.em, "m_step_closed_form", closed_form_slice_by_slice)
    monkeypatch.setattr(rulemix.em, "e_step", e_step_slice_by_slice)
    alone_model, alone = fit(data, config)
    if reseed_cap is not None:
        failed = [trace.failed for trace in alone.restarts]
        assert any(failed) and not all(failed)
        assert any(trace.failed and trace.objective_trace for trace in alone.restarts)  # failed mid-run
    assert asdict(report) == asdict(alone)
    for name in ("gate_weights", "eta", "mu", "lam"):
        assert np.array_equal(getattr(model, name), getattr(alone_model, name))


@lockstep_cases
def test_restart_independent_of_restarts_beside_it(monkeypatch, data, config, reseed_cap):
    cap_reseeds(monkeypatch, reseed_cap)
    _, report = fit(data, config)
    for r, want in enumerate(report.restarts):
        fewer = replace(config, restarts=r + 1)
        if all(trace.failed for trace in report.restarts[: r + 1]):
            with pytest.raises(RuntimeError, match="all EM restarts failed"):
                fit(data, fewer)
        else:
            assert asdict(fit(data, fewer)[1].restarts[r]) == asdict(want)


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


def test_fit_refuses_targets_whose_squares_overflow_at_the_largest_precision(monkeypatch):
    # the sum of squares of 40 rows alternating 0 and 4e152 is finite, but
    # not times EM's largest precision, so 0.5 * lam * resid**2 would overflow
    ds = random_dataset(48, n=40, l=2)
    huge = BinaryDataset(ds.bits, np.tile([0.0, 4e152], 20), ds.schema)
    steps = []
    monkeypatch.setattr(rulemix.em, "m_step_closed_form", lambda *args: steps.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^targets too large: their sum of squares overflows$"):
            fit(huge, EmConfig(n_components=2, restarts=3, seed=0))
    assert steps == []  # refused before any restart


@functools.cache
def xor_ensemble_dataset(seed):
    """What the pipeline fits EM to, on 80 XOR rows: the bits of a small
    boosted ensemble's splits and its own predictions."""
    data = gen_xor(80, seed=seed)
    ensemble = fit_gbt(data, GbtConfig(tree_count=6, max_depth=2))
    return build_dataset(ensemble, extract_splits(ensemble), data.xs)


def printed_rules_and_objective(data, config):
    """The best restart's rules, without their ``mu``, and final objective.
    An eta whose responsibilities end hard is a fraction k/n of at most 80
    rows, and rounding decides its side of tau = 0.05 = 4/80; tau = 0.045
    lies 2e-4 from every such fraction."""
    model, report = fit(data, config)
    rules = sorted(repr((c.intervals, c.share)) for c in extract_rules(model, 0.045, data).components)
    return rules, report.restarts[report.best_restart].objective_trace[-1]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    power=st.integers(-20, 20),
    sign=st.sampled_from([1.0, -1.0]),
    shift=st.sampled_from([0.0, 1.0, -7.25, 1e3, -1e4]),
)
def test_fit_does_not_depend_on_the_targets_units(seed, power, sign, shift):
    # z -> a z + b, a = +-2^power and b = a * shift: the precisions' clamp
    # follows var(z), so the fit prints the same intervals, and its objective
    # moves only by the Gaussian's change of units, -N log|a|.  The stopping
    # rule reads |objective|, which moves too, so every restart runs 30
    # iterations: a restart stopped on a plateau in one unit can climb on
    # in another (1 in 600 such pairs did).
    base = xor_ensemble_dataset(seed)
    a = sign * 2.0**power
    mapped = BinaryDataset(base.bits, a * base.z + a * shift, base.schema)
    config = EmConfig(n_components=4, restarts=3, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rulemix.em, "MAX_ITERS", 30)
        mp.setattr(rulemix.em, "REL_TOL", 0.0)
        rules, objective = printed_rules_and_objective(base, config)
        mapped_rules, mapped_objective = printed_rules_and_objective(mapped, config)
    assert mapped_rules == rules
    expected = objective - len(base) * power * math.log(2.0)
    assert mapped_objective == pytest.approx(expected, rel=0.0, abs=OBJECTIVE_ATOL_PER_ROW * len(base))


def test_fit_relabeling_keeps_likelihood():
    ds = random_dataset(43, n=40, l=4)
    model, _ = fit(ds, EmConfig(n_components=3, restarts=2, seed=2))
    perm = [1, 2, 0]
    permuted = MixtureModel(
        model.gate_weights[perm], model.eta[perm], model.mu[perm], model.lam[perm], ds.schema
    )
    assert float(e_step(permuted, ds)[1].sum()) == pytest.approx(
        float(e_step(model, ds)[1].sum()), rel=1e-12
    )


def test_reseed_halves_the_largest_component():
    # components 1 and 3 are dead (3 holds a trace of mass); 1 takes half of
    # component 0, the largest (mass 2.2), then 3 half of component 2, the
    # largest once 0 is halved (1.8 against 1.1)
    beta = np.array([[0.7, 0.0, 0.3, 0.0], [0.9, 0.0, 0.1, 1e-12], [0.5, 0.0, 0.5, 0.0], [0.1, 0.0, 0.9, 0.0]])
    beta[1, 0] -= 1e-12
    before = beta.copy()
    assert reseed_components(beta, [1, 3]) == 2
    assert np.array_equal(beta[:, 0], before[:, 0] / 2) and np.array_equal(beta[:, 1], before[:, 0] / 2)
    assert np.array_equal(beta[:, 2], before[:, 2] / 2)
    assert np.array_equal(beta[:, 3], before[:, 3] + before[:, 2] / 2)
    assert np.allclose(beta.sum(axis=1), before.sum(axis=1), rtol=0.0, atol=1e-15)
    assert (beta.sum(axis=0) > 0.0).all()


def test_config_validation():
    with pytest.raises(ValueError):
        EmConfig(n_components=0)
    with pytest.raises(ValueError):
        EmConfig(n_components=2, gate_max_iters=0)


@pytest.mark.parametrize("field", ["n_components", "restarts", "gate_max_iters"])
def test_config_rejects_non_integer_counts(field):
    config = {"n_components": 2}
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {bad!r}$"):
            EmConfig(**{**config, field: bad})
    assert getattr(EmConfig(**{**config, field: np.int64(3)}), field) == 3


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
@given(**row_sets)
def test_e_step_permutes_and_repeats_with_the_rows(seed, n, l, k):
    # each row's posterior and log-likelihood read only that row: permuting
    # the rows permutes them, and repeating every row repeats them
    ds = random_dataset(seed, n=n, l=l)
    model = random_model(seed + 1, k, ds.schema)
    beta, row_ll = e_step(model, ds)
    for rows in (np.random.default_rng(seed + 2).permutation(n), np.tile(np.arange(n), 2)):
        got_beta, got_ll = e_step(model, BinaryDataset(ds.bits[rows], ds.z[rows], ds.schema))
        assert np.allclose(got_beta, beta[rows], rtol=1e-12, atol=1e-15)
        assert np.allclose(got_ll, row_ll[rows], rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(**row_sets)
def test_gate_objective_and_gradient_are_sums_over_rows(seed, n, l, k):
    # at ridge 0 both are sums of per-row terms: row order does not matter
    # and repeating every row doubles them
    ds, beta, shuffled, doubled = permuted_and_doubled(seed, n, l, k)
    weights = np.random.default_rng(seed + 2).normal(size=(k, l + 1))
    design = gate_design(ds.bits)
    moments = beta.T @ design
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rulemix.em, "GATE_RIDGE", 0.0)
        value, shifted = gate_objective(weights, moments, design)
        grad = gate_gradient(weights, moments, design, shifted)
        for (data, b), scale in ((shuffled, 1.0), (doubled, 2.0)):
            d = gate_design(data.bits)
            m = b.T @ d
            got, sh = gate_objective(weights, m, d)
            assert got == pytest.approx(scale * value, rel=1e-9)
            assert np.allclose(gate_gradient(weights, m, d, sh), scale * grad, rtol=1e-9, atol=1e-9)
