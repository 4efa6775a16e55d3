import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp as scipy_logsumexp
from scipy.special import softmax as scipy_softmax

import rulemix.em
from conftest import random_dataset, random_model, schema_of_length
from oracles import naive_joint_ll
from rulemix.binarizer import BinaryDataset, SplitSchema
from rulemix.em import e_step, gate_objective
from rulemix.mixture import (
    MixtureModel,
    extract_rules,
    gate_design,
    render_rules_text,
    rule_text,
    rules_to_json_dict,
    softmax_columns,
)

# Logits up to +-1000: a plain exp overflows above ~709.8 and underflows to 0
# below ~-745, so only a max-shifted evaluation stays finite on these rows.
# K reaches 12 to cover K >= 8, where numpy sums a contiguous row pairwise,
# so a row sum may differ by an ulp from the in-order column sum that
# softmax_columns takes over the transpose.
logit_matrices = st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-1000.0, 1000.0))
)


def uniform_gate_model(k=3, l=2, mu=None, lam=None, schema=None):
    schema = schema or schema_of_length(l)
    return MixtureModel(
        gate_weights=np.zeros((k, l + 1)),
        eta=np.full((k, l), 0.5),
        mu=np.zeros(k) if mu is None else np.asarray(mu, dtype=float),
        lam=np.ones(k) if lam is None else np.asarray(lam, dtype=float),
        schema=schema,
    )


def one_row(model):
    """A one all-zero bit row on the model's schema: the rule builders take
    data to compute shares."""
    return BinaryDataset(np.zeros((1, len(model.schema))), np.zeros(1), model.schema)


def test_gate_uniform_when_weights_zero():
    model = uniform_gate_model(k=4)
    assert np.allclose(model.gate_batch([[1.0, 0.0], [0.0, 1.0]]), 0.25, atol=1e-15)


def test_gate_log3_margin_gives_three_to_one():
    schema = schema_of_length(1)
    w = np.array([[0.0, math.log(3.0)], [0.0, 0.0]])
    model = MixtureModel(w, np.full((2, 1), 0.5), np.zeros(2), np.ones(2), schema)
    assert np.allclose(model.gate_batch([[0.0]]), [[0.75, 0.25]], atol=1e-12)


def test_gate_shift_invariance():
    schema = schema_of_length(3)
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 4))
    shift = rng.normal(size=4)
    m1 = MixtureModel(w, np.full((3, 3), 0.5), np.zeros(3), np.ones(3), schema)
    m2 = MixtureModel(w + shift, np.full((3, 3), 0.5), np.zeros(3), np.ones(3), schema)
    S = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    assert np.allclose(m1.gate_batch(S), m2.gate_batch(S), atol=1e-12)
    assert np.array_equal(m1.predict_batch(S), m2.predict_batch(S))


def test_gate_outputs_on_simplex():
    rng = np.random.default_rng(1)
    schema = schema_of_length(5)
    for _ in range(1000):
        model = random_model(int(rng.integers(1e9)), k=3, schema=schema)
        S = rng.integers(0, 2, size=(3, 5)).astype(float)
        g = model.gate_batch(S)
        assert g.min() > 0.0
        assert np.abs(g.sum(axis=1) - 1.0).max() <= 1e-12


def test_density_half_eta_is_l_log_two():
    model = uniform_gate_model(k=2, l=4, lam=[2.0, 2.0])
    gauss = 0.5 * math.log(2.0 / (2 * math.pi))
    got = model.log_density_matrix(np.array([[1.0, 0.0, 1.0, 1.0]]), np.array([0.0]))[0, 0]
    assert got == pytest.approx(-4 * math.log(2.0) + gauss, abs=1e-12)


def test_density_at_mean_is_half_log_lam_over_two_pi():
    model = uniform_gate_model(k=1, l=1, mu=[1.5], lam=[3.0])
    got = model.log_density_matrix(np.array([[1.0]]), np.array([1.5]))[0, 0]
    assert got == pytest.approx(-math.log(2.0) + 0.5 * math.log(3.0 / (2 * math.pi)), abs=1e-12)


def test_density_clamps_hard_eta():
    schema = schema_of_length(2)
    model = MixtureModel(
        np.zeros((1, 3)), np.array([[1.0, 0.0]]), np.zeros(1), np.ones(1), schema
    )
    gauss = 0.5 * math.log(1.0 / (2 * math.pi))
    got = model.log_density_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))[:, 0]
    assert got[0] - gauss == pytest.approx(2 * math.log(1 - 1e-6), abs=1e-15)
    assert math.isfinite(got[1])


def test_joint_ll_single_component_is_density_sum():
    ds = random_dataset(2, n=12, l=3)
    model = random_model(3, k=1, schema=ds.schema)
    expected = model.log_density_matrix(ds.bits, ds.z)[:, 0].sum()
    assert float(e_step(model, ds)[1].sum()) == pytest.approx(expected, abs=1e-9)


def test_joint_ll_additive_under_duplication():
    ds = random_dataset(4, n=10, l=3)
    doubled = BinaryDataset(
        np.concatenate([ds.bits, ds.bits]),
        np.concatenate([ds.z, ds.z]),
        ds.schema,
    )
    model = random_model(5, k=3, schema=ds.schema)
    assert float(e_step(model, doubled)[1].sum()) == pytest.approx(
        2.0 * float(e_step(model, ds)[1].sum()), rel=1e-12
    )


def test_joint_ll_matches_naive_arithmetic():
    ds = random_dataset(6, n=3, l=2)
    model = random_model(7, k=2, schema=ds.schema)
    assert float(e_step(model, ds)[1].sum()) == pytest.approx(
        naive_joint_ll(model, ds), abs=1e-10
    )


def test_joint_ll_invariant_under_component_relabel():
    ds = random_dataset(8, n=15, l=4)
    model = random_model(9, k=3, schema=ds.schema)
    perm = [2, 0, 1]
    permuted = MixtureModel(
        model.gate_weights[perm],
        model.eta[perm],
        model.mu[perm],
        model.lam[perm],
        ds.schema,
    )
    assert float(e_step(permuted, ds)[1].sum()) == pytest.approx(
        float(e_step(model, ds)[1].sum()), rel=1e-12
    )


def test_joint_ll_schema_mismatch_rejected():
    ds = random_dataset(10, n=5, l=3)
    model = random_model(11, k=2, schema=schema_of_length(3, dims=3))
    with pytest.raises(ValueError):
        float(e_step(model, ds)[1].sum())


def test_predict_point_single_component():
    model = uniform_gate_model(k=1, mu=[4.2])
    assert model.predict_batch([[1.0, 0.0], [0.0, 1.0]]).tolist() == [4.2, 4.2]


def test_predict_point_tie_breaks_low():
    model = uniform_gate_model(k=2, mu=[0.0, 5.0])
    assert model.predict_batch([[1.0, 1.0]]).tolist() == [0.0]


def test_predict_point_hard_and_soft():
    schema = schema_of_length(1)
    w = np.array([[0.0, math.log(0.9)], [0.0, math.log(0.1)]])
    model = MixtureModel(w, np.full((2, 1), 0.5), np.array([1.0, 3.0]), np.ones(2), schema)
    assert np.allclose(model.gate_batch([[0.0]]), [[0.9, 0.1]], atol=1e-12)
    assert model.predict_batch([[0.0]]).tolist() == [1.0]
    assert model.predict_batch([[0.0]], soft=True)[0] == pytest.approx(1.2, abs=1e-12)


def test_extract_rules_interval_from_eta():
    schema = SplitSchema(np.array([0, 0]), np.array([0.5, 0.7]))
    model = MixtureModel(
        np.zeros((1, 3)), np.array([[0.99, 0.01]]), np.zeros(1), np.ones(1), schema
    )
    rules = extract_rules(model, 0.05, one_row(model))
    comp = rules.components[0]
    assert len(comp.intervals) == 1
    iv = comp.intervals[0]
    assert (iv.feature, iv.lower, iv.upper) == (0, 0.5, 0.7)
    assert rule_text(rules, comp) == "0.5 <= x_1 < 0.7"


def test_extract_rules_catch_all():
    model = uniform_gate_model(k=1, l=3)
    rules = extract_rules(model, 0.05, one_row(model))
    assert rules.components[0].catch_all
    assert rule_text(rules, rules.components[0]) == "any x"


def test_extract_rules_flags_degenerate():
    schema = SplitSchema(np.array([0, 0]), np.array([0.5, 0.7]))
    model = MixtureModel(
        np.zeros((1, 3)), np.array([[0.01, 0.99]]), np.zeros(1), np.ones(1), schema
    )
    rules = extract_rules(model, 0.05, one_row(model))
    comp = rules.components[0]
    assert comp.degenerate
    assert len(rules.components) == 1  # reported, not dropped
    assert "degenerate" in rule_text(rules, comp)


def test_extract_rules_tiny_tau_reads_pattern():
    schema = SplitSchema(np.array([0, 1, 1]), np.array([0.2, 0.5, 0.8]))
    model = MixtureModel(
        np.zeros((1, 4)), np.array([[1.0, 0.5, 0.0]]), np.zeros(1), np.ones(1), schema
    )
    rules = extract_rules(model, 1e-9, one_row(model))
    ivs = {iv.feature: iv for iv in rules.components[0].intervals}
    assert ivs[0].lower == 0.2 and ivs[0].upper == math.inf
    assert ivs[1].upper == 0.8 and ivs[1].lower == -math.inf


def test_extract_rules_keeps_tightest_bounds():
    schema = SplitSchema(np.array([0, 0, 0]), np.array([0.1, 0.3, 0.9]))
    model = MixtureModel(
        np.zeros((1, 4)), np.array([[0.99, 0.97, 0.02]]), np.zeros(1), np.ones(1), schema
    )
    comp = extract_rules(model, 0.05, one_row(model)).components[0]
    assert comp.intervals[0].lower == 0.3
    assert comp.intervals[0].upper == 0.9


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 40),
    l=st.integers(1, 4),
    k=st.integers(1, 6),
    span=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
@example(n=9, l=1, k=5, span=1, seed=0)  # K above the 2 patterns
@example(n=4, l=2, k=3, span=0, seed=0)  # all gates tie
def test_extract_rules_shares_from_data(n, l, k, span, seed):
    # Integer gate weights in [-span, span] make equal logits exact ties.
    rng = np.random.default_rng(seed)
    schema = schema_of_length(l)
    bits = rng.integers(0, 2, size=(n, l)).astype(float)
    weights = rng.integers(-span, span + 1, size=(k, l + 1)).astype(float)
    model = MixtureModel(weights, rng.random((k, l)), np.zeros(k), np.ones(k), schema)
    rules = extract_rules(model, 0.05, BinaryDataset(bits, rng.normal(size=n), schema))
    counts = [0] * k
    for row in bits.tolist():
        design = row + [1.0]
        logits = [sum(w * s for w, s in zip(wk, design)) for wk in weights.tolist()]
        counts[logits.index(max(logits))] += 1  # ties go to the lower index
    shares = [c.share for c in rules.components]
    assert shares == [c / n for c in counts]
    assert sum(shares) == pytest.approx(1.0, abs=1e-12)


def test_extract_rules_tau_range_checked():
    model = uniform_gate_model()
    for bad in (0.0, 0.5, -0.1):
        with pytest.raises(ValueError):
            extract_rules(model, bad, one_row(model))


def test_rules_json_layout():
    schema = SplitSchema(np.array([0, 0]), np.array([0.5, 0.7]), ("Temperature",))
    model = MixtureModel(
        np.zeros((1, 3)), np.array([[0.99, 0.01]]), np.array([2.0]), np.ones(1), schema
    )
    doc = rules_to_json_dict(extract_rules(model, 0.05, one_row(model)))
    comp = doc["components"][0]
    assert comp["mu"] == 2.0
    assert comp["intervals"] == [
        {"feature": 0, "name": "Temperature", "lower": 0.5, "upper": 0.7}
    ]


def test_render_text_has_header_and_rows():
    model = uniform_gate_model(k=2, mu=[1.0, 2.0])
    text = render_rules_text(extract_rules(model, 0.05, one_row(model)))
    # the uniform gate ties, so the one row goes to the lower index
    assert text.splitlines() == ["z  share  rule", "1   1.00  any x", "2   0.00  any x"]


# log(1 + s) rounds a share s below half an ulp of 1 to zero where scipy's
# log1p keeps it, so results that cancel to ~0 may differ by a few ulps of log K.
LSE_ATOL = 1e-14


def softmax_and_lse(a):
    """Row softmax and log-sum-exp of an (n, K) array through the kernel, on
    a C-ordered (K, n) copy, the layout every logits product gives it."""
    cols = np.array(a.T, order="C")
    lse = softmax_columns(cols)
    return cols.T, lse


@settings(deadline=None)
@given(logit_matrices)
@example(np.array([[1000.0, -1000.0, 0.0], [-800.0, -790.0, -1000.0], [700.0, 700.0, -700.0]]))
def test_log_sum_exp_matches_scipy(a):
    got = softmax_and_lse(a)[1]
    assert got.shape == (len(a),)
    np.testing.assert_allclose(got, scipy_logsumexp(a, axis=1), rtol=1e-12, atol=LSE_ATOL)


@settings(deadline=None)
@given(logit_matrices, st.floats(-1000.0, 1000.0))
def test_log_sum_exp_shifts_with_row_constant(a, c):
    # a + c rounds each entry by up to an ulp of 2000
    p, lse = softmax_and_lse(a)
    p_shifted, lse_shifted = softmax_and_lse(a + c)
    np.testing.assert_allclose(lse_shifted, lse + c, rtol=0, atol=1e-10)
    np.testing.assert_allclose(p_shifted, p, rtol=0, atol=1e-10)


@settings(deadline=None)
@given(logit_matrices)
def test_softmax_rows_sum_to_one(a):
    p, lse = softmax_and_lse(a)
    assert p.shape == a.shape
    assert ((p >= 0.0) & (p <= 1.0)).all()
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(p, scipy_softmax(a, axis=1), rtol=0, atol=1e-12)
    # the softmax is the exp of the logits less their log-sum-exp
    np.testing.assert_allclose(p, np.exp(a - lse[:, None]), rtol=0, atol=1e-12)


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: arrays(np.float64, (r, 4, 7), elements=st.floats(-1000.0, 1000.0))))
def test_softmax_columns_stack_slices_as_alone(stack):
    # the gate's line search scores a stack of restarts in one call
    alone = [stack[r].copy() for r in range(len(stack))]
    lse = softmax_columns(stack)
    for r, cols in enumerate(alone):
        assert softmax_columns(cols).tobytes() == lse[r].tobytes()
        assert cols.tobytes() == stack[r].tobytes()


@settings(deadline=None)
@given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_gate_batch_ignores_memory_layout(k, n, l, seed):
    # Another softmax layout would change later BLAS sums by an ulp or two, so
    # the result must be component-major, the transpose of a C-ordered (K, n)
    # array, and the same bits for every layout of the bit rows.
    rng = np.random.default_rng(seed)
    model = random_model(seed, k=k, schema=schema_of_length(l))
    S = rng.integers(0, 2, size=(n, l)).astype(float)
    padded = np.zeros((n, 2 * l))
    padded[:, ::2] = S
    want = model.gate_batch(S)
    for view in (S, np.asfortranarray(S), padded[:, ::2], np.ascontiguousarray(S[::-1])[::-1]):
        g = model.gate_batch(view)
        assert g.T.flags.c_contiguous
        assert g.tobytes() == want.tobytes()


@settings(deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_gate_batch_is_the_gate_objective_softmax(n, k, l, seed):
    # one logits product, gate_weights @ design.T, for prediction and the M-step
    ds = random_dataset(seed, n=n, l=l)
    model = random_model(seed, k=k, schema=ds.schema)
    beta = np.full((n, k), 1.0 / k)
    _, probs = gate_objective(model.gate_weights, beta.T @ ds.design, ds.design)
    assert model.gate_batch(ds.bits).T.tobytes() == probs.tobytes()


@settings(deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 5),
    st.integers(0, 6),
    st.floats(0.0, 1.0),
    st.floats(0.01, 100.0),
    st.integers(0, 2**32 - 1),
)
def test_gate_objective_matches_scipy_reference(n, k, l, ridge, scale, seed):
    rng = np.random.default_rng(seed)
    design = gate_design(rng.integers(0, 2, size=(n, l)).astype(float))
    weights = rng.normal(0.0, scale, size=(k, design.shape[1]))
    beta = rng.dirichlet(np.ones(k), size=n)
    logits = design @ weights.T
    expected = (beta * (logits - scipy_logsumexp(logits, axis=1, keepdims=True))).sum() - (
        0.5 * ridge * (weights**2).sum()
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rulemix.em, "GATE_RIDGE", ridge)
        got, probs = gate_objective(weights, beta.T @ design, design)
    # the moments form sums terms as large as |W| times the design: allow their rounding
    moments_atol = 1e-14 * (design @ np.abs(weights).T).sum()
    assert got == pytest.approx(expected, rel=1e-12, abs=n * LSE_ATOL + moments_atol)
    # the softmax the next gradient reads: a C-ordered (K, n) array, so its
    # product with the design is a plain one and sums in one order
    assert probs.shape == (k, n) and probs.flags.c_contiguous
    np.testing.assert_allclose(probs.T, scipy_softmax(logits, axis=1), rtol=1e-12, atol=1e-15)


def test_gate_design_appends_intercept_column():
    bits = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(gate_design(bits), [[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
