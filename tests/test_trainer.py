import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import brute_force_best_split, per_feature_best_split
from rulemix.data import gen_xor
from rulemix.ensemble import TreeEnsemble
from rulemix.trainer import (
    GbtConfig,
    ParseError,
    _best_split,
    fit_gbt,
    grow_tree,
    parse_ensemble_json,
    serialize_ensemble,
)

TWO_STUMP_JSON = json.dumps(
    {
        "feature_count": 2,
        "trees": [
            {
                "weight": 1.0,
                "nodes": [
                    {"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
                    {"value": 0.0},
                    {"value": 1.0},
                ],
            },
            {
                "weight": 1.0,
                "nodes": [
                    {"feature": 1, "threshold": 0.5, "left": 1, "right": 2},
                    {"value": 0.0},
                    {"value": 1.0},
                ],
            },
        ],
    }
)


def test_constant_targets_reproduced_exactly():
    rng = np.random.default_rng(0)
    xs = rng.random((40, 3))
    ys = np.full(40, 2.5)
    ens = fit_gbt(xs, ys, GbtConfig(tree_count=5, max_depth=2))
    for x in rng.random((20, 3)):
        assert ens.predict(x) == 2.5


def test_single_stump_threshold_lands_in_margin():
    rng = np.random.default_rng(1)
    xs = rng.random((30, 1))
    ys = np.where(xs[:, 0] < 0.5, 0.0, 10.0)
    ens = fit_gbt(xs, ys, GbtConfig(tree_count=1, max_depth=1, learning_rate=1.0, min_samples_leaf=1))
    t = ens.trees[1]
    assert t.feature[0] == 0
    left_max = xs[xs[:, 0] < 0.5, 0].max()
    right_min = xs[xs[:, 0] >= 0.5, 0].min()
    assert left_max <= t.threshold[0] < right_min


def test_training_mse_nonincreasing_in_tree_count():
    data = gen_xor(400, seed=2)
    config = GbtConfig(tree_count=40, max_depth=3, min_samples_leaf=5)
    ens = fit_gbt(data.xs, data.ys, config)
    prev = np.inf
    for m in range(1, ens.tree_count + 1):
        partial = TreeEnsemble(ens.trees[:m], ens.weights[:m], 2)
        cur = float(np.mean((partial.predict_batch(data.xs) - data.ys) ** 2))
        assert cur <= prev + 1e-12
        prev = cur


def test_fit_is_deterministic():
    data = gen_xor(200, seed=4)
    config = GbtConfig(tree_count=10, max_depth=3, min_samples_leaf=5, seed=9)
    a = fit_gbt(data.xs, data.ys, config)
    b = fit_gbt(data.xs, data.ys, config)
    assert serialize_ensemble(a) == serialize_ensemble(b)
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)


def test_greedy_split_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for case in range(20):
        n = int(rng.integers(8, 51))
        d = int(rng.integers(1, 4))
        xs = rng.random((n, d))
        ys = rng.normal(size=n)
        tree = grow_tree(xs, ys, max_depth=1, min_samples_leaf=2)
        expected = brute_force_best_split(xs, ys, min_samples_leaf=2)
        if expected is None:
            assert tree.n_leaves == 1
            continue
        assert int(tree.feature[0]) == expected[0]
        assert float(tree.threshold[0]) == pytest.approx(expected[1], rel=1e-12)


@st.composite
def split_inputs(draw):
    """(X, y, rows, min_samples_leaf) with heavily tied values: small-integer
    x (constant columns included) and y, often a repeated column, and rows a
    sorted subset of X's rows."""
    min_leaf = draw(st.integers(1, 5))
    n = draw(st.integers(2 * min_leaf, 60))
    total = n + draw(st.integers(0, 10))
    dims = draw(st.integers(1, 4))
    xs = draw(arrays(np.float64, (total, dims), elements=st.integers(0, 4).map(float)))
    if dims > 1 and draw(st.booleans()):
        xs[:, -1] = xs[:, 0]
    ys = draw(arrays(np.float64, total, elements=st.integers(0, 3).map(float)))
    rows = np.sort(draw(st.permutations(range(total)))[:n])
    return xs, ys, rows, min_leaf


@settings(max_examples=300, deadline=None)
@given(split_inputs())
# y = 1 0 0 1 over distinct x: gains tie exactly at thresholds 0.5 and 2.5.
@example((np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
          np.array([1.0, 0.0, 0.0, 1.0]), np.arange(4), 1))
def test_best_split_equals_per_feature_reference(inputs):
    # Exact equality, None included: ties in gain must go to the lower
    # feature, then the lower threshold, as the one-feature-at-a-time scan does.
    assert _best_split(*inputs) == per_feature_best_split(*inputs)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(0, 6),
    min_leaf=st.integers(1, 5),
    dims=st.integers(1, 3),
    levels=st.integers(1, 6),
)
def test_tree_cut_at_depth_is_tree_grown_to_depth(seed, depth, min_leaf, dims, levels):
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, levels, size=(80, dims)) / 4.0
    ys = rng.normal(size=80)
    tree = grow_tree(xs, ys, depth, min_leaf)
    probes = np.concatenate([xs, rng.random((20, dims)) * levels / 4.0])
    for d in range(depth + 1):
        cut = tree.value[tree.leaf_index_batch(probes, d)]
        assert np.array_equal(cut, grow_tree(xs, ys, d, min_leaf).predict_batch(probes))


def test_rejects_empty_and_nonfinite_data():
    with pytest.raises(ValueError):
        fit_gbt(np.zeros((0, 2)), np.zeros(0), GbtConfig())
    with pytest.raises(ValueError):
        fit_gbt(np.array([[0.1], [np.nan]]), np.array([1.0, 2.0]), GbtConfig())


def test_round_trip_preserves_predictions():
    data = gen_xor(150, seed=5)
    ens = fit_gbt(data.xs, data.ys, GbtConfig(tree_count=8, max_depth=3))
    text = serialize_ensemble(ens)
    parsed = parse_ensemble_json(text)
    assert serialize_ensemble(parsed) == text
    probes = np.random.default_rng(6).random((100, 2))
    assert np.allclose(ens.predict_batch(probes), parsed.predict_batch(probes), atol=0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    dims=st.integers(1, 3),
    trees=st.integers(1, 6),
    depth=st.integers(1, 4),
    min_leaf=st.integers(1, 5),
)
def test_round_trip_property(seed, n, dims, trees, depth, min_leaf):
    # Grown trees hold node means at internal nodes; the leaf-only format
    # must neither write them nor need them to predict.
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 5, size=(n, dims)) / 4.0
    ys = rng.normal(size=n)
    ens = fit_gbt(xs, ys, GbtConfig(tree_count=trees, max_depth=depth, min_samples_leaf=min_leaf))
    text = serialize_ensemble(ens)
    parsed = parse_ensemble_json(text)
    assert serialize_ensemble(parsed) == text
    probes = np.concatenate([xs, rng.random((20, dims))])
    assert np.array_equal(ens.predict_batch(probes), parsed.predict_batch(probes))


def test_hand_written_two_stump_file():
    ens = parse_ensemble_json(TWO_STUMP_JSON)
    assert ens.predict([0.7, 0.2]) == 1.0


def test_leaf_missing_value_names_node():
    bad = json.loads(TWO_STUMP_JSON)
    bad["trees"][0]["nodes"][2] = {}
    with pytest.raises(ParseError, match="node 2: leaf missing value"):
        parse_ensemble_json(json.dumps(bad))


def test_unknown_node_field_rejected():
    bad = json.loads(TWO_STUMP_JSON)
    bad["trees"][1]["nodes"][1]["gain"] = 0.3
    with pytest.raises(ParseError, match="node 1: unknown field 'gain'"):
        parse_ensemble_json(json.dumps(bad))


def test_feature_index_out_of_range_rejected():
    bad = json.loads(TWO_STUMP_JSON)
    bad["trees"][0]["nodes"][0]["feature"] = 2
    with pytest.raises(ParseError, match="node 0: feature index 2 out of range"):
        parse_ensemble_json(json.dumps(bad))


def test_missing_child_rejected():
    bad = json.loads(TWO_STUMP_JSON)
    del bad["trees"][0]["nodes"][0]["right"]
    with pytest.raises(ParseError, match="node 0: internal node missing 'right'"):
        parse_ensemble_json(json.dumps(bad))


def test_child_index_out_of_range_rejected():
    bad = json.loads(TWO_STUMP_JSON)
    bad["trees"][0]["nodes"][0]["right"] = 5
    with pytest.raises(ParseError, match="node 0: right child index out of range"):
        parse_ensemble_json(json.dumps(bad))


def test_child_index_beyond_int64_rejected():
    bad = json.loads(TWO_STUMP_JSON)
    for index in (2**70, -(2**70)):
        bad["trees"][0]["nodes"][0]["right"] = index
        with pytest.raises(ParseError, match="^tree 0: node 0: right child index out of range$"):
            parse_ensemble_json(json.dumps(bad))


@pytest.mark.parametrize(
    "old, new, key",
    [
        ('{"value": 1.0}', '{"value": 1.0, "value": 5.0}', "value"),
        ('"weight": 1.0,', '"weight": 1.0, "weight": 2.0,', "weight"),
    ],
    ids=["leaf-value", "tree-weight"],
)
def test_repeated_json_key_rejected(old, new, key):
    assert old in TWO_STUMP_JSON
    with pytest.raises(ParseError, match=f"^repeated key '{key}'$"):
        parse_ensemble_json(TWO_STUMP_JSON.replace(old, new, 1))


def test_repeated_feature_names_rejected():
    bad = json.loads(TWO_STUMP_JSON)
    bad["feature_names"] = ["a", "a"]
    with pytest.raises(ParseError, match="^feature name 'a' appears twice$"):
        parse_ensemble_json(json.dumps(bad))


def test_detached_cycle_rejected_naming_node():
    # root 0 -> (1, 2); nodes 3 -> (4, 5) and 5 -> (3, 6) form a cycle no input reaches
    nodes = [
        {"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
        {"value": 0.0},
        {"value": 1.0},
        {"feature": 1, "threshold": 0.1, "left": 4, "right": 5},
        {"value": 2.0},
        {"feature": 1, "threshold": 0.9, "left": 3, "right": 6},
        {"value": 3.0},
    ]
    text = json.dumps({"feature_count": 2, "trees": [{"weight": 1.0, "nodes": nodes}]})
    with pytest.raises(ParseError, match="tree 0: node 3: not reachable from the root"):
        parse_ensemble_json(text)


def test_malformed_json_rejected():
    with pytest.raises(ParseError, match="malformed JSON"):
        parse_ensemble_json("{not json")


def test_unknown_top_level_field_rejected():
    bad = json.loads(TWO_STUMP_JSON)
    bad["extra"] = 1
    with pytest.raises(ParseError, match="unknown top-level field 'extra'"):
        parse_ensemble_json(json.dumps(bad))
