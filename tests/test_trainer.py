import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rulemix.trainer
from oracles import (
    _per_node_sort_best_split,
    brute_force_best_split,
    per_feature_best_split,
    per_node_sort_grow_tree,
    per_tree_leaf_index,
)
from conftest import ensemble_of, one_tree
from rulemix.data import LabeledDataset, gen_energy_like, gen_xor, split3
from rulemix.ensemble import COLUMNS, LEAF, TreeEnsemble
from rulemix.trainer import (
    GbtConfig,
    ParseError,
    _best_split,
    _boundaries,
    fit_gbt,
    grow_tree,
    parse_ensemble_json,
    presort,
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
    ens = fit_gbt(LabeledDataset(xs, ys), GbtConfig(tree_count=5, max_depth=2))
    for x in rng.random((20, 3)):
        assert ens.predict(x) == 2.5


def test_single_stump_threshold_lands_in_margin():
    rng = np.random.default_rng(1)
    xs = rng.random((30, 1))
    ys = np.where(xs[:, 0] < 0.5, 0.0, 10.0)
    config = GbtConfig(tree_count=1, max_depth=1, learning_rate=1.0, min_samples_leaf=1)
    ens = fit_gbt(LabeledDataset(xs, ys), config)
    root = ens.roots[1]
    assert ens.feature[root] == 0
    left_max = xs[xs[:, 0] < 0.5, 0].max()
    right_min = xs[xs[:, 0] >= 0.5, 0].min()
    assert left_max <= ens.threshold[root] < right_min


@pytest.mark.parametrize(
    "lo, hi",
    [(1.0, 1.0000000000000002), (1.7e308, 1.75e308), (-1.75e308, -1.7e308)],
    ids=["adjacent-doubles", "sum-overflows-up", "sum-overflows-down"],
)
def test_split_without_a_midpoint_keeps_both_children(lo, hi):
    # the midpoint rounds down to lo or overflows, so the threshold is hi
    xs = np.array([[lo], [hi], [lo], [hi]])
    ys = np.array([0.0, 1.0, 0.0, 1.0])
    columns, leaf = grow_tree(xs, ys, presort(xs, 1), 1, 1)
    tree = one_tree(columns, xs)
    assert tree.threshold[0] == hi
    assert np.array_equal(tree.value[leaf], ys)
    assert np.array_equal(leaf, tree.leaf_vector_batch(xs)[:, 0])


def test_training_mse_nonincreasing_in_tree_count():
    data = gen_xor(400, seed=2)
    config = GbtConfig(tree_count=40, max_depth=3, min_samples_leaf=5)
    ens = fit_gbt(data, config)
    prev = np.inf
    sizes = np.diff(ens.roots, append=len(ens.feature))
    for m in range(1, ens.tree_count + 1):
        end = sizes[:m].sum()
        columns = [getattr(ens, name)[:end] for name in COLUMNS]
        partial = TreeEnsemble(columns, sizes[:m], ens.weights[:m], 2)
        cur = float(np.mean((partial.predict_batch(data.xs) - data.ys) ** 2))
        assert cur <= prev + 1e-12
        prev = cur


def test_fit_is_deterministic():
    data = gen_xor(200, seed=4)
    config = GbtConfig(tree_count=10, max_depth=3, min_samples_leaf=5)
    a = fit_gbt(data, config)
    b = fit_gbt(data, config)
    assert serialize_ensemble(a) == serialize_ensemble(b)
    assert np.array_equal(a.roots, b.roots)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)


def test_greedy_split_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for case in range(20):
        n = int(rng.integers(8, 51))
        d = int(rng.integers(1, 4))
        xs = rng.random((n, d))
        ys = rng.normal(size=n)
        tree = one_tree(grow_tree(xs, ys, presort(xs, 2), max_depth=1, min_samples_leaf=2)[0], xs)
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
    sorted subset of X's rows; or real-valued x, where every position between
    two rows is a value boundary.  n is often exactly 2 * min_samples_leaf,
    the smallest node that may split (one candidate position)."""
    min_leaf = draw(st.integers(1, 5))
    n = draw(st.one_of(st.just(2 * min_leaf), st.integers(2 * min_leaf, 60)))
    total = n + draw(st.integers(0, 10))
    dims = draw(st.integers(1, 4))
    if draw(st.booleans()):
        elements = st.integers(0, 4).map(float)
    else:
        elements = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
    xs = draw(arrays(np.float64, (total, dims), elements=elements))
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
    # feature, then the lower threshold, as the one-feature-at-a-time scan
    # does, and scoring value boundaries only must give the floats of the
    # scan that scores every position and masks ties.
    # The node's sorted columns are the whole presort filtered to its rows.
    xs, ys, rows, min_leaf = inputs
    order = presort(xs, min_leaf)[0]
    order = order[np.isin(order, rows)].reshape(xs.shape[1], -1)
    xs_sorted = xs[order, np.arange(xs.shape[1])[:, None]]
    ysub = ys[rows]
    k = _boundaries(xs_sorted, min_leaf)
    split = _best_split(ys[order], xs_sorted, k, ysub.sum(), (ysub * ysub).sum())
    assert split == per_feature_best_split(*inputs)
    assert split == _per_node_sort_best_split(*inputs)


def assert_same_tree(a, b):
    assert len(a) == len(b) == len(COLUMNS)
    for name, x, y in zip(COLUMNS, a, b):
        assert np.array_equal(x, y, equal_nan=True), name


@st.composite
def grow_inputs(draw):
    """(X, y, max_depth, min_samples_leaf): real or small-integer (tied)
    columns, some constant or repeated, and any leaf size up to n, so the
    root itself may have too few rows to split."""
    n = draw(st.integers(2, 60))
    dims = draw(st.integers(1, 4))
    if draw(st.booleans()):
        elements = st.integers(0, 3).map(float)
    else:
        elements = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
    xs = draw(arrays(np.float64, (n, dims), elements=elements))
    if draw(st.booleans()):
        xs[:, draw(st.integers(0, dims - 1))] = xs[0, 0]
    if dims > 1 and draw(st.booleans()):
        xs[:, -1] = xs[:, 0]
    ys = draw(arrays(np.float64, n, elements=st.floats(-5.0, 5.0, allow_subnormal=False)))
    return xs, ys, draw(st.integers(0, 6)), draw(st.integers(1, n))


@settings(max_examples=300, deadline=None)
@given(grow_inputs())
def test_presorted_grower_equals_per_node_sort_oracle(inputs):
    assert_grows_as_oracle(*inputs)


def assert_grows_as_oracle(xs, ys, depth, min_leaf):
    """``grow_tree`` equals the per-node-sort grower bit for bit, and its
    leaves are those the ensemble walk finds; returns the one-tree ensemble."""
    columns, leaf = grow_tree(xs, ys, presort(xs, min_leaf), depth, min_leaf)
    assert_same_tree(columns, per_node_sort_grow_tree(xs, ys, depth, min_leaf))
    tree = one_tree(columns, xs)
    assert np.array_equal(leaf, tree.leaf_vector_batch(xs)[:, 0])
    return tree


@pytest.mark.parametrize("left_rows, right_rows", [(5, 6), (6, 5)], ids=["left-2m-1", "right-2m-1"])
def test_children_at_the_split_limit(left_rows, right_rows):
    # m = 3: the root splits on feature 0 into 2m - 1 and 2m rows; only the
    # 2m-row child can split again, once, into m and m rows on feature 1
    n = left_rows + right_rows
    xs = np.column_stack([np.arange(n) >= left_rows, np.arange(n) % 2]).astype(float)
    ys = np.where(xs[:, 0] > 0, 100.0, 0.0) + xs[:, 1] + np.arange(n) * 1e-3
    tree = assert_grows_as_oracle(xs, ys, 3, 3)
    small, large = (tree.left[0], tree.right[0]) if left_rows < right_rows else (tree.right[0], tree.left[0])
    assert tree.feature[0] == 0 and tree.feature[small] == LEAF and tree.feature[large] == 1
    assert tree.n_leaves == 3


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("min_leaf", [1, 5])
def test_shallow_trees_equal_oracle(depth, min_leaf):
    data = gen_xor(80, seed=8)
    tree = assert_grows_as_oracle(data.xs, data.ys, depth, min_leaf)
    assert tree.n_leaves <= 2**depth


@pytest.mark.parametrize("n, min_leaf", [(1, 1), (5, 3), (9, 5), (10, 5)])
def test_root_at_the_split_limit(n, min_leaf):
    # below 2 * min_leaf rows the root is the only node
    data = gen_xor(n, seed=9)
    tree = assert_grows_as_oracle(data.xs, data.ys, 4, min_leaf)
    assert (len(tree.feature) == 1) == (n < 2 * min_leaf)


def test_split_search_runs_only_where_a_split_is_possible(monkeypatch):
    atm = energy_atm_split()
    calls = []

    def counting(ys_sorted, *args):
        calls.append(ys_sorted.shape[1])
        return _best_split(ys_sorted, *args)

    monkeypatch.setattr(rulemix.trainer, "_best_split", counting)
    columns, _ = grow_tree(atm.xs, atm.ys, presort(atm.xs, 5), 10, 5)
    assert min(calls) >= 2 * 5
    # one search per node shallower than depth 10 with at least 10 rows: the
    # nodes the cuts at depths 0-9 reach with that many rows
    searched = set()
    for depth in range(10):
        rows = np.bincount(per_tree_leaf_index(columns, [0], atm.xs, depth)[:, 0])
        searched |= set(np.flatnonzero(rows >= 2 * 5).tolist())
    assert len(calls) == len(searched)


def energy_atm_split():
    return split3(gen_energy_like(seed=0), (0.4, 0.3, 0.3), 0)[0]


def assert_fit_equals_per_node_sort_fit(monkeypatch, config):
    # the oracle side finds each row's leaf by walking the tree, so the
    # leaves the grower returns for the residual update are checked too
    atm = energy_atm_split()
    text = serialize_ensemble(fit_gbt(atm, config))

    def oracle(X, y, root, depth, leaf_size):
        columns = per_node_sort_grow_tree(X, y, depth, leaf_size)
        return columns, per_tree_leaf_index(columns, [0], X)[:, 0]

    monkeypatch.setattr(rulemix.trainer, "grow_tree", oracle)
    assert text == serialize_ensemble(fit_gbt(atm, config))


def test_fit_gbt_on_energy_split_equals_per_node_sort_fit(monkeypatch):
    assert_fit_equals_per_node_sort_fit(monkeypatch, GbtConfig(min_samples_leaf=10))


def test_fit_gbt_on_energy_split_at_cli_leaf_size_equals_per_node_sort_fit(monkeypatch):
    # 5 is the train-atm default
    assert_fit_equals_per_node_sort_fit(monkeypatch, GbtConfig(min_samples_leaf=5))


def test_fit_gbt_on_energy_split_with_stumps_equals_per_node_sort_fit(monkeypatch):
    assert_fit_equals_per_node_sort_fit(monkeypatch, GbtConfig(max_depth=1, min_samples_leaf=10))


def test_fit_gbt_whose_root_cannot_split_equals_per_node_sort_fit(monkeypatch):
    # fewer than 2 * min_samples_leaf rows: every tree is one leaf
    leaf_size = len(energy_atm_split()) // 2 + 1
    assert_fit_equals_per_node_sort_fit(monkeypatch, GbtConfig(tree_count=5, min_samples_leaf=leaf_size))


def test_fit_gbt_builds_its_root_once(monkeypatch):
    # one fit sorts X once, gathers the root's sorted values once and finds
    # their boundaries once; every tree's root search reads that triple
    atm = energy_atm_split()
    sorted_once, root_boundaries, root_scans = [], [], []

    def counting_presort(X, min_samples_leaf):
        sorted_once.append(presort(X, min_samples_leaf))
        return sorted_once[-1]

    def counting_boundaries(xs_sorted, min_samples_leaf):
        if xs_sorted.shape[1] == len(atm):
            root_boundaries.append(xs_sorted)
        return _boundaries(xs_sorted, min_samples_leaf)

    def counting_split(ys_sorted, xs_sorted, k, *args):
        if ys_sorted.shape[1] == len(atm):
            root_scans.append((xs_sorted, k))
        return _best_split(ys_sorted, xs_sorted, k, *args)

    monkeypatch.setattr(rulemix.trainer, "presort", counting_presort)
    monkeypatch.setattr(rulemix.trainer, "_boundaries", counting_boundaries)
    monkeypatch.setattr(rulemix.trainer, "_best_split", counting_split)
    fit_gbt(atm, GbtConfig(tree_count=20, min_samples_leaf=10))
    [(_, values, k)] = sorted_once
    assert len(root_boundaries) == 1 and root_boundaries[0] is values
    assert len(root_scans) == 20
    assert all(xs_sorted is values and seen is k for xs_sorted, seen in root_scans)


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
    root = presort(xs, min_leaf)
    columns, _ = grow_tree(xs, ys, root, depth, min_leaf)
    probes = np.concatenate([xs, rng.random((20, dims)) * levels / 4.0])
    for d in range(depth + 1):
        cut = columns[4][per_tree_leaf_index(columns, [0], probes, d)[:, 0]]
        assert np.array_equal(cut, one_tree(grow_tree(xs, ys, root, d, min_leaf)[0], xs).predict_batch(probes))


@pytest.mark.parametrize("field", ["tree_count", "max_depth", "min_samples_leaf"])
def test_config_rejects_non_integer_counts(field):
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {bad!r}$"):
            GbtConfig(**{field: bad})
    with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
        GbtConfig(**{field: 0})
    assert getattr(GbtConfig(**{field: np.int64(3)}), field) == 3


def test_rejects_empty_and_nonfinite_data():
    with pytest.raises(ValueError):
        fit_gbt(LabeledDataset(np.zeros((0, 2)), np.zeros(0)), GbtConfig())
    with pytest.raises(ValueError):  # the dataset type rejects the non-finite cell
        fit_gbt(LabeledDataset([[0.1], [np.nan]], [1.0, 2.0]), GbtConfig())


def test_round_trip_preserves_predictions():
    data = gen_xor(150, seed=5)
    ens = fit_gbt(data, GbtConfig(tree_count=8, max_depth=3))
    assert ens.feature_names == ("x_1", "x_2")
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
    config = GbtConfig(tree_count=trees, max_depth=depth, min_samples_leaf=min_leaf)
    ens = fit_gbt(LabeledDataset(xs, ys), config)
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


def _set(path, value):
    """Set the field at ``path`` (keys from the tree list down) of a model."""

    def change(model):
        *head, last = path
        target = model["trees"]
        for key in head:
            target = target[key]
        target[last] = value

    return change


@pytest.mark.parametrize(
    "change, message",
    [
        (_set((1, "nodes", 0, "threshold"), float("nan")), r"tree 1: node 0: non-finite threshold"),
        (_set((1, "nodes", 0, "threshold"), float("inf")), r"tree 1: node 0: non-finite threshold"),
        (_set((2, "nodes", 2, "value"), float("nan")), r"tree 2: node 2: non-finite leaf value"),
        (_set((1, "weight"), float("inf")), r"tree 1: non-finite weight"),
        (
            _set((1, "nodes", 0, "feature"), 2),
            r"tree 1: node 0: feature index 2 out of range \(feature_count 2\)",
        ),
        (_set((1, "nodes", 0, "feature"), -1), r"tree 1: node 0: feature index -1 out of range"),
        (_set((1, "nodes", 0, "feature"), 2**70), rf"tree 1: node 0: feature index {2**70} out of range"),
        (_set((1, "nodes", 0, "feature"), True), r"tree 1: node 0: feature must be an integer, got True"),
        (_set((1, "nodes", 0, "left"), "1"), r"tree 1: node 0: left must be an integer, got '1'"),
        (_set((2, "nodes", 0, "right"), 2.0), r"tree 2: node 0: right must be an integer, got 2.0"),
        (_set((1, "nodes", 0, "threshold"), "0.5"), r"tree 1: node 0: threshold must be a number, got '0.5'"),
        (_set((1, "nodes", 1, "value"), False), r"tree 1: node 1: value must be a number, got False"),
        (_set((1, "nodes", 1), [0.0]), r"tree 1: node 1: expected an object"),
        (lambda m: m["trees"][1]["nodes"][0].pop("left"), r"tree 1: node 0: internal node missing 'left'"),
        (_set((2, "nodes", 2, "gain"), 0.3), r"tree 2: node 2: unknown field 'gain'"),
        (_set((1, "nodes", 0, "threshold"), 10**400), r"tree 1: node 0: non-finite threshold"),
        (_set((2, "nodes", 1, "value"), -(10**400)), r"tree 2: node 1: non-finite leaf value"),
        (_set((1, "weight"), 2**1024), r"tree 1: non-finite weight"),
    ],
    ids=[
        "nan-threshold", "inf-threshold", "nan-leaf", "inf-weight", "feature-count", "negative-feature",
        "feature-beyond-int64", "bool-feature", "str-child", "float-child", "str-threshold", "bool-value",
        "node-not-object", "missing-field", "unknown-field", "threshold-beyond-float", "leaf-beyond-float",
        "weight-beyond-float",
    ],
)
def test_model_file_defect_names_tree_and_node(change, message):
    bad = json.loads(TWO_STUMP_JSON)
    bad["trees"].append(json.loads(json.dumps(bad["trees"][0])))  # a third tree
    change(bad)
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_ensemble_json(json.dumps(bad))


def test_committed_model_round_trips_to_its_bytes():
    text = (Path(__file__).parent / "golden" / "atm_seed0_leaf10.json").read_text(encoding="utf-8")
    ens = parse_ensemble_json(text)
    assert ens.tree_count == 101
    assert serialize_ensemble(ens) + "\n" == text


def json_dumps_model(ensemble):
    """The model writer as it was: the model object through ``json.dumps``
    with ``indent=2``.  ``serialize_ensemble`` must write its very bytes."""
    columns = [getattr(ensemble, name).tolist() for name in COLUMNS]
    nodes = [
        {"feature": d, "threshold": b, "left": lo, "right": hi} if d >= 0 else {"value": v}
        for d, b, lo, hi, v in zip(*columns)
    ]
    bounds = [*ensemble.roots.tolist(), len(nodes)]
    trees = [{"weight": w, "nodes": nodes[lo:hi]} for w, lo, hi in zip(ensemble.weights.tolist(), bounds, bounds[1:])]
    obj = {"feature_count": ensemble.feature_count, "trees": trees}
    if ensemble.feature_names is not None:
        obj["feature_names"] = list(ensemble.feature_names)
    return json.dumps(obj, indent=2)


# the signed zero, the smallest subnormal and near-overflow magnitudes, whose
# reprs are the ones most likely to differ from a JSON encoder's
model_floats = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def model_ensembles(draw):
    """Random ensembles of random-shaped trees, with or without names."""
    feature_count = draw(st.integers(1, 4))

    def grow(nodes, depth):
        at = len(nodes)
        if depth == 0 or draw(st.booleans()):
            nodes.append({"value": draw(model_floats)})
            return
        nodes.append(None)
        split = {"feature": draw(st.integers(0, feature_count - 1)), "threshold": draw(model_floats)}
        split["left"] = len(nodes)
        grow(nodes, depth - 1)
        split["right"] = len(nodes)
        grow(nodes, depth - 1)
        nodes[at] = split

    trees = []
    for _ in range(draw(st.integers(1, 4))):
        nodes = []
        grow(nodes, draw(st.integers(0, 3)))
        trees.append(nodes)
    weights = draw(st.lists(model_floats, min_size=len(trees), max_size=len(trees)))
    names = draw(st.none() | st.lists(st.text(), min_size=feature_count, max_size=feature_count, unique=True))
    return ensemble_of(trees, np.array(weights), feature_count, names)


@settings(max_examples=200, deadline=None)
@given(model_ensembles())
@example(
    ensemble_of(
        (
            [{"feature": 1, "threshold": -0.0, "left": 1, "right": 2}, {"value": 5e-324}, {"value": 1e308}],
            [{"value": -1e308}],
        ),
        np.array([-0.0, 5e-324]),
        3,
        ('say "hi"', "back\\slash\\", "Temp\u00e9rature \u80fd\u6e90 \U0001f600\n\t\x00"),
    )
)
def test_model_writer_writes_json_dumps_bytes(ensemble):
    assert serialize_ensemble(ensemble) == json_dumps_model(ensemble)


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
