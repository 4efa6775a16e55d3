import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_tree, two_stump_ensemble
from oracles import cv_mse_per_depth
from rulemix.baseline import CartConfig, cv_folds, cv_mse_by_depth, fit_cart, tree_to_ruleset
from rulemix.data import LabeledDataset, gen_xor
from rulemix.mixture import rule_text
from rulemix.trainer import grow_tree, presort


def cart(data, config):
    return fit_cart(data, config, cv_mse_by_depth(data, config))


def skewed_noiseless_xor(n=400, seed=0) -> LabeledDataset:
    # uneven quadrant masses make the XOR boundary visible to a greedy root split
    rng = np.random.default_rng(seed)
    xs = rng.random((n, 2)) ** 1.6
    ys = np.logical_xor(xs[:, 0] < 0.5, xs[:, 1] < 0.5).astype(float)
    return LabeledDataset(xs, ys)


def test_constant_targets_give_single_leaf():
    data = LabeledDataset(np.random.default_rng(0).random((40, 2)), np.full(40, 3.0))
    tree = cart(data, CartConfig(seed=0))
    assert tree.n_leaves == 1
    assert tree.value[0] == 3.0


def test_noiseless_xor_selects_depth_two():
    data = skewed_noiseless_xor(seed=1)
    config = CartConfig(depth_grid=(1, 2), seed=1)
    scores = cv_mse_by_depth(data, config)
    assert scores[1] > 0.15  # a single split cannot express the pattern
    assert scores[2] < 0.05
    tree = fit_cart(data, config, scores)
    assert tree.feature[0] >= 0 and max(tree.left[0], tree.right[0]) > 0


def test_noiseless_xor_depth_two_has_four_leaves():
    data = skewed_noiseless_xor(seed=2)
    tree = cart(data, CartConfig(depth_grid=(1, 2), seed=2))
    assert tree.n_leaves == 4


def test_perfect_depth_two_tree_has_four_leaves():
    rng = np.random.default_rng(3)
    xs = rng.random((200, 2))
    ys = 2.0 * (xs[:, 0] >= 0.5) + (xs[:, 1] >= 0.5)
    tree = one_tree(grow_tree(xs, ys, presort(xs), max_depth=2, min_samples_leaf=5)[0], xs)
    assert tree.n_leaves == 2**2


def test_cv_folds_partition_with_balanced_sizes():
    for n, folds in ((23, 5), (100, 3), (10, 10)):
        parts = cv_folds(n, folds, seed=4)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, np.arange(n))


def test_deeper_trees_never_raise_training_mse():
    data = gen_xor(300, seed=5)
    prev = np.inf
    for depth in range(1, 8):
        tree = one_tree(grow_tree(data.xs, data.ys, presort(data.xs), depth, min_samples_leaf=5)[0], data.xs)
        cur = float(np.mean((tree.predict_batch(data.xs) - data.ys) ** 2))
        assert cur <= prev + 1e-12
        prev = cur


def test_fit_cart_deterministic():
    data = gen_xor(200, seed=6)
    config = CartConfig(seed=7)
    a = cart(data, config)
    b = cart(data, config)
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)


def test_fit_cart_requires_enough_rows():
    data = LabeledDataset(np.zeros((3, 1)), np.zeros(3))
    with pytest.raises(ValueError, match="one sample per fold"):
        cart(data, CartConfig(folds=5))


@pytest.mark.parametrize("field, minimum", [("folds", 2), ("min_samples_leaf", 1)])
def test_config_rejects_non_integer_counts(field, minimum):
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {bad!r}$"):
            CartConfig(**{field: bad})
    with pytest.raises(ValueError, match=f"^{field} must be >= {minimum}, got {minimum - 1}$"):
        CartConfig(**{field: minimum - 1})
    assert getattr(CartConfig(**{field: np.int64(3)}), field) == 3


def test_config_validation():
    with pytest.raises(ValueError, match="folds must be >= 2"):
        CartConfig(folds=1)
    with pytest.raises(ValueError, match="depth_grid must be nonempty"):
        CartConfig(depth_grid=())
    with pytest.raises(ValueError, match="depth_grid entries must be integers >= 0, got 2.5"):
        CartConfig(depth_grid=(2, 2.5))
    for bad in (-1, True, "3", None):
        with pytest.raises(ValueError, match="depth_grid entries must be integers >= 0"):
            CartConfig(depth_grid=(bad,))
    assert CartConfig(depth_grid=(0, np.int64(3))).depth_grid == (0, np.int64(3))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    grid=st.sampled_from(
        [(2, 3, 4), (5, 1, 3), (4, 4, 2), (3,), (0,), (0, 1), (1, 0, 6, 2, 2), (10, 2, 7)]
    ),
    folds=st.integers(2, 5),
    n=st.integers(10, 90),
    continuous=st.integers(0, 2),
    data=st.data(),
)
def test_cv_scores_equal_per_depth_reference(seed, grid, folds, n, continuous, data):
    # One tree per fold, its held-out rows walked once and lifted to each
    # depth, gives the very floats of a tree grown per (depth, fold), in the
    # grid's key order.  Leaves of up to n // 2 rows stop trees short of the
    # grid; continuous columns beside the 6-level ones give untied splits.
    min_leaf = data.draw(st.integers(1, n // 2))
    rng = np.random.default_rng(seed)
    xs = np.column_stack([rng.integers(0, 6, size=(n, 3)) / 5.0, rng.normal(size=(n, continuous))])
    ys = np.sin(4 * xs[:, 0]) + xs[:, 1] + 0.3 * rng.normal(size=n)
    dataset = LabeledDataset(xs, ys)
    config = CartConfig(depth_grid=grid, folds=folds, min_samples_leaf=min_leaf, seed=seed)
    scores = cv_mse_by_depth(dataset, config)
    assert list(scores.items()) == list(cv_mse_per_depth(dataset, config).items())


def test_fit_cart_refits_at_lowest_score_ties_to_earlier_depth():
    data = skewed_noiseless_xor(seed=1)
    config = CartConfig(depth_grid=(1, 2), seed=1)
    assert fit_cart(data, config, {1: 0.2, 2: 0.2}).n_leaves == 2
    assert fit_cart(data, config, {1: 0.2, 2: 0.1}).n_leaves == 4
    assert fit_cart(data, CartConfig(depth_grid=(2, 1)), {1: 0.2, 2: 0.2}).n_leaves == 4


def test_single_leaf_count():
    data = LabeledDataset(np.random.default_rng(8).random((20, 1)), np.zeros(20))
    tree = one_tree(grow_tree(data.xs, data.ys, presort(data.xs), max_depth=3, min_samples_leaf=5)[0], data.xs)
    assert tree.n_leaves == 1


def test_tree_to_ruleset_takes_one_tree():
    data = LabeledDataset(np.zeros((4, 2)), np.zeros(4))
    with pytest.raises(ValueError, match="^tree_to_ruleset takes one tree, got 2$"):
        tree_to_ruleset(two_stump_ensemble(), data)


def test_tree_renders_as_path_conjunctions():
    rng = np.random.default_rng(9)
    xs = rng.random((200, 2))
    ys = 2.0 * (xs[:, 0] >= 0.5) + (xs[:, 1] >= 0.5)
    tree = one_tree(grow_tree(xs, ys, presort(xs), max_depth=2, min_samples_leaf=5)[0], xs)
    rules = tree_to_ruleset(tree, LabeledDataset(xs, ys, ("alpha", "beta")))
    assert len(rules.components) == 4
    assert sum(c.share for c in rules.components) == pytest.approx(1.0)
    texts = [rule_text(rules, c) for c in rules.components]
    assert any("alpha" in t and "beta" in t for t in texts)
    ordered = sorted(rules.components, key=lambda c: c.mu)
    assert [round(c.mu) for c in ordered] == [0, 1, 2, 3]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 4),
    dims=st.integers(1, 3),
    min_leaf=st.integers(1, 8),
)
def test_tree_rules_partition_rows_by_leaf(seed, depth, dims, min_leaf):
    # Coarse grid values give ties; probes also sit exactly on every split
    # threshold, where a row must go right (x >= b) and match one rule only.
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 6, size=(60, dims)) / 5.0
    tree = one_tree(grow_tree(xs, rng.normal(size=60), presort(xs), depth, min_leaf)[0], xs)
    on_split = xs[rng.integers(0, 60, size=len(tree.feature))]
    internal = np.nonzero(tree.feature >= 0)[0]
    on_split[internal, tree.feature[internal]] = tree.threshold[internal]
    probes = np.concatenate([xs, on_split[internal]])
    rules = tree_to_ruleset(tree, LabeledDataset(probes, np.zeros(len(probes))))

    inside = np.ones((len(probes), len(rules.components)), dtype=bool)
    for j, c in enumerate(rules.components):
        for iv in c.intervals:
            inside[:, j] &= (probes[:, iv.feature] >= iv.lower) & (probes[:, iv.feature] < iv.upper)
    assert (inside.sum(axis=1) == 1).all()
    rule_of_row = inside.argmax(axis=1)
    leaf_of_row = tree.leaf_vector_batch(probes)[:, 0]

    assert len(rules.components) == tree.n_leaves
    rule_of_leaf = {}
    for leaf, rule in zip(leaf_of_row.tolist(), rule_of_row.tolist()):
        assert rule_of_leaf.setdefault(leaf, rule) == rule
    assert len(set(rule_of_leaf.values())) == len(rule_of_leaf)
    for leaf, rule in rule_of_leaf.items():
        assert rules.components[rule].mu == tree.value[leaf]
        assert rules.components[rule].share == np.mean(leaf_of_row == leaf)
    unreached = set(range(tree.n_leaves)) - set(rule_of_leaf.values())
    assert all(rules.components[r].share == 0.0 for r in unreached)
