import numpy as np
import pytest

from rulemix.baseline import CartConfig, cv_folds, cv_mse_by_depth, fit_cart, tree_to_ruleset
from rulemix.data import LabeledDataset, gen_xor
from rulemix.mixture import rule_text
from rulemix.trainer import grow_tree


def skewed_noiseless_xor(n=400, seed=0) -> LabeledDataset:
    # uneven quadrant masses make the XOR boundary visible to a greedy root split
    rng = np.random.default_rng(seed)
    xs = rng.random((n, 2)) ** 1.6
    ys = np.logical_xor(xs[:, 0] < 0.5, xs[:, 1] < 0.5).astype(float)
    return LabeledDataset(xs, ys)


def test_constant_targets_give_single_leaf():
    data = LabeledDataset(np.random.default_rng(0).random((40, 2)), np.full(40, 3.0))
    tree = fit_cart(data, CartConfig(seed=0))
    assert tree.n_leaves == 1
    assert tree.value[0] == 3.0


def test_noiseless_xor_selects_depth_two():
    data = skewed_noiseless_xor(seed=1)
    config = CartConfig(depth_grid=(1, 2), seed=1)
    scores = cv_mse_by_depth(data, config)
    assert scores[1] > 0.15  # a single split cannot express the pattern
    assert scores[2] < 0.05
    tree = fit_cart(data, config)
    assert tree.feature[0] >= 0 and max(tree.left[0], tree.right[0]) > 0


def test_noiseless_xor_depth_two_has_four_leaves():
    data = skewed_noiseless_xor(seed=2)
    tree = fit_cart(data, CartConfig(depth_grid=(1, 2), seed=2))
    assert tree.n_leaves == 4


def test_perfect_depth_two_tree_has_four_leaves():
    rng = np.random.default_rng(3)
    xs = rng.random((200, 2))
    ys = 2.0 * (xs[:, 0] >= 0.5) + (xs[:, 1] >= 0.5)
    tree = grow_tree(xs, ys, max_depth=2, min_samples_leaf=5)
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
        tree = grow_tree(data.xs, data.ys, depth, min_samples_leaf=5)
        cur = float(np.mean((tree.value[tree.leaf_index_batch(data.xs)] - data.ys) ** 2))
        assert cur <= prev + 1e-12
        prev = cur


def test_fit_cart_deterministic():
    data = gen_xor(200, seed=6)
    config = CartConfig(seed=7)
    a = fit_cart(data, config)
    b = fit_cart(data, config)
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)


def test_fit_cart_requires_enough_rows():
    data = LabeledDataset(np.zeros((3, 1)), np.zeros(3))
    with pytest.raises(ValueError):
        fit_cart(data, CartConfig(folds=5))


def test_single_leaf_count():
    data = LabeledDataset(np.random.default_rng(8).random((20, 1)), np.zeros(20))
    tree = grow_tree(data.xs, data.ys, max_depth=3, min_samples_leaf=5)
    assert tree.n_leaves == 1


def test_tree_renders_as_path_conjunctions():
    rng = np.random.default_rng(9)
    xs = rng.random((200, 2))
    ys = 2.0 * (xs[:, 0] >= 0.5) + (xs[:, 1] >= 0.5)
    tree = grow_tree(xs, ys, max_depth=2, min_samples_leaf=5)
    rules = tree_to_ruleset(tree, ("alpha", "beta"), LabeledDataset(xs, ys))
    assert len(rules.components) == 4
    assert sum(c.share for c in rules.components) == pytest.approx(1.0)
    texts = [rule_text(rules, c) for c in rules.components]
    assert any("alpha" in t and "beta" in t for t in texts)
    ordered = sorted(rules.components, key=lambda c: c.mu)
    assert [round(c.mu) for c in ordered] == [0, 1, 2, 3]
