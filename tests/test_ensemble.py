import numpy as np
import pytest

from conftest import constant_tree, stump, two_stump_ensemble
from oracles import predict_by_path
from rulemix.binarizer import count_regions_exact, extract_splits
from rulemix.data import gen_xor
from rulemix.ensemble import Tree, TreeEnsemble, count_regions
from rulemix.trainer import GbtConfig, fit_gbt


def test_predict_single_weighted_stump():
    ens = TreeEnsemble((stump(),), np.array([2.0]), 1)
    assert ens.predict([0.7]) == 2.0


def test_predict_boundary_routes_right():
    ens = TreeEnsemble((stump(),), np.array([2.0]), 1)
    assert ens.predict([0.5]) == 2.0


def test_predict_two_stumps_sums_cells():
    # four cells: (<,<)->0, (<,>=)->1, (>=,<)->1, (>=,>=)->2
    ens = two_stump_ensemble()
    assert ens.predict([0.7, 0.2]) == 1.0
    assert ens.predict([0.2, 0.2]) == 0.0
    assert ens.predict([0.7, 0.7]) == 2.0


def test_predict_dimension_mismatch():
    ens = two_stump_ensemble()
    with pytest.raises(ValueError):
        ens.predict([0.7])


def test_leaf_vector_constant_tree():
    ens = TreeEnsemble((constant_tree(3.0),), np.array([1.0]), 1)
    assert ens.leaf_vector_batch([[0.42], [-3.0]]).tolist() == [[0], [0]]


def test_leaf_vector_stump_sides():
    ens = TreeEnsemble((stump(),), np.array([1.0]), 1)
    assert ens.leaf_vector_batch([[0.2], [0.9], [0.5]]).tolist() == [[1], [2], [2]]


def test_leaf_vector_two_stumps():
    ens = two_stump_ensemble()
    assert ens.leaf_vector_batch([[0.7, 0.2], [0.2, 0.7]]).tolist() == [[2, 1], [1, 2]]


def test_count_regions_exact_single_tree_equals_leaves():
    deep = Tree.from_nodes(
        [
            {"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
            {"value": 0.0},
            {"feature": 0, "threshold": 0.75, "left": 3, "right": 4},
            {"value": 1.0},
            {"value": 2.0},
        ]
    )
    ens = TreeEnsemble((deep,), np.array([1.0]), 1)
    assert count_regions_exact(ens) == 3 == deep.n_leaves


def test_count_regions_exact_two_stumps():
    assert count_regions_exact(two_stump_ensemble()) == 4


def test_count_regions_sampled_lower_bounds_exact():
    ens = two_stump_ensemble()
    rng = np.random.default_rng(5)
    probes = rng.random((3, 2))
    more = np.concatenate([probes, rng.random((200, 2))])
    few = count_regions(ens, probes)
    many = count_regions(ens, more)
    assert few <= many <= count_regions_exact(ens)


def test_count_regions_rejects_empty_probes():
    with pytest.raises(ValueError):
        count_regions(two_stump_ensemble(), np.zeros((0, 2)))


def test_count_regions_exact_rejects_high_dimension():
    trees = (stump(0), stump(1), stump(2))
    ens = TreeEnsemble(trees, np.ones(3), 3)
    with pytest.raises(ValueError):
        count_regions_exact(ens)


def test_predict_matches_path_following_oracle():
    data = gen_xor(300, seed=11)
    ens = fit_gbt(data.xs, data.ys, GbtConfig(tree_count=15, max_depth=3, min_samples_leaf=5))
    probes = np.random.default_rng(12).random((10_000, 2))
    batch = ens.predict_batch(probes)
    for i in range(0, 10_000, 7):
        expected = predict_by_path(ens, probes[i])
        assert ens.predict(probes[i]) == pytest.approx(expected, abs=1e-12)
        assert batch[i] == pytest.approx(expected, abs=1e-12)


def test_leaf_vector_piecewise_constant_under_small_moves():
    data = gen_xor(200, seed=3)
    ens = fit_gbt(data.xs, data.ys, GbtConfig(tree_count=10, max_depth=2, min_samples_leaf=5))
    schema = extract_splits(ens)
    per_dim = [schema.thresholds[schema.features == d] for d in range(ens.feature_count)]
    rng = np.random.default_rng(4)
    xs = rng.random((200, 2))
    radius = np.stack(
        [
            np.abs(ts[None, :] - xs[:, [d]]).min(axis=1) if len(ts) else np.ones(len(xs))
            for d, ts in enumerate(per_dim)
        ],
        axis=1,
    )
    keep = (radius > 0).all(axis=1)
    moved = xs + rng.uniform(-0.99, 0.99, size=xs.shape) * radius
    assert np.array_equal(ens.leaf_vector_batch(xs[keep]), ens.leaf_vector_batch(moved[keep]))


def test_leaf_vector_identifies_region():
    # equal leaf vectors iff same cell of the two-stump partition
    ens = two_stump_ensemble()
    rng = np.random.default_rng(9)
    pts = rng.random((100, 2))
    vecs = ens.leaf_vector_batch(pts)
    for i in range(0, 100, 3):
        for j in range(0, 100, 7):
            same_cell = (pts[i, 0] >= 0.5) == (pts[j, 0] >= 0.5) and (
                pts[i, 1] >= 0.5
            ) == (pts[j, 1] >= 0.5)
            same_vec = np.array_equal(vecs[i], vecs[j])
            assert same_cell == same_vec


def test_tree_rejects_multi_parent():
    with pytest.raises(ValueError, match="node 1: reached twice"):
        Tree.from_nodes(
            [
                {"feature": 0, "threshold": 0.5, "left": 1, "right": 1},
                {"value": 0.0},
            ]
        )


def test_tree_rejects_orphan_node():
    with pytest.raises(ValueError, match="node 3: not reachable"):
        Tree.from_nodes(
            [
                {"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
                {"value": 0.0},
                {"value": 1.0},
                {"value": 2.0},
            ]
        )


def test_tree_rejects_root_as_child():
    with pytest.raises(ValueError, match="node 0: reached twice"):
        Tree.from_nodes(
            [
                {"feature": 0, "threshold": 0.5, "left": 1, "right": 0},
                {"value": 0.0},
            ]
        )


def test_depth_cut_without_internal_values_names_node():
    # from_nodes, which the model parser uses, stores leaf values only
    tree = stump()
    X = np.array([[0.2, 0.0], [0.7, 0.0]])
    assert tree.predict_batch(X, depth=1).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="node 0 has no value"):
        tree.predict_batch(X, depth=0)


def test_tree_rejects_non_finite_leaf():
    with pytest.raises(ValueError):
        constant_tree(float("nan"))


def test_ensemble_rejects_feature_out_of_range():
    with pytest.raises(ValueError):
        TreeEnsemble((stump(3),), np.array([1.0]), 2)
