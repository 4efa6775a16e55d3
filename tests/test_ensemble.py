import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import constant_tree, stump, two_stump_ensemble
from oracles import per_tree_leaf_index, predict_by_path
from rulemix.binarizer import count_regions_exact, extract_splits
from rulemix.data import gen_energy_like, gen_xor, split3
from rulemix.ensemble import BLOCK_PAIRS, Tree, TreeEnsemble, count_regions
from rulemix.trainer import GbtConfig, fit_gbt, grow_tree, presort


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


@pytest.mark.parametrize(
    "lo, hi",
    [(1e20, 2e20), (0.9999999999999999, 1.0), (-1.7976931348623157e308, 0.0)],
    ids=["beyond-2**53", "adjacent-doubles", "lowest-double"],
)
def test_count_regions_exact_probes_every_cell(lo, hi):
    # two stumps on one feature cut it into three cells; a probe at lo - 1.0
    # (== lo beyond 2**53) or at a midpoint that rounds up to hi lands in
    # the wrong cell
    ens = TreeEnsemble((stump(0, lo), stump(0, hi)), np.ones(2), 1)
    assert count_regions_exact(ens) == 3


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
    # predict_by_path adds w * value tree by tree from 0.0, the order
    # predict_batch keeps, so every probe matches to the last bit
    data = gen_xor(300, seed=11)
    ens = fit_gbt(data, GbtConfig(tree_count=15, max_depth=3, min_samples_leaf=5))
    probes = np.random.default_rng(12).random((10_000, 2))
    batch = ens.predict_batch(probes)
    for i, x in enumerate(probes):
        expected = predict_by_path(ens, x)
        assert ens.predict(x) == expected
        assert batch[i] == expected


@st.composite
def tree_nodes(draw, dims):
    """Node dicts of a random tree in preorder, as the model parser passes
    them to ``Tree.from_nodes`` (internal nodes hold no value): a single
    leaf, or subtrees of unequal depths up to 5, thresholds on the grid of
    half-integers the probes take, so that rows also land on a threshold."""
    max_depth = draw(st.integers(0, 5))
    nodes = []

    def build(depth):
        i = len(nodes)
        nodes.append(None)
        if depth < max_depth and draw(st.booleans()):
            d = draw(st.integers(0, dims - 1))
            b = draw(st.integers(0, 4)) / 2.0
            nodes[i] = {"feature": d, "threshold": b, "left": build(depth + 1)}
            nodes[i]["right"] = build(depth + 1)
        else:
            nodes[i] = {"value": draw(st.floats(-100.0, 100.0, allow_subnormal=False))}
        return i

    build(0)
    return nodes


@st.composite
def walk_inputs(draw):
    """(ensemble, X) with 0 or 1 rows, a block of rows give or take one, or
    several blocks."""
    dims = draw(st.integers(1, 3))
    specs = draw(st.lists(tree_nodes(dims), min_size=1, max_size=6))
    weights = draw(arrays(np.float64, len(specs), elements=st.floats(-2.0, 2.0)))
    ens = TreeEnsemble(tuple(Tree.from_nodes(n) for n in specs), weights, dims)
    block = BLOCK_PAIRS // ens.tree_count
    n = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 3 * block + 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ens, rng.integers(0, 5, size=(n, dims)) / 2.0


@settings(max_examples=40, deadline=None)
@given(walk_inputs())
def test_ensemble_walk_equals_per_tree_walks(inputs):
    ens, X = inputs
    for tree in ens.trees:
        assert np.array_equal(tree.leaf_index_batch(X[:300]), per_tree_leaf_index(tree, X[:300]))
    per_tree = np.stack([t.leaf_index_batch(X) for t in ens.trees], axis=1)
    leaves = ens.leaf_vector_batch(X)
    assert leaves.dtype == np.int64 and np.array_equal(leaves, per_tree)
    expected = np.zeros(len(X))
    for w, t in zip(ens.weights, ens.trees):
        expected += w * t.predict_batch(X)
    assert ens.predict_batch(X).tobytes() == expected.tobytes()
    if len(X):
        assert count_regions(ens, X) == len(np.unique(leaves, axis=0))


def test_count_regions_with_leaf_indices_past_one_byte():
    # a tree of more than 256 nodes needs two bytes per leaf index: counted
    # in one byte, leaves 256 apart would share a region
    rng = np.random.default_rng(3)
    xs = rng.random((600, 2))
    big, _ = grow_tree(xs, rng.normal(size=600), presort(xs), 10, 1)
    assert big.node_count > 256
    probes = np.vstack([xs, rng.random((1000, 2))])  # every leaf is hit
    for ens in (
        TreeEnsemble((big,), np.array([1.0]), 2),
        TreeEnsemble((stump(0), big, stump(1)), np.ones(3), 2),
    ):
        expected = len(np.unique(ens.leaf_vector_batch(probes), axis=0))
        assert count_regions(ens, probes) == expected >= big.n_leaves


def test_predict_batch_memory_is_bounded_by_the_block():
    # tracemalloc peaks of predict_batch over these 20 000 rows of a 101-tree
    # ensemble: 0.9 MB routing BLOCK_PAIRS (row, tree) pairs at a time, and
    # 148 MB routing all 2 020 000 pairs at once
    atm, _, _ = split3(gen_energy_like(seed=0), (0.4, 0.3, 0.3), 0)
    ens = fit_gbt(atm, GbtConfig(min_samples_leaf=10))
    X = atm.xs[np.random.default_rng(0).integers(0, len(atm), 20_000)]
    tracemalloc.start()
    try:
        ens.predict_batch(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_leaf_vector_piecewise_constant_under_small_moves():
    data = gen_xor(200, seed=3)
    ens = fit_gbt(data, GbtConfig(tree_count=10, max_depth=2, min_samples_leaf=5))
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


def test_tree_rejects_input_narrower_than_its_features():
    with pytest.raises(ValueError, match=r"has 1 column\(s\); the tree splits on feature 1$"):
        stump(1).leaf_index_batch(np.zeros((3, 1)))


def test_tree_rejects_non_finite_leaf():
    with pytest.raises(ValueError, match="^node 0: non-finite leaf value$"):
        constant_tree(float("nan"))


def test_ensemble_rejects_feature_out_of_range():
    with pytest.raises(ValueError, match=r"^tree 0: node 0: feature index 3 out of range \(feature_count 2\)$"):
        TreeEnsemble((stump(3),), np.array([1.0]), 2)


def test_from_nodes_takes_numpy_scalars():
    tree = stump(np.int64(1), np.float64(0.25), np.float32(-1.0), np.int64(2))
    assert tree.feature.tolist() == [1, -1, -1]
    assert tree.predict_batch(np.array([[0.0, 0.2], [0.0, 0.3]])).tolist() == [-1.0, 2.0]
