import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import constant_tree, ensemble_of, one_tree, stump, two_stump_ensemble
from oracles import per_tree_check, per_tree_leaf_index, predict_by_path
from rulemix.baseline import CartConfig, fit_cart
from rulemix.binarizer import count_regions_exact, extract_splits
from rulemix.data import LabeledDataset, gen_energy_like, gen_xor, split3
from rulemix.ensemble import BLOCK_PAIRS, LEAF, TreeEnsemble, _walk, check_table, count_regions
from rulemix.trainer import (
    GbtConfig,
    ParseError,
    fit_gbt,
    grow_tree,
    parse_ensemble_json,
    presort,
    serialize_ensemble,
)


def per_tree_oracle(ens, X):
    """``per_tree_leaf_index`` of every tree of ``ens``, and the weighted sum
    of the leaf values it finds, added tree by tree."""
    leaves = per_tree_leaf_index((ens.feature, ens.threshold, ens.left, ens.right), ens.roots, X)
    total = np.zeros(len(X))
    for w, root, tree_leaves in zip(ens.weights, ens.roots, leaves.T):
        total += w * ens.value[root + tree_leaves]
    return leaves, total


def test_predict_single_weighted_stump():
    ens = ensemble_of((stump(),), np.array([2.0]), 1)
    assert ens.predict([0.7]) == 2.0


def test_predict_boundary_routes_right():
    ens = ensemble_of((stump(),), np.array([2.0]), 1)
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
    ens = ensemble_of((constant_tree(3.0),), np.array([1.0]), 1)
    assert ens.leaf_vector_batch([[0.42], [-3.0]]).tolist() == [[0], [0]]


def test_leaf_vector_stump_sides():
    ens = ensemble_of((stump(),), np.array([1.0]), 1)
    assert ens.leaf_vector_batch([[0.2], [0.9], [0.5]]).tolist() == [[1], [2], [2]]


def test_leaf_vector_two_stumps():
    ens = two_stump_ensemble()
    assert ens.leaf_vector_batch([[0.7, 0.2], [0.2, 0.7]]).tolist() == [[2, 1], [1, 2]]


def test_count_regions_exact_single_tree_equals_leaves():
    deep = [
        {"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
        {"value": 0.0},
        {"feature": 0, "threshold": 0.75, "left": 3, "right": 4},
        {"value": 1.0},
        {"value": 2.0},
    ]
    ens = ensemble_of((deep,), np.array([1.0]), 1)
    assert count_regions_exact(ens) == 3 == ens.n_leaves


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
    ens = ensemble_of((stump(0, lo), stump(0, hi)), np.ones(2), 1)
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
    ens = ensemble_of(trees, np.ones(3), 3)
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
    them to ``read_nodes`` (internal nodes hold no value): a single
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
    ens = ensemble_of(specs, weights, dims)
    block = BLOCK_PAIRS // ens.tree_count
    n = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 3 * block + 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ens, rng.integers(0, 5, size=(n, dims)) / 2.0


@settings(max_examples=40, deadline=None)
@given(walk_inputs())
def test_ensemble_walk_equals_per_tree_walks(inputs):
    ens, X = inputs
    per_tree, expected = per_tree_oracle(ens, X)
    leaves = ens.leaf_vector_batch(X)
    assert leaves.dtype == np.int64 and np.array_equal(leaves, per_tree)
    assert ens.predict_batch(X).tobytes() == expected.tobytes()
    if len(X):
        assert count_regions(ens, X) == len(np.unique(leaves, axis=0))


def test_count_regions_with_leaf_indices_past_one_byte():
    # a tree of more than 256 nodes needs two bytes per leaf index: counted
    # in one byte, leaves 256 apart would share a region
    rng = np.random.default_rng(3)
    xs = rng.random((600, 2))
    columns, _ = grow_tree(xs, rng.normal(size=600), presort(xs, 1), 10, 1)
    alone = one_tree(columns, xs)
    big = json.loads(serialize_ensemble(alone))["trees"][0]["nodes"]
    assert len(big) > 256
    probes = np.vstack([xs, rng.random((1000, 2))])  # every leaf is hit
    for ens in (alone, ensemble_of((stump(0), big, stump(1)), np.ones(3), 2)):
        expected = len(np.unique(ens.leaf_vector_batch(probes), axis=0))
        assert count_regions(ens, probes) == expected >= alone.n_leaves


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
    with pytest.raises(ValueError, match="^tree 0: node 1: reached twice from the root$"):
        ensemble_of(
            (
                [
                    {"feature": 0, "threshold": 0.5, "left": 1, "right": 1},
                    {"value": 0.0},
                ],
            ),
            [1.0],
            1,
        )


def test_tree_rejects_orphan_node():
    with pytest.raises(ValueError, match="^tree 0: node 3: not reachable from the root$"):
        ensemble_of(
            (
                [
                    {"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
                    {"value": 0.0},
                    {"value": 1.0},
                    {"value": 2.0},
                ],
            ),
            [1.0],
            1,
        )


def test_tree_rejects_root_as_child():
    with pytest.raises(ValueError, match="^tree 0: node 0: reached twice from the root$"):
        ensemble_of(
            (
                [
                    {"feature": 0, "threshold": 0.5, "left": 1, "right": 0},
                    {"value": 0.0},
                ],
            ),
            [1.0],
            1,
        )


@pytest.mark.parametrize("width", [1, 3], ids=["narrower", "wider"])
def test_ensemble_width_check_names_the_shape(width):
    ens = two_stump_ensemble()
    for walk in (ens.predict_batch, ens.leaf_vector_batch):
        with pytest.raises(ValueError, match=rf"^input matrix has shape \(4, {width}\), expected \(n, 2\)$"):
            walk(np.zeros((4, width)))


def test_tree_rejects_non_finite_leaf():
    with pytest.raises(ValueError, match="^tree 0: node 0: non-finite leaf value$"):
        ensemble_of((constant_tree(float("nan")),), [1.0], 1)


@pytest.mark.parametrize(
    "columns, sizes, message",
    [
        ([[LEAF]] * 4 + [[0.0, 1.0]], [1], r"node columns must each hold sum\(sizes\) = 1 nodes"),
        ([[LEAF, LEAF]] * 5, [1], r"node columns must each hold sum\(sizes\) = 1 nodes"),
        ([[LEAF]] * 5, [1, 0], "tree 1: must have at least one node"),
        ([[]] * 5, [], "ensemble needs at least one tree"),
    ],
    ids=["ragged", "longer-than-sizes", "empty-tree", "no-tree"],
)
def test_ensemble_rejects_a_table_its_sizes_do_not_cover(columns, sizes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TreeEnsemble(columns, sizes, [1.0] * len(sizes), 1)


def test_ensemble_rejects_feature_out_of_range():
    with pytest.raises(ValueError, match=r"^tree 0: node 0: feature index 3 out of range \(feature_count 2\)$"):
        ensemble_of((stump(3),), np.array([1.0]), 2)


def test_read_nodes_takes_numpy_scalars():
    ens = ensemble_of((stump(np.int64(1), np.float64(0.25), np.float32(-1.0), np.int64(2)),), [1.0], 2)
    assert ens.feature.tolist() == [1, -1, -1]
    assert ens.predict_batch(np.array([[0.0, 0.2], [0.0, 0.3]])).tolist() == [-1.0, 2.0]


def relabel(columns, perm):
    """The tree ``columns`` with node i renamed ``perm[i]`` (``perm[0]`` is 0),
    children in range renamed with it and the others left as they are."""
    n = len(perm)
    out = [[None] * n for _ in columns]
    feature, threshold, left, right, value = columns
    for i in range(n):
        j = perm[i]
        out[0][j], out[1][j], out[4][j] = feature[i], threshold[i], value[i]
        out[2][j] = perm[left[i]] if 0 <= left[i] < n else left[i]
        out[3][j] = perm[right[i]] if 0 <= right[i] < n else right[i]
    return out


STRUCTURAL_DEFECTS = ("none", "child out of range", "shared child", "orphan", "cut subtree", "detached cycle",
                      "non-finite")


@st.composite
def tree_table(draw, defect):
    """Columns (lists) of a random tree, its nodes numbered in random order
    with the root first, carrying ``defect``.  A shared child is a node
    outside the subtree its new parent lets go of, so both its parents are
    reached from the root."""
    kids, leaves = {}, [0]
    for _ in range(draw(st.integers(0 if defect in ("none", "orphan", "detached cycle", "non-finite") else 1, 6))):
        at = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        n = 1 + 2 * len(kids)
        kids[at] = [n, n + 1]
        leaves += [n, n + 1]
    n = 1 + 2 * len(kids)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    feature = [draw(st.integers(0, 2)) if i in kids else LEAF for i in range(n)]
    threshold = [draw(finite) if i in kids else np.nan for i in range(n)]
    value = [np.nan if i in kids else draw(finite) for i in range(n)]
    left = [kids[i][0] if i in kids else LEAF for i in range(n)]
    right = [kids[i][1] if i in kids else LEAF for i in range(n)]
    columns = [feature, threshold, left, right, value]

    def below(i):
        return [i] + [j for k in kids.get(i, ()) for j in below(k)]

    if defect in ("child out of range", "shared child"):
        i = draw(st.sampled_from(sorted(kids)))
        side = draw(st.sampled_from([2, 3]))
        if defect == "child out of range":
            columns[side][i] = draw(st.sampled_from([-(2**40), -2, LEAF, n, n + 3, 2**40]))
        else:
            columns[side][i] = draw(st.sampled_from([c for c in range(n) if c not in below(columns[side][i])]))
    elif defect == "cut subtree":
        i = draw(st.sampled_from(sorted(kids)))
        feature[i], threshold[i], value[i] = LEAF, np.nan, draw(finite)
    elif defect == "orphan":
        columns = [c + [a] for c, a in zip(columns, (LEAF, np.nan, LEAF, LEAF, draw(finite)))]
    elif defect == "detached cycle":
        k = draw(st.integers(1, 3))  # k split nodes n .. n+k-1, each with a leaf n+k ..
        for j in range(k):
            for c, a in zip(columns, (draw(st.integers(0, 2)), draw(finite), n + (j + 1) % k, n + k + j, np.nan)):
                c.append(a)
        for j in range(k):
            for c, a in zip(columns, (LEAF, np.nan, LEAF, LEAF, draw(finite))):
                c.append(a)
    elif defect == "non-finite":
        i = draw(st.integers(0, n - 1))
        columns[1 if i in kids else 4][i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    size = len(columns[0])
    return relabel(columns, [0] + draw(st.permutations(range(1, size))))


@st.composite
def node_tables(draw):
    """(tree columns of 1-3 trees, one of which carries a drawn defect or none)."""
    count = draw(st.integers(1, 3))
    bad, defect = draw(st.integers(0, count - 1)), draw(st.sampled_from(STRUCTURAL_DEFECTS))
    return [draw(tree_table(defect if t == bad else "none")) for t in range(count)]


def table_arrays(trees):
    """The columns of ``trees`` stacked into one table, and each tree's root in it."""
    columns = [np.concatenate([np.array(tree[c], dtype=dtype) for tree in trees])
               for c, dtype in zip(range(5), (np.int64, np.float64, np.int64, np.int64, np.float64))]
    sizes = [len(tree[0]) for tree in trees]
    return columns, np.cumsum([0] + sizes[:-1])


def oracle_levels(tree):
    """Each node's depth below the root of a valid tree, found by walking it."""
    feature, _, left, right, _ = tree
    level, stack = {0: 0}, [0]
    while stack:
        i = stack.pop()
        if feature[i] >= 0:
            for child in (left[i], right[i]):
                level[child] = level[i] + 1
                stack.append(child)
    return [level[i] for i in range(len(feature))]


@settings(max_examples=300, deadline=None)
@given(node_tables())
def test_table_check_names_what_the_per_tree_walk_names(trees):
    columns, roots = table_arrays(trees)
    for t, tree in enumerate(trees):
        try:
            per_tree_check(table_arrays([tree])[0])
        except ValueError as e:
            with pytest.raises(ValueError) as caught:
                check_table(*columns, roots, 3)
            assert str(caught.value) == f"tree {t}: {e}"
            with pytest.raises(ValueError) as alone:
                check_table(*table_arrays([tree])[0], [0], 3)
            assert str(alone.value) == f"tree 0: {e}"
            return
    routes = check_table(*columns, roots, 3)
    levels = [lv for tree in trees for lv in oracle_levels(tree)]
    assert routes.level.tolist() == levels and routes.depth == max(levels)
    internal = np.flatnonzero(columns[0] >= 0)
    assert np.array_equal(routes.parent[routes.left[internal]], internal)
    assert np.array_equal(routes.parent[routes.right[internal]], internal)
    assert np.array_equal(routes.parent[roots], roots)


@st.composite
def mixed_depth_ensembles(draw):
    """(ensemble, X): 1-4 trees, each with a spine of 0-12 splits and small
    side subtrees, thresholds on the half-integer grid the rows take, rows
    also holding NaN and infinities."""
    dims = draw(st.integers(1, 3))
    trees = []
    for _ in range(draw(st.integers(1, 4))):
        depth, nodes = draw(st.integers(0, 12)), []

        def build(level, spine):
            i = len(nodes)
            nodes.append(None)
            if level < depth and (spine or draw(st.integers(0, 3)) == 0):
                side = draw(st.booleans())
                nodes[i] = {"feature": draw(st.integers(0, dims - 1)), "threshold": draw(st.integers(0, 4)) / 2.0}
                nodes[i]["left"] = build(level + 1, spine and side)
                nodes[i]["right"] = build(level + 1, spine and not side)
            else:
                nodes[i] = {"value": draw(st.floats(-100.0, 100.0, allow_subnormal=False))}
            return i

        build(0, True)
        trees.append(nodes)
    weights = draw(arrays(np.float64, len(trees), elements=st.floats(-2.0, 2.0)))
    rows = draw(st.sampled_from([0, 1, 7, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ensemble_of(trees, weights, dims), rng.choice(WALK_GRID, size=(rows, dims))


WALK_GRID = np.array([0.0, 0.5, 1.0, 1.5, 2.0, np.nan, np.inf, -np.inf])


@st.composite
def cart_trees(draw):
    """(fit_cart's one-tree ensemble, X): grown on 200 random rows to depth
    5-8, so pairs reach leaves at many levels and must stay there while the
    rest descend; half the entries of X are training values, half are on the
    grid, NaN and infinities included."""
    dims, depth = draw(st.integers(1, 3)), draw(st.integers(5, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = LabeledDataset(rng.random((200, dims)) * 2.0, rng.normal(size=200))
    tree = fit_cart(data, CartConfig(depth_grid=(depth,), min_samples_leaf=1), {depth: 0.0})
    assert tree.routes.depth > 4
    on_grid = rng.random((300, dims)) < 0.5
    X = np.where(on_grid, rng.choice(WALK_GRID, size=(300, dims)), data.xs[rng.integers(0, 200, 300)])
    return tree, X


@settings(max_examples=80, deadline=None)
@given(st.one_of(mixed_depth_ensembles(), cart_trees()))
def test_walk_equals_per_tree_oracle_at_any_depth(case):
    ens, X = case
    oracle, expected = per_tree_oracle(ens, X)
    assert np.array_equal(_walk(ens.routes, X, ens.roots).T - ens.roots, oracle)
    assert np.array_equal(ens.leaf_vector_batch(X), oracle)
    assert ens.predict_batch(X).tobytes() == expected.tobytes()
    if ens.tree_count == 1 and ens.weights[0] == 1.0:  # a CART tree predicts its leaf values
        assert np.array_equal(ens.predict_batch(X), ens.value[oracle[:, 0]])


CHAIN_DEPTH = 20_000


def chain_model(depth=CHAIN_DEPTH):
    """A model of a chain of ``depth`` splits on feature 0 (split k sends
    x < k / depth to leaf value k and the rest down the chain, whose bottom
    leaf is node 2 * depth) and a stump on feature 1."""
    nodes = []
    for k in range(depth):
        nodes += [{"feature": 0, "threshold": k / depth, "left": 2 * k + 1, "right": 2 * k + 2}, {"value": float(k)}]
    nodes.append({"value": -1.0})
    stump_nodes = [{"feature": 1, "threshold": 0.5, "left": 1, "right": 2}, {"value": 0.25}, {"value": 4.0}]
    return {"feature_count": 2, "trees": [{"weight": 0.5, "nodes": nodes}, {"weight": 1.0, "nodes": stump_nodes}]}


def test_deep_chain_model_predicts_per_tree_oracle_floats():
    ens = parse_ensemble_json(json.dumps(chain_model()))
    assert ens.routes.depth == CHAIN_DEPTH
    X = np.random.default_rng(0).random((1000, 2))
    X[::7, 0], X[::11, 0], X[::13, 0], X[::17, 1] = np.nan, np.inf, -np.inf, np.nan
    assert ens.predict_batch(X).tobytes() == per_tree_oracle(ens, X)[1].tobytes()


def _set_bottom(model, key, value):
    model["trees"][0]["nodes"][2 * CHAIN_DEPTH - 2 if key == "right" else 2 * CHAIN_DEPTH][key] = value


@pytest.mark.parametrize(
    "break_it, message",
    [
        (lambda m: _set_bottom(m, "value", float("nan")), f"tree 0: node {2 * CHAIN_DEPTH}: non-finite leaf value"),
        (lambda m: _set_bottom(m, "right", 2 * CHAIN_DEPTH + 1),
         f"tree 0: node {2 * CHAIN_DEPTH - 2}: right child index out of range"),
        (lambda m: _set_bottom(m, "right", 2 * CHAIN_DEPTH - 3),
         f"tree 0: node {2 * CHAIN_DEPTH - 3}: reached twice from the root"),
        (lambda m: m["trees"][0]["nodes"].append({"value": 0.0}),
         f"tree 0: node {2 * CHAIN_DEPTH + 1}: not reachable from the root"),
    ],
    ids=["nan-bottom-leaf", "bottom-child-out-of-range", "bottom-child-shared", "orphan-below-bottom"],
)
def test_deep_chain_model_defect_at_its_bottom_is_named(break_it, message):
    model = chain_model()
    break_it(model)
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_ensemble_json(json.dumps(model))
