import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import stump, two_stump_ensemble
from rulemix.binarizer import SplitSchema, build_dataset, count_patterns, extract_splits
from rulemix.data import gen_xor
from rulemix.ensemble import TreeEnsemble
from rulemix.trainer import GbtConfig, fit_gbt, parse_ensemble_json, serialize_ensemble


def test_extract_single_stump():
    ens = TreeEnsemble((stump(0, 0.5),), np.array([1.0]), 1)
    schema = extract_splits(ens)
    assert schema.rules == [(0, 0.5)]


def test_extract_deduplicates_across_trees():
    ens = TreeEnsemble((stump(0, 0.5), stump(0, 0.5)), np.array([1.0, 1.0]), 1)
    assert extract_splits(ens).rules == [(0, 0.5)]


def test_extract_sorts_by_feature_then_threshold():
    trees = (stump(1, 0.3), stump(0, 0.5), stump(0, 0.2))
    ens = TreeEnsemble(trees, np.ones(3), 2)
    assert extract_splits(ens).rules == [(0, 0.2), (0, 0.5), (1, 0.3)]


def test_encode_basic_and_boundary():
    schema = SplitSchema(np.array([0, 1]), np.array([0.5, 0.5]))
    assert schema.encode_batch([[0.3, 0.7]]).tolist() == [[0.0, 1.0]]
    assert schema.encode_batch([[0.5, 0.5]]).tolist() == [[1.0, 1.0]]


def test_encode_dimension_mismatch():
    schema = SplitSchema(np.array([0, 1]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        schema.encode_batch([[0.3]])


def test_region_emits_only_matching_patterns():
    # region: first rule satisfied, third violated, second unconstrained
    schema = SplitSchema(np.array([0, 0, 1]), np.array([0.2, 0.6, 0.7]))
    inside = [np.array([0.4, 0.5]), np.array([0.8, 0.5])]
    observed = schema.encode_batch(inside).tolist()
    assert observed == [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]
    for s in observed:
        assert s[0] == 1.0 and s[2] == 0.0


def test_build_dataset_single_row():
    ens = two_stump_ensemble()
    schema = extract_splits(ens)
    ds = build_dataset(ens, schema, [[0.7, 0.2]])
    assert len(ds) == 1
    assert ds.bits.tolist() == schema.encode_batch([[0.7, 0.2]]).tolist()
    assert ds.z[0] == ens.predict([0.7, 0.2])


def test_rows_in_one_region_share_z_and_stable_bits():
    ens = two_stump_ensemble()
    schema = extract_splits(ens)
    rng = np.random.default_rng(3)
    xs = rng.uniform([0.5, 0.0], [1.0, 0.5], size=(20, 2))  # fixed cell
    ds = build_dataset(ens, schema, xs)
    assert np.all(ds.z == ds.z[0])
    assert np.all(ds.bits == ds.bits[0])


def test_build_dataset_rejects_empty():
    ens = two_stump_ensemble()
    with pytest.raises(ValueError):
        build_dataset(ens, extract_splits(ens), np.zeros((0, 2)))


def test_encode_monotone_in_each_coordinate():
    data = gen_xor(150, seed=8)
    ens = fit_gbt(data, GbtConfig(tree_count=8, max_depth=2))
    schema = extract_splits(ens)
    rng = np.random.default_rng(9)
    xs = rng.random((200, 2))
    d = rng.integers(0, 2, size=200)
    bumped = xs.copy()
    bumped[np.arange(200), d] += rng.uniform(0.0, 0.5, size=200)
    before = schema.encode_batch(xs)
    after = schema.encode_batch(bumped)
    on_dim = schema.features[None, :] == d[:, None]
    assert np.all(after[on_dim] >= before[on_dim])
    assert np.array_equal(after[~on_dim], before[~on_dim])


XOR_DATA = gen_xor(100, seed=10)
XOR_GBT = fit_gbt(XOR_DATA, GbtConfig(tree_count=5, max_depth=2))
XOR_SCHEMA = extract_splits(XOR_GBT)
# Probe coordinates: anywhere around the unit square, or exactly on a split.
probe_cells = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(XOR_SCHEMA.thresholds.tolist()))


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 60), st.just(2)), elements=probe_cells))
def test_bits_determine_leaf_vector(xs):
    # z is a function of s: every tree routes through schema comparisons only,
    # so rows with equal bits reach the same leaves and the same prediction.
    bits = XOR_SCHEMA.encode_batch(xs)
    _, first, group = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    same_bits = first[group.ravel()]
    leaves = XOR_GBT.leaf_vector_batch(xs)
    z = XOR_GBT.predict_batch(xs)
    assert np.array_equal(leaves, leaves[same_bits])
    assert np.array_equal(z, z[same_bits])


@settings(deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(0, 20)), elements=st.sampled_from([0.0, 1.0])),
    st.lists(st.integers(0, 29), max_size=10),
)
def test_count_patterns_equals_unique_rows(bits, repeats):
    # repeated rows, widths on both sides of a byte, and the empty schema,
    # whose rows are all the one empty pattern
    bits = np.concatenate([bits, bits[[i % len(bits) for i in repeats]]])
    assert count_patterns(bits) == len(np.unique(bits, axis=0))
    assert count_patterns(np.asfortranarray(bits)) == count_patterns(bits)  # as encode_batch lays them out


def test_schema_stable_under_round_trip():
    data = gen_xor(150, seed=12)
    ens = fit_gbt(data, GbtConfig(tree_count=8, max_depth=3))
    reparsed = parse_ensemble_json(serialize_ensemble(ens))
    a, b = extract_splits(ens), extract_splits(reparsed)
    assert a.rules == b.rules


def test_schema_rejects_unsorted_rules():
    with pytest.raises(ValueError):
        SplitSchema(np.array([1, 0]), np.array([0.5, 0.5]))
