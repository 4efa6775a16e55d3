"""Shared builders for small hand-made models."""

import numpy as np

from rulemix.binarizer import BinaryDataset, SplitSchema
from rulemix.ensemble import Tree, TreeEnsemble
from rulemix.mixture import MixtureModel


def stump(feature=0, threshold=0.5, left_value=0.0, right_value=1.0) -> Tree:
    return Tree.from_nodes(
        [
            {"feature": feature, "threshold": threshold, "left": 1, "right": 2},
            {"value": left_value},
            {"value": right_value},
        ]
    )


def constant_tree(value=0.0) -> Tree:
    return Tree.from_nodes([{"value": value}])


def two_stump_ensemble(weights=(1.0, 1.0)) -> TreeEnsemble:
    return TreeEnsemble((stump(0), stump(1)), np.array(weights), 2)


def schema_of_length(l, dims=2) -> SplitSchema:
    features = np.sort(np.arange(l) % dims)
    thresholds = []
    counts = {}
    for d in features:
        counts[d] = counts.get(d, 0) + 1
        thresholds.append(counts[d] / (l + 1.0))
    return SplitSchema(features, np.array(thresholds))


def random_dataset(seed, n, l, dims=2) -> BinaryDataset:
    rng = np.random.default_rng(seed)
    schema = schema_of_length(l, dims)
    bits = rng.integers(0, 2, size=(n, l)).astype(float)
    z = rng.normal(0.0, 1.0, size=n)
    return BinaryDataset(bits, z, schema)


def random_model(seed, k, schema, intercept=True) -> MixtureModel:
    rng = np.random.default_rng(seed)
    l = len(schema)
    width = l + (1 if intercept else 0)
    return MixtureModel(
        gate_weights=rng.normal(0.0, 1.0, size=(k, width)),
        eta=rng.random((k, l)),
        mu=rng.normal(0.0, 2.0, size=k),
        lam=rng.uniform(0.5, 3.0, size=k),
        schema=schema,
        intercept=intercept,
    )
