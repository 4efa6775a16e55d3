"""Split-rule extraction and binary encoding of inputs against those rules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import TreeEnsemble, count_regions


@dataclass(frozen=True)
class SplitSchema:
    """Deduplicated (feature, threshold) split rules, sorted by (feature, threshold)."""

    features: np.ndarray
    thresholds: np.ndarray
    feature_names: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.int64))
        object.__setattr__(self, "thresholds", np.asarray(self.thresholds, dtype=np.float64))
        if self.features.shape != self.thresholds.shape or self.features.ndim != 1:
            raise ValueError("features and thresholds must be parallel 1-d arrays")
        if sorted(set(self.rules)) != self.rules:
            raise ValueError("rules must be sorted by (feature, threshold) and unique")
        if self.feature_names is not None:
            object.__setattr__(self, "feature_names", tuple(self.feature_names))

    def __len__(self) -> int:
        return len(self.features)

    @property
    def rules(self) -> list[tuple[int, float]]:
        return list(zip(self.features.tolist(), self.thresholds.tolist()))

    def encode_batch(self, X) -> np.ndarray:
        """Bit l of row n is 1 iff X[n, feature_l] >= threshold_l."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] <= self.features.max(initial=-1):
            raise ValueError(f"input matrix {X.shape} too narrow for schema")
        return (X[:, self.features] >= self.thresholds[None, :]).astype(np.float64)


def extract_splits(ensemble: TreeEnsemble) -> SplitSchema:
    """Collect every internal-node (feature, threshold) pair once, sorted."""
    pairs = set()
    for t in ensemble.trees:
        internal = t.feature >= 0
        pairs.update(zip(t.feature[internal].tolist(), t.threshold[internal].tolist()))
    ordered = sorted(pairs)
    features = np.array([d for d, _ in ordered], dtype=np.int64)
    thresholds = np.array([b for _, b in ordered])
    return SplitSchema(features, thresholds, ensemble.feature_names)


def count_regions_exact(ensemble: TreeEnsemble) -> int:
    """Exact region count via one probe per cell of the grid that the
    ``extract_splits`` thresholds cut each feature axis into.

    Only supported for feature_count <= 2 (the grid is exponential in D).
    """
    if ensemble.feature_count > 2:
        raise ValueError("exact region counting supported only for D <= 2")
    schema = extract_splits(ensemble)
    axes = []
    for d in range(ensemble.feature_count):
        ts = schema.thresholds[schema.features == d]
        if len(ts) == 0:
            axes.append(np.array([0.0]))
        else:
            inner = (ts[:-1] + ts[1:]) / 2.0
            axes.append(np.concatenate([[ts[0] - 1.0], inner, [ts[-1] + 1.0]]))
    grids = np.meshgrid(*axes, indexing="ij")
    probes = np.stack([g.ravel() for g in grids], axis=1)
    return count_regions(ensemble, probes)


@dataclass(frozen=True)
class BinaryDataset:
    """Rows of (s, z): split-indicator bits and the ensemble's prediction."""

    bits: np.ndarray
    z: np.ndarray
    schema: SplitSchema

    def __post_init__(self):
        if len(self.bits) != len(self.z):
            raise ValueError("bits and z must have the same number of rows")
        if self.bits.shape[1] != len(self.schema):
            raise ValueError("bit width must match schema length")

    def __len__(self) -> int:
        return len(self.z)

    @property
    def n_bits(self) -> int:
        return self.bits.shape[1]


def count_patterns(bits: np.ndarray) -> int:
    """Number of distinct rows of a 0/1 bit matrix, counted on the rows'
    packed bytes; every row of an empty schema is the one empty pattern."""
    packed = np.ascontiguousarray(np.packbits(np.asarray(bits) != 0, axis=1))
    if packed.shape[1] == 0:
        return min(len(packed), 1)
    return len(np.unique(packed.view(np.dtype((np.void, packed.shape[1])))))


def build_dataset(ensemble: TreeEnsemble, schema: SplitSchema, xs) -> BinaryDataset:
    """Encode inputs and label them with the ensemble's own predictions."""
    X = np.asarray(xs, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("xs must be a nonempty (n, D) matrix")
    bits = schema.encode_batch(X)
    z = ensemble.predict_batch(X)
    return BinaryDataset(bits, z, schema)
