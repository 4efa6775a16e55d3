"""Split-rule extraction and binary encoding of inputs against those rules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import TreeEnsemble, count_distinct_rows, count_regions


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
        """Bit l of row n is 1 iff the walk sends row n right at rule l, that is
        iff not X[n, feature_l] < threshold_l (so a NaN gets bit 1)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] <= self.features.max(initial=-1):
            raise ValueError(f"input matrix {X.shape} too narrow for schema")
        return (~(X[:, self.features] < self.thresholds[None, :])).astype(np.float64)


def extract_splits(ensemble: TreeEnsemble) -> SplitSchema:
    """Collect every internal-node (feature, threshold) pair once, sorted: one
    stable sort of the node table keeps the first of equal pairs (0.0, -0.0)."""
    internal = ensemble.feature >= 0
    features, thresholds = ensemble.feature[internal], ensemble.threshold[internal]
    order = np.lexsort((thresholds, features))
    features, thresholds = features[order], thresholds[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (features[1:] != features[:-1]) | (thresholds[1:] != thresholds[:-1])
    return SplitSchema(features[first], thresholds[first], ensemble.feature_names)


def count_regions_exact(ensemble: TreeEnsemble) -> int:
    """Exact region count via one probe per cell of the grid that the
    ``extract_splits`` thresholds cut each feature axis into.  A row with
    ``x >= t`` goes right, so each threshold lies in the cell it opens and
    probes it; -inf probes the cell below the lowest threshold, or the one
    cell of a feature without thresholds.

    Only supported for feature_count <= 2 (the grid is exponential in D).
    """
    if ensemble.feature_count > 2:
        raise ValueError("exact region counting supported only for D <= 2")
    schema = extract_splits(ensemble)
    axes = [
        np.concatenate([[-np.inf], schema.thresholds[schema.features == d]])
        for d in range(ensemble.feature_count)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    probes = np.stack([g.ravel() for g in grids], axis=1)
    return count_regions(ensemble, probes)


def gate_design(S: np.ndarray) -> np.ndarray:
    """Gate inputs: the bit rows with a constant 1 column appended.  The
    (n, L+1) result is the transpose of a C-ordered (L+1, n) array for every
    layout of ``S``, so the logits product ``weights @ design.T`` is a plain
    one and every product that reads the design sums in one order."""
    S = np.asarray(S, dtype=np.float64)
    cols = np.empty((S.shape[1] + 1, len(S)))
    cols[:-1] = S.T
    cols[-1] = 1.0
    return cols.T


@dataclass(frozen=True)
class BinaryDataset:
    """Rows of (s, z): split-indicator bits and the ensemble's prediction.

    The gate's (N, L+1) ``design``, ``gate_design`` of the bits, is built
    once, here; ``bits`` is the view of its first L columns, so the dataset
    holds no second N x L array."""

    bits: np.ndarray
    z: np.ndarray
    schema: SplitSchema
    design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.bits) != len(self.z):
            raise ValueError("bits and z must have the same number of rows")
        if self.bits.shape[1] != len(self.schema):
            raise ValueError("bit width must match schema length")
        design = gate_design(self.bits)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "bits", design[:, :-1])

    def __len__(self) -> int:
        return len(self.z)

    @property
    def n_bits(self) -> int:
        return self.bits.shape[1]


def count_patterns(bits: np.ndarray) -> int:
    """Number of distinct rows of a 0/1 bit matrix, counted on the rows'
    packed bytes; every row of an empty schema is the one empty pattern."""
    return count_distinct_rows(np.packbits(np.asarray(bits) != 0, axis=1))


def build_dataset(ensemble: TreeEnsemble, schema: SplitSchema, xs) -> BinaryDataset:
    """Encode inputs and label them with the ensemble's own predictions."""
    X = np.asarray(xs, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("xs must be a nonempty (n, D) matrix")
    bits = schema.encode_batch(X)
    z = ensemble.predict_batch(X)
    return BinaryDataset(bits, z, schema)
