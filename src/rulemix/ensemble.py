"""Axis-aligned regression tree ensembles and their induced input-space regions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

LEAF = -1


@dataclass(frozen=True)
class Tree:
    """A binary regression tree stored as parallel node arrays.

    Node ``i`` is internal when ``feature[i] >= 0`` (then ``threshold``,
    ``left`` and ``right`` are meaningful) and a leaf otherwise.  Node 0 is
    the root.  Routing convention: ``x[feature] < threshold`` goes left,
    ``x[feature] >= threshold`` goes right.

    ``value`` holds each leaf's prediction.  In a tree from ``grow_tree`` an
    internal node's ``value`` is the mean of its training rows (what the
    tree cut at that node would predict); a parsed tree holds ``nan``
    there.  Only leaf values are serialized.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        n = len(self.feature)
        for name in ("threshold", "left", "right", "value"):
            if len(getattr(self, name)) != n:
                raise ValueError("node arrays must share one length")
        if n == 0:
            raise ValueError("tree must have at least one node")
        # one walk from the root: every node is reached exactly once
        internal = self.feature >= 0
        is_internal, left, right = internal.tolist(), self.left.tolist(), self.right.tolist()
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            i = stack.pop()
            if is_internal[i]:
                for side, child in (("left", left[i]), ("right", right[i])):
                    if not 0 <= child < n:
                        raise ValueError(f"node {i}: {side} child index out of range")
                    if seen[child]:
                        raise ValueError(f"node {child}: reached twice from the root")
                    seen[child] = True
                    stack.append(child)
        if not all(seen):
            raise ValueError(f"node {seen.index(False)}: not reachable from the root")
        if not np.isfinite(self.threshold[internal]).all():
            raise ValueError("internal node with non-finite threshold")
        if not np.isfinite(self.value[~internal]).all():
            raise ValueError("leaf with non-finite value")

    @classmethod
    def from_nodes(cls, nodes) -> "Tree":
        """Build from a list of node dicts, either ``{"feature", "threshold",
        "left", "right"}`` or ``{"value"}``; node 0 is the root."""
        n = len(nodes)
        feature = np.full(n, LEAF, dtype=np.int64)
        threshold = np.full(n, np.nan)
        left = np.full(n, LEAF, dtype=np.int64)
        right = np.full(n, LEAF, dtype=np.int64)
        value = np.full(n, np.nan)
        for i, node in enumerate(nodes):
            if "value" in node:
                value[i] = node["value"]
            else:
                feature[i] = node["feature"]
                threshold[i] = node["threshold"]
                left[i] = node["left"]
                right[i] = node["right"]
        return cls(feature, threshold, left, right, value)

    @property
    def node_count(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))

    def leaf_index_batch(self, X: np.ndarray, depth: int | None = None) -> np.ndarray:
        """Index of the unique leaf reached by each row of ``X``; with
        ``depth``, of the node where a row stops after at most ``depth``
        splits (the leaf of the tree cut at that depth)."""
        idx = np.zeros(len(X), dtype=np.int64)
        for _ in itertools.count() if depth is None else range(depth):
            feats = self.feature[idx]
            active = feats >= 0
            if not active.any():
                break
            rows = np.nonzero(active)[0]
            sub = idx[rows]
            go_left = X[rows, feats[rows]] < self.threshold[sub]
            idx[rows] = np.where(go_left, self.left[sub], self.right[sub])
        return idx

    def predict_batch(self, X: np.ndarray, depth: int | None = None) -> np.ndarray:
        """Value of the node ``leaf_index_batch(X, depth)`` reaches for each
        row of ``X``; a cut that stops at an internal node without a value
        (as in a parsed tree) raises ``ValueError``."""
        idx = self.leaf_index_batch(X, depth)
        out = self.value[idx]
        if depth is not None and np.isnan(out).any():
            node = int(idx[np.isnan(out)][0])
            raise ValueError(f"node {node} has no value to predict at depth {depth}")
        return out

    def split_pairs(self):
        """All internal-node (feature, threshold) pairs, duplicates included."""
        internal = self.feature >= 0
        return list(zip(self.feature[internal].tolist(), self.threshold[internal].tolist()))


@dataclass(frozen=True)
class TreeEnsemble:
    """Weighted sum of regression trees over a D-dimensional input space."""

    trees: tuple
    weights: np.ndarray
    feature_count: int
    feature_names: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        if len(self.trees) < 1:
            raise ValueError("ensemble needs at least one tree")
        if len(self.weights) != len(self.trees):
            raise ValueError("one weight per tree required")
        if not np.isfinite(self.weights).all():
            raise ValueError("non-finite tree weight")
        for t in self.trees:
            internal = t.feature >= 0
            if internal.any() and t.feature[internal].max() >= self.feature_count:
                raise ValueError("feature index out of range for ensemble")
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != self.feature_count:
                raise ValueError("feature_names length must equal feature_count")
            object.__setattr__(self, "feature_names", names)

    @property
    def tree_count(self) -> int:
        return len(self.trees)

    def predict(self, x) -> float:
        """``predict_batch`` of the single row ``x``."""
        # Kept because bench/tracing.py wraps this name as a trace point.
        return float(self.predict_batch(np.asarray(x, dtype=np.float64)[None, :])[0])

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Weighted sum over trees of the leaf value reached by each row of ``X``."""
        X = self._check_batch(X)
        out = np.zeros(len(X))
        for w, t in zip(self.weights, self.trees):
            out += w * t.predict_batch(X)
        return out

    def leaf_vector_batch(self, X: np.ndarray) -> np.ndarray:
        """(n, tree_count) leaf indices; equal rows mean the same region."""
        X = self._check_batch(X)
        return np.stack([t.leaf_index_batch(X) for t in self.trees], axis=1)

    def _check_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise ValueError(
                f"input matrix has shape {X.shape}, expected (n, {self.feature_count})"
            )
        return X


def thresholds_by_feature(ensemble: TreeEnsemble) -> list[np.ndarray]:
    """Sorted distinct split thresholds per feature, over the whole ensemble."""
    per_dim = [set() for _ in range(ensemble.feature_count)]
    for t in ensemble.trees:
        for d, b in t.split_pairs():
            per_dim[d].add(b)
    return [np.array(sorted(s)) for s in per_dim]


def count_regions(ensemble: TreeEnsemble, probes) -> int:
    """Number of distinct regions hit by ``probes`` (a lower bound on the
    exact region count)."""
    probes = np.asarray(probes, dtype=np.float64)
    if probes.ndim != 2 or len(probes) == 0:
        raise ValueError("probes must be a nonempty (n, D) matrix")
    vectors = ensemble.leaf_vector_batch(probes)
    return len(np.unique(vectors, axis=0))


def count_regions_exact(ensemble: TreeEnsemble) -> int:
    """Exact region count via one probe per cell of the split-threshold grid.

    Only supported for feature_count <= 2 (the grid is exponential in D).
    """
    if ensemble.feature_count > 2:
        raise ValueError("exact region counting supported only for D <= 2")
    axes = []
    for ts in thresholds_by_feature(ensemble):
        if len(ts) == 0:
            axes.append(np.array([0.0]))
        else:
            inner = (ts[:-1] + ts[1:]) / 2.0
            axes.append(np.concatenate([[ts[0] - 1.0], inner, [ts[-1] + 1.0]]))
    grids = np.meshgrid(*axes, indexing="ij")
    probes = np.stack([g.ravel() for g in grids], axis=1)
    return count_regions(ensemble, probes)
