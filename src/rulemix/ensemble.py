"""Axis-aligned regression tree ensembles and their induced input-space regions."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import check_count

LEAF = -1

# (row, tree) pairs an ensemble routes at once: bounds the walk's transient
# arrays at a few MB whatever the number of rows
BLOCK_PAIRS = 1 << 13

# a node table's columns, in the order the constructor takes them
COLUMNS = ("feature", "threshold", "left", "right", "value")


class Routes(NamedTuple):
    """A checked node table as the walk reads it: children index the table,
    and both of a leaf's are the leaf itself (its feature 0); ``parent`` (a
    root's is itself), ``level`` below the root, ``depth`` the deepest."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    parent: np.ndarray
    level: np.ndarray
    depth: int


def check_table(feature, threshold, left, right, value, roots, feature_count) -> Routes:
    """The ``Routes`` of a table of trees, tree t's nodes from ``roots[t]`` on,
    children counted within the tree, checked whole in this order: children in
    range; no node reached twice (two parents, or a root as a child); every
    node reached from its root; finite thresholds and leaf values; features
    below ``feature_count``.  The table's first failing node is named in a
    ``ValueError``: ``tree {t}: node {i}: ...``.  Levels come from pointer
    jumping, so a deep chain costs few passes."""
    n = len(feature)
    size = np.diff(roots, append=n)
    first, end = np.repeat(roots, size), np.repeat(roots + size, size)  # each node's tree

    def fail(i, what):
        t = int(np.searchsorted(roots, i, side="right")) - 1
        raise ValueError(f"tree {t}: node {i - roots[t]}: {what}")

    internal = feature >= 0
    inner = np.flatnonzero(internal)
    kids = np.stack([left[inner], right[inner]]) + first[inner]  # table indices
    out = (kids < first[inner]) | (kids >= end[inner])
    if out.any():
        j = int(np.argmax(out.any(axis=0)))
        fail(int(inner[j]), f"{'left' if out[0, j] else 'right'} child index out of range")
    parents = np.bincount(kids.ravel(), minlength=n)
    parents[roots] += 1  # a root's tree counts as its parent
    if (parents > 1).any():
        fail(int(np.argmax(parents > 1)), "reached twice from the root")
    index = np.arange(n)
    parent = index.copy()
    parent[kids] = inner
    # after k rounds up[i] is i's (2**k)-th ancestor, or its chain's top, level[i] the steps to it
    up, level = parent, (parent != index).astype(np.int64)
    for _ in range(n.bit_length()):
        higher = up[up]
        if np.array_equal(higher, up):
            break
        up, level = higher, level + level[up]
    reached = first[up] == up
    if not reached.all():
        fail(int(np.argmin(reached)), "not reachable from the root")
    bad = ~np.isfinite(np.where(internal, threshold, value))
    if bad.any():
        i = int(np.argmax(bad))
        fail(i, f"non-finite {'threshold' if internal[i] else 'leaf value'}")
    if (feature >= feature_count).any():
        i = int(np.argmax(feature >= feature_count))
        fail(i, f"feature index {feature[i]} out of range (feature_count {feature_count})")
    to_left, to_right = index.copy(), index.copy()
    to_left[inner], to_right[inner] = kids
    return Routes(np.maximum(feature, 0), threshold, to_left, to_right, parent, level, int(level.max()))


def _walk(routes, X, roots) -> np.ndarray:
    """The (len(roots), len(X)) nodes where each row of ``X`` stops below each
    root.  A pair goes ``left`` if ``x[feature] < threshold``, else ``right``
    (NaN too), and a leaf's children are itself, so every pair descends
    ``routes.depth`` levels untested and those at leaves stay put."""
    feature, threshold, left, right = routes[:4]
    rows, width = X.shape
    x = X.ravel()
    at = np.repeat(roots, rows)  # where each pair is, and its row's offset in x
    base = np.tile(np.arange(0, rows * width, width), len(roots))
    for _ in range(routes.depth):
        at = np.where(x[base + feature[at]] < threshold[at], left[at], right[at])
    return at.reshape(len(roots), rows)


class TreeEnsemble:
    """Weighted sum of regression trees over a D-dimensional input space, held
    as one node table: the ``COLUMNS`` over every tree's nodes in turn, tree
    t's ``sizes[t]`` nodes from ``roots[t]``, children counted within the tree.

    Node i is internal when ``feature[i] >= 0`` (then ``threshold``, ``left``
    and ``right`` are meaningful) and a leaf otherwise; a tree's first node is
    its root.  ``x[feature] < threshold`` goes left, anything else (NaN too)
    right.  ``value`` holds each leaf's prediction; a grown internal node
    holds the mean of its training rows, a parsed one ``nan``, and only leaf
    values are written.  A regression tree is the ensemble of one tree of
    weight 1.  The table is checked once, whole (``check_table``); its
    ``routes`` let one walk route every (row, tree) pair at once.
    """

    def __init__(self, columns, sizes, weights, feature_count, feature_names=None):
        self.feature, self.threshold, self.left, self.right, self.value = columns = [
            np.asarray(c, dtype=np.float64 if name in ("threshold", "value") else np.int64)
            for name, c in zip(COLUMNS, columns)
        ]
        sizes = np.asarray(sizes, dtype=np.int64)
        if len(sizes) < 1:
            raise ValueError("ensemble needs at least one tree")
        if (sizes < 1).any():
            raise ValueError(f"tree {np.argmax(sizes < 1)}: must have at least one node")
        if {len(c) for c in columns} != {sizes.sum()}:
            raise ValueError(f"node columns must each hold sum(sizes) = {sizes.sum()} nodes")
        self.roots = np.cumsum(sizes) - sizes
        self.weights = np.asarray(weights, dtype=np.float64)
        if len(self.weights) != len(sizes):
            raise ValueError("one weight per tree required")
        check_count("feature_count", feature_count, 1)
        bad = np.flatnonzero(~np.isfinite(self.weights))
        if len(bad):
            raise ValueError(f"tree {bad[0]}: non-finite weight")
        self.routes = check_table(*columns, self.roots, feature_count)
        self.feature_count = feature_count
        if feature_names is not None:
            feature_names = tuple(feature_names)
            if len(feature_names) != feature_count:
                raise ValueError("feature_names length must equal feature_count")
            for i, name in enumerate(feature_names):
                if name in feature_names[:i]:
                    raise ValueError(f"feature name {name!r} appears twice")
        self.feature_names = feature_names

    @property
    def tree_count(self) -> int:
        return len(self.roots)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))

    def predict(self, x) -> float:
        """``predict_batch`` of the single row ``x``."""
        # Kept because bench/tracing.py wraps this name as a trace point.
        return float(self.predict_batch(np.asarray(x, dtype=np.float64)[None, :])[0])

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Weighted sum over trees of the leaf value reached by each row of
        ``X``, added tree by tree in tree order; past float range, ±inf or NaN."""
        X = self._check_batch(X)
        out = np.empty(len(X))
        for lo, nodes in self._leaf_blocks(X):
            terms = self.value[nodes]
            with np.errstate(over="ignore", invalid="ignore"):
                terms *= self.weights[:, None]
                # in tree order, as a reduce may not; + 0.0 below turns -0.0 to 0.0
                np.add.accumulate(terms, axis=0, out=terms)
            np.add(terms[-1], 0.0, out=out[lo : lo + nodes.shape[1]])
        return out

    def leaf_vector_batch(self, X: np.ndarray) -> np.ndarray:
        """(n, tree_count) leaf indices; equal rows mean the same region."""
        X = self._check_batch(X)
        out = np.empty((len(X), self.tree_count), dtype=np.int64)
        for lo, nodes in self._leaf_blocks(X):
            np.subtract(nodes.T, self.roots, out=out[lo : lo + nodes.shape[1]])
        return out

    def _leaf_blocks(self, X):
        """(first row, (tree_count, rows) table nodes) for each block of rows of ``X``."""
        step = max(1, BLOCK_PAIRS // self.tree_count)
        for lo in range(0, len(X), step):
            yield lo, _walk(self.routes, X[lo : lo + step], self.roots)

    def _check_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise ValueError(
                f"input matrix has shape {X.shape}, expected (n, {self.feature_count})"
            )
        return X


def count_distinct_rows(a: np.ndarray) -> int:
    """Number of distinct rows of a 2-D array, compared as raw bytes; a
    matrix with no columns has one row pattern (none when it has no rows)."""
    a = np.ascontiguousarray(a)
    if a.shape[1] == 0:
        return min(len(a), 1)
    return len(np.unique(a.view(np.dtype((np.void, a.shape[1] * a.itemsize)))))


def count_regions(ensemble: TreeEnsemble, probes) -> int:
    """Number of distinct regions hit by ``probes`` (a lower bound on the
    exact region count).  Leaf vectors are counted in the narrowest unsigned
    type that holds every node index."""
    probes = np.asarray(probes, dtype=np.float64)
    if probes.ndim != 2 or len(probes) == 0:
        raise ValueError("probes must be a nonempty (n, D) matrix")
    vectors = ensemble.leaf_vector_batch(probes)
    narrow = np.min_scalar_type(int(np.diff(ensemble.roots, append=len(ensemble.feature)).max()))
    return count_distinct_rows(vectors.astype(narrow))
