"""Axis-aligned regression tree ensembles and their induced input-space regions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import check_count, check_int, check_real

LEAF = -1

# (row, tree) pairs an ensemble routes at once: bounds the walk's transient
# arrays at a few MB whatever the number of rows
BLOCK_PAIRS = 1 << 13

# levels the walk descends between drops of the pairs that reached a leaf
SETTLE_LEVELS = 4

# a node table's columns, in the order of Tree's fields
COLUMNS = ("feature", "threshold", "left", "right", "value")

_ROOT = np.zeros(1, dtype=np.int64)

# the fields of a leaf and of an internal node in the interchange format
_LEAF_FIELDS = frozenset({"value"})
_SPLIT_FIELDS = frozenset({"feature", "threshold", "left", "right"})


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


def check_table(feature, threshold, left, right, value, roots, feature_count=None, name_trees=True) -> Routes:
    """The ``Routes`` of a table of trees, tree t's nodes from ``roots[t]`` on,
    children counted within the tree, checked whole in this order: children in
    range; no node reached twice (two parents, or a root as a child); every
    node reached from its root; finite thresholds and leaf values; features
    below ``feature_count``.  The table's first failing node is named in a
    ``ValueError``: ``tree {t}: node {i}: ...``, or ``node {i}: ...``.  Levels
    come from pointer jumping, so a deep chain costs few passes."""
    n = len(feature)
    size = np.diff(roots, append=n)
    first, end = np.repeat(roots, size), np.repeat(roots + size, size)  # each node's tree

    def fail(i, what):
        t = int(np.searchsorted(roots, i, side="right")) - 1
        raise ValueError(f"{f'tree {t}: ' if name_trees else ''}node {i - roots[t]}: {what}")

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
    if feature_count is not None and (feature >= feature_count).any():
        i = int(np.argmax(feature >= feature_count))
        fail(i, f"feature index {feature[i]} out of range (feature_count {feature_count})")
    to_left, to_right = index.copy(), index.copy()
    to_left[inner], to_right[inner] = kids
    return Routes(np.maximum(feature, 0), threshold, to_left, to_right, parent, level, int(level.max()))


def read_nodes(nodes, columns) -> None:
    """Append one tree's ``nodes`` list of the interchange format to the table
    ``columns`` (lists): each node an object with exactly the integers
    ``feature``, ``left``, ``right`` and the number ``threshold``, or exactly
    the number ``value``.  A field defect raises ``ValueError`` naming the node;
    children are clamped to [-1, len(nodes)], left to ``check_table``."""
    base, n = len(columns[0]), len(nodes)
    for column, fill in zip(columns, (LEAF, np.nan, LEAF, LEAF, np.nan)):
        column.extend([fill] * n)
    feature, threshold, left, right, value = columns
    # Each field's usual type (what json.loads gives) is tested inline;
    # check_int/check_real, and the f-string naming the field, run only for
    # a value of another type.
    for i, node in enumerate(nodes):
        if not isinstance(node, dict):
            raise ValueError(f"node {i}: expected an object")
        j = base + i
        if node.keys() == _LEAF_FIELDS:
            v = node["value"]
            value[j] = v if type(v) is float else check_real(f"node {i}: value", v)
        elif node.keys() == _SPLIT_FIELDS:
            d, b, lo, hi = node["feature"], node["threshold"], node["left"], node["right"]
            if type(d) is not int:
                check_int(f"node {i}: feature", d)
            # an index past int64 is out of range for any feature_count
            if not 0 <= d < 2**63:
                raise ValueError(f"node {i}: feature index {d} out of range")
            feature[j] = d
            threshold[j] = b if type(b) is float else check_real(f"node {i}: threshold", b)
            if type(lo) is not int:
                check_int(f"node {i}: left", lo)
            if type(hi) is not int:
                check_int(f"node {i}: right", hi)
            left[j] = min(max(lo, LEAF), n)
            right[j] = min(max(hi, LEAF), n)
        else:
            shape = _SPLIT_FIELDS if node.keys() & _SPLIT_FIELDS else _LEAF_FIELDS
            unknown = node.keys() - shape
            if unknown:
                raise ValueError(f"node {i}: unknown field {min(unknown)!r}")
            if shape == _SPLIT_FIELDS:
                missing = _SPLIT_FIELDS - node.keys()
                raise ValueError(f"node {i}: internal node missing {min(missing)!r}")
            raise ValueError(f"node {i}: leaf missing value")


def _arrays(columns) -> list:
    """The node table ``columns`` as arrays: indices int64, numbers float64."""
    return [np.asarray(c, dtype=np.float64 if name in ("threshold", "value") else np.int64)
            for name, c in zip(COLUMNS, columns)]


def _walk(routes, X, roots) -> np.ndarray:
    """The (len(roots), len(X)) nodes where each row of ``X`` stops below each
    root.  A pair goes ``left`` if ``x[feature] < threshold``, else ``right``
    (NaN too), and stays at a leaf, so all descend ``routes.depth`` levels
    untested; every ``SETTLE_LEVELS`` levels a deeper table drops its pairs at
    leaves, so a level of a deep chain costs what its live pairs do."""
    feature, threshold, left, right = routes[:4]
    rows, width = X.shape
    x = X.ravel()
    at = np.repeat(roots, rows)  # where each live pair is, and its row's offset in x
    base = np.tile(np.arange(0, rows * width, width), len(roots))
    node = live = None  # where every pair is, and which are live, after a drop
    for level in range(routes.depth):
        if level and level % SETTLE_LEVELS == 0:
            if live is None:
                node, live = at, np.arange(len(at))
            node[live] = at
            moving = left[at] != at
            live, at, base = live[moving], at[moving], base[moving]
        at = np.where(x[base + feature[at]] < threshold[at], left[at], right[at])
    if live is None:
        return at.reshape(len(roots), rows)
    node[live] = at
    return node.reshape(len(roots), rows)


@dataclass(frozen=True)
class Tree:
    """A binary regression tree stored as parallel node arrays: the node
    table of one tree.

    Node ``i`` is internal when ``feature[i] >= 0`` (then ``threshold``,
    ``left`` and ``right`` are meaningful) and a leaf otherwise.  Node 0 is
    the root.  Routing convention: ``x[feature] < threshold`` goes left,
    ``x[feature] >= threshold`` goes right.

    ``value`` holds each leaf's prediction.  In a tree from ``grow_tree`` an
    internal node's ``value`` is the mean of its training rows (what the
    tree cut at that node would predict); a parsed tree holds ``nan``
    there.  Only leaf values are serialized.

    ``check_table`` checks it once, for the ``routes`` the walk reads: at
    ``from_nodes``, or at a grown tree's first walk.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        n = len(self.feature)
        for name in COLUMNS[1:]:
            if len(getattr(self, name)) != n:
                raise ValueError("node arrays must share one length")
        if n == 0:
            raise ValueError("tree must have at least one node")

    @cached_property
    def routes(self) -> Routes:
        return check_table(*(getattr(self, name) for name in COLUMNS), _ROOT, name_trees=False)

    @classmethod
    def from_nodes(cls, nodes) -> "Tree":
        """Build from a ``nodes`` list (``read_nodes``), checked at once."""
        columns = ([], [], [], [], [])
        read_nodes(nodes, columns)
        tree = cls(*_arrays(columns))
        tree.routes  # checked now
        return tree

    @property
    def node_count(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))

    def leaf_index_batch(self, X: np.ndarray) -> np.ndarray:
        """Index of the unique leaf reached by each row of ``X``."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] <= self.feature.max():
            raise ValueError(
                f"input matrix has {X.shape[1]} column(s); the tree splits on feature "
                f"{self.feature.max()}"
            )
        return _walk(self.routes, X, _ROOT)[0]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Value of the leaf ``leaf_index_batch(X)`` reaches for each row of ``X``."""
        return self.value[self.leaf_index_batch(X)]


class TreeEnsemble:
    """Weighted sum of regression trees over a D-dimensional input space, held
    as one node table: a ``Tree``'s columns over every tree's nodes in turn,
    tree t's from ``roots[t]``.  It is checked once, whole; its ``routes`` let
    one walk route every (row, tree) pair at once.  ``trees`` are views."""

    def __init__(self, trees, weights, feature_count, feature_names=None):
        trees = tuple(trees)
        columns = [np.concatenate([getattr(t, name) for t in trees] or [[]]) for name in COLUMNS]
        self._hold(columns, [t.node_count for t in trees], weights, feature_count, feature_names)

    @classmethod
    def from_table(cls, columns, sizes, weights, feature_count, feature_names=None) -> "TreeEnsemble":
        """The ensemble of table ``columns``, tree t's ``sizes[t]`` nodes in turn."""
        ensemble = cls.__new__(cls)
        ensemble._hold(columns, sizes, weights, feature_count, feature_names)
        return ensemble

    def _hold(self, columns, sizes, weights, feature_count, feature_names) -> None:
        if len(sizes) < 1:
            raise ValueError("ensemble needs at least one tree")
        self.feature, self.threshold, self.left, self.right, self.value = columns = _arrays(columns)
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

    @cached_property
    def trees(self) -> tuple:
        """Each tree as a ``Tree`` viewing its rows of the table and ``routes``."""
        trees, r = [], self.routes
        for lo, hi in zip(self.roots.tolist(), [*self.roots[1:].tolist(), len(self.feature)]):
            tree = Tree(*(getattr(self, name)[lo:hi] for name in COLUMNS))
            local = (r.left[lo:hi] - lo, r.right[lo:hi] - lo, r.parent[lo:hi] - lo, r.level[lo:hi])
            tree.__dict__["routes"] = Routes(r.feature[lo:hi], r.threshold[lo:hi], *local, int(local[3].max()))
            trees.append(tree)
        return tuple(trees)

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
