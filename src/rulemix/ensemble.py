"""Axis-aligned regression tree ensembles and their induced input-space regions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import check_int, check_real

LEAF = -1

# (row, tree) pairs an ensemble routes at once: bounds the walk's transient
# arrays at a few MB whatever the number of rows
BLOCK_PAIRS = 1 << 13

_ROOT = np.zeros(1, dtype=np.int64)

# the fields of a leaf and of an internal node in the interchange format
_LEAF_FIELDS = frozenset({"value"})
_SPLIT_FIELDS = frozenset({"feature", "threshold", "left", "right"})


def _walk(nodes, X, roots) -> np.ndarray:
    """The (len(X), len(roots)) leaves where each row of the float64 matrix
    ``X`` stops when it descends from each root.

    ``nodes`` is a node table ``(feature, threshold, left, right)`` that may
    hold several trees, ``roots`` indexes their roots in it; a pair at an
    internal node goes to ``left`` when ``x[feature] < threshold``, else to
    ``right``.  The pairs still at internal nodes descend one level per step.
    """
    feature, threshold, left, right = nodes
    rows, width = X.shape
    x = X.ravel()
    cur = np.tile(roots, rows)  # the nodes of the pairs still descending,
    live = np.arange(len(cur))  # their indices,
    base = np.repeat(np.arange(rows) * width, len(roots))  # and their rows in x
    node = np.empty_like(cur)  # where each pair stops
    while True:
        feats = feature[cur]
        inner = feats >= 0
        if not inner.all():
            node[live[~inner]] = cur[~inner]
            live, cur, feats, base = live[inner], cur[inner], feats[inner], base[inner]
        if len(live) == 0:
            break
        go_left = x[base + feats] < threshold[cur]
        cur = np.where(go_left, left[cur], right[cur])
    return node.reshape(rows, len(roots))


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
        bad = np.flatnonzero(~np.isfinite(np.where(internal, self.threshold, self.value)))
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"node {i}: non-finite {'threshold' if internal[i] else 'leaf value'}")

    @classmethod
    def from_nodes(cls, nodes) -> "Tree":
        """Build from the ``nodes`` list of the interchange format, node 0
        the root: each node is an object with exactly the integer fields
        ``feature``, ``left`` and ``right`` and the number ``threshold``, or
        exactly the number ``value``.  A defect raises ``ValueError`` naming
        the node."""
        n = len(nodes)
        feature, left, right = [LEAF] * n, [LEAF] * n, [LEAF] * n
        threshold, value = [np.nan] * n, [np.nan] * n
        # Each field's usual type (what json.loads gives) is tested inline;
        # check_int/check_real, and the f-string naming the field, run only
        # for a value of another type.
        for i, node in enumerate(nodes):
            if not isinstance(node, dict):
                raise ValueError(f"node {i}: expected an object")
            if node.keys() == _LEAF_FIELDS:
                v = node["value"]
                value[i] = v if type(v) is float else check_real(f"node {i}: value", v)
            elif node.keys() == _SPLIT_FIELDS:
                d, b, lo, hi = node["feature"], node["threshold"], node["left"], node["right"]
                if type(d) is not int:
                    check_int(f"node {i}: feature", d)
                # an index past int64 is out of range for any feature_count
                if not 0 <= d < 2**63:
                    raise ValueError(f"node {i}: feature index {d} out of range")
                feature[i] = d
                threshold[i] = b if type(b) is float else check_real(f"node {i}: threshold", b)
                if type(lo) is not int:
                    check_int(f"node {i}: left", lo)
                if type(hi) is not int:
                    check_int(f"node {i}: right", hi)
                # clamped: an index outside [0, n) stays outside it and fits int64
                left[i] = min(max(lo, LEAF), n)
                right[i] = min(max(hi, LEAF), n)
            else:
                shape = _SPLIT_FIELDS if node.keys() & _SPLIT_FIELDS else _LEAF_FIELDS
                unknown = node.keys() - shape
                if unknown:
                    raise ValueError(f"node {i}: unknown field {min(unknown)!r}")
                if shape == _SPLIT_FIELDS:
                    missing = _SPLIT_FIELDS - node.keys()
                    raise ValueError(f"node {i}: internal node missing {min(missing)!r}")
                raise ValueError(f"node {i}: leaf missing value")
        feature, left, right = (np.array(a, dtype=np.int64) for a in (feature, left, right))
        threshold, value = (np.array(a, dtype=np.float64) for a in (threshold, value))
        return cls(feature, threshold, left, right, value)

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
        nodes = (self.feature, self.threshold, self.left, self.right)
        return _walk(nodes, X, _ROOT)[:, 0]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Value of the leaf ``leaf_index_batch(X)`` reaches for each row of ``X``."""
        return self.value[self.leaf_index_batch(X)]


@dataclass(frozen=True)
class TreeEnsemble:
    """Weighted sum of regression trees over a D-dimensional input space.

    The trees' nodes are also kept as one table, tree after tree, with child
    indices shifted to it and ``_roots`` giving each tree's root, so that one
    walk routes every (row, tree) pair at once.
    """

    trees: tuple
    weights: np.ndarray
    feature_count: int
    feature_names: tuple | None = None
    _nodes: tuple = field(init=False, repr=False, compare=False)
    _value: np.ndarray = field(init=False, repr=False, compare=False)
    _roots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        if len(self.trees) < 1:
            raise ValueError("ensemble needs at least one tree")
        if len(self.weights) != len(self.trees):
            raise ValueError("one weight per tree required")
        bad = np.flatnonzero(~np.isfinite(self.weights))
        if len(bad):
            raise ValueError(f"tree {bad[0]}: non-finite weight")
        counts = [t.node_count for t in self.trees]
        roots = np.cumsum([0] + counts[:-1])
        shift = np.repeat(roots, counts)  # a leaf's children are never read
        feature = np.concatenate([t.feature for t in self.trees])
        bad = np.flatnonzero(feature >= self.feature_count)
        if len(bad):
            j = int(bad[0])
            t = int(np.searchsorted(roots, j, side="right")) - 1
            raise ValueError(
                f"tree {t}: node {j - roots[t]}: feature index {feature[j]} out of range "
                f"(feature_count {self.feature_count})"
            )
        nodes = (
            feature,
            np.concatenate([t.threshold for t in self.trees]),
            np.concatenate([t.left for t in self.trees]) + shift,
            np.concatenate([t.right for t in self.trees]) + shift,
        )
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_value", np.concatenate([t.value for t in self.trees]))
        object.__setattr__(self, "_roots", roots)
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != self.feature_count:
                raise ValueError("feature_names length must equal feature_count")
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ValueError(f"feature name {name!r} appears twice")
            object.__setattr__(self, "feature_names", names)

    @property
    def tree_count(self) -> int:
        return len(self.trees)

    def predict(self, x) -> float:
        """``predict_batch`` of the single row ``x``."""
        # Kept because bench/tracing.py wraps this name as a trace point.
        return float(self.predict_batch(np.asarray(x, dtype=np.float64)[None, :])[0])

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Weighted sum over trees of the leaf value reached by each row of
        ``X``, added tree by tree in tree order."""
        X = self._check_batch(X)
        out = np.zeros(len(X))
        for lo, nodes in self._leaf_blocks(X):
            acc = out[lo : lo + len(nodes)]
            for terms in (self._value[nodes] * self.weights).T:
                acc += terms
        return out

    def leaf_vector_batch(self, X: np.ndarray) -> np.ndarray:
        """(n, tree_count) leaf indices; equal rows mean the same region."""
        X = self._check_batch(X)
        out = np.empty((len(X), self.tree_count), dtype=np.int64)
        for lo, nodes in self._leaf_blocks(X):
            np.subtract(nodes, self._roots, out=out[lo : lo + len(nodes)])
        return out

    def _leaf_blocks(self, X):
        """(first row, leaf table nodes) for each block of rows of ``X``."""
        step = max(1, BLOCK_PAIRS // self.tree_count)
        for lo in range(0, len(X), step):
            yield lo, _walk(self._nodes, X[lo : lo + step], self._roots)

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
    narrow = np.min_scalar_type(max(t.node_count for t in ensemble.trees))
    return count_distinct_rows(vectors.astype(narrow))
