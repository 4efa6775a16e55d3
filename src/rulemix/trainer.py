"""Gradient-boosted tree training and the ensemble interchange format."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import LEAF, Tree, TreeEnsemble


class ParseError(ValueError):
    """Raised when an interchange file is malformed."""


@dataclass(frozen=True)
class GbtConfig:
    tree_count: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.tree_count < 1:
            raise ValueError("tree_count must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


def _best_split(X, y, rows, min_samples_leaf):
    """Best variance-reduction split for one node.

    Returns (feature, threshold, gain) or None.  Candidate thresholds are
    midpoints of consecutive distinct sorted feature values; ties broken by
    (lower feature index, lower threshold).  All features are scanned at
    once, one row of each (D, n) array per feature.
    """
    n = len(rows)
    if n < 2 * min_samples_leaf:
        return None
    ysub = y[rows]
    total = ysub.sum()
    total_sq = (ysub * ysub).sum()
    sse_parent = total_sq - total * total / n
    xs = X[rows].T
    order = np.argsort(xs, axis=1, kind="stable")
    xs_sorted = np.take_along_axis(xs, order, axis=1)
    ys_sorted = ysub[order]
    csum = np.cumsum(ys_sorted, axis=1)
    csq = np.cumsum(ys_sorted * ys_sorted, axis=1)
    # split before position p: left = [0, p), right = [p, n)
    pos = np.arange(min_samples_leaf, n - min_samples_leaf + 1)
    before = slice(min_samples_leaf - 1, n - min_samples_leaf)
    after = slice(min_samples_leaf, n - min_samples_leaf + 1)
    ls = csum[:, before]
    lq = csq[:, before]
    sse_left = lq - ls * ls / pos
    rs = total - ls
    rq = total_sq - lq
    sse_right = rq - rs * rs / (n - pos)
    gains = sse_parent - sse_left - sse_right
    gains[xs_sorted[:, before] >= xs_sorted[:, after]] = -np.inf
    # first maximum per feature, then the first feature with the largest
    # positive gain (a strictly-greater scan over features)
    at = np.argmax(gains, axis=1)
    best = gains[np.arange(len(at)), at]
    d = int(np.argmax(np.where(best > 0.0, best, -np.inf)))
    if not best[d] > 0.0:
        return None
    p = pos[at[d]]
    return (d, (xs_sorted[d, p - 1] + xs_sorted[d, p]) / 2.0, float(best[d]))


def grow_tree(X, y, max_depth, min_samples_leaf) -> Tree:
    """Greedy least-squares regression tree (shared by boosting and CART).

    Every node's ``value`` is the mean of its training rows, internal nodes
    included: a node's split depends only on its own rows, so the tree cut
    at depth d (``leaf_index_batch(X, d)``) is the tree grown to depth d.
    """
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(LEAF)
        threshold.append(np.nan)
        left.append(LEAF)
        right.append(LEAF)
        value.append(np.nan)
        return len(feature) - 1

    def build(rows, depth, node):
        value[node] = float(y[rows].mean())
        split = None
        if depth < max_depth:
            split = _best_split(X, y, rows, min_samples_leaf)
        if split is None:
            return
        d, b, _ = split
        feature[node] = d
        threshold[node] = b
        go_left = X[rows, d] < b
        left[node] = new_node()
        build(rows[go_left], depth + 1, left[node])
        right[node] = new_node()
        build(rows[~go_left], depth + 1, right[node])

    build(np.arange(len(y)), 0, new_node())
    return Tree(
        np.array(feature, dtype=np.int64),
        np.array(threshold),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(value),
    )


def fit_gbt(xs, ys, config: GbtConfig, feature_names=None) -> TreeEnsemble:
    """Stagewise least-squares boosting.

    Tree 0 is a single-leaf constant (mean of y, weight 1); each later tree
    fits the current residuals and enters with weight ``learning_rate``.
    Deterministic for fixed inputs regardless of seed.
    """
    X = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("xs must be a (n, D) matrix")
    if len(X) != len(y) or len(y) < 2:
        raise ValueError("need at least 2 samples with one target each")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite training data")

    base = Tree.from_nodes([{"value": float(y.mean())}])
    trees = [base]
    weights = [1.0]
    current = np.full(len(y), y.mean())
    for _ in range(config.tree_count):
        residuals = y - current
        t = grow_tree(X, residuals, config.max_depth, config.min_samples_leaf)
        current += config.learning_rate * t.predict_batch(X)
        trees.append(t)
        weights.append(config.learning_rate)
    return TreeEnsemble(tuple(trees), np.array(weights), X.shape[1], feature_names)


_NODE_SPLIT_KEYS = {"feature", "threshold", "left", "right"}


def _check_int(v, what):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{what} must be an integer, got {v!r}")
    return v


def _check_real(v, what):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{what} must be a number, got {v!r}")
    if not math.isfinite(v):
        raise ParseError(f"{what} must be finite, got {v!r}")
    return float(v)


def _parse_node(i, node, feature_count):
    if not isinstance(node, dict):
        raise ParseError(f"node {i}: expected an object")
    keys = set(node)
    if keys & _NODE_SPLIT_KEYS:
        unknown = keys - _NODE_SPLIT_KEYS
        if unknown:
            raise ParseError(f"node {i}: unknown field {sorted(unknown)[0]!r}")
        for k in sorted(_NODE_SPLIT_KEYS):
            if k not in keys:
                raise ParseError(f"node {i}: internal node missing {k!r}")
        d = _check_int(node["feature"], f"node {i}: feature")
        if not 0 <= d < feature_count:
            raise ParseError(
                f"node {i}: feature index {d} out of range (feature_count {feature_count})"
            )
        b = _check_real(node["threshold"], f"node {i}: threshold")
        lo = _check_int(node["left"], f"node {i}: left")
        hi = _check_int(node["right"], f"node {i}: right")
        return {"feature": d, "threshold": b, "left": lo, "right": hi}
    unknown = keys - {"value"}
    if unknown:
        raise ParseError(f"node {i}: unknown field {sorted(unknown)[0]!r}")
    if "value" not in keys:
        raise ParseError(f"node {i}: leaf missing value")
    return {"value": _check_real(node["value"], f"node {i}: value")}


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def parse_ensemble_json(text: str) -> TreeEnsemble:
    """Parse the ensemble interchange format (strict: unknown fields and
    repeated keys rejected)."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    unknown = set(obj) - {"feature_count", "feature_names", "trees"}
    if unknown:
        raise ParseError(f"unknown top-level field {sorted(unknown)[0]!r}")
    if "feature_count" not in obj or "trees" not in obj:
        raise ParseError("top level needs 'feature_count' and 'trees'")
    feature_count = _check_int(obj["feature_count"], "feature_count")
    if feature_count < 1:
        raise ParseError("feature_count must be >= 1")
    names = obj.get("feature_names")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise ParseError("feature_names must be a list of strings")
        names = tuple(names)
    if not isinstance(obj["trees"], list) or len(obj["trees"]) == 0:
        raise ParseError("'trees' must be a nonempty list")

    trees, weights = [], []
    for ti, tree_obj in enumerate(obj["trees"]):
        if not isinstance(tree_obj, dict):
            raise ParseError(f"tree {ti}: expected an object")
        unknown = set(tree_obj) - {"weight", "nodes"}
        if unknown:
            raise ParseError(f"tree {ti}: unknown field {sorted(unknown)[0]!r}")
        if "weight" not in tree_obj or "nodes" not in tree_obj:
            raise ParseError(f"tree {ti}: needs 'weight' and 'nodes'")
        weights.append(_check_real(tree_obj["weight"], f"tree {ti}: weight"))
        nodes = tree_obj["nodes"]
        if not isinstance(nodes, list) or len(nodes) == 0:
            raise ParseError(f"tree {ti}: 'nodes' must be a nonempty list")
        parsed = [_parse_node(i, n, feature_count) for i, n in enumerate(nodes)]
        try:
            trees.append(Tree.from_nodes(parsed))
        except ValueError as e:
            raise ParseError(f"tree {ti}: {e}") from e
    try:
        return TreeEnsemble(tuple(trees), np.array(weights), feature_count, names)
    except ValueError as e:
        raise ParseError(str(e)) from e


def serialize_ensemble(ensemble: TreeEnsemble) -> str:
    """Inverse of ``parse_ensemble_json`` (structural round trip)."""
    trees = []
    for w, t in zip(ensemble.weights, ensemble.trees):
        nodes = []
        for i in range(t.node_count):
            if t.feature[i] >= 0:
                nodes.append(
                    {
                        "feature": int(t.feature[i]),
                        "threshold": float(t.threshold[i]),
                        "left": int(t.left[i]),
                        "right": int(t.right[i]),
                    }
                )
            else:
                nodes.append({"value": float(t.value[i])})
        trees.append({"weight": float(w), "nodes": nodes})
    obj = {"feature_count": ensemble.feature_count, "trees": trees}
    if ensemble.feature_names is not None:
        obj["feature_names"] = list(ensemble.feature_names)
    return json.dumps(obj, indent=2)
