"""Gradient-boosted tree training and the ensemble interchange format."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, check_count, check_int, check_real
from .ensemble import LEAF, TreeEnsemble

# the fields of a leaf and of an internal node in the interchange format
_LEAF_FIELDS = frozenset({"value"})
_SPLIT_FIELDS = frozenset({"feature", "threshold", "left", "right"})


class ParseError(ValueError):
    """Raised when an interchange file is malformed."""


@dataclass(frozen=True)
class GbtConfig:
    tree_count: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples_leaf: int = 5

    def __post_init__(self):
        for name in ("tree_count", "max_depth", "min_samples_leaf"):
            check_count(name, getattr(self, name), 1)
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")


def presort(X, min_samples_leaf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The root's ``(order, values, boundaries)`` for ``grow_tree``, the
    triple every node that can split carries: row d of ``order`` lists X's
    rows by feature d in stable ascending order, ties in row order, row d of
    ``values`` their feature-d values, and ``boundaries`` is
    ``_boundaries(values, min_samples_leaf)``.  A subset's stable order is
    this order filtered to it, so ``grow_tree`` never sorts again."""
    order = np.argsort(X.T, axis=1, kind="stable")
    values = X[order, np.arange(X.shape[1])[:, None]]
    return order, values, _boundaries(values, min_samples_leaf)


def _boundaries(xs_sorted, min_samples_leaf) -> np.ndarray:
    """Where a node with the sorted columns ``xs_sorted`` (row d: its
    feature-d values ascending) may split, as flat indices k into the (D, n)
    columns, in (feature, position) order: k = d * n + q splits after
    position q, left = [0, q] and right = [q + 1, n), where feature d's value
    rises and both sides keep ``min_samples_leaf`` rows.  A position between
    tied values cannot take a threshold.  Empty below ``2 * min_samples_leaf``
    rows."""
    n = xs_sorted.shape[1]
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    boundary = np.zeros(xs_sorted.shape, dtype=bool)
    boundary[:, lo:hi] = xs_sorted[:, lo:hi] < xs_sorted[:, lo + 1 : hi + 1]
    return np.flatnonzero(boundary)


def _best_split(ys_sorted, xs_sorted, k, total, total_sq):
    """Best variance-reduction split for one node.

    Row d of ``xs_sorted`` and ``ys_sorted`` holds the node's feature-d values
    and targets in the stable order of feature d (see ``presort``); ``k`` is
    ``_boundaries(xs_sorted, min_samples_leaf)``, and ``total`` and
    ``total_sq`` sum the targets and their squares in row order.  Returns
    (feature, threshold, gain) or None.  Candidate thresholds are midpoints of
    consecutive distinct sorted feature values ``a < b``, or ``b`` where the
    midpoint rounds down to ``a`` (adjacent doubles) or overflows, so both
    children get rows.  Among gains equal as floats the lower feature index
    wins, then the lower threshold; gains equal in exact arithmetic can round
    apart, so a feature that cuts the same rows as a lower-index one may win.
    All features are scanned at once, and gains are computed only at the
    boundaries ``k``.
    """
    if len(k) == 0:
        return None
    n = ys_sorted.shape[1]
    sse_parent = total_sq - total * total / n
    ls = np.add.accumulate(ys_sorted, axis=1).ravel()[k]
    lq = np.add.accumulate(ys_sorted * ys_sorted, axis=1).ravel()[k]
    pos = k % n + 1  # rows on the left
    sse_left = lq - ls * ls / pos
    rs = total - ls
    rq = total_sq - lq
    sse_right = rq - rs * rs / (n - pos)
    gains = sse_parent - sse_left - sse_right
    # the first maximum in (feature, position) order is the first maximum
    # per feature, then the first feature with the largest positive gain
    i = int(np.argmax(gains))
    if not gains[i] > 0.0:
        return None
    d, q = divmod(int(k[i]), n)
    a, b = float(xs_sorted[d, q]), float(xs_sorted[d, q + 1])
    mid = (a + b) / 2.0
    return (d, mid if a < mid <= b else b, float(gains[i]))


def grow_tree(X, y, root, max_depth, min_samples_leaf) -> tuple[tuple, np.ndarray]:
    """Greedy least-squares regression tree (shared by boosting and CART) as
    its node table's ``COLUMNS`` (nodes in preorder, the root first), and the
    node each row of ``X`` ends at.

    A node carries its rows in ascending order; a node that can split (at a
    depth below ``max_depth``, with at least ``2 * min_samples_leaf`` rows)
    also carries its sorted columns (row indices and values) and their
    boundaries.  The root's are ``root``, ``presort(X, min_samples_leaf)``,
    built once however many trees share it.  A split divides the columns
    with one mask, and only between the children that can split in turn; the
    mask keeps each side in the stable order of its own rows, so every node
    scans what a stable sort of its rows would give.  The split routes the
    rows by the comparison the ensemble walk makes, so the leaves are those
    it finds.

    Every node's ``value`` is the mean of its training rows, internal nodes
    included: a node's split depends only on its own rows, so the tree cut
    at depth d (each row stopped at its ancestor at depth d) is the tree
    grown to depth d.
    """
    nodes = []  # [feature, threshold, left, right, value] per node, in preorder
    leaf = np.empty(len(y), dtype=np.int64)

    def can_split(rows, depth):
        return depth < max_depth and len(rows) >= 2 * min_samples_leaf

    def side(order, xs_sorted, m):
        order = order[m].reshape(len(order), -1)
        xs_sorted = xs_sorted[m].reshape(len(xs_sorted), -1)
        return order, xs_sorted, _boundaries(xs_sorted, min_samples_leaf)

    def build(rows, depth, cols):
        # cols: the node's sorted columns (order, xs_sorted) and their
        # boundaries, or None if it cannot split
        ysub = y[rows]
        total = ysub.sum()
        nodes.append([LEAF, np.nan, LEAF, LEAF, float(total / len(rows))])
        node = len(nodes) - 1
        if cols is not None:
            order, xs_sorted, k = cols
            split = _best_split(y[order], xs_sorted, k, total, (ysub * ysub).sum())
            if split is not None:
                d, b, _ = split
                go_left = X[rows, d] < b
                lo_rows, hi_rows = rows[go_left], rows[~go_left]
                lo_splits, hi_splits = can_split(lo_rows, depth + 1), can_split(hi_rows, depth + 1)
                m = X[order, d] < b if lo_splits or hi_splits else None
                lo = build(lo_rows, depth + 1, side(order, xs_sorted, m) if lo_splits else None)
                hi = build(hi_rows, depth + 1, side(order, xs_sorted, ~m) if hi_splits else None)
                nodes[node][:4] = d, b, lo, hi
                return node
        leaf[rows] = node
        return node

    rows = np.arange(len(y))
    build(rows, 0, root if can_split(rows, 0) else None)
    return tuple(map(np.array, zip(*nodes))), leaf


def fit_gbt(data: LabeledDataset, config: GbtConfig) -> TreeEnsemble:
    """Stagewise least-squares boosting.

    Tree 0 is a single-leaf constant (mean of y, weight 1); each later tree
    fits the current residuals and enters with weight ``learning_rate``.
    Carries ``data.feature_names``; deterministic for fixed inputs regardless of seed.
    """
    X, y = data.xs, data.ys
    if len(y) < 2:
        raise ValueError("need at least 2 samples with one target each")

    trees = [[np.array([a]) for a in (LEAF, np.nan, LEAF, LEAF, y.mean())]]
    current = np.full(len(y), y.mean())
    root = presort(X, config.min_samples_leaf)
    for _ in range(config.tree_count):
        columns, leaf = grow_tree(X, y - current, root, config.max_depth, config.min_samples_leaf)
        trees.append(columns)
        current += config.learning_rate * columns[-1][leaf]
    table = [np.concatenate(column) for column in zip(*trees)]
    weights = np.array([1.0] + [config.learning_rate] * config.tree_count)
    return TreeEnsemble(table, [len(t[0]) for t in trees], weights, X.shape[1], data.feature_names)


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


def _unique_keys(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # a key repeats: name the first repeat
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def parse_ensemble_json(text: str) -> TreeEnsemble:
    """Parse the ensemble interchange format (strict: unknown fields and
    repeated keys rejected).  Every tree's nodes go into one node table
    (``read_nodes``), checked once, whole; a defect in tree t fails naming
    it: ``tree {t}: ...``."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deeply
        raise ParseError(f"malformed JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    unknown = set(obj) - {"feature_count", "feature_names", "trees"}
    if unknown:
        raise ParseError(f"unknown top-level field {sorted(unknown)[0]!r}")
    if "feature_count" not in obj or "trees" not in obj:
        raise ParseError("top level needs 'feature_count' and 'trees'")
    names = obj.get("feature_names")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise ParseError("feature_names must be a list of strings")
        names = tuple(names)
    if not isinstance(obj["trees"], list) or len(obj["trees"]) == 0:
        raise ParseError("'trees' must be a nonempty list")

    columns, sizes, weights = ([], [], [], [], []), [], []
    for ti, tree_obj in enumerate(obj["trees"]):
        try:
            if not isinstance(tree_obj, dict):
                raise ValueError("expected an object")
            unknown = set(tree_obj) - {"weight", "nodes"}
            if unknown:
                raise ValueError(f"unknown field {sorted(unknown)[0]!r}")
            if "weight" not in tree_obj or "nodes" not in tree_obj:
                raise ValueError("needs 'weight' and 'nodes'")
            weights.append(check_real("weight", tree_obj["weight"]))
            nodes = tree_obj["nodes"]
            if not isinstance(nodes, list) or len(nodes) == 0:
                raise ValueError("'nodes' must be a nonempty list")
            read_nodes(nodes, columns)
            sizes.append(len(nodes))
        except ValueError as e:
            raise ParseError(f"tree {ti}: {e}") from e
    try:
        return TreeEnsemble(columns, sizes, weights, obj["feature_count"], names)
    except ValueError as e:
        raise ParseError(str(e)) from e


def _json_list(items: list[str], indent: str) -> str:
    """A list as ``json.dumps(..., indent=2)`` lays it out at ``indent``,
    from its items already written at ``indent`` plus two spaces."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def serialize_ensemble(ensemble: TreeEnsemble) -> str:
    """Inverse of ``parse_ensemble_json`` (structural round trip).

    Writes the bytes of ``json.dumps(obj, indent=2)`` of the model object
    directly: with ``indent`` set, ``json`` runs its pure-Python encoder.
    Each node table column is read once.  Every number is a Python int or a
    finite float, whose ``repr`` is its JSON text; each feature name goes
    through ``json.dumps``."""
    columns = (ensemble.feature, ensemble.threshold, ensemble.left, ensemble.right, ensemble.value)
    nodes = [
        f'        {{\n          "feature": {d!r},\n          "threshold": {b!r},\n'
        f'          "left": {lo!r},\n          "right": {hi!r}\n        }}'
        if d >= 0
        else f'        {{\n          "value": {v!r}\n        }}'
        for d, b, lo, hi, v in zip(*(c.tolist() for c in columns))
    ]
    starts = ensemble.roots.tolist()
    trees = [
        f'    {{\n      "weight": {w!r},\n      "nodes": {_json_list(nodes[lo:hi], "      ")}\n    }}'
        for w, lo, hi in zip(ensemble.weights.tolist(), starts, starts[1:] + [len(nodes)])
    ]
    fields = [
        f'  "feature_count": {json.dumps(ensemble.feature_count)}',
        f'  "trees": {_json_list(trees, "  ")}',
    ]
    if ensemble.feature_names is not None:
        names = [f"    {json.dumps(name)}" for name in ensemble.feature_names]
        fields.append(f'  "feature_names": {_json_list(names, "  ")}')
    return "{\n" + ",\n".join(fields) + "\n}"
