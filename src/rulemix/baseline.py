"""Single CART-style regression tree with cross-validated depth selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, check_count, mse
from .ensemble import TreeEnsemble
from .mixture import RuleComponent, RuleSet, tightest_intervals
from .trainer import grow_tree, presort


@dataclass(frozen=True)
class CartConfig:
    depth_grid: tuple = tuple(range(2, 11))
    folds: int = 5
    min_samples_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        check_count("folds", self.folds, 2)
        check_count("min_samples_leaf", self.min_samples_leaf, 1)
        check_count("seed", self.seed, 0)
        if len(self.depth_grid) == 0:
            raise ValueError("depth_grid must be nonempty")
        for depth in self.depth_grid:
            if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)) or depth < 0:
                raise ValueError(f"depth_grid entries must be integers >= 0, got {depth!r}")


def cv_folds(n: int, folds: int, seed: int):
    """Seeded disjoint exhaustive folds with sizes differing by at most one."""
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def _grow(xs, ys, depth, min_samples_leaf) -> TreeEnsemble:
    """``grow_tree``'s tree on (xs, ys) as a one-tree ensemble of weight 1."""
    columns, _ = grow_tree(xs, ys, presort(xs), depth, min_samples_leaf)
    return TreeEnsemble(columns, [len(columns[0])], [1.0], xs.shape[1])


def cv_mse_by_depth(data: LabeledDataset, config: CartConfig) -> dict[int, float]:
    """Mean held-out MSE of a tree grown to each depth of the grid.

    Each fold grows one tree to the deepest depth in the grid and walks its
    held-out rows down to their leaves once.  The tree grown to depth d is
    that tree cut at d, with each node's value the mean of its training rows
    (see ``grow_tree``), so the depths are scored deepest first: at each, a
    row below it moves up to its parent until it sits at that depth, and
    scores the value of the node it has reached.
    """
    if len(data) < config.folds:
        raise ValueError("need at least one sample per fold")
    folds = cv_folds(len(data), config.folds, config.seed)
    totals = dict.fromkeys(config.depth_grid, 0.0)
    deepest = max(totals)
    for held_out in folds:
        train_mask = np.ones(len(data), dtype=bool)
        train_mask[held_out] = False
        xs = data.xs[train_mask]
        ys = data.ys[train_mask]
        tree = _grow(xs, ys, deepest, config.min_samples_leaf)
        parent, level = tree.routes.parent, tree.routes.level
        node = tree.leaf_vector_batch(data.xs[held_out])[:, 0]
        targets = data.ys[held_out]
        for depth in range(deepest, min(totals) - 1, -1):
            below = level[node] > depth
            node[below] = parent[node[below]]
            if depth in totals:
                totals[depth] += mse(tree.value[node], targets)
    return {depth: total / len(folds) for depth, total in totals.items()}


def fit_cart(data: LabeledDataset, config: CartConfig, scores: dict[int, float]) -> TreeEnsemble:
    """Refit on all data at the depth of lowest CV error in ``scores`` (from
    ``cv_mse_by_depth``), ties to the earlier depth in the grid; the tree is
    a one-tree ensemble of weight 1."""
    best_depth = min(config.depth_grid, key=scores.__getitem__)
    return _grow(data.xs, data.ys, best_depth, config.min_samples_leaf)


def tree_to_ruleset(tree: TreeEnsemble, data: LabeledDataset) -> RuleSet:
    """Render a one-tree ensemble through the rule machinery: one component
    per leaf, with the root-to-leaf split conditions as its intervals and the
    leaf's share of the rows of ``data``; feature names come from ``data``."""
    if tree.tree_count != 1:
        raise ValueError(f"tree_to_ruleset takes one tree, got {tree.tree_count}")
    reached = tree.leaf_vector_batch(data.xs)[:, 0]
    shares = np.bincount(reached, minlength=len(tree.feature)) / len(data)
    components = []

    def walk(node, lowers, uppers):
        if tree.feature[node] < 0:
            components.append(
                RuleComponent(
                    mu=float(tree.value[node]),
                    intervals=tightest_intervals(lowers, uppers),
                    share=float(shares[node]),
                )
            )
            return
        d = int(tree.feature[node])
        b = float(tree.threshold[node])
        walk(int(tree.left[node]), lowers, uppers + [(d, b)])
        walk(int(tree.right[node]), lowers + [(d, b)], uppers)

    walk(0, [], [])
    return RuleSet(components, data.feature_names)
