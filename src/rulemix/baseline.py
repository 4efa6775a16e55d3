"""Single CART-style regression tree with cross-validated depth selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, mse
from .ensemble import Tree
from .mixture import RuleComponent, RuleSet, tightest_intervals
from .trainer import grow_tree


@dataclass(frozen=True)
class CartConfig:
    depth_grid: tuple = tuple(range(2, 11))
    folds: int = 5
    min_samples_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if len(self.depth_grid) == 0:
            raise ValueError("depth_grid must be nonempty")
        for depth in self.depth_grid:
            if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)) or depth < 0:
                raise ValueError(f"depth_grid entries must be integers >= 0, got {depth!r}")


def cv_folds(n: int, folds: int, seed: int):
    """Seeded disjoint exhaustive folds with sizes differing by at most one."""
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def cv_mse_by_depth(data: LabeledDataset, config: CartConfig) -> dict[int, float]:
    """Mean held-out MSE of a tree grown to each depth of the grid.

    Each fold grows one tree to the deepest depth in the grid and scores
    every depth from it cut at that depth, which is the tree grown to that
    depth (see ``grow_tree``).
    """
    if len(data) < config.folds:
        raise ValueError("need at least one sample per fold")
    folds = cv_folds(len(data), config.folds, config.seed)
    totals = dict.fromkeys(config.depth_grid, 0.0)
    for held_out in folds:
        train_mask = np.ones(len(data), dtype=bool)
        train_mask[held_out] = False
        tree = grow_tree(
            data.xs[train_mask], data.ys[train_mask], max(totals), config.min_samples_leaf
        )
        for depth in totals:
            preds = tree.predict_batch(data.xs[held_out], depth)
            totals[depth] += mse(preds, data.ys[held_out])
    return {depth: total / len(folds) for depth, total in totals.items()}


def fit_cart(data: LabeledDataset, config: CartConfig, scores: dict[int, float]) -> Tree:
    """Refit on all data at the depth of lowest CV error in ``scores`` (from
    ``cv_mse_by_depth``); ties go to the earlier depth in the grid."""
    best_depth = min(config.depth_grid, key=scores.__getitem__)
    return grow_tree(data.xs, data.ys, best_depth, config.min_samples_leaf)


def tree_to_ruleset(tree: Tree, data: LabeledDataset) -> RuleSet:
    """Render a tree through the rule machinery: one component per leaf, with
    the root-to-leaf split conditions as its intervals and the leaf's share
    of the rows of ``data``; feature names come from ``data``."""
    reached = tree.leaf_index_batch(data.xs)
    shares = np.bincount(reached, minlength=tree.node_count) / len(data)
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
