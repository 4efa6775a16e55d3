"""Single CART-style regression tree with cross-validated depth selection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, mse
from .ensemble import Tree
from .mixture import RuleComponent, RuleInterval, RuleSet
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


def cv_folds(n: int, folds: int, seed: int):
    """Seeded disjoint exhaustive folds with sizes differing by at most one."""
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def cv_mse_by_depth(data: LabeledDataset, config: CartConfig) -> dict[int, float]:
    folds = cv_folds(len(data), config.folds, config.seed)
    scores: dict[int, float] = {}
    for depth in config.depth_grid:
        total = 0.0
        for held_out in folds:
            train_mask = np.ones(len(data), dtype=bool)
            train_mask[held_out] = False
            tree = grow_tree(
                data.xs[train_mask], data.ys[train_mask], depth, config.min_samples_leaf
            )
            preds = tree.value[tree.leaf_index_batch(data.xs[held_out])]
            total += mse(preds, data.ys[held_out])
        scores[depth] = total / len(folds)
    return scores


def fit_cart(data: LabeledDataset, config: CartConfig) -> Tree:
    """Pick the depth with lowest CV error (ties to the smaller depth), then
    refit on all data."""
    if len(data) < config.folds:
        raise ValueError("need at least one sample per fold")
    scores = cv_mse_by_depth(data, config)
    best_depth = None
    best = math.inf
    for depth in config.depth_grid:
        if scores[depth] < best:
            best = scores[depth]
            best_depth = depth
    return grow_tree(data.xs, data.ys, best_depth, config.min_samples_leaf)


def tree_to_ruleset(tree: Tree, feature_names=None, data: LabeledDataset | None = None) -> RuleSet:
    """Render a tree through the rule machinery: one component per leaf, with
    the root-to-leaf split conditions as its intervals."""
    shares = None
    if data is not None:
        reached = tree.leaf_index_batch(data.xs)
        shares = np.bincount(reached, minlength=tree.node_count) / len(data)

    components = []

    def walk(node, lowers, uppers):
        if tree.feature[node] < 0:
            intervals = [
                RuleInterval(d, lowers.get(d, -math.inf), uppers.get(d, math.inf))
                for d in sorted(set(lowers) | set(uppers))
            ]
            components.append(
                RuleComponent(
                    mu=float(tree.value[node]),
                    intervals=intervals,
                    share=None if shares is None else float(shares[node]),
                )
            )
            return
        d = int(tree.feature[node])
        b = float(tree.threshold[node])
        tighter = dict(uppers)
        tighter[d] = min(b, uppers.get(d, math.inf))
        walk(int(tree.left[node]), lowers, tighter)
        tighter = dict(lowers)
        tighter[d] = max(b, lowers.get(d, -math.inf))
        walk(int(tree.right[node]), tighter, uppers)

    walk(0, {}, {})
    names = tuple(feature_names) if feature_names is not None else None
    return RuleSet(components, names)
