"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, direct probability arithmetic, generic numerical optimizers) and
shares no code paths with the package internals it checks.  The six
exact references (``per_feature_best_split``, ``per_node_sort_grow_tree``,
``cv_mse_per_depth``, ``unfused_m_step_gate``, ``per_tree_leaf_index`` and
``per_tree_check``) are the package's earlier loops, kept so that the faster forms can be
required to return the very same floats or nodes.  Trees are node columns
in the package's order (``feature``, ``threshold``, ``left``, ``right``,
``value``; children counted within a tree), walked from each tree's root;
``per_node_sort_grow_tree`` returns them as ``grow_tree`` does.
``cv_mse_per_depth`` calls the package's ``grow_tree``, ``presort``,
``cv_folds`` and ``mse``, because what it checks is only the
one-tree-per-fold cut, not the grower, and ``unfused_m_step_gate`` calls
``gate_design`` and ``softmax_columns``, because what it checks is only the
fused value and gradient, not the softmax kernel.
"""

import itertools
import math

import numpy as np
from scipy.optimize import minimize

from rulemix.baseline import cv_folds
from rulemix.data import mse
from rulemix.ensemble import LEAF
from rulemix.mixture import gate_design, softmax_columns
from rulemix.trainer import grow_tree, presort


def predict_by_path(ensemble, x):
    """Walk every tree of the ensemble's node table from its root by direct
    comparisons and sum the weighted leaf values."""
    e = ensemble
    total = 0.0
    for w, root in zip(e.weights, e.roots):
        i = int(root)
        while e.feature[i] >= 0:
            if x[e.feature[i]] < e.threshold[i]:
                i = int(root + e.left[i])
            else:
                i = int(root + e.right[i])
        total += float(w) * float(e.value[i])
    return total


def per_tree_leaf_index(columns, roots, X, depth=None):
    """The node where each row of ``X`` stops in each tree of the node table
    ``columns`` (tree t's nodes from ``roots[t]`` on), counted within its
    tree, as found before the ensemble walked all its trees at once: tree by
    tree, every row at an internal node descends one level per step, for at
    most ``depth`` steps.  Returns a (len(X), len(roots)) array."""
    feature, threshold, left, right = columns[:4]
    out = np.zeros((len(X), len(roots)), dtype=np.int64)
    for t, root in enumerate(roots):
        idx = out[:, t]
        for _ in itertools.count() if depth is None else range(depth):
            feats = feature[root + idx]
            active = feats >= 0
            if not active.any():
                break
            rows = np.nonzero(active)[0]
            at = root + idx[rows]
            go_left = X[rows, feats[rows]] < threshold[at]
            idx[rows] = np.where(go_left, left[at], right[at])
    return out


def brute_force_best_split(X, y, min_samples_leaf):
    """Exhaustive split search: every midpoint of consecutive distinct values,
    SSE computed from scratch per candidate."""
    n, d = X.shape
    best = None
    for feat in range(d):
        values = sorted(set(X[:, feat].tolist()))
        for a, b in zip(values[:-1], values[1:]):
            threshold = (a + b) / 2.0
            left = [y[i] for i in range(n) if X[i, feat] < threshold]
            right = [y[i] for i in range(n) if X[i, feat] >= threshold]
            if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                continue
            ml = sum(left) / len(left)
            mr = sum(right) / len(right)
            sse = sum((v - ml) ** 2 for v in left) + sum((v - mr) ** 2 for v in right)
            total_mean = sum(y) / n
            gain = sum((v - total_mean) ** 2 for v in y) - sse
            if gain > 0 and (best is None or gain > best[2] + 1e-12):
                best = (feat, threshold, gain)
    return best


def per_feature_best_split(X, y, rows, min_samples_leaf):
    """Best variance-reduction split for one node, one feature at a time.

    Returns (feature, threshold, gain) or None.  Candidate thresholds are
    midpoints of consecutive distinct sorted feature values; ties broken by
    (lower feature index, lower threshold) through the scan order.
    """
    n = len(rows)
    if n < 2 * min_samples_leaf:
        return None
    ysub = y[rows]
    total = ysub.sum()
    total_sq = (ysub * ysub).sum()
    sse_parent = total_sq - total * total / n
    best = None
    for d in range(X.shape[1]):
        xs = X[rows, d]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        ys_sorted = ysub[order]
        csum = np.cumsum(ys_sorted)
        csq = np.cumsum(ys_sorted * ys_sorted)
        # split before position i: left = [0, i), right = [i, n)
        pos = np.arange(min_samples_leaf, n - min_samples_leaf + 1)
        pos = pos[xs_sorted[pos - 1] < xs_sorted[pos]]
        if len(pos) == 0:
            continue
        ls = csum[pos - 1]
        lq = csq[pos - 1]
        sse_left = lq - ls * ls / pos
        rs = total - ls
        rq = total_sq - lq
        sse_right = rq - rs * rs / (n - pos)
        gains = sse_parent - sse_left - sse_right
        i = int(np.argmax(gains))
        if gains[i] > 0.0 and (best is None or gains[i] > best[2]):
            threshold = (xs_sorted[pos[i] - 1] + xs_sorted[pos[i]]) / 2.0
            best = (d, threshold, float(gains[i]))
    return best


def _per_node_sort_best_split(X, y, rows, min_samples_leaf):
    """The all-features split search of ``per_node_sort_grow_tree``: it sorts
    the node's own columns, one stable ``argsort`` of ``X[rows].T``."""
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
    at = np.argmax(gains, axis=1)
    best = gains[np.arange(len(at)), at]
    d = int(np.argmax(np.where(best > 0.0, best, -np.inf)))
    if not best[d] > 0.0:
        return None
    p = pos[at[d]]
    return (d, (xs_sorted[d, p - 1] + xs_sorted[d, p]) / 2.0, float(best[d]))


def per_tree_check(columns):
    """The structure check each tree ran on itself before an ensemble's node
    table was checked whole, on one tree's node ``columns``: one walk from
    the root reaches every node exactly once, then every threshold and leaf
    value is finite.  Raises ``ValueError`` naming the first defect the walk
    meets."""
    feature, threshold, left, right, value = columns
    n = len(feature)
    internal = feature >= 0
    is_internal, left, right = internal.tolist(), left.tolist(), right.tolist()
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
    bad = np.flatnonzero(~np.isfinite(np.where(internal, threshold, value)))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"node {i}: non-finite {'threshold' if internal[i] else 'leaf value'}")


def per_node_sort_grow_tree(X, y, max_depth, min_samples_leaf):
    """The greedy least-squares tree as grown before the columns were sorted
    once per fit: every node sorts its own rows again, and its value is
    ``y[rows].mean()``.  Returns the node columns, nodes in preorder."""
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
            split = _per_node_sort_best_split(X, y, rows, min_samples_leaf)
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
    return (
        np.array(feature, dtype=np.int64),
        np.array(threshold),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(value),
    )


def cv_mse_per_depth(data, config):
    """Mean held-out MSE per grid depth, growing a fresh tree for every
    (depth, fold) pair and summing each depth's fold MSEs in fold order."""
    folds = cv_folds(len(data), config.folds, config.seed)
    scores = {}
    for depth in config.depth_grid:
        total = 0.0
        for held_out in folds:
            train_mask = np.ones(len(data), dtype=bool)
            train_mask[held_out] = False
            xs = data.xs[train_mask]
            ys = data.ys[train_mask]
            columns, _ = grow_tree(xs, ys, presort(xs, config.min_samples_leaf), depth, config.min_samples_leaf)
            leaves = per_tree_leaf_index(columns, [0], data.xs[held_out])[:, 0]
            total += mse(columns[4][leaves], data.ys[held_out])
        scores[depth] = total / len(folds)
    return scores


def naive_component_density(model, k, s, z):
    """Direct probability arithmetic (no logs until the end)."""
    p = 1.0
    for sl, e in zip(s, model.eta[k]):
        e = min(max(e, 1e-6), 1 - 1e-6)
        p *= e if sl else (1 - e)
    lam = model.lam[k]
    p *= math.sqrt(lam / (2 * math.pi)) * math.exp(-lam * (z - model.mu[k]) ** 2 / 2)
    return p


def naive_gate(model, s):
    s = list(s) + [1.0]
    scores = [math.exp(sum(w * v for w, v in zip(row, s))) for row in model.gate_weights]
    total = sum(scores)
    return [v / total for v in scores]


def naive_joint_ll(model, data):
    """Per-row mixture likelihood by direct summation, then log."""
    total = 0.0
    for s, z in zip(data.bits, data.z):
        g = naive_gate(model, s)
        row = sum(g[k] * naive_component_density(model, k, s, z) for k in range(model.n_components))
        total += math.log(row)
    return total


def naive_posterior_row(model, s, z):
    g = naive_gate(model, s)
    joint = [g[k] * naive_component_density(model, k, s, z) for k in range(model.n_components)]
    total = sum(joint)
    return [v / total for v in joint]


def component_bound(eta_k, mu_k, lam_k, beta_k, bits, z):
    """The responsibility-weighted expected log density of one component."""
    total = 0.0
    for w, s, zv in zip(beta_k, bits, z):
        ll = 0.0
        for sl, e in zip(s, eta_k):
            e = min(max(e, 1e-6), 1 - 1e-6)
            ll += math.log(e) if sl else math.log(1 - e)
        ll += 0.5 * math.log(lam_k / (2 * math.pi)) - 0.5 * lam_k * (zv - mu_k) ** 2
        total += w * ll
    return total


def maximize_component_bound(beta_k, bits, z, lambda_bounds, tries=8, seed=0):
    """Numerical challenger for the closed-form M-step: L-BFGS-B from several
    starts over the feasible box."""
    rng = np.random.default_rng(seed)
    n_bits = bits.shape[1]
    z_lo, z_hi = float(min(z)) - 5.0, float(max(z)) + 5.0

    def neg(params):
        eta_k = params[:n_bits]
        mu_k = params[n_bits]
        lam_k = params[n_bits + 1]
        return -component_bound(eta_k, mu_k, lam_k, beta_k, bits, z)

    bounds = [(0.0, 1.0)] * n_bits + [(z_lo, z_hi)] + [lambda_bounds]
    best = -math.inf
    for t in range(tries):
        start = np.concatenate(
            [
                rng.random(n_bits),
                [rng.uniform(z_lo, z_hi)],
                [math.exp(rng.uniform(math.log(lambda_bounds[0]), math.log(min(lambda_bounds[1], 1e3))))],
            ]
        )
        res = minimize(neg, start, method="L-BFGS-B", bounds=bounds)
        best = max(best, -res.fun)
    return best


def finite_diff_gate_gradient(objective, weights, h=1e-5):
    grad = np.zeros_like(weights)
    for idx in np.ndindex(weights.shape):
        w_plus = weights.copy()
        w_plus[idx] += h
        w_minus = weights.copy()
        w_minus[idx] -= h
        grad[idx] = (objective(w_plus) - objective(w_minus)) / (2 * h)
    return grad


def unfused_m_step_gate(beta, data, w_init, gate_max_iters, ridge=1e-8):
    """The gate M-step as it ran before its value and gradient were fused:
    the objective drops the softmax, and each gradient recomputes the logits
    and the softmax at its own point.  Same acceptance rule, step schedule
    (the next line search starts at the accepted step, doubled only after a
    first-trial accept) and moments form of the value (``beta.T @ design``).

    Returns the weights, the number of objective calls, the norm of every
    gradient taken, and why the loop ended: "cap" (budget used up),
    "gradient" (gradient-norm test) or "floor" (no step above the floor).
    """

    def objective(weights):
        lse = softmax_columns(weights @ design.T).sum()
        return float((moments * weights).sum() - lse - 0.5 * ridge * (weights * weights).sum())

    def gradient(weights):
        probs = weights @ design.T
        softmax_columns(probs)
        return moments - probs @ design - ridge * weights

    design = gate_design(data.bits)
    moments = beta.T @ design
    W = np.array(w_init, dtype=np.float64)
    J = objective(W)
    objective_calls, norms = 1, []
    step = 1.0
    for _ in range(gate_max_iters):
        G = gradient(W)
        gsq = float((G * G).sum())
        norms.append(math.sqrt(gsq))
        if gsq <= 1e-18 * max(1.0, len(data) ** 2):
            return W, objective_calls, norms, "gradient"
        t = step
        while t > 1e-20:
            W_try = W + t * G
            J_try = objective(W_try)
            objective_calls += 1
            if J_try >= J + 1e-4 * t * gsq:
                W, J = W_try, J_try
                step = min(t * 2.0, 1e8) if t == step else t
                break
            t /= 2.0
        else:
            return W, objective_calls, norms, "floor"
    return W, objective_calls, norms, "cap"


def naive_em(data, k, seed, ridge=1e-8, lambda_bounds=(1e-6, 1e6), max_iters=3000, tol=1e-12):
    """Independently coded EM over the same model family, scipy-optimized gate.

    Returns the final data log-likelihood of one run.
    """
    rng = np.random.default_rng(seed)
    n = len(data)
    bits = np.asarray(data.bits, dtype=float)
    z = np.asarray(data.z, dtype=float)
    design = np.concatenate([bits, np.ones((n, 1))], axis=1)
    beta = rng.dirichlet(np.ones(k), size=n)
    weights = np.zeros((k, design.shape[1]))

    def gate_probs(w):
        logits = design @ w.T
        logits = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        return e / e.sum(axis=1, keepdims=True)

    def log_densities(eta, mu, lam):
        eta = np.clip(eta, 1e-6, 1 - 1e-6)
        bern = bits @ np.log(eta).T + (1 - bits) @ np.log(1 - eta).T
        gauss = 0.5 * np.log(lam / (2 * np.pi)) - 0.5 * lam * (z[:, None] - mu) ** 2
        return bern + gauss

    prev = None
    ll = -math.inf
    for _ in range(max_iters):
        mass = beta.sum(axis=0)
        mass = np.maximum(mass, 1e-300)
        eta = (beta.T @ bits) / mass[:, None]
        mu = (beta.T @ z) / mass
        denom = (beta * (z[:, None] - mu) ** 2).sum(axis=0)
        with np.errstate(divide="ignore"):
            lam = np.clip(np.where(denom > 0, mass / np.maximum(denom, 1e-300), np.inf),
                          lambda_bounds[0], lambda_bounds[1])

        def neg_gate(flat):
            w = flat.reshape(k, design.shape[1])
            logits = design @ w.T
            logz = logits - logits.max(axis=1, keepdims=True)
            logp = logz - np.log(np.exp(logz).sum(axis=1, keepdims=True))
            return -(float((beta * logp).sum()) - 0.5 * ridge * float((w * w).sum()))

        res = minimize(neg_gate, weights.ravel(), method="L-BFGS-B",
                       options={"maxiter": 200, "gtol": 1e-12, "ftol": 1e-15})
        if -res.fun >= -neg_gate(weights.ravel()):
            weights = res.x.reshape(k, design.shape[1])

        joint = np.log(np.maximum(gate_probs(weights), 1e-300)) + log_densities(eta, mu, lam)
        m = joint.max(axis=1, keepdims=True)
        per_row = m[:, 0] + np.log(np.exp(joint - m).sum(axis=1))
        ll = float(per_row.sum())
        if prev is not None and abs(ll - prev) <= tol * max(1.0, abs(prev)):
            break
        prev = ll
        p = np.exp(joint - m)
        beta = p / p.sum(axis=1, keepdims=True)
    return ll
