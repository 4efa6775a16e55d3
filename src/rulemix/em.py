"""EM fitting of the mixture surrogate to a binary dataset.

The loop is a generalized EM: the Bernoulli/Gaussian parameters get exact
closed-form updates, the gate gets an ascent-only gradient step, and the
E-step recomputes exact posteriors, so the data log-likelihood never
decreases (up to float rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binarizer import BinaryDataset
from .data import check_count
from .mixture import (
    MixtureModel,
    gate_design,
    log_joint_matrix,
    normalize_rows,
    shifted_exp,
    softmax_of,
)

DEGENERATE_MASS_FACTOR = 1e-10
MAX_RESEEDS_PER_RUN = 5
GATE_RIDGE = 1e-8  # ridge penalty of the gate M-step
BETA_ROW_SUM_TOL = 1e-9  # how far a responsibility row's sum may lie from 1
LAMBDA_BOUNDS = (1e-6, 1e6)  # clamp on the Gaussian precisions


class DegenerateComponentError(RuntimeError):
    def __init__(self, component: int):
        super().__init__(f"component {component} has zero responsibility mass")
        self.component = component


@dataclass(frozen=True)
class EmConfig:
    n_components: int
    max_iters: int = 100
    rel_tol: float = 1e-6
    restarts: int = 10
    seed: int = 0
    gate_max_iters: int = 50

    def __post_init__(self):
        for name in ("n_components", "max_iters", "restarts", "gate_max_iters"):
            check_count(name, getattr(self, name), 1)
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")


def e_step(model: MixtureModel, data: BinaryDataset) -> tuple[np.ndarray, np.ndarray]:
    """Posterior responsibilities (row softmax of log gate + log density) and
    each row's log-likelihood (their log-sum-exp), in one pass over the joint matrix."""
    return normalize_rows(log_joint_matrix(model, data))


def m_step_closed_form(beta: np.ndarray, data: BinaryDataset):
    """Exact weighted-moment updates for (eta, mu, lam) given responsibilities."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 2 or len(beta) != len(data):
        raise ValueError("beta must be (N, K) with one row per data row")
    mass = beta.sum(axis=0)
    for k, m in enumerate(mass):
        if m <= 0.0:
            raise DegenerateComponentError(k)
    # differing reduction orders can push a constant-bit column 1 ulp past 1
    eta = np.clip((beta.T @ data.bits) / mass[:, None], 0.0, 1.0)
    mu = (beta.T @ data.z) / mass
    denom = (beta * (data.z[:, None] - mu[None, :]) ** 2).sum(axis=0)
    # mass > 0, so a zero or tiny denom gives inf, clipped to the upper bound
    with np.errstate(divide="ignore", over="ignore"):
        lam = np.clip(mass / denom, *LAMBDA_BOUNDS)
    return eta, mu, lam


def gate_objective(
    weights: np.ndarray, moments: np.ndarray, design: np.ndarray, ridge: float
) -> tuple[float | list[float], tuple[np.ndarray, np.ndarray]]:
    """Ridge-penalized weighted log-likelihood of the gate at ``weights``,
    and the ``(e, total)`` of its ``shifted_exp``, from which ``gate_gradient``
    forms the softmax at the same point.

    ``weights`` and ``moments`` are (K, W), or stacks (R, K, W) of independent
    problems on one ``design``; a stack gives a list of R values, each the
    float its slice gives alone.  ``moments`` is ``beta.T @ design``.  As
    every row of ``beta`` sums to 1, ``sum(beta * log_softmax(design @ weights.T))``
    is ``sum(moments * weights)`` less the rows' log-sum-exps, so a trial
    point costs one logits product and one ``shifted_exp``.
    """
    e, total, top = shifted_exp(np.matmul(weights, design.T))
    lse = (np.log(total) + top).sum(axis=-1)
    value = (
        (moments * weights).sum(axis=(-2, -1))
        - lse
        - 0.5 * ridge * (weights * weights).sum(axis=(-2, -1))
    )
    return value.tolist(), (e, total)


def gate_gradient(
    weights: np.ndarray,
    moments: np.ndarray,
    design: np.ndarray,
    ridge: float,
    shifted: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Gradient of ``gate_objective`` at ``weights``, whose ``(e, total)`` is
    ``shifted``; stacks as ``gate_objective`` does."""
    return moments - np.matmul(softmax_of(*shifted).swapaxes(-1, -2), design) - ridge * weights


def m_step_gate(
    beta: np.ndarray,
    data: BinaryDataset,
    w_init: np.ndarray,
    config: EmConfig,
    restart_ids=None,
) -> tuple[np.ndarray, list[int], list[float]]:
    """Weighted multinomial logistic regression by backtracking gradient
    ascent, for a stack of R independent problems on one dataset: ``beta`` is
    (R, N, K) and ``w_init`` (R, K, W).

    Every row of ``beta`` must sum to 1 (within ``BETA_ROW_SUM_TOL``): the
    objective is scored from the moments ``beta.T @ design``, taken once per
    call.  Each slice runs its own line search: only improving steps are
    accepted, so its weights never score below its ``w_init`` on the
    ridge-penalized objective; each search starts at the step the slice's
    last one accepted, doubled if that was its first trial; each gradient
    forms its softmax from the objective call that accepted its point; and
    each slice has its own ``gate_max_iters`` budget.  A round scores one
    trial for every slice still searching in one ``gate_objective`` call and
    takes the gradients of the slices that accepted in one ``gate_gradient``
    call, so every slice gets the floats it would get alone.

    Returns the (R, K, W) weights and, per slice, the number of gradients
    taken and the norm of the last one.  Errors name a slice by its entry in
    ``restart_ids`` (default: its index).
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 3 or beta.shape[1] != len(data):
        raise ValueError("beta must be (R, N, K) with one row per data row")
    ids = range(len(beta)) if restart_ids is None else restart_ids
    sums = beta.sum(axis=-1)
    off = np.argwhere(~(np.abs(sums - 1.0) <= BETA_ROW_SUM_TOL))
    if off.size:
        r, row = off[0]
        raise ValueError(f"restart {ids[r]}: beta row {row} sums to {float(sums[r, row])!r}, not 1")
    S1 = gate_design(data.bits)
    W = np.array(w_init, dtype=np.float64)
    if W.shape != (len(beta), beta.shape[2], S1.shape[1]):
        raise ValueError(f"gate weights must have shape ({len(beta)}, {beta.shape[2]}, {S1.shape[1]})")
    moments = np.matmul(beta.swapaxes(-1, -2), S1)
    J, (e, total) = gate_objective(W, moments, S1, GATE_RIDGE)
    for r, value in enumerate(J):
        if not math.isfinite(value):
            raise RuntimeError(f"restart {ids[r]}: gate objective non-finite at the initial point")
    # Per-slice scalars stay Python floats, indexed by slice: numpy
    # bookkeeping on them costs more than it saves.  The stack holds the live
    # slices only (``live`` names them), so a round gathers nothing unless a
    # slice leaves or only some slices accepted.
    n_slices = len(W)
    gsq, step, t, iters = [0.0] * n_slices, [1.0] * n_slices, [1.0] * n_slices, [0] * n_slices
    gsq_stop = 1e-18 * max(1.0, len(data) ** 2)
    live = list(range(n_slices))
    W_live, G_live, moments_live = W, None, moments
    fresh, leaving = list(range(n_slices)), []  # stack positions at a new point; leaving the stack
    while True:
        if fresh:  # gradients at the newly accepted points, from their (e, total)
            if len(fresh) == len(live):
                G_live = G_new = gate_gradient(W_live, moments_live, S1, GATE_RIDGE, (e, total))
            else:
                at = np.array(fresh)
                W_at, moments_at, e_at, total_at = (a.take(at, axis=0) for a in (W_live, moments_live, e, total))
                G_new = gate_gradient(W_at, moments_at, S1, GATE_RIDGE, (e_at, total_at))
                G_live[at] = G_new
            for p, g in zip(fresh, (G_new * G_new).sum(axis=(-2, -1)).tolist()):
                r = live[p]
                iters[r] += 1
                gsq[r] = g
                if g <= gsq_stop:
                    leaving.append(p)
                else:
                    t[r] = step[r]
        if leaving:
            for p in leaving:
                W[live[p]] = W_live[p]
            keep = [p for p in range(len(live)) if p not in leaving]
            if not keep:
                break
            at = np.array(keep)
            W_live, G_live, moments_live = (a.take(at, axis=0) for a in (W_live, G_live, moments_live))
            live = [live[p] for p in keep]
            leaving = []
        W_try = W_live + np.array([t[r] for r in live])[:, None, None] * G_live
        J_try, (e, total) = gate_objective(W_try, moments_live, S1, GATE_RIDGE)
        fresh, accepted = [], []
        for p, r in enumerate(live):
            if not math.isfinite(J_try[p]):
                raise RuntimeError(
                    f"restart {ids[r]}: gate objective became non-finite during line search "
                    f"(iteration {iters[r] - 1})"
                )
            if J_try[p] >= J[r] + 1e-4 * t[r] * gsq[r]:
                J[r] = J_try[p]
                step[r] = min(t[r] * 2.0, 1e8) if t[r] == step[r] else t[r]
                accepted.append(p)
                (fresh if iters[r] < config.gate_max_iters else leaving).append(p)
            else:
                t[r] /= 2.0
                if not t[r] > 1e-20:
                    leaving.append(p)
        if len(accepted) == len(live):
            W_live = W_try
        else:
            for p in accepted:
                W_live[p] = W_try[p]
    return W, iters, [math.sqrt(g) for g in gsq]


def lower_bound(model: MixtureModel, beta: np.ndarray, data: BinaryDataset) -> float:
    """Jensen bound on the data log-likelihood at responsibilities ``beta``.

    Equals ``joint_log_likelihood`` when ``beta`` is the exact posterior.
    """
    beta = np.asarray(beta, dtype=np.float64)
    lj = log_joint_matrix(model, data)
    if beta.shape != lj.shape:
        raise ValueError("beta shape must match (N, K)")
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(beta > 0.0, beta * np.log(np.where(beta > 0.0, beta, 1.0)), 0.0)
    return float((beta * lj).sum() - ent.sum())


@dataclass
class RestartTrace:
    iters: int
    objective_trace: list
    failed: bool
    reseed_events: int
    gate_iters: list  # gradient steps of each gate M-step
    gate_final_grad_norms: list  # norm of each gate M-step's last gradient


@dataclass
class FitReport:
    restarts: list
    best_restart: int


def reseed_components(beta: np.ndarray, bad, scores: np.ndarray) -> int:
    """Hand each dead component a one-hot chunk of the worst-explained rows.

    ``scores`` orders rows by how well the current model explains them;
    chunks of ceil(N/K) rows are disjoint across the components being
    reseeded.  Rows stay normalized because whole rows are overwritten.
    """
    n, k = beta.shape
    chunk = math.ceil(n / k)
    ranked = np.argsort(scores, kind="stable")
    for j, comp in enumerate(bad):
        start = (j * chunk) % n
        sel = np.concatenate([ranked, ranked])[start : start + chunk]
        beta[sel, :] = 0.0
        beta[sel, comp] = 1.0
    return len(bad)


def _run_em(data: BinaryDataset, config: EmConfig, rng: np.random.Generator):
    """One EM restart, as a generator: at each gate M-step it yields
    ``(beta, weights)`` and is sent back ``m_step_gate``'s ``(weights, iters,
    grad_norm)`` for them; it returns ``(model, RestartTrace)``."""
    n, k = len(data), config.n_components
    beta = rng.dirichlet(np.ones(k), size=n)
    weights = np.zeros((k, data.n_bits + 1))
    model = row_ll = None
    trace: list[float] = []
    gate_iters: list[int] = []
    grad_norms: list[float] = []
    reseeds = 0

    for _ in range(config.max_iters):
        mass = beta.sum(axis=0)
        bad = np.nonzero(mass < DEGENERATE_MASS_FACTOR * n)[0]
        if bad.size:
            scores = row_ll if row_ll is not None else rng.random(n)
            reseeds += reseed_components(beta, bad, scores)
            if reseeds > MAX_RESEEDS_PER_RUN:
                return model, RestartTrace(len(trace), trace, True, reseeds, gate_iters, grad_norms)
        eta, mu, lam = m_step_closed_form(beta, data)
        weights, iters, grad_norm = yield beta, weights
        gate_iters.append(iters)
        grad_norms.append(grad_norm)
        model = MixtureModel(weights, eta, mu, lam, data.schema)
        beta, row_ll = e_step(model, data)
        trace.append(float(row_ll.sum()))
        if len(trace) > 1 and (
            abs(trace[-1] - trace[-2]) <= config.rel_tol * max(1.0, abs(trace[-2]))
        ):
            break
    return model, RestartTrace(len(trace), trace, False, reseeds, gate_iters, grad_norms)


def fit(data: BinaryDataset, config: EmConfig):
    """Best-of-restarts EM fit; returns (model, report with per-run traces).

    The restarts advance in lockstep: the gate M-steps of all live restarts
    run as one stacked ``m_step_gate`` call, and a restart leaves the stack
    when it converges or fails.  Each restart draws from its own generator,
    so its fit is the one it would make alone.
    """
    if len(data) < config.n_components:
        raise ValueError("need at least one row per component")
    rngs = (np.random.default_rng([config.seed, r]) for r in range(config.restarts))
    runs = [_run_em(data, config, rng) for rng in rngs]
    results = [None] * config.restarts
    waiting = {}  # restart -> the (beta, weights) of its next gate M-step

    def advance(r, sent):
        try:
            waiting[r] = runs[r].send(sent)
        except StopIteration as done:
            results[r] = done.value

    for r in range(config.restarts):
        advance(r, None)
    while waiting:
        live = sorted(waiting)
        betas, weights = zip(*(waiting.pop(r) for r in live))
        stepped = m_step_gate(np.stack(betas), data, np.stack(weights), config, live)
        for r, sent in zip(live, zip(*stepped)):
            advance(r, sent)
    models, traces = zip(*results)
    done = [r for r, trace in enumerate(traces) if not trace.failed]
    if not done:
        raise RuntimeError("all EM restarts failed (persistent degenerate components)")
    best = max(done, key=lambda r: traces[r].objective_trace[-1])  # first of equal maxima
    return models[best], FitReport(list(traces), best)
