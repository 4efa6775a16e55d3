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
from .mixture import MixtureModel, gate_design, log_joint_matrix, log_softmax, log_sum_exp, softmax

DEGENERATE_MASS_FACTOR = 1e-10
MAX_RESEEDS_PER_RUN = 5
GATE_RIDGE = 1e-8  # ridge penalty of the gate M-step
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
    intercept: bool = True

    def __post_init__(self):
        if min(self.n_components, self.max_iters, self.restarts, self.gate_max_iters) < 1:
            raise ValueError("n_components, max_iters, restarts and gate_max_iters must be >= 1")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")


def e_step(model: MixtureModel, data: BinaryDataset) -> tuple[np.ndarray, np.ndarray]:
    """Posterior responsibilities (row softmax of log gate + log density) and
    each row's log-likelihood (their log-sum-exp), from one joint matrix."""
    lj = log_joint_matrix(model, data)
    return softmax(lj), log_sum_exp(lj)


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


def gate_objective(weights: np.ndarray, beta: np.ndarray, design: np.ndarray, ridge: float) -> float:
    logp = log_softmax(design @ weights.T)
    return float((beta * logp).sum() - 0.5 * ridge * (weights * weights).sum())


def gate_gradient(weights: np.ndarray, beta: np.ndarray, design: np.ndarray, ridge: float) -> np.ndarray:
    return (beta - softmax(design @ weights.T)).T @ design - ridge * weights


def m_step_gate(beta: np.ndarray, data: BinaryDataset, w_init: np.ndarray, config: EmConfig) -> np.ndarray:
    """Weighted multinomial logistic regression by backtracking gradient ascent.

    Only improving steps are accepted, so the returned weights never score
    below ``w_init`` on the ridge-penalized objective.
    """
    S1 = gate_design(data.bits, config.intercept)
    W = np.array(w_init, dtype=np.float64)
    if W.shape != (beta.shape[1], S1.shape[1]):
        raise ValueError(f"gate weights must have shape ({beta.shape[1]}, {S1.shape[1]})")
    J = gate_objective(W, beta, S1, GATE_RIDGE)
    if not math.isfinite(J):
        raise RuntimeError("gate objective non-finite at the initial point")
    step = 1.0
    for it in range(config.gate_max_iters):
        G = gate_gradient(W, beta, S1, GATE_RIDGE)
        gsq = float((G * G).sum())
        if gsq <= 1e-18 * max(1.0, len(data) ** 2):
            break
        t = step
        while t > 1e-20:
            W_try = W + t * G
            J_try = gate_objective(W_try, beta, S1, GATE_RIDGE)
            if not math.isfinite(J_try):
                raise RuntimeError(
                    f"gate objective became non-finite during line search (iteration {it})"
                )
            if J_try >= J + 1e-4 * t * gsq:
                W, J = W_try, J_try
                step = min(t * 2.0, 1e8)
                break
            t /= 2.0
        else:
            break
    return W


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
    n, k = len(data), config.n_components
    beta = rng.dirichlet(np.ones(k), size=n)
    width = data.n_bits + (1 if config.intercept else 0)
    weights = np.zeros((k, width))
    model = row_ll = None
    trace: list[float] = []
    reseeds = 0

    for _ in range(config.max_iters):
        mass = beta.sum(axis=0)
        bad = np.nonzero(mass < DEGENERATE_MASS_FACTOR * n)[0]
        if bad.size:
            scores = row_ll if row_ll is not None else rng.random(n)
            reseeds += reseed_components(beta, bad, scores)
            if reseeds > MAX_RESEEDS_PER_RUN:
                return model, RestartTrace(len(trace), trace, True, reseeds)
        eta, mu, lam = m_step_closed_form(beta, data)
        weights = m_step_gate(beta, data, weights, config)
        model = MixtureModel(weights, eta, mu, lam, data.schema, config.intercept)
        beta, row_ll = e_step(model, data)
        trace.append(float(row_ll.sum()))
        if len(trace) > 1 and (
            abs(trace[-1] - trace[-2]) <= config.rel_tol * max(1.0, abs(trace[-2]))
        ):
            break
    return model, RestartTrace(len(trace), trace, False, reseeds)


def fit(data: BinaryDataset, config: EmConfig):
    """Best-of-restarts EM fit; returns (model, report with per-run traces)."""
    if len(data) < config.n_components:
        raise ValueError("need at least one row per component")
    rngs = (np.random.default_rng([config.seed, r]) for r in range(config.restarts))
    models, traces = zip(*(_run_em(data, config, rng) for rng in rngs))
    done = [r for r, trace in enumerate(traces) if not trace.failed]
    if not done:
        raise RuntimeError("all EM restarts failed (persistent degenerate components)")
    best = max(done, key=lambda r: traces[r].objective_trace[-1])  # first of equal maxima
    return models[best], FitReport(list(traces), best)
