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
from .data import check_count, check_sum_of_squares
from .mixture import MixtureModel, log_joint_matrix, softmax_columns

DEGENERATE_MASS_FACTOR = 1e-10
MAX_RESEEDS_PER_RUN = 5
GATE_RIDGE = 1e-8  # ridge penalty of the gate M-step
LAMBDA_BOUNDS = (1e-6, 1e6)  # clamp on the Gaussian precisions, times 1 / var(z)
MAX_ITERS = 100  # EM iterations of a restart
REL_TOL = 1e-6  # a restart stops once its objective moves by <= REL_TOL * max(1, |objective|)


@dataclass(frozen=True)
class EmConfig:
    n_components: int
    restarts: int = 10
    seed: int = 0
    gate_max_iters: int = 25  # gradients per gate M-step; generalized EM needs only an ascent

    def __post_init__(self):
        for name in ("n_components", "restarts", "gate_max_iters"):
            check_count(name, getattr(self, name), 1)
        check_count("seed", self.seed, 0)


def e_step(model, data: BinaryDataset) -> tuple[np.ndarray, np.ndarray]:
    """Posterior responsibilities (row softmax of log gate + log density) and
    each row's log-likelihood (their log-sum-exp), normalized in place on the
    joint matrix.  The (N, K) responsibilities are the transpose of that
    C-ordered (K, N) array.  ``model`` is a ``MixtureModel`` or a stack of R
    models' arrays, as ``log_joint_matrix`` takes them; a stack gives (R, N,
    K) responsibilities and (R, N) log-likelihoods, each slice the floats its
    model gives alone."""
    joint = log_joint_matrix(model, data)
    return joint.swapaxes(-1, -2), softmax_columns(joint)  # the view sees the normalization


def m_step_closed_form(beta: np.ndarray, data: BinaryDataset):
    """Exact weighted-moment updates for (eta, mu, lam) given responsibilities;
    ``lam`` is clamped to ``LAMBDA_BOUNDS / var(z)``, free of z's units.  A
    malformed ``beta`` or a component without mass raises ``ValueError``
    (``fit`` reseeds components below ``DEGENERATE_MASS_FACTOR * N`` first).

    ``beta`` is (N, K), or a stack (R, N, K) of independent problems, which
    gives (R, K, L), (R, K) and (R, K) stacks, each slice the floats it gives
    alone.  Each sum over the rows runs in the order ``beta``'s layout gives
    it alone, and the precisions' sum runs over the rows of a C-ordered
    (..., N, K) product, one row after another.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim < 2 or beta.shape[-2] != len(data):
        raise ValueError("beta must be (N, K) with one row per data row, or a stack of such")
    mass = beta.sum(axis=-2)
    empty = np.argwhere(mass <= 0.0)
    if len(empty):
        raise ValueError(f"component {empty[0, -1]} has zero responsibility mass")
    beta_kn = beta.swapaxes(-1, -2)
    # differing reduction orders can push a constant-bit column 1 ulp past 1
    eta = np.clip(np.matmul(beta_kn, data.bits) / mass[..., None], 0.0, 1.0)
    z, constant = data.z, data.z.min() == data.z.max()
    mu = np.full(mass.shape, z[0]) if constant else np.matmul(beta_kn, z) / mass  # no rounded mean of a constant
    spread = z[:, None] - mu[..., None, :]
    spread *= spread
    spread *= beta
    denom = spread.sum(axis=-2)
    # mass > 0, so a zero or tiny denom gives inf, clipped to the upper bound;
    # a constant or tiny var(z) gives infinite bounds, replaced by the absolute ones
    with np.errstate(divide="ignore", over="ignore"):
        bounds = np.divide(LAMBDA_BOUNDS, 0.0 if constant else z.var())
        lam = np.clip(mass / denom, *(bounds if np.isfinite(bounds).all() else LAMBDA_BOUNDS))
    return eta, mu, lam


def gate_objective(
    weights: np.ndarray, moments: np.ndarray, design: np.ndarray
) -> tuple[float | list[float], np.ndarray]:
    """Weighted log-likelihood of the gate at ``weights``, less the ridge
    penalty ``GATE_RIDGE / 2 * |weights|^2``, and the gate's softmax there,
    (K, N) with one row per component, from which ``gate_gradient`` takes the
    gradient at the same point.

    ``weights`` and ``moments`` are (K, W), or stacks (R, K, W) of independent
    problems on one ``design``; a stack gives a list of R values and an
    (R, K, N) softmax, each slice the floats it gives alone.  ``moments`` is
    ``beta.T @ design``, and the value is ``sum(moments * weights)`` less the
    rows' log-sum-exps of the logits ``weights @ design.T``: when every row of
    ``beta`` sums to 1, the ``beta``-weighted sum of their log softmax.  A
    trial point costs one logits product and one ``softmax_columns``, made in
    place on the logits.
    """
    probs = np.matmul(weights, design.T)
    value = (
        (moments * weights).sum(axis=(-2, -1))
        - softmax_columns(probs).sum(axis=-1)
        - 0.5 * GATE_RIDGE * (weights * weights).sum(axis=(-2, -1))
    )
    return value.tolist(), probs


def gate_gradient(weights: np.ndarray, moments: np.ndarray, design: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Gradient of ``gate_objective`` at ``weights``, whose softmax is
    ``probs``; stacks as ``gate_objective`` does."""
    return moments - np.matmul(probs, design) - GATE_RIDGE * weights


def m_step_gate(
    moments: np.ndarray,
    design: np.ndarray,
    w_init: np.ndarray,
    config: EmConfig,
    restart_ids=None,
) -> tuple[np.ndarray, list[int], list[float]]:
    """Weighted multinomial logistic regression by backtracking gradient
    ascent, for a stack of R independent problems on one (N, W) ``design``:
    ``moments`` and ``w_init`` are (R, K, W), ``moments`` holding each
    problem's ``beta.T @ design``, all that ``gate_objective`` reads of its
    responsibilities ``beta``.  Each slice runs its own line search: only
    improving steps are accepted, so its weights never score below its
    ``w_init`` on the ridge-penalized objective; each search starts at the
    step the slice's last one accepted, doubled if that was its first trial;
    each gradient reads the softmax of the objective call that accepted its
    point; and each slice has its own ``gate_max_iters`` budget.  A round
    scores one trial for every slice still searching in one
    ``gate_objective`` call and takes the gradients of the slices that
    accepted in one ``gate_gradient`` call, so every slice gets the floats it
    would get alone.

    Returns the (R, K, W) weights and, per slice, the number of gradients
    taken and the norm of the last one.  Errors name a slice by its entry in
    ``restart_ids`` (default: its index).
    """
    ids = range(len(moments)) if restart_ids is None else restart_ids
    W = np.array(w_init, dtype=np.float64)
    if W.ndim != 3 or W.shape != moments.shape or W.shape[2] != design.shape[1]:
        raise ValueError(f"gate weights and moments must be (R, K, {design.shape[1]}) stacks of one shape")
    J, probs = gate_objective(W, moments, design)
    for r, value in enumerate(J):
        if not math.isfinite(value):
            raise RuntimeError(f"restart {ids[r]}: gate objective non-finite at the initial point")
    # Per-slice scalars stay Python floats, indexed by slice: numpy
    # bookkeeping on them costs more than it saves.  The stack holds the live
    # slices only (``live`` names them), so a round gathers nothing unless a
    # slice leaves or only some slices accepted.
    n_slices = len(W)
    gsq, step, t, iters = [0.0] * n_slices, [1.0] * n_slices, [1.0] * n_slices, [0] * n_slices
    gsq_stop = 1e-18 * max(1.0, len(design) ** 2)
    live = list(range(n_slices))
    W_live, G_live, moments_live = W, None, moments
    fresh, leaving = list(range(n_slices)), []  # stack positions at a new point; leaving the stack
    while True:
        if fresh:  # gradients at the newly accepted points, from their softmax
            if len(fresh) == len(live):
                G_live = G_new = gate_gradient(W_live, moments_live, design, probs)
            else:
                at = np.array(fresh)
                W_at, moments_at, probs_at = (a.take(at, axis=0) for a in (W_live, moments_live, probs))
                G_new = gate_gradient(W_at, moments_at, design, probs_at)
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
        J_try, probs = gate_objective(W_try, moments_live, design)
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


def reseed_components(beta: np.ndarray, bad) -> int:
    """Revive each dead component with half the responsibilities of the one
    then holding the most mass (at least N/K), which keeps the other half: both
    end with at least N/(2K), and no other column and no row sum changes."""
    for comp in bad:
        donor = np.argmax(beta.sum(axis=0))
        beta[:, donor] *= 0.5
        beta[:, comp] += beta[:, donor]
    return len(bad)


def fit(data: BinaryDataset, config: EmConfig):
    """Best-of-restarts EM fit; returns (model, report with per-run traces).

    The restarts advance in lockstep, one EM iteration at a time, on one
    stack of the live restarts' (N, K) responsibilities: each restart's
    reseed check runs on its slice, and then one ``m_step_closed_form``, one
    ``m_step_gate`` and one ``e_step`` call serve all of them.  A restart
    leaves the stack when it converges or fails.  Each restart draws its
    initial responsibilities from its own generator, and every slice gets
    the floats it would get alone: the stack holds the C-ordered draws, then
    each E-step's C-ordered (R, K, N) joint with its last two axes swapped,
    as a restart alone holds them.  Each restart's ``MixtureModel`` is built
    once, from its last parameters, after the loop.
    Targets whose squares, times ``LAMBDA_BOUNDS[1]``, overflow are refused
    before any restart.
    """
    n, k = len(data), config.n_components
    if n < k:
        raise ValueError("need at least one row per component")
    check_sum_of_squares("targets", data.z, LAMBDA_BOUNDS[1])
    restarts = range(config.restarts)
    beta = np.stack([np.random.default_rng([config.seed, r]).dirichlet(np.ones(k), size=n) for r in restarts])
    weights = np.zeros((len(restarts), k, data.n_bits + 1))
    params = [None] * len(restarts)  # each restart's last (gate_weights, eta, mu, lam)
    traces = [RestartTrace(0, [], False, 0, [], []) for _ in restarts]
    live = list(restarts)  # the restart of each slice of the stacks
    for _ in range(MAX_ITERS):
        short = beta.sum(axis=-2) < DEGENERATE_MASS_FACTOR * n
        for p in np.flatnonzero(short.any(axis=-1)):
            trace = traces[live[p]]
            trace.reseed_events += reseed_components(beta[p], np.flatnonzero(short[p]))
            trace.failed = trace.reseed_events > MAX_RESEEDS_PER_RUN
        keep = [p for p, r in enumerate(live) if not traces[r].failed]
        if len(keep) < len(live):  # fancy indexing keeps each slice's layout
            beta, weights, live = beta[keep], weights[keep], [live[p] for p in keep]
        if not live:
            break
        eta, mu, lam = m_step_closed_form(beta, data)
        moments = np.matmul(beta.swapaxes(-1, -2), data.design)
        del beta  # the gate M-step and the E-step make R-slice stacks of their own
        weights, gate_iters, grad_norms = m_step_gate(moments, data.design, weights, config, live)
        beta, row_ll = e_step((weights, eta, mu, lam), data)
        going = []
        stepped = zip(live, row_ll.sum(axis=-1).tolist(), gate_iters, grad_norms, zip(weights, eta, mu, lam))
        for p, (r, value, iters, grad_norm, last) in enumerate(stepped):
            trace, objective = traces[r], traces[r].objective_trace
            trace.gate_iters.append(iters)
            trace.gate_final_grad_norms.append(grad_norm)
            params[r] = last
            objective.append(value)
            trace.iters = len(objective)
            if len(objective) < 2 or not abs(objective[-1] - objective[-2]) <= REL_TOL * max(1.0, abs(objective[-2])):
                going.append(p)
        if len(going) < len(live):
            beta, weights, live = beta[going], weights[going], [live[p] for p in going]
    done = [r for r in restarts if not traces[r].failed]
    if not done:
        raise RuntimeError("all EM restarts failed (persistent degenerate components)")
    models = {r: MixtureModel(*params[r], data.schema) for r in done}
    best = max(done, key=lambda r: traces[r].objective_trace[-1])  # first of equal maxima
    return models[best], FitReport(traces, best)
