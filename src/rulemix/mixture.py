"""Mixture-of-experts surrogate: softmax gate over split bits, Bernoulli bit
experts, Gaussian predictor experts, and interval-rule extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binarizer import BinaryDataset, SplitSchema, gate_design

# Bernoulli parameters are clamped only when densities are evaluated, so the
# stored values (and the M-step closed forms) stay exact.
BERNOULLI_EPS = 1e-6


def softmax_columns(cols: np.ndarray) -> np.ndarray:
    """Overwrite a (..., K, n) array of logits, one column per row, with the
    softmax of each column; return the columns' log-sum-exps (..., n).  Each
    column is shifted by its maximum before the ``exp``, so every ``exp``
    lies in [0, 1] and no column sum falls below 1.  Leading axes stack
    independent problems, each getting the floats it would get alone."""
    top = cols.max(axis=-2)
    cols -= top[..., None, :]
    np.exp(cols, out=cols)
    total = cols.sum(axis=-2)
    cols /= total[..., None, :]
    return np.log(total) + top


@dataclass(frozen=True)
class MixtureModel:
    """K-component mixture over (z, s) pairs.

    ``gate_weights`` has one row per component; its last column multiplies a
    constant 1 appended to the bit vector.
    """

    gate_weights: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    schema: SplitSchema

    def __post_init__(self):
        object.__setattr__(self, "gate_weights", np.asarray(self.gate_weights, dtype=np.float64))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=np.float64))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=np.float64))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=np.float64))
        k = len(self.mu)
        if k < 1:
            raise ValueError("need at least one component")
        width = len(self.schema) + 1
        if self.gate_weights.shape != (k, width):
            raise ValueError(f"gate_weights must be ({k}, {width})")
        if self.eta.shape != (k, len(self.schema)):
            raise ValueError(f"eta must be ({k}, {len(self.schema)})")
        if self.lam.shape != (k,):
            raise ValueError("lam must have one entry per component")
        if not np.isfinite(self.gate_weights).all():
            raise ValueError("non-finite gate weight")
        if ((self.eta < 0) | (self.eta > 1)).any():
            raise ValueError("eta entries must lie in [0, 1]")
        if (self.lam <= 0).any() or not np.isfinite(self.lam).all():
            raise ValueError("lam entries must be positive and finite")
        if not (np.isfinite(self.mu).all()):
            raise ValueError("non-finite mu")

    @property
    def n_components(self) -> int:
        return len(self.mu)

    def gate_batch(self, S: np.ndarray) -> np.ndarray:
        """(n, K) softmax component weights of the bit rows ``S``; each row
        is positive and sums to 1; the transpose of a C-ordered (K, n) array."""
        probs = self.gate_weights @ gate_design(S).T
        softmax_columns(probs)
        return probs.T

    def log_density_matrix(self, S: np.ndarray, z: np.ndarray) -> np.ndarray:
        """(n, K) matrix of log p(s | eta_k) + log N(z; mu_k, 1/lam_k) over
        the (s, z) rows, always finite."""
        eta = np.clip(self.eta, BERNOULLI_EPS, 1.0 - BERNOULLI_EPS)
        log_off = np.log1p(-eta)
        bern = S @ (np.log(eta) - log_off).T + log_off.sum(axis=1)
        resid = z[:, None] - self.mu[None, :]
        gauss = 0.5 * np.log(self.lam / (2.0 * np.pi))[None, :] - 0.5 * self.lam[None, :] * resid**2
        return bern + gauss

    def predict_batch(self, S: np.ndarray, soft: bool = False) -> np.ndarray:
        """Per bit row, the predictor value of the argmax-gate component (ties
        to the lowest index), or with ``soft`` the gate-weighted average of
        the component predictors."""
        g = self.gate_batch(S)
        if soft:
            return g @ self.mu
        return self.mu[np.argmax(g, axis=1)]


def _check_schema(model: MixtureModel, data: BinaryDataset) -> None:
    if model.schema.rules != data.schema.rules:
        raise ValueError("dataset schema does not match model schema")


def log_joint_matrix(model: MixtureModel, data: BinaryDataset) -> np.ndarray:
    """C-ordered (K, N) matrix of log gate_k(s_n) + log density_k(s_n, z_n),
    one row per component, built in place on the gate logits."""
    _check_schema(model, data)
    joint = model.gate_weights @ data.design.T
    joint -= softmax_columns(joint.copy())
    joint += model.log_density_matrix(data.bits, data.z).T
    return joint


def joint_log_likelihood(model: MixtureModel, data: BinaryDataset) -> float:
    """Sum over rows of log sum_k gate_k(s) density_k(s, z), via log-sum-exp."""
    return float(softmax_columns(log_joint_matrix(model, data)).sum())


@dataclass
class RuleInterval:
    feature: int
    lower: float = -math.inf
    upper: float = math.inf

    @property
    def degenerate(self) -> bool:
        return self.lower >= self.upper


@dataclass
class RuleComponent:
    mu: float
    intervals: list
    share: float

    @property
    def catch_all(self) -> bool:
        return len(self.intervals) == 0

    @property
    def degenerate(self) -> bool:
        return any(iv.degenerate for iv in self.intervals)


@dataclass
class RuleSet:
    """Human-readable output: one interval conjunction + predictor per component."""

    components: list
    feature_names: tuple | None = None

    def name_of(self, d: int) -> str:
        if self.feature_names is not None:
            return self.feature_names[d]
        return f"x_{d + 1}"


def tightest_intervals(lower_splits, upper_splits) -> list:
    """Intervals for the conjunction of ``x_d >= b`` over the (d, b) pairs of
    ``lower_splits`` and ``x_d < b`` over those of ``upper_splits``: per
    feature the tightest bound on each side, sorted by feature."""
    lowers: dict[int, float] = {}
    uppers: dict[int, float] = {}
    for d, b in lower_splits:
        lowers[d] = max(b, lowers.get(d, -math.inf))
    for d, b in upper_splits:
        uppers[d] = min(b, uppers.get(d, math.inf))
    return [
        RuleInterval(d, lowers.get(d, -math.inf), uppers.get(d, math.inf))
        for d in sorted(set(lowers) | set(uppers))
    ]


def check_tau(tau: float) -> None:
    if not 0.0 < tau < 0.5:
        raise ValueError("tau must lie in (0, 0.5)")


def extract_rules(model: MixtureModel, tau: float, data: BinaryDataset) -> RuleSet:
    """Threshold the Bernoulli parameters into interval rules.

    A bit is an active lower bound when eta >= 1 - tau (the component almost
    surely satisfies x >= b) and an active upper bound when eta <= tau; per
    feature the tightest bounds are kept.  Components with inconsistent
    bounds are flagged degenerate rather than dropped; components with no
    active bit get the catch-all rule.  Each component's share is its
    fraction of the argmax-gate rows of ``data``.
    """
    check_tau(tau)
    _check_schema(model, data)
    assign = np.argmax(model.gate_batch(data.bits), axis=1)
    shares = np.bincount(assign, minlength=model.n_components) / len(data)

    splits = model.schema.rules
    components = []
    for k in range(model.n_components):
        eta = model.eta[k].tolist()
        lower = [split for split, e in zip(splits, eta) if e >= 1.0 - tau]
        upper = [split for split, e in zip(splits, eta) if e <= tau]
        components.append(
            RuleComponent(
                mu=float(model.mu[k]),
                intervals=tightest_intervals(lower, upper),
                share=float(shares[k]),
            )
        )
    return RuleSet(components, model.schema.feature_names)


def _interval_text(ruleset: RuleSet, iv: RuleInterval) -> str:
    name = ruleset.name_of(iv.feature)
    if iv.lower > -math.inf and iv.upper < math.inf:
        return f"{iv.lower:g} <= {name} < {iv.upper:g}"
    if iv.lower > -math.inf:
        return f"{name} >= {iv.lower:g}"
    return f"{name} < {iv.upper:g}"


def rule_text(ruleset: RuleSet, component: RuleComponent) -> str:
    if component.catch_all:
        return "any x"
    body = ", ".join(_interval_text(ruleset, iv) for iv in component.intervals)
    if component.degenerate:
        body += "  [degenerate: empty interval]"
    return body


def render_rules_text(ruleset: RuleSet) -> str:
    """Aligned plain-text table: predictor value, share, rule conjunction."""
    rows = []
    for c in ruleset.components:
        rows.append((f"{c.mu:.4g}", f"{c.share:.2f}", rule_text(ruleset, c)))
    w0 = max(len(r[0]) for r in rows)
    w1 = max([len(r[1]) for r in rows] + [len("share")])
    lines = [f"{'z':>{w0}}  {'share':>{w1}}  rule"]
    for r in rows:
        lines.append(f"{r[0]:>{w0}}  {r[1]:>{w1}}  {r[2]}")
    return "\n".join(lines)


def rules_to_json_dict(ruleset: RuleSet) -> dict:
    """JSON form; unbounded interval ends become null."""
    comps = []
    for c in ruleset.components:
        intervals = []
        for iv in c.intervals:
            entry: dict = {"feature": int(iv.feature)}
            if ruleset.feature_names is not None:
                entry["name"] = ruleset.name_of(iv.feature)
            entry["lower"] = None if iv.lower == -math.inf else iv.lower
            entry["upper"] = None if iv.upper == math.inf else iv.upper
            intervals.append(entry)
        comps.append(
            {
                "mu": c.mu,
                "share": c.share,
                "intervals": intervals,
                "degenerate": c.degenerate,
                "catch_all": c.catch_all,
            }
        )
    return {"components": comps}
