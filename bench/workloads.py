"""The benchmark's workloads: how each makes its inputs, runs one op, and
checks the op's output.

Every op goes through rulemix's public entry points only
(``rulemix.cli.energy_pipeline``, ``rulemix.cli.synthetic_pipeline`` and
``rulemix.cli.run``), fed with inputs made here from the run's seed.

An op's output is checked twice.  *Errors* break what every correct run must
satisfy on any input: the op returned, every CLI step exited 0, the rule set
is well formed, and the report equals the first report of an op on the same
input.  An op with an error has failed.  *Misses* are the acceptance
criteria's quality checks (criterion 1's four quadrants, criterion 3's
compactness rule), which the program passes on most inputs but not all; they
are counted and reported, not failed (see NOTES.md for the measured rates).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import rulemix.cli
from rulemix.data import ENERGY_TARGET, gen_energy_like, split3, write_csv

# Every workload fits K = 4 components, the CLI's and the pipelines' default.
COMPONENTS = 4

# synthetic_pipeline(s) draws its three splits from seeds s, s + 1 and s + 2,
# so consecutive inputs of one run step by 3 to share no rows.
INPUT_STRIDE = 3


def input_seed(seed: int, j: int) -> int:
    """Seed of the j-th input of a run; input 0 of seed 0 is seed 0."""
    return 1000 * seed + INPUT_STRIDE * j


@dataclass
class Outcome:
    """What one op produced: its report without timing fields, its quality
    figures, and what its checks found."""

    report: dict
    quality: dict
    errors: list = field(default_factory=list)
    misses: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], list]  # (seed, workdir) -> one state per input
    op: Callable[[object], Outcome]  # state of one input -> outcome
    quality_inputs: int  # a timed run's quality figures come from this many first inputs


def rule_set_errors(rules: dict) -> list[str]:
    """Invariants of any extracted rule set: K components, finite predictor
    values, interval ends in order unless the rule is flagged degenerate,
    and argmax-gate shares that sum to one."""
    comps = rules["components"]
    if len(comps) != COMPONENTS:
        return [f"expected {COMPONENTS} rules, got {len(comps)}"]
    errors = []
    for i, c in enumerate(comps):
        if not is_number(c["mu"]):
            errors.append(f"rule {i}: non-finite mu {c['mu']!r}")
        for iv in c["intervals"]:
            lo, hi = iv["lower"], iv["upper"]
            if lo is not None and hi is not None and lo >= hi and not c["degenerate"]:
                errors.append(f"rule {i}: empty interval [{lo}, {hi}) not flagged degenerate")
    shares = [c["share"] for c in comps]
    if any(not is_number(s) or not 0.0 <= s <= 1.0 for s in shares):
        errors.append(f"shares outside [0, 1]: {shares}")
    elif abs(sum(shares) - 1.0) > 1e-9:
        errors.append(f"shares sum to {sum(shares)}, not 1")
    return errors


def quadrant_misses(rules: dict) -> list[str]:
    """The four-quadrant check of acceptance criterion 1 on a rules JSON dict.

    Four non-degenerate components, each constraining both features; on each
    feature the bound that fixes the side lies within 0.05 of 0.5, and mu is
    within 0.15 of the XOR value of its quadrant.  Criterion 1 also asks each
    interval to be one-sided; here a second bound is allowed when it lies
    within 0.05 of the data edge (0 or 1), because ensembles grown with a
    small leaf size split near the edges of the unit square.
    """
    comps = rules["components"]
    if len(comps) != 4:
        return [f"expected 4 rules, got {len(comps)}"]
    misses = []
    seen = set()
    for i, c in enumerate(comps):
        if c["degenerate"]:
            misses.append(f"rule {i} is degenerate")
            continue
        by_feature = {iv["feature"]: iv for iv in c["intervals"]}
        if set(by_feature) != {0, 1}:
            misses.append(f"rule {i} does not constrain both features")
            continue
        signature = []
        for d in (0, 1):
            lo, hi = by_feature[d]["lower"], by_feature[d]["upper"]
            if lo is not None and abs(lo - 0.5) <= 0.05 and (hi is None or hi >= 0.95):
                signature.append("high")
            elif hi is not None and abs(hi - 0.5) <= 0.05 and (lo is None or lo <= 0.05):
                signature.append("low")
            else:
                misses.append(f"rule {i} feature {d}: [{lo}, {hi}) is not a quadrant side")
        if len(signature) != 2:
            continue
        expected = 1.0 if signature[0] != signature[1] else 0.0
        if abs(c["mu"] - expected) > 0.15:
            misses.append(f"rule {i} {tuple(signature)}: mu {c['mu']:.3f} not within 0.15 of {expected}")
        seen.add(tuple(signature))
    if not misses and len(seen) != 4:
        misses.append(f"quadrants covered: {sorted(seen)}, expected all four")
    return misses


def compactness_misses(rules: dict) -> list[str]:
    """The compactness check of acceptance criterion 3 on a rules JSON dict."""
    name = "Relative Compactness"
    bounds = [
        b
        for c in rules["components"]
        for iv in c["intervals"]
        if iv.get("name") == name
        for b in (iv["lower"], iv["upper"])
        if b is not None
    ]
    if not any(0.65 <= b <= 0.85 for b in bounds):
        return ["no compactness rule near 0.75"]
    top = max(rules["components"], key=lambda c: c["mu"])
    top_rc = [iv for iv in top["intervals"] if iv.get("name") == name]
    if not top_rc:
        return ["largest-mu rule carries no compactness constraint"]
    lower = top_rc[0]["lower"]
    if lower is None or not 0.65 <= lower <= 0.85:
        return [f"largest-mu rule's compactness lower bound {lower} not in [0.65, 0.85]"]
    return []


def _pipeline_outcome(report: dict, check) -> Outcome:
    report = {k: v for k, v in report.items() if k != "wall_time_s"}
    errors = report["errors"]
    quality = {
        "fidelity_mse": errors["model_i_vs_atm_mse"],
        "rules_test_mse": errors["model_i_test_mse"],
        "objective_per_row": report["em_fit"]["final_objective"] / report["counts"]["n_train"],
        "baseline_test_mse": errors["baseline_test_mse"],
        "atm_test_mse": errors["atm_test_mse"],
    }
    rules = report["rules"]
    return Outcome(report, quality, rule_set_errors(rules), check(rules))


def _pipeline_workload(name, pipeline, check, inputs, quality_inputs) -> Workload:
    def setup(seed, workdir):
        return [input_seed(seed, j) for j in range(inputs)]

    def op(state):
        report, _ = pipeline(state)
        return _pipeline_outcome(report, check)

    return Workload(name, setup, op, quality_inputs)


def energy_workload(restarts=10, inputs=64, quality_inputs=10) -> Workload:
    def pipeline(seed):
        return rulemix.cli.energy_pipeline(seed, restarts=restarts)

    return _pipeline_workload("energy", pipeline, compactness_misses, inputs, quality_inputs)


def xor_workload(n=1000, restarts=10, inputs=8, quality_inputs=2) -> Workload:
    def pipeline(seed):
        return rulemix.cli.synthetic_pipeline(seed, restarts=restarts, n=n)

    return _pipeline_workload("xor-1k", pipeline, quadrant_misses, inputs, quality_inputs)


@dataclass(frozen=True)
class CliState:
    seed: int
    workdir: Path  # holds atm.csv, train.csv and test.csv
    target: str


def _quiet_run(argv) -> int:
    """``rulemix.cli.run`` with its stdout chatter (``synth`` prints a line)
    kept off the benchmark's own stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return rulemix.cli.run(argv)


def _cli_op(restarts, check, atm_args=()):
    """The step-wise CLI run: train-atm, simplify, evaluate, baseline --test."""

    def op(state):
        w, s = state.workdir, str(state.seed)
        steps = {
            "train-atm": ["--train", w / "atm.csv", "--seed", s, *atm_args, "--out", w / "model.json"],
            "simplify": ["--model", w / "model.json", "--train", w / "train.csv",
                         "--restarts", str(restarts), "--seed", s, "--out", w / "simplify.json"],
            "evaluate": ["--model", w / "model.json", "--test", w / "test.csv",
                         "--out", w / "evaluate.json"],
            "baseline": ["--train", w / "train.csv", "--test", w / "test.csv", "--seed", s,
                         "--out", w / "baseline.json"],
        }
        codes = {}
        for command, args in steps.items():
            codes[command] = _quiet_run([command, "--target", state.target, *map(str, args)])
        failed = [f"{c} exited {rc}" for c, rc in codes.items() if rc != 0]
        if failed:
            return Outcome({"exit_codes": codes}, {}, failed)

        docs = {c: json.loads((w / f"{c}.json").read_text()) for c in ("simplify", "evaluate", "baseline")}
        model_text = (w / "model.json").read_bytes()
        report = {"exit_codes": codes, "model_sha256": hashlib.sha256(model_text).hexdigest(), **docs}
        fit = docs["simplify"]["fit"]
        best = fit["restarts"][fit["best_restart"]]
        quality = {
            "fidelity_mse": docs["simplify"]["train_mse_vs_atm"],
            "objective_per_row": best["objective_trace"][-1] / docs["simplify"]["counts"]["n_train"],
            # reported, never checked: the refit CART tree is a known defect on XOR
            "baseline_test_mse": docs["baseline"]["test_mse"],
            "atm_test_mse": docs["evaluate"]["test_mse"],
        }
        rules = docs["simplify"]["rules"]
        return Outcome(report, quality, rule_set_errors(rules), check(docs))

    return op


def cli_energy_workload(restarts=1, inputs=64, quality_inputs=24) -> Workload:
    def setup(seed, workdir):
        states = []
        for j in range(inputs):
            s = input_seed(seed, j)
            folder = workdir / f"input-{s}"
            folder.mkdir(parents=True, exist_ok=True)
            # the stand-in table and 40/30/30 split of energy_pipeline(s)
            parts = split3(gen_energy_like(seed=s), (0.4, 0.3, 0.3), s)
            for split, part in zip(("atm", "train", "test"), parts):
                write_csv(part, folder / f"{split}.csv", ENERGY_TARGET)
            states.append(CliState(s, folder, ENERGY_TARGET))
        return states

    def check(docs):
        return compactness_misses(docs["simplify"]["rules"])

    # energy_pipeline grows its ensemble with leaves of at least 10 rows.  One
    # EM restart, as in cli-10k, keeps the op short and the CLI's own layers a
    # large share of it.
    op = _cli_op(restarts, check, atm_args=("--min-samples-leaf", "10"))
    return Workload("cli-energy", setup, op, quality_inputs)


def cli_xor_workload(n=10_000, restarts=1) -> Workload:
    def setup(seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        for offset, split in enumerate(("atm", "train", "test")):
            path = workdir / f"{split}.csv"
            argv = ["synth", "--n", str(n), "--seed", str(seed + offset), "--out", str(path)]
            if _quiet_run(argv) != 0:
                raise RuntimeError(f"synth failed for {path}")
        return [CliState(seed, workdir, "y")]

    def check(docs):
        misses = quadrant_misses(docs["simplify"]["rules"])
        if not docs["evaluate"]["test_mse"] <= 0.02:
            misses.append(f"evaluate test MSE {docs['evaluate']['test_mse']:.4f} above 0.02")
        return misses

    return Workload("cli-10k", setup, _cli_op(restarts, check), quality_inputs=1)


# energy and cli-energy are the workloads of BENCHMARK.json.  xor-1k and
# cli-10k stay runnable for their traced numbers; NOTES.md says why they are
# not in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (energy_workload(), cli_energy_workload(), xor_workload(), cli_xor_workload())
}

# Tiny versions of the same workloads for the benchmark's own tests.
SMOKE = {
    w.name: w
    for w in (
        energy_workload(restarts=2, inputs=2, quality_inputs=1),
        cli_energy_workload(restarts=2, inputs=2, quality_inputs=1),
        xor_workload(n=600, restarts=2, inputs=2, quality_inputs=1),
        cli_xor_workload(n=600, restarts=2),
    )
}


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
