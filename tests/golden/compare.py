"""Same-rules comparison of two rulemix outputs, for a change that moves a fit's floats.

``tests/test_golden.py`` holds the committed outputs to their bytes.  A change
to the EM's float path (a new summation order, another gate step schedule)
cannot keep them, so this module states what "the same rules" means instead.
Two JSON outputs of the same command have the same rules when:

- their rule sets are equal up to component order, each component's
  intervals, ``share``, ``degenerate`` and ``catch_all`` exactly, its ``mu``
  within ``MU_RTOL``;
- their final EM objectives (``em_fit.final_objective`` of a ``reproduce``
  report, the best restart's last ``objective_trace`` entry of a
  ``simplify`` report) agree within ``OBJECTIVE_ATOL_PER_ROW`` nats per
  training row;
- the errors that depend on the mixture (the ``model_i_*`` entries of
  ``errors`` and ``simplify``'s ``train_mse_vs_atm``) agree within
  ``ERROR_RTOL``: the gate weights can move a hard prediction while the
  printed rules stay the same;
- everything else is equal, apart from ``wall_time_s`` and the fit's own
  path (the rest of ``em_fit`` and ``fit``: iterations, gate step counts,
  gradient norms, which restart won).

Compare two files, or the same-named ``*.json`` files of two directories,
and print one line per pair::

    PYTHONPATH=src python tests/golden/compare.py OLD NEW

It exits 1 when any pair differs.  The tolerances are checks: widening one
is a check change and goes in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MU_RTOL = 1e-6
OBJECTIVE_ATOL_PER_ROW = 1e-4
ERROR_RTOL = 0.05

_MIXTURE_ERRORS = ("model_i_test_mse", "model_i_test_mse_soft", "model_i_vs_atm_mse")


def _rule_key(component: dict) -> str:
    """Everything of a component that must match exactly, as one sortable key."""
    return json.dumps({k: v for k, v in component.items() if k != "mu"}, sort_keys=True)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _final_objective(doc: dict) -> float | None:
    if "em_fit" in doc:
        return doc["em_fit"]["final_objective"]
    if "fit" in doc:
        fit = doc["fit"]
        return fit["restarts"][fit["best_restart"]]["objective_trace"][-1]
    return None


def compare(old: dict, new: dict) -> tuple[list[str], dict]:
    """The differences that keep two outputs of one command from having the
    same rules (none when they have them), and the largest deltas seen:
    ``mu_rel``, ``objective_per_row`` and ``error_rel``."""
    old, new = dict(old), dict(new)
    diffs: list[str] = []
    deltas = {"mu_rel": 0.0, "objective_per_row": 0.0, "error_rel": 0.0}

    old_rules, new_rules = old.pop("rules", None), new.pop("rules", None)
    if (old_rules is None) != (new_rules is None):
        diffs.append("only one output has rules")
    elif old_rules is not None:
        a = sorted(old_rules["components"], key=lambda c: (_rule_key(c), c["mu"]))
        b = sorted(new_rules["components"], key=lambda c: (_rule_key(c), c["mu"]))
        if [_rule_key(c) for c in a] != [_rule_key(c) for c in b]:
            diffs.append("rule sets differ (intervals, share or flags)")
        else:
            for ca, cb in zip(a, b):
                deltas["mu_rel"] = max(deltas["mu_rel"], _rel(ca["mu"], cb["mu"]))
            if deltas["mu_rel"] > MU_RTOL:
                diffs.append(f"mu moved by {deltas['mu_rel']:.2g} relative (tolerance {MU_RTOL:g})")

    ja, jb = _final_objective(old), _final_objective(new)
    if (ja is None) != (jb is None):
        diffs.append("only one output has a final objective")
    elif ja is not None:
        rows = old["counts"]["n_train"]
        deltas["objective_per_row"] = abs(ja - jb) / rows
        if not deltas["objective_per_row"] <= OBJECTIVE_ATOL_PER_ROW:
            diffs.append(
                f"final objective moved by {deltas['objective_per_row']:.2g} nats/row"
                f" (tolerance {OBJECTIVE_ATOL_PER_ROW:g})"
            )

    pairs = []
    if "errors" in old and "errors" in new:
        old["errors"], new["errors"] = dict(old["errors"]), dict(new["errors"])
        pairs += [(f"errors.{k}", old["errors"].pop(k, None), new["errors"].pop(k, None))
                  for k in _MIXTURE_ERRORS]
    pairs.append(("train_mse_vs_atm", old.pop("train_mse_vs_atm", None), new.pop("train_mse_vs_atm", None)))
    for name, a, b in pairs:
        if a is None and b is None:
            continue
        if a is None or b is None:
            diffs.append(f"{name} present in only one output")
            continue
        deltas["error_rel"] = max(deltas["error_rel"], _rel(a, b))
        if _rel(a, b) > ERROR_RTOL:
            diffs.append(f"{name} moved by {_rel(a, b):.2g} relative (tolerance {ERROR_RTOL:g})")

    for doc in (old, new):
        for key in ("wall_time_s", "em_fit", "fit"):
            doc.pop(key, None)
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            diffs.append(f"{key} differs")
    return diffs, deltas


def _pairs(old: Path, new: Path):
    if old.is_dir():
        for path in sorted(old.glob("*.json")):
            yield path.name, path, new / path.name
    else:
        yield old.name, old, new


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py OLD NEW (two JSON files or two directories)", file=sys.stderr)
        return 2
    failed = 0
    print(f"{'output':<32} {'verdict':<11} {'mu rel':>8} {'obj/row':>8} {'err rel':>8}")
    for name, a, b in _pairs(Path(argv[0]), Path(argv[1])):
        if not b.is_file():
            print(f"{name:<32} missing in {argv[1]}")
            failed += 1
            continue
        old, new = json.loads(a.read_text()), json.loads(b.read_text())
        diffs, d = compare(old, new)
        for doc in (old, new):
            doc.pop("wall_time_s", None)
        verdict = "differs" if diffs else "identical" if old == new else "same rules"
        failed += bool(diffs)
        print(f"{name:<32} {verdict:<11} {d['mu_rel']:8.1e} {d['objective_per_row']:8.1e}"
              f" {d['error_rel']:8.1e}")
        for diff in diffs:
            print(f"    {diff}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
