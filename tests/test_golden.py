"""Committed CLI outputs, compared byte for byte apart from ``wall_time_s``,
and the same-rules comparator a fit-changing PR uses instead.

The files under ``tests/golden/`` come from ``tests/golden/regen.py``; a
change that should keep every fit byte-identical must leave them equal.
"""

import copy
import json

import pytest

from golden.compare import MU_RTOL, OBJECTIVE_ATOL_PER_ROW, compare
from golden.regen import CASES, GOLDEN_DIR, produce, without_wall_time


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_equals_golden_bytes(name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert without_wall_time(produce(name)) == without_wall_time(expected)


def test_wall_time_is_the_only_ignored_field():
    text = '{\n  "a": 1.5,\n  "wall_time_s": 0.25\n}\n'
    assert without_wall_time(text) == '{\n  "a": 1.5,\n  "wall_time_s": <ignored>\n}\n'
    assert without_wall_time('{"a": 1.5}') == '{"a": 1.5}'


@pytest.fixture
def report():
    return json.loads((GOLDEN_DIR / "energy_seed0_r2.json").read_text(encoding="utf-8"))


def bounded_interval(components):
    """The first interval with a finite lower bound."""
    return next(iv for c in components for iv in c["intervals"] if iv["lower"] is not None)


def test_compare_accepts_permuted_components_and_small_float_moves(report):
    other = copy.deepcopy(report)
    other["rules"]["components"].reverse()
    other["rules"]["components"][0]["mu"] *= 1 + MU_RTOL / 2
    other["em_fit"]["final_objective"] -= OBJECTIVE_ATOL_PER_ROW / 2 * report["counts"]["n_train"]
    other["em_fit"]["iterations"] += 1
    other["errors"]["model_i_test_mse"] *= 1.001
    other["wall_time_s"] = 0.0
    assert len(report["rules"]["components"]) > 1
    assert compare(report, other)[0] == []
    assert compare(report, report) == ([], {"mu_rel": 0.0, "objective_per_row": 0.0, "error_rel": 0.0})


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda r: bounded_interval(r["rules"]["components"]).update(lower=-1.0), "rule sets differ"),
        (lambda r: r["rules"]["components"][0].update(share=0.5), "rule sets differ"),
        (lambda r: r["rules"]["components"][0].update(mu=r["rules"]["components"][0]["mu"] + 1.0), "mu moved"),
        (lambda r: r["em_fit"].update(final_objective=r["em_fit"]["final_objective"] - 1.0), "final objective"),
        (lambda r: r["errors"].update(model_i_test_mse=2 * r["errors"]["model_i_test_mse"]), "model_i_test_mse"),
        (lambda r: r["errors"].update(baseline_test_mse=1.0), "errors differs"),
        (lambda r: r["counts"].update(region_count=1), "counts differs"),
    ],
    ids=["interval-bound", "share", "mu", "objective", "mixture-error", "baseline-error", "counts"],
)
def test_compare_rejects(report, change, message):
    other = copy.deepcopy(report)
    change(other)
    diffs, _ = compare(report, other)
    assert len(diffs) == 1 and message in diffs[0]
