"""Tests of the benchmark itself, on its tiny smoke workloads.

    python3 -m pytest -q bench
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import env

env.prepare()

import rulemix.cli  # noqa: E402
import rulemix.em  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rulemix.ensemble import TreeEnsemble  # noqa: E402

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(*args, cwd=env.ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.SMOKE))
def test_every_listed_metric_is_printed_with_its_unit(workload, trace):
    done = run_bench("--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["attempted"] >= 1
    if workload in {w["name"] for w in SPEC["workloads"]}:
        assert result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert workloads.is_number(printed["value"]), (m["name"], printed)


def test_wrappers_restore_the_originals():
    points = [(owner, attr) for owner, attr, _, _ in tracing.TRACE_POINTS]
    before = [vars(owner)[attr] for owner, attr in points]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert rulemix.em.gate_objective is not before[points.index((rulemix.em, "gate_objective"))]
            raise RuntimeError("op failed")
    assert [vars(owner)[attr] for owner, attr in points] == before
    assert TreeEnsemble.predict_batch is before[points.index((TreeEnsemble, "predict_batch"))]
    assert rulemix.cli.fit_gbt.__module__ == "rulemix.trainer"


def traced_metrics(workload, state):
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer, tracer.span("cli.op") as root:
        workload.op(state)
    return tracing.op_metrics(tracer.spans, root)


def test_exact_counts_repeat_and_self_times_add_up():
    workload = workloads.SMOKE["xor-1k"]
    state = workload.setup(0, None)[0]
    first, second = traced_metrics(workload, state), traced_metrics(workload, state)
    for name in tracing.EXACT_COUNTS:
        assert first[name] == second[name], name
    assert first["em.gate_iters"] > 0 and first["trainer.grow_tree_calls"] > 0
    assert first["baseline.cv_passes"] == 1
    layer_sum = sum(first[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_sum == pytest.approx(first["run.traced_pipeline_s"], abs=1e-6)


def quadrant_rules():
    def rule(mu, x1, x2):
        sides = {"low": (None, 0.5), "high": (0.5, None)}
        intervals = [
            {"feature": d, "name": f"x_{d + 1}", "lower": sides[s][0], "upper": sides[s][1]}
            for d, s in enumerate((x1, x2))
        ]
        return {"mu": mu, "share": 0.25, "intervals": intervals, "degenerate": False,
                "catch_all": False}

    return {"components": [rule(0.0, "low", "low"), rule(1.0, "low", "high"),
                           rule(1.0, "high", "low"), rule(0.0, "high", "high")]}


def test_output_check_flags_a_wrong_rule_set():
    good = quadrant_rules()
    assert workloads.quadrant_misses(good) == []

    swapped = copy.deepcopy(good)
    swapped["components"][0]["mu"], swapped["components"][1]["mu"] = 1.0, 0.0
    assert workloads.quadrant_misses(swapped)

    off_centre = copy.deepcopy(good)
    off_centre["components"][2]["intervals"][0]["lower"] = 0.3
    assert workloads.quadrant_misses(off_centre)

    duplicated = copy.deepcopy(good)
    duplicated["components"][3] = copy.deepcopy(duplicated["components"][0])
    assert workloads.quadrant_misses(duplicated)

    edge = copy.deepcopy(good)
    edge["components"][0]["intervals"][0]["lower"] = 0.02
    assert workloads.quadrant_misses(edge) == []
    edge["components"][0]["intervals"][0]["lower"] = 0.2
    assert workloads.quadrant_misses(edge)


def test_rule_set_invariants_flag_a_malformed_rule_set():
    good = quadrant_rules()
    assert workloads.rule_set_errors(good) == []

    short = copy.deepcopy(good)
    del short["components"][3]
    assert workloads.rule_set_errors(short)

    shares = copy.deepcopy(good)
    shares["components"][0]["share"] = 0.5
    assert workloads.rule_set_errors(shares)

    empty = copy.deepcopy(good)
    empty["components"][1]["intervals"][0].update(lower=0.6, upper=0.4)
    assert workloads.rule_set_errors(empty)
    empty["components"][1]["degenerate"] = True
    assert workloads.rule_set_errors(empty) == []


def test_compactness_check_flags_a_wrong_rule_set():
    def rule(mu, lower, upper):
        iv = {"feature": 0, "name": "Relative Compactness", "lower": lower, "upper": upper}
        return {"mu": mu, "share": 0.5, "intervals": [iv], "degenerate": False, "catch_all": False}

    good = {"components": [rule(30.0, 0.75, None), rule(12.0, None, 0.75)]}
    assert workloads.compactness_misses(good) == []
    inverted = {"components": [rule(12.0, 0.75, None), rule(30.0, None, 0.75)]}
    assert workloads.compactness_misses(inverted)


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(env.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "xor-1k", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
