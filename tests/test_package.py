import importlib.util
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

from conftest import src_env

import rulemix
import rulemix.cli
from rulemix.cli import energy_pipeline, run

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    # Loaded read-only from its file; the benchmark package is not imported.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_export_resolves():
    missing = [name for name in rulemix.__all__ if not hasattr(rulemix, name)]
    assert missing == []


def test_trace_points_name_existing_attributes():
    # The benchmark tracer installs its wrappers through vars(owner)[attr], so
    # deleting or renaming a traced name breaks traced runs with a KeyError.
    tracing = load_tracing()
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in tracing.TRACE_POINTS
        if attr not in vars(owner)
    ]
    assert missing == []


def test_pipeline_stages_hit_their_trace_points():
    # A stage called through a binding the tracer does not wrap (for example
    # a step moved out of rulemix.cli) would record no span and silently zero
    # its per-layer benchmark metrics.
    with load_tracing().Tracer() as tracer:
        energy_pipeline(0, restarts=1)
    spans = Counter(span.name for span in tracer.spans)
    for name in (
        "binarizer.extract_splits",
        "binarizer.build_dataset",
        "em.fit",
        "mixture.extract_rules",
        "baseline.fit_cart",
    ):
        assert spans[name] >= 1, name
    assert spans["baseline.cv_mse_by_depth"] == 1


def test_op_metrics_read_every_layer_off_a_traced_pipeline():
    # op_metrics reads n_leaves off fit_cart's result, .bits off
    # build_dataset's and the restarts off em.fit's FitReport: a result that
    # loses one of them fails here, not only in a traced benchmark run.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer, tracer.span("cli.op") as root:
        report, _ = energy_pipeline(0, restarts=1)
    m = tracing.op_metrics(tracer.spans, root)
    spec = json.loads((TRACING.parents[1] / "BENCHMARK.json").read_text())
    per_layer = {e["name"] for e in spec["per_layer"] if e["name"].split(".")[0] in tracing.LAYERS}
    assert per_layer - set(m) == set()
    assert all(math.isfinite(m[name]) for name in per_layer)
    assert m["baseline.leaves"] == report["counts"]["baseline_leaves"]
    assert m["binarizer.bits"] == report["counts"]["split_rules"]
    assert m["em.restarts"] == 1 and m["baseline.cv_passes"] == 1


def cli_steps(folder):
    """One argv per command the benchmark's CLI workloads run, on small data
    kept in ``folder``."""
    data, model = folder / "d.csv", folder / "m.json"
    return [
        ["synth", "--n", "120", "--seed", "1", "--out", str(data)],
        ["train-atm", "--train", str(data), "--trees", "5", "--out", str(model)],
        ["simplify", "--model", str(model), "--train", str(data), "--k", "2", "--restarts", "1",
         "--out", str(folder / "s.json")],
        ["evaluate", "--model", str(model), "--test", str(data), "--out", str(folder / "e.json")],
        ["baseline", "--train", str(data), "--test", str(data), "--max-depth", "3",
         "--out", str(folder / "b.json")],
    ]


def test_cli_commands_hit_their_trace_points(tmp_path, capsys):
    # The parser is built by the first run() of the process, before the
    # tracer wraps rulemix.cli.cmd_*; a parser that bound the command
    # functions then would run the unwrapped ones and record no span.
    steps = cli_steps(tmp_path)
    assert run(steps[0]) == 0
    with load_tracing().Tracer() as tracer:
        for _ in range(2):
            for argv in steps:
                assert run(argv) == 0, argv
    capsys.readouterr()
    spans = Counter(span.name for span in tracer.spans if span.name.startswith("cli."))
    commands = ("synth", "train_atm", "simplify", "evaluate", "baseline")
    assert spans == {f"cli.cmd_{c}": 2 for c in commands}


def test_run_dispatches_to_the_command_function_of_the_call(monkeypatch, tmp_path, capsys):
    steps = cli_steps(tmp_path)
    assert run(steps[0]) == 0 and run(steps[1]) == 0
    calls = []

    def patched(args):
        calls.append(args)
        return 7

    monkeypatch.setattr(rulemix.cli, "cmd_evaluate", patched)
    assert run(steps[3]) == 7
    assert [(a.command, a.model) for a in calls] == [("evaluate", steps[3][2])]
    capsys.readouterr()


def test_cli_import_loads_no_scipy_or_test_modules():
    # pyproject.toml lists only numpy: scipy, hypothesis and pytest serve the
    # tests and the benchmark, so a fresh interpreter must not load them.
    code = (
        "import sys, rulemix.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
