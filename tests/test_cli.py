import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import constant_tree, src_env, stump

import rulemix
import rulemix.baseline
import rulemix.cli
import rulemix.em
from rulemix.baseline import CartConfig, cv_mse_by_depth
from rulemix.cli import build_parser, energy_pipeline, run
from rulemix.data import (
    ENERGY_FEATURES,
    ENERGY_TARGET,
    LabeledDataset,
    gen_energy_like,
    gen_xor,
    load_csv,
    write_csv,
)
from rulemix.ensemble import TreeEnsemble
from rulemix.trainer import serialize_ensemble


@pytest.fixture
def xor_csv(tmp_path):
    path = tmp_path / "train.csv"
    write_csv(gen_xor(200, seed=1), path, "y")
    return path


def test_synth_writes_csv(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run(["synth", "--n", "1000", "--seed", "7", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x_1,x_2,y"
    assert len(lines) == 1001


def test_simplify_missing_model_exits_one(tmp_path, capsys, xor_csv):
    code = run(
        ["simplify", "--model", str(tmp_path / "m.json"), "--train", str(xor_csv), "--k", "4"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "m.json" in err


def test_report_independent_of_blas_threads():
    argv = [sys.executable, "-m", "rulemix.cli", "reproduce", "energy", "--seed", "0", "--restarts", "2"]
    reports = []
    for threads in ("1", "2"):
        blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
        done = subprocess.run(argv, env=src_env(**blas), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        del report["wall_time_s"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_every_subcommand_help_exits_zero(capsys):
    parser = build_parser()
    for name in ("synth", "train-atm", "simplify", "baseline", "evaluate", "reproduce"):
        assert run([name, "--help"]) == 0
        assert name in capsys.readouterr().out
    assert run(["--help"]) == 0


def test_unknown_flag_and_subcommand_exit_two(capsys):
    assert run(["synth", "--bogus", "1"]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["reproduce", "synthetic", "--intercept", "on"]) == 2  # the gate always has one
    capsys.readouterr()


def test_readme_cli_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")  # a trailing backslash continues a command
    lines = [line for line in joined.splitlines() if line.startswith("rulemix ")]
    assert len(lines) == 7
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_train_evaluate_round_trip(tmp_path, capsys, xor_csv):
    model_path = tmp_path / "model.json"
    test_path = tmp_path / "test.csv"
    write_csv(gen_xor(150, seed=2), test_path, "y")
    assert (
        run(
            [
                "train-atm",
                "--train",
                str(xor_csv),
                "--trees",
                "30",
                "--depth",
                "3",
                "--out",
                str(model_path),
            ]
        )
        == 0
    )
    assert run(["evaluate", "--model", str(model_path), "--test", str(test_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_test"] == 150
    assert 0.0 < report["test_mse"] < 0.1


def test_simplify_end_to_end(tmp_path, capsys, xor_csv):
    model_path = tmp_path / "model.json"
    rules_path = tmp_path / "rules.json"
    run(["train-atm", "--train", str(xor_csv), "--trees", "20", "--out", str(model_path)])
    capsys.readouterr()
    code = run(
        [
            "simplify",
            "--model",
            str(model_path),
            "--train",
            str(xor_csv),
            "--k",
            "4",
            "--restarts",
            "3",
            "--seed",
            "0",
            "--out",
            str(rules_path),
        ]
    )
    assert code == 0
    doc = json.loads(rules_path.read_text())
    assert len(doc["rules"]["components"]) == 4
    assert doc["counts"]["split_rules"] > 0
    assert doc["fit"]["best_restart"] in range(3)
    assert doc["warnings"] == []


@pytest.mark.parametrize(
    "tree, k, patterns",
    [(stump(0), 4, 2), (constant_tree(1.5), 3, 1)],
    ids=["one-stump-k4", "constant-k3"],
)
def test_simplify_warns_on_degenerate_fit(tmp_path, capsys, xor_csv, tree, k, patterns):
    # Fewer distinct bit patterns than components (a constant tree has an
    # empty schema, hence one pattern): the spare components repeat a rule.
    model_path = tmp_path / "model.json"
    model_path.write_text(serialize_ensemble(TreeEnsemble((tree,), np.ones(1), 2)))
    args = ["simplify", "--model", str(model_path), "--train", str(xor_csv), "--k", str(k)]
    assert run(args + ["--restarts", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["warnings"] == [
        f"K={k} but {patterns} distinct bit pattern(s): spare components repeat a rule"
    ]
    assert len(doc["rules"]["components"]) == k


def test_baseline_command(tmp_path, capsys, xor_csv):
    test_path = tmp_path / "test.csv"
    write_csv(gen_xor(150, seed=3), test_path, "y")
    code = run(
        [
            "baseline",
            "--train",
            str(xor_csv),
            "--test",
            str(test_path),
            "--max-depth",
            "4",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["leaves"] >= 1
    assert report["test_mse"] > 0.0
    assert set(report["cv_mse_by_depth"]) == {"2", "3", "4"}


@pytest.fixture
def cv_calls(monkeypatch):
    # Counts cross-validation passes made through either module's binding.
    calls = []
    for module in (rulemix.cli, rulemix.baseline):
        def counted(*args, _module=module, _original=module.cv_mse_by_depth, **kwargs):
            calls.append(_module.__name__)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "cv_mse_by_depth", counted)
    return calls


def test_baseline_cross_validates_once(capsys, xor_csv, cv_calls):
    assert run(["baseline", "--train", str(xor_csv), "--max-depth", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(cv_calls) == 1
    direct = cv_mse_by_depth(load_csv(xor_csv, "y"), CartConfig((2, 3, 4)))
    assert report["cv_mse_by_depth"] == {str(d): v for d, v in direct.items()}


def test_pipeline_cross_validates_once(cv_calls):
    report, _ = energy_pipeline(0, restarts=1)
    assert len(cv_calls) == 1
    assert report["warnings"] == []


def test_pipeline_reports_gate_summary(gate_gradient_norms):
    report, _ = energy_pipeline(0, restarts=2)
    assert sorted(gate_gradient_norms) == [0, 1]
    steps = [s for per_restart in gate_gradient_norms.values() for s in per_restart]
    iters = [len(s) for s in steps]
    assert report["em_fit"]["gate_cap_share"] == iters.count(50) / len(iters)
    assert report["em_fit"]["gate_max_final_grad_norm"] == max(s[-1] for s in steps)


@pytest.mark.parametrize("command", ["simplify", "evaluate", "baseline"])
def test_feature_columns_must_match_model(monkeypatch, tmp_path, capsys, xor_csv, command):
    model_path = tmp_path / "model.json"
    run(["train-atm", "--train", str(xor_csv), "--trees", "10", "--out", str(model_path)])

    def no_cv(*args, **kwargs):
        raise AssertionError("cross-validated before the CSV columns were checked")

    monkeypatch.setattr(rulemix.cli, "cv_mse_by_depth", no_cv)
    data = load_csv(xor_csv, "y")
    swapped = tmp_path / "swapped.csv"
    write_csv(LabeledDataset(data.xs[:, ::-1], data.ys, ("x_2", "x_1")), swapped, "y")
    one_column = tmp_path / "one_column.csv"
    write_csv(LabeledDataset(data.xs[:, :1], data.ys, ("x_1",)), one_column, "y")
    capsys.readouterr()
    cases = (
        (swapped, "feature column 1 is 'x_2', expected 'x_1'"),
        (one_column, "feature column 2 is None, expected 'x_2'"),
    )
    for path, message in cases:
        if command == "baseline":  # the test CSV must have the train CSV's columns
            argv = ["baseline", "--train", str(xor_csv), "--test", str(path)]
        else:
            csv_flag = "--train" if command == "simplify" else "--test"
            argv = [command, "--model", str(model_path), csv_flag, str(path)]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("command", ["simplify", "reproduce"])
def test_tau_checked_before_fit(monkeypatch, tmp_path, capsys, xor_csv, command):
    if command == "simplify":
        model_path = tmp_path / "model.json"
        run(["train-atm", "--train", str(xor_csv), "--trees", "2", "--out", str(model_path)])
        argv = ["simplify", "--model", str(model_path), "--train", str(xor_csv)]
    else:
        argv = ["reproduce", "energy", "--restarts", "1"]

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted before tau was checked")

    monkeypatch.setattr(rulemix.em, "fit", no_fit)
    monkeypatch.setattr(rulemix.cli, "fit_gbt", no_fit)
    capsys.readouterr()
    assert run(argv + ["--tau", "0.7"]) == 1
    assert capsys.readouterr().err == "error: tau must lie in (0, 0.5)\n"


@pytest.mark.parametrize("task, rows", [("synthetic", 1000), ("energy", 230)])
def test_k_checked_before_fit(monkeypatch, capsys, task, rows):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_gbt reached")

    monkeypatch.setattr(rulemix.cli, "fit_gbt", no_fit)
    capsys.readouterr()
    argv = ["reproduce", task, "--restarts", "1", "--k"]
    assert run(argv + [str(rows + 1)]) == 1
    assert capsys.readouterr().err == "error: need at least one row per component\n"
    assert run(argv + [str(rows)]) == 1  # one row per component passes the check
    assert capsys.readouterr().err == "error: fit_gbt reached\n"


@pytest.mark.parametrize("command", ["train-atm", "simplify", "evaluate", "baseline"])
def test_csv_without_feature_column_exits_one(tmp_path, capsys, xor_csv, command):
    model_path = tmp_path / "model.json"
    run(["train-atm", "--train", str(xor_csv), "--trees", "2", "--out", str(model_path)])
    path = tmp_path / "target_only.csv"
    path.write_text("y\n1.0\n0.0\n")
    argv = [command, "--test" if command == "evaluate" else "--train", str(path)]
    if command in ("simplify", "evaluate"):
        argv += ["--model", str(model_path)]
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: no feature column besides the target 'y'\n"


def test_energy_data_header_checked(tmp_path, capsys):
    full = gen_energy_like(seed=0)
    good = tmp_path / "energy.csv"
    write_csv(full, good, ENERGY_TARGET)
    report, _ = energy_pipeline(0, data_path=good, restarts=1)
    stand_in, _ = energy_pipeline(0, restarts=1)
    for r in (report, stand_in):
        del r["dataset"], r["wall_time_s"]
    assert report == stand_in

    cooling = tmp_path / "cooling.csv"
    names = ENERGY_FEATURES + ("Cooling Load",)
    with_cooling = LabeledDataset(np.column_stack([full.xs, full.ys]), full.ys, names)
    write_csv(with_cooling, cooling, ENERGY_TARGET)
    assert run(["reproduce", "energy", "--data", str(cooling), "--restarts", "1"]) == 1
    message = "feature column 9 is 'Cooling Load', expected None"
    assert capsys.readouterr().err == f"error: {cooling}: {message}\n"


def test_bad_target_column_exits_one(tmp_path, capsys, xor_csv):
    code = run(
        ["baseline", "--train", str(xor_csv), "--target", "nope"]
    )
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_non_finite_cell_exits_one(tmp_path, capsys):
    path = tmp_path / "train.csv"
    path.write_text("x_1,x_2,y\n0.1,0.2,1.0\n0.3,nan,0.0\n")
    assert run(["train-atm", "--train", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "row 2, column 'x_2': non-finite cell 'nan'" in err


def test_negative_noise_level_named(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run(["synth", "--noise-sd", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: noise_sd must be a finite number >= 0, got -1.0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "simplify"])
def test_model_read_errors_name_the_file(tmp_path, capsys, xor_csv, command):
    csv_flag = "--train" if command == "simplify" else "--test"
    not_json = tmp_path / "object.json"
    not_json.write_text("[]\n")
    cases = (
        (xor_csv, "malformed JSON: Expecting value: line 1 column 1 (char 0)"),
        (not_json, "top level must be an object"),
    )
    for path, message in cases:
        assert run([command, "--model", str(path), csv_flag, str(xor_csv)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
