import argparse
import contextlib
import csv
import dataclasses
import inspect
import io
import itertools
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import constant_tree, ensemble_of, src_env, stump
from golden.compare import MU_RTOL, OBJECTIVE_ATOL_PER_ROW, _rule_key
from hypothesis import event, given, settings
from hypothesis import strategies as st

import rulemix
import rulemix.baseline
import rulemix.cli
import rulemix.em
from rulemix.baseline import CartConfig, cv_mse_by_depth
from rulemix.cli import build_parser, energy_pipeline, run, synthetic_pipeline
from rulemix.data import (
    ENERGY_FEATURES,
    ENERGY_TARGET,
    LabeledDataset,
    gen_energy_like,
    gen_xor,
    load_csv,
    split3,
    write_csv,
)
from rulemix.mixture import rules_to_json_dict
from rulemix.trainer import GbtConfig, fit_gbt, serialize_ensemble


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
    assert run(["synth", "--help", "-1e-3"]) == 0  # --help takes no value, negative or not
    capsys.readouterr()


def test_unknown_flag_and_subcommand_exit_two(capsys):
    assert run(["synth", "--bogus", "1"]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["reproduce", "synthetic", "--intercept", "on"]) == 2  # the gate always has one
    capsys.readouterr()
    for argv in (["synth", "--out", "d.csv", "--noise-sd"], ["synth", "--noise-sd", "--out", "-1e-3"]):
        assert run(argv) == 2  # a flag with no value, also when a negative follows the next flag
        assert capsys.readouterr().err.endswith("error: argument --noise-sd: expected one argument\n")


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
    # empty schema, hence one pattern): the argmax gate gives each pattern
    # to one component, so at least K - patterns components get share 0.
    model_path = tmp_path / "model.json"
    model_path.write_text(serialize_ensemble(ensemble_of((tree,), np.ones(1), 2)))
    args = ["simplify", "--model", str(model_path), "--train", str(xor_csv), "--k", str(k)]
    assert run(args + ["--restarts", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["warnings"] == [
        f"K={k} but {patterns} distinct bit pattern(s): "
        f"the gate gives each to one component, so at least {k - patterns} get share 0"
    ]
    assert sorted(c["share"] for c in doc["rules"]["components"])[: k - patterns] == [0.0] * (k - patterns)
    assert len(doc["rules"]["components"]) == k


def test_simplify_with_more_components_than_bit_patterns_exits_cleanly(tmp_path, capsys):
    # five rows on the two sides of one split: with K = 3 a component dies
    # in most restarts and is revived, and every seed's fit finishes
    train = tmp_path / "train.csv"
    train.write_text("x,y\n0.2,-10\n0.8,10\n0.2,-10\n0.8,10\n0.8,10\n")
    model = tmp_path / "model.json"
    model.write_text(serialize_ensemble(ensemble_of((stump(0, 0.5, -10.0, 10.0),), np.ones(1), 1)))
    for seed in range(10):
        args = ["simplify", "--model", str(model), "--train", str(train), "--k", "3", "--seed", str(seed)]
        assert run(args + ["--restarts", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["warnings"] == [
            "K=3 but 2 distinct bit pattern(s): the gate gives each to one component, so at least 1 get share 0"
        ]


def test_fit_rules_warns_when_an_eta_sits_on_tau():
    # an eta at tau or 1 - tau prints its bound or not by rounding alone: the
    # warning names the component and the split, and the fit stays as it is
    data = gen_xor(200, seed=1)
    ensemble = fit_gbt(data, GbtConfig(tree_count=10))
    config = rulemix.em.EmConfig(4, restarts=2)
    dataset, model, _, _, warnings = rulemix.cli._fit_rules(ensemble, data.xs, config, 0.05)
    assert warnings == []
    (c, l), (c_hi, l_hi) = (np.argwhere((model.eta > lo) & (model.eta < lo + 0.48))[0] for lo in (0.01, 0.51))
    for tau, (comp, bit) in ((model.eta[c, l], (c, l)), (1.0 - model.eta[c_hi, l_hi], (c_hi, l_hi))):
        _, again, _, _, warnings = rulemix.cli._fit_rules(ensemble, data.xs, config, float(tau))
        assert again.eta.tobytes() == model.eta.tobytes()
        d, b = dataset.schema.rules[bit]
        (line,) = warnings
        assert line.startswith(f"eta within 1e-09 of tau {tau:g} or 1 - tau, so rounding decides")
        assert f"component {comp}: x_{d + 1} >= {b:g} (eta {float(model.eta[comp, bit])!r})" in line


def test_stock_gate_budget_prints_the_rules_of_a_50_step_budget():
    # a gate M-step only has to raise the objective (generalized EM): on the
    # energy stand-in the stock budget prints the rules that a 50-step budget
    # prints, at the same objective
    for seed in range(3):
        d_atm, d_train, _ = split3(gen_energy_like(seed=seed), (0.4, 0.3, 0.3), seed)
        ensemble = fit_gbt(d_atm, GbtConfig(min_samples_leaf=10))
        fits = []
        for config in (rulemix.em.EmConfig(4, seed=seed), rulemix.em.EmConfig(4, seed=seed, gate_max_iters=50)):
            _, _, report, rules, _ = rulemix.cli._fit_rules(ensemble, d_train.xs, config, 0.05)
            components = sorted(rules_to_json_dict(rules)["components"], key=lambda c: (_rule_key(c), c["mu"]))
            best = report.restarts[report.best_restart].objective_trace[-1]
            fits.append(([_rule_key(c) for c in components], [c["mu"] for c in components], best))
        (keys, mus, objective), (keys_50, mus_50, objective_50) = fits
        assert keys == keys_50, seed
        assert mus == pytest.approx(mus_50, rel=MU_RTOL), seed
        assert abs(objective - objective_50) <= OBJECTIVE_ATOL_PER_ROW * len(d_train), seed


@pytest.mark.parametrize("value", [8.1e28, 1e20])
def test_simplify_fits_large_constant_predictions(reader_files, tmp_path, value):
    # every component's mu is the constant itself, not its weighted mean
    # rounded to a neighbouring double, so no restart fails on a spread that
    # the targets do not have
    model, out = tmp_path / "constant.json", tmp_path / "rules.json"
    model.write_text(serialize_ensemble(ensemble_of((constant_tree(value),), np.ones(1), 2, ("x_1", "x_2"))))
    data = reader_files / "data.csv"
    for k, restarts, seed in itertools.product((2, 3, 4), (1, 2, 10), range(5)):
        argv = ["simplify", "--model", str(model), "--train", str(data), "--k", str(k),
                "--restarts", str(restarts), "--seed", str(seed), "--out", str(out)]
        assert run_quietly(argv) == (0, ""), argv
        doc = json.loads(out.read_text())
        assert doc["warnings"] == [
            f"K={k} but 1 distinct bit pattern(s): the gate gives each to one component, so at least {k - 1} get share 0"
        ]
        assert {c["mu"] for c in doc["rules"]["components"]} == {value}
    # a constant whose squares overflow is still refused on one line
    model.write_text(serialize_ensemble(ensemble_of((constant_tree(1e300),), np.ones(1), 2, ("x_1", "x_2"))))
    assert run_quietly(["simplify", "--model", str(model), "--train", str(data), "--k", "2"]) == (
        1, f"error: {model}: predictions on {data}: targets too large: their sum of squares overflows\n"
    )


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
    budget = report["config"]["em"]["gate_max_iters"]
    assert report["em_fit"]["gate_cap_share"] == iters.count(budget) / len(iters)
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
    three_columns = tmp_path / "three_columns.csv"
    write_csv(LabeledDataset(data.xs[:, [0, 1, 0]], data.ys, ("x_1", "x_2", "x_3")), three_columns, "y")
    capsys.readouterr()
    cases = (
        (swapped, "feature column 1 is 'x_2', expected 'x_1'"),
        (one_column, "feature column 2 is missing, expected 'x_2'"),
        (three_columns, "feature column 3 'x_3' is extra, expected 2 feature columns"),
    )
    for path, message in cases:
        if command == "baseline":  # the test CSV must have the train CSV's columns
            argv = ["baseline", "--train", str(xor_csv), "--test", str(path)]
        else:
            csv_flag = "--train" if command == "simplify" else "--test"
            argv = [command, "--model", str(model_path), csv_flag, str(path)]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("command", ["simplify", "evaluate"])
def test_feature_count_must_match_model_without_names(tmp_path, capsys, command):
    model = tmp_path / "model.json"
    model.write_text(serialize_ensemble(ensemble_of((constant_tree(0.5),), np.ones(1), 2)))
    data = tmp_path / "three.csv"
    write_csv(LabeledDataset(np.zeros((2, 3)), np.zeros(2)), data, "y")
    code, err = run_quietly(reader_argv(command, model, data))
    assert code == 1
    assert err == f"error: {data}: 3 feature columns, expected 2\n"


@pytest.mark.parametrize(
    "argv", [["train-atm"], ["baseline", "--folds", "2", "--test", "{csv}"]], ids=["train-atm", "baseline"]
)
@pytest.mark.parametrize(
    "lo, hi", [(1.0, 1.0000000000000002), (1.7e308, 1.75e308)], ids=["adjacent-doubles", "sum-overflows"]
)
def test_split_between_values_without_a_midpoint(tmp_path, capsys, argv, lo, hi):
    data = tmp_path / "d.csv"
    write_csv(LabeledDataset([[lo], [hi], [lo], [hi]], [0.0, 1.0, 0.0, 1.0]), data, "y")
    argv = [a.format(csv=data) for a in argv]
    assert run([*argv, "--train", str(data), "--min-samples-leaf", "1", "--out", str(tmp_path / "o.json")]) == 0
    assert capsys.readouterr().err == ""


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
    assert capsys.readouterr().err == "error: --tau must lie in (0, 0.5)\n"


@pytest.mark.parametrize("task, rows", [("synthetic", 1000), ("energy", 230)])
def test_k_checked_before_fit(monkeypatch, capsys, task, rows):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_gbt reached")

    monkeypatch.setattr(rulemix.cli, "fit_gbt", no_fit)
    capsys.readouterr()
    argv = ["reproduce", task, "--restarts", "1", "--k"]
    assert run(argv + [str(rows + 1)]) == 1
    assert capsys.readouterr().err == f"error: --k must be at most the {rows} training rows, got {rows + 1}\n"
    assert run(argv + [str(rows)]) == 1  # one row per component passes the check
    assert capsys.readouterr().err == "error: fit_gbt reached\n"
    # library callers get the config field's name
    pipeline = getattr(rulemix.cli, f"{task}_pipeline")
    with pytest.raises(ValueError, match=rf"^n_components must be at most the {rows} training rows, got {rows + 1}$"):
        pipeline(0, k=rows + 1, restarts=1)


@pytest.mark.parametrize(
    "rows, k, message",
    [
        (12, 4, "the training split has 4 row(s), need at least one per CART fold (5)"),
        (3, 1, "the ATM split has 1 row(s), need at least 2 to fit the ensemble"),
    ],
    ids=["training-split", "atm-split"],
)
def test_small_energy_csv_refused_before_fit(monkeypatch, tmp_path, capsys, rows, k, message):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_gbt reached")

    full, path = gen_energy_like(seed=0), tmp_path / "energy.csv"
    write_csv(LabeledDataset(full.xs[:rows], full.ys[:rows], full.feature_names), path, ENERGY_TARGET)
    monkeypatch.setattr(rulemix.cli, "fit_gbt", no_fit)
    capsys.readouterr()
    assert run(["reproduce", "energy", "--data", str(path), "--restarts", "1", "--k", str(k)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


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
    message = "feature column 9 'Cooling Load' is extra, expected 8 feature columns"
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
    assert capsys.readouterr().err == "error: --noise-sd must be a finite number >= 0, got -1.0\n"
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


# A small valid model over gen_xor's columns and a CSV it reads: a case below
# breaks exactly one of them in one place.
READER_MODEL = json.loads(
    serialize_ensemble(
        ensemble_of(
            (stump(0), stump(1, 0.25, -1.0, 2.0), constant_tree(0.5)),
            np.array([1.0, 0.1, 0.1]),
            2,
            ("x_1", "x_2"),
        )
    )
)
READER_CSV_ROWS = 12

# values no field of its kind accepts: 2**70 is past any index, and a float
# is no index, but both are numbers
NOT_AN_INDEX = (True, False, "1", [0], None, 2**70, 1.0)
NOT_A_NUMBER = (True, False, "0.5", [0.5], None)


@st.composite
def model_defects(draw):
    """(model object, tree, node) with one field of that node broken."""
    model = json.loads(json.dumps(READER_MODEL))
    t = draw(st.integers(0, len(model["trees"]) - 1))
    nodes = model["trees"][t]["nodes"]
    i = draw(st.integers(0, len(nodes) - 1))
    node = nodes[i]
    key = draw(st.sampled_from(sorted(node)))
    how = draw(st.sampled_from(["value", "missing", "extra"]))
    if how == "missing":
        del node[key]
    elif how == "extra":
        node[draw(st.text().filter(lambda k: k not in node))] = 0.0
    else:
        bad = NOT_A_NUMBER if key in ("threshold", "value") else NOT_AN_INDEX
        node[key] = draw(st.sampled_from(bad))
    return model, t, i


# a data row's defect: one cell replaced by one of these, or one cell too many
# or too few
NON_NUMERIC_CELLS = ("abc", "", "1.0.0")
NON_FINITE_CELLS = ("inf", "-inf", "nan", "1e400")
csv_defects = st.tuples(
    st.integers(1, READER_CSV_ROWS),
    st.integers(0, 2),
    st.sampled_from(NON_NUMERIC_CELLS + NON_FINITE_CELLS + ("extra cell", "missing cell")),
)


@pytest.fixture(scope="module")
def reader_files(tmp_path_factory):
    """A directory holding the valid model and CSV; the cases write their
    broken copies next to them."""
    folder = tmp_path_factory.mktemp("readers")
    (folder / "model.json").write_text(json.dumps(READER_MODEL))
    write_csv(gen_xor(READER_CSV_ROWS, seed=1), folder / "data.csv", "y")
    return folder


def run_quietly(argv):
    """(exit code, stderr) of ``run(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def reader_argv(command, model, data):
    csv_flag = "--train" if command == "simplify" else "--test"
    argv = [command, "--model", str(model), csv_flag, str(data)]
    return argv + (["--k", "2", "--restarts", "1"] if command == "simplify" else [])


@pytest.mark.parametrize("command", ["evaluate", "simplify"])
@settings(max_examples=80, deadline=None)
@given(case=model_defects())
def test_model_defect_is_one_error_line_naming_tree_and_node(reader_files, command, case):
    model, t, i = case
    path = reader_files / "broken.json"
    path.write_text(json.dumps(model))
    code, err = run_quietly(reader_argv(command, path, reader_files / "data.csv"))
    assert code == 1
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert err.startswith(f"error: {path}: tree {t}: node {i}: ")


@pytest.mark.parametrize("command", ["evaluate", "simplify"])
@settings(max_examples=80, deadline=None)
@given(case=csv_defects)
def test_csv_defect_is_one_error_line_naming_row_and_column(reader_files, command, case):
    r, c, defect = case
    lines = (reader_files / "data.csv").read_text().splitlines()
    header, cells = lines[0].split(","), lines[r].split(",")
    if defect == "extra cell":
        cells.append("0.5")
    elif defect == "missing cell":
        cells.pop()
    else:
        cells[c] = defect
    if len(cells) != len(header):
        message = f"row {r} has {len(cells)} cells, expected {len(header)}"
    else:
        kind = "non-numeric" if defect in NON_NUMERIC_CELLS else "non-finite"
        message = f"row {r}, column {header[c]!r}: {kind} cell {defect!r}"
    lines[r] = ",".join(cells)
    path = reader_files / "broken.csv"
    path.write_text("\n".join(lines) + "\n")
    code, err = run_quietly(reader_argv(command, reader_files / "model.json", path))
    assert code == 1
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--out", "{tmp}/d.csv"],
        ["train-atm", "--train", "{csv}", "--out", "{tmp}/m.json"],
        ["simplify", "--model", "{model}", "--train", "{csv}", "--k", "2", "--restarts", "1"],
        ["baseline", "--train", "{csv}"],
        ["reproduce", "synthetic"],
        ["reproduce", "energy"],
        ["reproduce", "energy", "--data", "{energy}"],
    ],
    ids=["synth", "train-atm", "simplify", "baseline", "reproduce-synthetic", "reproduce-energy", "reproduce-energy-data"],
)
def test_negative_seed_named(monkeypatch, tmp_path, capsys, xor_csv, argv):
    model, energy = tmp_path / "model.json", tmp_path / "energy.csv"
    assert run(["train-atm", "--train", str(xor_csv), "--trees", "2", "--out", str(model)]) == 0
    write_csv(gen_energy_like(seed=0), energy, ENERGY_TARGET)
    monkeypatch.setattr(rulemix.cli, "fit_gbt", None)  # no argv reaches a fit
    paths = {"tmp": tmp_path, "model": model, "csv": xor_csv, "energy": energy}
    capsys.readouterr()
    assert run([a.format(**paths) for a in argv] + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "d.csv").exists() and not (tmp_path / "m.json").exists()


def deep_json(path):
    path.write_text("[" * 100_000)


def csv_cell_past_limit(path):
    rows = path.read_text().splitlines()
    rows[3] = "x" * (csv.field_size_limit() + 1) + rows[3][rows[3].index(",") :]
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("command", ["evaluate", "simplify"])
@pytest.mark.parametrize(
    "broken, break_it, message",
    [
        ("model", lambda p: p.write_bytes(b"\xff" + p.read_bytes()), "'utf-8' codec can't decode byte 0xff"),
        ("data", lambda p: p.write_bytes(p.read_bytes()[:40] + b"\xff"), "'utf-8' codec can't decode byte 0xff"),
        ("model", deep_json, "malformed JSON: maximum recursion depth exceeded"),
        ("data", csv_cell_past_limit, "row 3: field larger than field limit"),
    ],
    ids=["model-not-utf8", "csv-not-utf8", "model-nested-too-deep", "csv-cell-past-limit"],
)
def test_read_error_names_the_file(reader_files, tmp_path, command, broken, break_it, message):
    model, data = tmp_path / "model.json", tmp_path / "data.csv"
    for path in (model, data):
        path.write_bytes((reader_files / path.name).read_bytes())
    path = model if broken == "model" else data
    break_it(path)
    code, err = run_quietly(reader_argv(command, model, data))
    assert code == 1
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert err.startswith(f"error: {path}: {message}")


# integers past float range (the largest float is below 2**1024)
BEYOND_FLOAT = (2**1024, -(2**1024), 10**400)


@st.composite
def model_file_defects(draw):
    """(model object, the start its error must have) with one defect at the
    top level or in one tree object."""
    model = json.loads(json.dumps(READER_MODEL))
    where = draw(st.sampled_from(["top level", "field", "tree", "tree field", "node field"]))
    if where == "top level":
        return draw(st.sampled_from([[], "model", 2, None, True])), ""
    if where == "field":
        how = draw(st.sampled_from(["value", "missing", "extra"]))
        if how == "missing":
            del model[draw(st.sampled_from(["feature_count", "trees"]))]  # feature_names is optional
        elif how == "extra":
            model[draw(st.text().filter(lambda k: k not in model))] = 0
        else:
            bad = {
                "feature_count": (True, "2", 2.0, None, [2], 0, *BEYOND_FLOAT),
                "trees": ({}, "trees", None, 1, []),
                "feature_names": ("x_1", ["x_1", 2], ["x_1", "x_1"], {"x_1": 0}, [], ["x_1"]),
            }
            key = draw(st.sampled_from(sorted(bad)))
            model[key] = draw(st.sampled_from(bad[key]))
        return model, ""
    if where == "node field":
        key = draw(st.sampled_from(["value", "threshold"]))
        t, i = draw(
            st.sampled_from(
                [(t, i) for t, tree in enumerate(model["trees"]) for i, node in enumerate(tree["nodes"]) if key in node]
            )
        )
        model["trees"][t]["nodes"][i][key] = draw(st.sampled_from(BEYOND_FLOAT))
        return model, f"tree {t}: node {i}: non-finite {'leaf value' if key == 'value' else key}"
    t = draw(st.integers(0, len(model["trees"]) - 1))
    tree = model["trees"][t]
    if where == "tree":
        model["trees"][t] = draw(st.sampled_from([[], "tree", 1.0, None]))
    else:
        how = draw(st.sampled_from(["value", "missing", "extra"]))
        if how == "missing":
            del tree[draw(st.sampled_from(sorted(tree)))]
        elif how == "extra":
            tree[draw(st.text().filter(lambda k: k not in tree))] = 0
        else:
            bad = {"weight": (True, "1", None, [1.0], *BEYOND_FLOAT), "nodes": ({}, "nodes", None, 1, [])}
            key = draw(st.sampled_from(sorted(bad)))
            tree[key] = draw(st.sampled_from(bad[key]))
    return model, f"tree {t}: "


@pytest.mark.parametrize("command", ["evaluate", "simplify"])
@settings(max_examples=80, deadline=None)
@given(case=model_file_defects())
def test_model_file_defect_is_one_error_line_naming_the_file(reader_files, command, case):
    model, start = case
    path = reader_files / "broken.json"
    path.write_text(json.dumps(model))
    code, err = run_quietly(reader_argv(command, path, reader_files / "data.csv"))
    assert code == 1
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert err.startswith(f"error: {path}: {start}")


@st.composite
def csv_header_defects(draw):
    """The reader CSV's header line, as bytes, with one defect."""
    header = ["x_1", "x_2", "y"]
    c = draw(st.integers(0, len(header) - 1))
    how = draw(st.sampled_from(["repeated", "no target", "empty", "not UTF-8"]))
    if how == "repeated":
        header[c] = header[draw(st.integers(0, len(header) - 1).filter(lambda j: j != c))]
    elif how == "no target":
        header[-1] = draw(st.sampled_from(["Y", " y", "target", "x_3"]))
    elif how == "empty":
        header[c] = ""
    line = ",".join(header).encode()
    if how == "not UTF-8":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])) + line[at:]
    return line


@pytest.mark.parametrize("command", ["evaluate", "simplify"])
@settings(max_examples=80, deadline=None)
@given(header=csv_header_defects())
def test_csv_header_defect_is_one_error_line_naming_the_file(reader_files, command, header):
    rows = (reader_files / "data.csv").read_bytes().split(b"\n", 1)[1]
    path = reader_files / "broken.csv"
    path.write_bytes(header + b"\n" + rows)
    code, err = run_quietly(reader_argv(command, reader_files / "model.json", path))
    assert code == 1
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert err.startswith(f"error: {path}: ")


# Count flags take small integers, so no example starts a large fit.
FLOAT_FLAG = st.floats(allow_nan=True, allow_infinity=True).map(repr)
NOT_A_NUMBER_FLAG = st.sampled_from(["", "x", "1.5", "1e3", "0x2", "1e999", "0.5.1"])

COMMAND_FLAGS = {
    "synth": {"--n": st.integers(-2, 200), "--noise-sd": FLOAT_FLAG},
    "train-atm": {
        "--trees": st.integers(-2, 6),
        "--depth": st.integers(-2, 5),
        "--lr": FLOAT_FLAG,
        "--min-samples-leaf": st.integers(-2, 8),
    },
    "simplify": {"--k": st.integers(-2, 6), "--tau": FLOAT_FLAG, "--restarts": st.integers(-2, 3)},
    "baseline": {
        "--min-depth": st.integers(-2, 5),
        "--max-depth": st.integers(-2, 6),
        "--folds": st.integers(-2, 14),
        "--min-samples-leaf": st.integers(-2, 8),
    },
}


@st.composite
def flag_values(draw):
    """(command, its flags with generated values, whether a value does not
    parse), each flag present or not; one value in ten is text that its
    flag's type does not parse.  A value goes in the flag's argument or after
    ``=``, so negatives such as "-1e-05" and "-inf" also come on their own."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags, any_unparsable = [], False
    for flag, values in COMMAND_FLAGS[command].items():
        if draw(st.booleans()):
            unparsable = draw(st.integers(0, 9)) == 0
            any_unparsable |= unparsable
            value = str(draw(NOT_A_NUMBER_FLAG if unparsable else values))
            flags += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return command, flags, any_unparsable


@settings(max_examples=150, deadline=None)
@given(case=flag_values())
def test_generated_flag_values_exit_cleanly(reader_files, case):
    # argparse's own errors (exit 2) follow a usage line and come only from
    # a value its type does not parse; run's (exit 1) are the only line; a
    # RuntimeWarning would print lines of its own
    command, flags, any_unparsable = case
    model, data = reader_files / "model.json", reader_files / "data.csv"
    files = {
        "synth": ["--out", str(reader_files / "synth.csv")],
        "train-atm": ["--train", str(data)],
        "simplify": ["--model", str(model), "--train", str(data)],
        "baseline": ["--train", str(data), "--test", str(data)],
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_quietly([command, *files[command], *flags])
    event(f"{command}: exit {code}")
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert code == 1 or (code == 2 and any_unparsable)
        lines = err.splitlines()
        assert [line for line in lines if "error: " in line] == [lines[-1]]
        assert lines[-1].startswith("error: " if code == 1 else f"rulemix {command}: error: ")
    if code == 1:  # the files are valid, so a flag value failed: the line names its flag
        typed = {f.partition("=")[0] for f in flags} & set(COMMAND_FLAGS[command])
        assert any(re.search(rf"{flag}(?![\w-])", lines[-1]) for flag in typed), lines[-1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train-atm", "--train", "{data}", "--lr", "2"], "--lr must be in (0, 1]"),
        (["train-atm", "--train", "{data}", "--trees", "0"], "--trees must be >= 1, got 0"),
        (["train-atm", "--train", "{data}", "--depth", "0"], "--depth must be >= 1, got 0"),
        (["baseline", "--train", "{data}", "--min-depth", "5", "--max-depth", "3"],
         "--max-depth must be >= --min-depth 5, got 3"),
        (["baseline", "--train", "{data}", "--min-depth", "-1"], "--min-depth must be >= 0, got -1"),
        (["baseline", "--train", "{data}", "--folds", "13"], "--folds must be at most the 12 rows of {data}, got 13"),
        (["simplify", "--model", "{model}", "--train", "{data}", "--k", "0"], "--k must be >= 1, got 0"),
        (["simplify", "--model", "{model}", "--train", "{data}", "--k", "13"],
         "--k must be at most the 12 rows of {data}, got 13"),
        (["synth", "--n", "0", "--out", "{folder}/synth.csv"], "--n must be >= 1, got 0"),
        (["reproduce", "synthetic", "--restarts", "0"], "--restarts must be >= 1, got 0"),
        # negatives argparse's own pattern misses, each in its own argument
        (["train-atm", "--train", "{data}", "--lr", "-1e-05"], "--lr must be in (0, 1]"),
        (["simplify", "--model", "{model}", "--train", "{data}", "--tau", "-inf"], "--tau must lie in (0, 0.5)"),
        (["synth", "--noise-sd", "-1e-3", "--out", "{folder}/synth.csv"],
         "--noise-sd must be a finite number >= 0, got -0.001"),
    ],
    ids=[
        "lr", "trees", "depth", "depth-order", "min-depth", "folds-rows", "k", "k-rows", "n", "restarts",
        "lr-exponent", "tau-inf", "noise-sd-exponent",
    ],
)
def test_flag_value_error_names_the_flag(reader_files, argv, message):
    # the library's own checks name the config field (learning_rate,
    # n_components, depth_grid); the command line names the flag as typed
    paths = {"folder": reader_files, "data": reader_files / "data.csv", "model": reader_files / "model.json"}
    assert READER_CSV_ROWS == 12
    code, err = run_quietly([a.format(**paths) for a in argv])
    assert (code, err) == (1, f"error: {message.format(**paths)}\n")


def subcommand_parsers():
    """(name, parser) of each subcommand, by name."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices.items())


def required_argv(name, parser):
    """The shortest command line of subcommand ``name``: its positional's
    first choice and each required option with the value "x"."""
    argv = [name]
    for action in parser._actions:
        if not action.option_strings:
            argv.append(action.choices[0])
        elif action.required:
            argv += [action.option_strings[0], "x"]
    return argv


OPTIONS = [(name, parser, a) for name, parser in subcommand_parsers() for a in parser._actions if a.option_strings]


@pytest.mark.parametrize("command, parser, action", OPTIONS, ids=[f"{n}-{a.option_strings[0]}" for n, _, a in OPTIONS])
def test_value_error_naming_a_field_prints_its_flag(monkeypatch, command, parser, action):
    def failing(args):
        raise ValueError(f"{action.dest} must be >= 1, got 0")

    monkeypatch.setattr(rulemix.cli, "cmd_" + command.replace("-", "_"), failing)
    code, err = run_quietly(required_argv(command, parser))
    assert (code, err) == (1, f"error: {action.option_strings[0]} must be >= 1, got 0\n")


@pytest.mark.parametrize(
    "error",
    [
        RuntimeError("seed must be >= 0, got -1"),  # only a ValueError is a check of a value
        ValueError("depth_grid must be nonempty"),  # no option feeds depth_grid
        ValueError("seed: row 3: field larger than field limit (131072)"),  # a file named seed
    ],
    ids=["runtime-error", "not-a-dest", "path-led"],
)
def test_other_errors_print_as_raised(monkeypatch, error):
    def failing(args):
        raise error

    monkeypatch.setattr(rulemix.cli, "cmd_simplify", failing)
    code, err = run_quietly(["simplify", "--model", "model.json", "--train", "seed"])
    assert (code, err) == (1, f"error: {error}\n")


def field_defaults(config):
    return {f.name: f.default for f in dataclasses.fields(config) if f.default is not dataclasses.MISSING}


def keyword_defaults(function, **renamed):
    params = inspect.signature(function).parameters.values()
    return {renamed.get(p.name, p.name): p.default for p in params if p.default is not p.empty}


def merged(*sources):
    """One field -> default map of ``sources``, which must agree where they overlap."""
    out = {}
    for source in sources:
        for field, default in source.items():
            assert out.setdefault(field, default) == default, field
    return out


# options that name a file or a column, not a library field
NOT_LIBRARY_FIELDS = {"help", "train", "test", "model", "target", "out", "data"}
# checked, but it feeds no field: boosting draws no random numbers
FEEDS_NOTHING = {("train-atm", "seed")}


def test_parser_defaults_are_the_library_defaults():
    # each default is written in the parser and in the library; they agree
    pipelines = merged(
        keyword_defaults(synthetic_pipeline, k="n_components"),
        keyword_defaults(energy_pipeline, k="n_components"),
    )
    cart = field_defaults(CartConfig)
    grid = cart.pop("depth_grid")
    assert grid == tuple(range(grid[0], grid[-1] + 1))
    library = {
        "synth": merged(keyword_defaults(gen_xor), pipelines),  # gen_xor's n has no default
        "train-atm": field_defaults(GbtConfig),
        "simplify": merged(field_defaults(rulemix.em.EmConfig), pipelines),
        "baseline": {**cart, "min_depth": grid[0], "max_depth": grid[-1]},
        "evaluate": {},
        "reproduce": merged(field_defaults(rulemix.em.EmConfig), pipelines),
    }
    checked = 0
    for name, parser in subcommand_parsers():
        for action in parser._actions:
            feeds = action.dest not in NOT_LIBRARY_FIELDS and (name, action.dest) not in FEEDS_NOTHING
            if action.option_strings and feeds:
                assert (name, action.dest, action.default) == (name, action.dest, library[name][action.dest])
                checked += 1
    assert checked == 20


@pytest.fixture(scope="module")
def overflow_files(tmp_path_factory):
    """CSVs ``x,y`` of 40 rows: ``ok`` with 0/1 targets, ``train`` alternating
    0 and 1e200, ``test`` alternating +-1.5e200 (every square overflows), and
    a model trained on ``ok``."""
    folder = tmp_path_factory.mktemp("overflow")
    targets = {"ok": [float(i % 2) for i in range(40)], "train": [(i % 2) * 1e200 for i in range(40)],
               "test": [1.5e200 * (-1) ** i for i in range(40)]}
    for name, ys in targets.items():
        rows = "".join(f"{i / 40!r},{y!r}\n" for i, y in enumerate(ys))
        (folder / f"{name}.csv").write_text("x,y\n" + rows)
    assert run_quietly(["train-atm", "--train", str(folder / "ok.csv"), "--trees", "5",
                        "--out", str(folder / "model.json")]) == (0, "")
    return folder


@pytest.mark.parametrize(
    "argv, named",
    [
        (["train-atm", "--train", "{train}", "--trees", "5"], "train"),
        (["evaluate", "--model", "{model}", "--test", "{test}"], "test"),
        (["baseline", "--train", "{train}", "--test", "{test}"], "train"),
        (["baseline", "--train", "{ok}", "--test", "{test}"], "test"),
        (["simplify", "--model", "{model}", "--train", "{train}", "--restarts", "1"], "train"),
    ],
    ids=["train-atm", "evaluate", "baseline-train", "baseline-test", "simplify"],
)
def test_targets_whose_squares_overflow_are_one_error_line(overflow_files, argv, named):
    paths = {name: overflow_files / f"{name}.csv" for name in ("ok", "train", "test")}
    paths["model"] = overflow_files / "model.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_quietly([a.format(**paths) for a in argv])
    assert [str(w.message) for w in caught] == []
    assert (code, err) == (1, f"error: {paths[named]}: column 'y': targets too large: their sum of squares overflows\n")


# evaluate's mse takes leaf values of 1e150 on 40 rows; EM, whose precisions
# go up to 1e6, does not, and names them its targets
@pytest.mark.parametrize("command, leaf", [("evaluate", 1e160), ("simplify", 1e150)])
def test_predictions_whose_squares_overflow_name_the_model(overflow_files, tmp_path, command, leaf):
    what = ": targets too large" if command == "simplify" else " too large"
    model = tmp_path / "huge.json"
    huge = ensemble_of((stump(0, 0.5, leaf, -leaf),), np.ones(1), 1, ("x",))
    model.write_text(serialize_ensemble(huge))
    data = overflow_files / "ok.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_quietly(reader_argv(command, model, data))
    assert [str(w.message) for w in caught] == []
    assert (code, err) == (1, f"error: {model}: predictions on {data}{what}: their sum of squares overflows\n")


def test_report_with_a_non_finite_number_is_refused(tmp_path):
    with pytest.raises(ValueError, match="not JSON compliant"):
        rulemix.cli._emit_report({"test_mse": float("inf")}, tmp_path / "report.json")
    assert not (tmp_path / "report.json").exists()


# any JSON value, for a field set to something of the wrong kind
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=3,
)
MODEL_NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-3, 3)


@st.composite
def generated_models(draw):
    """Model JSON over the reader CSV's two columns: generated trees of 0-3
    levels, weights and names, then in half the examples one defect: a field
    of a node, a tree or the top level set to any JSON value, a key dropped
    or added, a child index moved, or a node dropped or repeated."""
    trees = []
    for _ in range(draw(st.integers(1, 3))):
        nodes = []

        def grow(depth):
            at = len(nodes)
            nodes.append({"value": draw(MODEL_NUMBERS)})
            if depth and draw(st.booleans()):
                nodes[at] = {"feature": draw(st.integers(0, 1)), "threshold": draw(MODEL_NUMBERS)}
                nodes[at]["left"] = grow(depth - 1)
                nodes[at]["right"] = grow(depth - 1)
            return at

        grow(draw(st.integers(0, 3)))
        trees.append({"weight": draw(MODEL_NUMBERS), "nodes": nodes})
    model = {"feature_count": 2, "trees": trees}
    if draw(st.booleans()):
        model["feature_names"] = ["x_1", "x_2"]
    if draw(st.booleans()):
        return model
    tree = draw(st.sampled_from(trees))
    nodes = tree["nodes"]
    i = draw(st.integers(0, len(nodes) - 1))
    target = draw(st.sampled_from([nodes[i], tree, model]))
    how = draw(st.sampled_from(["set", "drop key", "add key", "move child", "drop node", "repeat node"]))
    if how == "set":
        target[draw(st.sampled_from(sorted(target)))] = draw(JSON_VALUES)
    elif how == "drop key":
        del target[draw(st.sampled_from(sorted(target)))]
    elif how == "add key":
        target[draw(st.text(max_size=8).filter(lambda k: k not in target))] = draw(JSON_VALUES)
    elif how == "move child" and "left" in nodes[i]:
        nodes[i][draw(st.sampled_from(["left", "right"]))] = draw(st.integers(-2, len(nodes) + 1))
    elif how == "drop node":
        nodes.pop(i)
    elif how == "repeat node":
        nodes.append(json.loads(json.dumps(nodes[i])))
    return model


@pytest.mark.parametrize("command", ["evaluate", "simplify"])
@settings(max_examples=150, deadline=None)
@given(model=generated_models())
def test_generated_model_json_exits_cleanly(reader_files, command, model):
    path = reader_files / "generated.json"
    path.write_text(json.dumps(model))
    data = reader_files / "data.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_quietly(reader_argv(command, path, data))
    event(f"exit {code}")
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert code == 1 and err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith((f"error: {path}: ", f"error: {data}: ")), err


def test_csv_with_a_byte_order_mark_reads_as_without(tmp_path, xor_csv):
    # Excel's "CSV UTF-8" export starts the file with one; wherever the target
    # column is, every command reads the file as it reads it without the mark
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + xor_csv.read_bytes())
    target_first = tmp_path / "target_first.csv"
    rows = [line.split(",") for line in xor_csv.read_text().splitlines()]
    target_first.write_bytes(b"\xef\xbb\xbf" + "".join(f"{r[2]},{r[0]},{r[1]}\n" for r in rows).encode())

    def report(*argv):
        out = tmp_path / "out.json"
        assert run_quietly([*argv, "--out", str(out)]) == (0, "")
        return out.read_bytes()

    models = {}
    for path in (xor_csv, bom, target_first):
        models[path] = tmp_path / f"{path.stem}.json"
        models[path].write_bytes(report("train-atm", "--train", str(path), "--trees", "5"))
    assert models[bom].read_bytes() == models[target_first].read_bytes() == models[xor_csv].read_bytes()
    assert json.loads(models[bom].read_text())["feature_names"] == ["x_1", "x_2"]
    for command in ("evaluate", "baseline"):
        reports = {
            report(command, *(["--model", str(models[a])] if command == "evaluate" else ["--train", str(a)]),
                   "--test", str(b))
            for a, b in ((xor_csv, xor_csv), (bom, xor_csv), (xor_csv, bom), (target_first, target_first))
        }
        assert len(reports) == 1, command


CSV_NAMES = st.sampled_from(["x_1", "x_2", "y", "", "\ufeffy", "x_1,x_2", 'say "y"'])
CSV_NUMBERS = st.sampled_from(["0", "1", "0.5", "-2.25", "3e-320", "1e150", "-1e308"])
CSV_BAD_CELLS = st.sampled_from(["", "a", "nan", "inf", "-inf", "1e200", "1e999", "0x1", "1,5"])


@st.composite
def generated_csvs(draw):
    """CSV bytes: 1-3 rows of numbers, huge and subnormal ones included,
    under the reader CSV's names, permuted, any name quoted or not, in half
    the files after a byte-order mark, and a constant column in half.  About
    half the files take one defect: 1-4 names that may repeat, be empty,
    need quotes or carry a byte-order mark; a blank line, which the reader
    skips; a short or long row; or a cell that is empty, not a number, not
    finite or past float range."""
    defect = draw(st.none() | st.sampled_from(["names", "blank line", "short row", "long row", "bad cell"]))
    if defect == "names":
        names = draw(st.lists(CSV_NAMES, min_size=1, max_size=4))
    else:
        names = draw(st.permutations(["x_1", "x_2", "y"]))
    rows = [[draw(CSV_NUMBERS) for _ in names] for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        c = draw(st.integers(0, len(names) - 1))
        for row in rows:
            row[c] = rows[0][c]
    r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(names) - 1))
    if defect == "short row":
        del rows[r][c]
    elif defect == "long row":
        rows[r].insert(c, draw(CSV_NUMBERS))
    elif defect == "bad cell":
        rows[r][c] = draw(CSV_BAD_CELLS)
    header = ['"' + n.replace('"', '""') + '"' if draw(st.booleans()) or "," in n or '"' in n else n for n in names]
    lines = [",".join(line) for line in [header, *rows]]
    if defect == "blank line":
        lines.insert(draw(st.integers(1, len(lines))), "")
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + draw(st.sampled_from(["\n", "\r\n"])).join(lines + [""]).encode()


@settings(max_examples=200, deadline=None)
@given(text=generated_csvs())
def test_generated_csv_exits_cleanly(reader_files, text):
    # every command that reads a CSV ends with exit 0 and nothing on stderr,
    # or exit 1 and one error line naming the CSV; never a traceback or a warning
    path = reader_files / "generated.csv"
    path.write_bytes(text)
    trained = reader_files / "trained.json"

    def exits_cleanly(*argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = run_quietly(list(argv))
        event(f"{argv[0]}: exit {code}")
        assert [str(w.message) for w in caught] == [], argv
        assert "Traceback" not in err
        if code == 0:
            assert err == "", argv
        else:
            assert code == 1 and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert err.startswith("error: ") and str(path) in err, (argv, err)
        return code == 0

    models = [reader_files / "model.json"]
    if exits_cleanly("train-atm", "--train", str(path), "--trees", "2", "--min-samples-leaf", "1", "--out", str(trained)):
        models.append(trained)
    for model in models:
        exits_cleanly("simplify", "--model", str(model), "--train", str(path), "--k", "1", "--restarts", "1")
        exits_cleanly("evaluate", "--model", str(model), "--test", str(path))
    exits_cleanly("baseline", "--train", str(path), "--test", str(path), "--folds", "2", "--max-depth", "3")
