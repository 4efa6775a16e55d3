import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rulemix
from rulemix.cli import build_parser, run
from rulemix.data import gen_xor, write_csv


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


def test_import_loads_no_scipy():
    src = str(Path(rulemix.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, rulemix, rulemix.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_every_subcommand_help_exits_zero(capsys):
    parser = build_parser()
    for name in ("synth", "train-atm", "simplify", "baseline", "evaluate", "reproduce"):
        assert run([name, "--help"]) == 0
        assert name in capsys.readouterr().out
    assert run(["--help"]) == 0


def test_unknown_flag_and_subcommand_exit_two(capsys):
    assert run(["synth", "--bogus", "1"]) == 2
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


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
