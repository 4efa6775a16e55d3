"""Write the golden CLI outputs that ``tests/test_golden.py`` compares byte for byte.

Run from the repository root with the package importable, for example::

    PYTHONPATH=src python tests/golden/regen.py

``--out DIR`` writes the files to ``DIR`` instead of this directory, so a
change that moves the fits can be certified against the committed set before
it is overwritten::

    PYTHONPATH=src python tests/golden/regen.py --out build/golden
    PYTHONPATH=src python tests/golden/compare.py tests/golden build/golden

Each case is one ``rulemix`` command run in-process through ``rulemix.cli.run``.
``CASES`` run in the default test suite:

- ``energy_seed0_r2.json``: ``reproduce energy --seed 0 --restarts 2`` on the
  built-in stand-in;
- ``energy_seed3.json``: ``reproduce energy --seed 3`` (10 restarts);
- ``atm_seed0_leaf10.json``: ``train-atm --min-samples-leaf 10 --seed 0`` on
  the stand-in's seed-0 ATM split (the 40 % cut ``energy_pipeline`` fits);
- ``simplify_energy_seed0_r10.json``: ``simplify --restarts 10 --seed 0`` of
  that model on the seed-0 train split; its ``fit`` block holds every
  restart's objective trace and gate steps;
- ``evaluate_energy_seed0.json``: ``evaluate`` of that model on the seed-0
  test split;
- ``baseline_energy_seed0.json``: ``baseline --seed 0`` trained on the
  seed-0 train split and scored on its test split.

``FULL_CASES`` run only under ``pytest -m golden_full``: ``reproduce energy``
seeds 0-9 (seed 3 is in ``CASES``) and ``reproduce synthetic`` seeds 0-2.

Regenerate only when a change is meant to alter these outputs, and say so in
CHANGES.md; a change that keeps the fits byte-identical leaves them alone.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

from rulemix.cli import run
from rulemix.data import ENERGY_TARGET, gen_energy_like, split3, write_csv

GOLDEN_DIR = Path(__file__).resolve().parent

_WALL_TIME = re.compile(r'^(\s*"wall_time_s": ).*$', re.MULTILINE)


def without_wall_time(text: str) -> str:
    """``text`` with the value of every ``wall_time_s`` line blanked out."""
    return _WALL_TIME.sub(r"\1<ignored>", text)


def _reproduce(task: str, seed: int, *extra: str):
    def argv(tmp: Path) -> list[str]:
        return ["reproduce", task, "--seed", str(seed), *extra]

    return argv


def _energy_split(tmp: Path, part: int) -> str:
    """Write part ``part`` (0 ATM, 1 train, 2 test) of the stand-in's seed-0
    split to a CSV under ``tmp`` and return its path."""
    path = tmp / ("atm.csv", "train.csv", "test.csv")[part]
    write_csv(split3(gen_energy_like(seed=0), (0.4, 0.3, 0.3), 0)[part], path, ENERGY_TARGET)
    return str(path)


def _atm_model(tmp: Path) -> list[str]:
    return [
        "train-atm", "--train", _energy_split(tmp, 0), "--target", ENERGY_TARGET,
        "--min-samples-leaf", "10", "--seed", "0",
    ]


def _model_file(tmp: Path) -> str:
    model = tmp / "atm.json"
    _run(_atm_model(tmp) + ["--out", str(model)])
    return str(model)


def _simplify(tmp: Path) -> list[str]:
    return [
        "simplify", "--model", _model_file(tmp), "--train", _energy_split(tmp, 1),
        "--target", ENERGY_TARGET, "--restarts", "10", "--seed", "0",
    ]


def _evaluate(tmp: Path) -> list[str]:
    return [
        "evaluate", "--model", _model_file(tmp), "--test", _energy_split(tmp, 2),
        "--target", ENERGY_TARGET,
    ]


def _baseline(tmp: Path) -> list[str]:
    return [
        "baseline", "--train", _energy_split(tmp, 1), "--test", _energy_split(tmp, 2),
        "--target", ENERGY_TARGET, "--seed", "0",
    ]


CASES = {
    "energy_seed0_r2.json": _reproduce("energy", 0, "--restarts", "2"),
    "energy_seed3.json": _reproduce("energy", 3),
    "atm_seed0_leaf10.json": _atm_model,
    "simplify_energy_seed0_r10.json": _simplify,
    "evaluate_energy_seed0.json": _evaluate,
    "baseline_energy_seed0.json": _baseline,
}

FULL_CASES = {
    **{f"energy_seed{s}.json": _reproduce("energy", s) for s in range(10) if s != 3},
    **{f"synthetic_seed{s}.json": _reproduce("synthetic", s) for s in range(3)},
}


def _run(argv: list[str]) -> None:
    if run(argv) != 0:
        raise RuntimeError(f"rulemix {' '.join(argv)} failed")


def produce(name: str) -> str:
    """Run golden case ``name`` and return what it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / name
        _run({**CASES, **FULL_CASES}[name](tmp) + ["--out", str(out)])
        return out.read_text(encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write the golden rulemix outputs.")
    parser.add_argument("--out", type=Path, default=GOLDEN_DIR, help="directory to write (default: tests/golden)")
    out = parser.parse_args(argv).out
    out.mkdir(parents=True, exist_ok=True)
    for name in {**CASES, **FULL_CASES}:
        (out / name).write_text(produce(name), encoding="utf-8")
        print(f"wrote {out / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
