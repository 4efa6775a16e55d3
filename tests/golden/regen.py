"""Write the golden CLI outputs that ``tests/test_golden.py`` compares byte for byte.

Run from the repository root with the package importable, for example::

    PYTHONPATH=src python tests/golden/regen.py

Each case is one ``rulemix`` command run in-process through ``rulemix.cli.run``.
``CASES`` run in the default test suite:

- ``energy_seed0_r2.json``: ``reproduce energy --seed 0 --restarts 2`` on the
  built-in stand-in;
- ``energy_seed3.json``: ``reproduce energy --seed 3`` (10 restarts);
- ``atm_seed0_leaf10.json``: ``train-atm --min-samples-leaf 10 --seed 0`` on
  the stand-in's seed-0 ATM split (the 40 % cut ``energy_pipeline`` fits);
- ``simplify_energy_seed0_r10.json``: ``simplify --restarts 10 --seed 0`` of
  that model on the seed-0 train split; its ``fit`` block holds every
  restart's objective trace and gate steps.

``FULL_CASES`` run only under ``pytest -m golden_full``: ``reproduce energy``
seeds 0-9 (seed 3 is in ``CASES``) and ``reproduce synthetic`` seeds 0-2.

Regenerate only when a change is meant to alter these outputs, and say so in
CHANGES.md; a change that keeps the fits byte-identical leaves them alone.
"""

from __future__ import annotations

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


def _atm_model(tmp: Path) -> list[str]:
    atm, _, _ = split3(gen_energy_like(seed=0), (0.4, 0.3, 0.3), 0)
    train = tmp / "atm.csv"
    write_csv(atm, train, ENERGY_TARGET)
    return [
        "train-atm", "--train", str(train), "--target", ENERGY_TARGET,
        "--min-samples-leaf", "10", "--seed", "0",
    ]


def _simplify(tmp: Path) -> list[str]:
    model = tmp / "atm.json"
    _run(_atm_model(tmp) + ["--out", str(model)])
    _, train, _ = split3(gen_energy_like(seed=0), (0.4, 0.3, 0.3), 0)
    path = tmp / "train.csv"
    write_csv(train, path, ENERGY_TARGET)
    return [
        "simplify", "--model", str(model), "--train", str(path), "--target", ENERGY_TARGET,
        "--restarts", "10", "--seed", "0",
    ]


CASES = {
    "energy_seed0_r2.json": _reproduce("energy", 0, "--restarts", "2"),
    "energy_seed3.json": _reproduce("energy", 3),
    "atm_seed0_leaf10.json": _atm_model,
    "simplify_energy_seed0_r10.json": _simplify,
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


def main() -> int:
    for name in {**CASES, **FULL_CASES}:
        (GOLDEN_DIR / name).write_text(produce(name), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
