"""Write the golden CLI outputs that ``tests/test_golden.py`` compares byte for byte.

Run from the repository root with the package importable, for example::

    PYTHONPATH=src python tests/golden/regen.py

Each case is one ``rulemix`` command run in-process through ``rulemix.cli.run``:

- ``energy_seed0_r2.json``: ``reproduce energy --seed 0 --restarts 2`` on the
  built-in stand-in;
- ``atm_seed0_leaf10.json``: ``train-atm --min-samples-leaf 10 --seed 0`` on
  the stand-in's seed-0 ATM split (the 40 % cut ``energy_pipeline`` fits).

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


def _energy_report(tmp: Path) -> list[str]:
    return ["reproduce", "energy", "--seed", "0", "--restarts", "2"]


def _atm_model(tmp: Path) -> list[str]:
    atm, _, _ = split3(gen_energy_like(seed=0), (0.4, 0.3, 0.3), 0)
    train = tmp / "atm.csv"
    write_csv(atm, train, ENERGY_TARGET)
    return [
        "train-atm", "--train", str(train), "--target", ENERGY_TARGET,
        "--min-samples-leaf", "10", "--seed", "0",
    ]


CASES = {
    "energy_seed0_r2.json": _energy_report,
    "atm_seed0_leaf10.json": _atm_model,
}


def produce(name: str) -> str:
    """Run golden case ``name`` and return what it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / name
        argv = CASES[name](tmp) + ["--out", str(out)]
        if run(argv) != 0:
            raise RuntimeError(f"rulemix {' '.join(argv)} failed")
        return out.read_text(encoding="utf-8")


def main() -> int:
    for name in CASES:
        (GOLDEN_DIR / name).write_text(produce(name), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
