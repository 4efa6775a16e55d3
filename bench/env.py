"""Process set-up shared by the runner and its tests.

``prepare`` pins the BLAS thread count (it must run before numpy is first
imported) and puts this checkout's ``src`` first on the import path, so the
benchmark always measures the sources next to it and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


class MissingSources(RuntimeError):
    pass


def prepare() -> None:
    for name in BLAS_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    if not (SRC / "rulemix" / "__init__.py").is_file():
        raise MissingSources(f"no rulemix package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
