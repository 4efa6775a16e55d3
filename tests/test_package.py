import importlib.util
from pathlib import Path

import rulemix

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_export_resolves():
    missing = [name for name in rulemix.__all__ if not hasattr(rulemix, name)]
    assert missing == []


def test_trace_points_name_existing_attributes():
    # The benchmark tracer installs its wrappers through vars(owner)[attr], so
    # deleting or renaming a traced name breaks traced runs with a KeyError.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in tracing.TRACE_POINTS
        if attr not in vars(owner)
    ]
    assert missing == []
