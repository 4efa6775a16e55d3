import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_property_prints_its_example(tmp_path):
    # the suite's warning filters make warnings errors; one raised while
    # hypothesis reports a failure (libcst's, where it is installed) must not
    # end the run in an INTERNALERROR that hides the falsifying example
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
