"""Committed CLI outputs, compared byte for byte apart from ``wall_time_s``.

The files under ``tests/golden/`` come from ``tests/golden/regen.py``; a
change that should keep every fit byte-identical must leave them equal.
"""

import pytest

from golden.regen import CASES, GOLDEN_DIR, produce, without_wall_time


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_equals_golden_bytes(name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert without_wall_time(produce(name)) == without_wall_time(expected)


def test_wall_time_is_the_only_ignored_field():
    text = '{\n  "a": 1.5,\n  "wall_time_s": 0.25\n}\n'
    assert without_wall_time(text) == '{\n  "a": 1.5,\n  "wall_time_s": <ignored>\n}\n'
    assert without_wall_time('{"a": 1.5}') == '{"a": 1.5}'
