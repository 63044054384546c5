"""The README's library example runs as written, so a documented call or
attribute that drifts fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_library_example_runs():
    namespace = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    model, report = namespace["model"], namespace["report"]
    # the value its comment states
    assert report.value[model.state_index("work")] == pytest.approx(
        4.0 / 3.0, rel=1e-12)
    assert namespace["exact"].values == pytest.approx(report.value.values,
                                                      rel=1e-12)
    mc = namespace["mc"]
    assert abs(mc.mean.value - 4.0 / 3.0) <= 5 * mc.std_error
