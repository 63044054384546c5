"""The README's library example runs as written and its command-line flags
are the parser's, so a documented call, attribute or option that drifts
fails here."""

import argparse
import re
from pathlib import Path

import pytest

from riskctmdp import cli

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


def _parser_flags() -> set:
    """Every --option of the parser and of each subcommand's parser."""
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    return {flag for p in (parser, *sub.choices.values())
            for action in p._actions for flag in action.option_strings
            if flag.startswith("--")}


def test_readme_names_exactly_the_parsers_flags():
    mentioned = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                               README.read_text()))
    assert mentioned == _parser_flags()
