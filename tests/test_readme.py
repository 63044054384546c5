"""The README's library example runs as written, its command-line flags
are the parser's and the API names in its prose exist, so a documented
call, attribute or option that drifts fails here."""

import argparse
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import riskctmdp
from riskctmdp import cli
from riskctmdp.model import GENERATOR_KINDS

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


def _api_names() -> set:
    """riskctmdp.__all__; the fields, properties, methods and constructor
    parameters of its classes; the parameters of its functions; and the
    generator kinds."""
    names = set(riskctmdp.__all__) | set(GENERATOR_KINDS)
    for name in riskctmdp.__all__:
        obj = getattr(riskctmdp, name)
        if inspect.isclass(obj):
            names.update(n for n in dir(obj) if not n.startswith("_"))
        if dataclasses.is_dataclass(obj):  # its constructor's parameters
            names.update(f.name for f in dataclasses.fields(obj))
        elif inspect.isfunction(obj):
            names.update(inspect.signature(obj).parameters)
    return names


def _backticked_snake_case() -> set:
    """Each backticked snake_case identifier of README's prose, outside
    code fences; of a call form such as `check_policy(policy)`, the name
    before the parenthesis."""
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    return {m[1] for span in re.findall(r"`([^`]+)`", prose)
            if (m := re.fullmatch(r"([a-z][a-z0-9]*(?:_[a-z0-9]+)+)(\(.*\))?",
                                  span, re.S))}


def test_readme_names_only_api_that_exists():
    mentioned = _backticked_snake_case()
    assert "check_policy" in mentioned and "trajectory_stream" in mentioned
    assert sorted(mentioned - _api_names()) == []
