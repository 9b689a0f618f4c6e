"""Every ``python`` code block of the README runs as written, and every
``pthamil`` command line of its ``bash`` blocks parses."""

import os
import re
import shlex

import pytest

from pthamil.cli import build_parser
from pthamil.pipeline import AnalysisConfig, run_analyze

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _blocks(language: str) -> list:
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```", fh.read(), re.M | re.S)


def _python_blocks() -> list:
    return _blocks("python")


def _command_lines() -> list:
    return [line for block in _blocks("bash") for line in block.splitlines()
            if line.startswith("pthamil ")]


def test_readme_has_python_blocks():
    assert _python_blocks()


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_python_block_runs(index):
    code = _python_blocks()[index]
    exec(compile(code, f"README.md python block {index}", "exec"), {"__name__": "readme"})


def test_readme_states_the_report_schema():
    with open(README, encoding="utf-8") as fh:
        stated = re.findall(r"^`schema` is (\d+)\.", fh.read(), re.M)
    report = run_analyze(AnalysisConfig(model="two-level", alpha=5.0, beta=3.0))
    assert stated == [str(report.provenance["schema"])]


def _report_section() -> str:
    with open(README, encoding="utf-8") as fh:
        return re.search(r"^## JSON report\n(.*?)^## ", fh.read(), re.M | re.S).group(1)


def test_readme_names_every_report_key():
    # one bullet per top-level key, each opening with the key's name
    named = re.findall(r"^\* `(\w+)` —", _report_section(), re.M)
    report = run_analyze(AnalysisConfig(model="two-level", alpha=5.0, beta=3.0))
    assert sorted(named) == sorted(report.to_dict())


def test_readme_names_every_flag():
    # the section writes a current flag as `flags.name`: a deleted one left
    # in that form, or an emitted one it never names, fails here
    named = set(re.findall(r"`flags\.(\w+)", _report_section()))
    emitted = set()
    for alpha, beta in ((5.0, 3.0), (1.0, 3.0)):  # a real spectrum, then pairs
        emitted |= set(run_analyze(AnalysisConfig(model="two-level", alpha=alpha, beta=beta)).flags)
    assert named == emitted


def test_readme_has_command_lines():
    assert _command_lines()


@pytest.mark.parametrize("index", range(len(_command_lines())))
def test_command_line_parses(index):
    # the real parser: a subcommand or option the CLI no longer has fails
    # here; the files a line names need not exist
    line = _command_lines()[index]
    try:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])
    except SystemExit as exc:
        pytest.fail(f"README line {line!r} does not parse (exit {exc.code})")
