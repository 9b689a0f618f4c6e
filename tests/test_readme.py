"""Every ``python`` code block of the README runs as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _python_blocks() -> list:
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)


def test_readme_has_python_blocks():
    assert _python_blocks()


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_python_block_runs(index):
    code = _python_blocks()[index]
    exec(compile(code, f"README.md python block {index}", "exec"), {"__name__": "readme"})
