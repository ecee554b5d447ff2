"""The project's declared Python floor against the versions CI tests."""

import json
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def version(text):
    return tuple(int(part) for part in text.split("."))


def test_ci_tests_the_lowest_python_that_pyproject_admits():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requires = tomllib.load(handle)["project"]["requires-python"]
    floor = re.fullmatch(r">=\s*(\d+\.\d+)", requires)
    assert floor, f"requires-python {requires!r} is not a single lower bound"
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    (matrix,) = re.findall(r"^\s*python-version:\s*(\[.*\])\s*$", workflow, re.MULTILINE)
    legs = [version(leg) for leg in json.loads(matrix)]
    assert min(legs) == version(floor[1])
