"""The package, its tests and the benchmark harness parse as the oldest
Python that pyproject.toml declares. The suite needs numpy, so it cannot run
on an interpreter that has none; parsing each module with that version's
grammar still catches syntax it does not have (`except*`, `type` aliases,
generic classes written `class C[T]`)."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def test_requires_python_is_the_version_parsed():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups() == tuple(map(str, OLDEST))


def test_every_module_parses_as_the_oldest_python():
    modules = sorted(path for top in ("src", "tests", "pipebench") for path in (ROOT / top).rglob("*.py"))
    assert any(path.name == "pipeline.py" for path in modules) and any(path.name == "run.py" for path in modules)
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
