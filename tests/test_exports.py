"""Every name in each module's __all__ resolves, once; every module the tests import is installable."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import isophasal

MODULES = [importlib.import_module(f"isophasal.{info.name}") for info in pkgutil.iter_modules(isophasal.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_test_imports_are_declared():
    # a third-party module a test imports must be a dependency or in the `test` extra
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    tests = Path(__file__).resolve().parent
    project = tomllib.loads((tests.parent / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~;\[ ]", req)[0].lower()
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    local = {path.stem for path in tests.glob("*.py")} | {"isophasal"}
    imported = set()
    for path in tests.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - local - set(sys.stdlib_module_names)
    assert third_party >= {"numpy", "pytest"}
    assert not third_party - declared, f"imported by the tests but not declared: {sorted(third_party - declared)}"
