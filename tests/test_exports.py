"""Every name in each module's __all__ resolves, once; every module the tests import is installable;
every name a module imports or defines is read."""

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


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_imported_names_are_used(module):
    # a name a module imports is read in that module or re-exported through its __all__
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - set(getattr(module, "__all__", ()))
    assert not unused, f"{module.__name__} imports names it never uses: {sorted(unused)}"


def test_module_names_are_read():
    # every name a package module defines at top level is read where it belongs, in src/ or tests/: a
    # Name load in its own module, a Name load where a file imports it from that module, or an attribute
    # read on that module.  Limits: in its own module a local of the same spelling counts (no scopes),
    # and a name only tests read counts, so a test-only helper passes.
    root = Path(__file__).resolve().parent.parent
    packaged = {module.__name__ for module in MODULES}
    read = set()
    for path in [*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]:
        tree = ast.parse(path.read_text())
        own = f"isophasal.{path.stem}" if path.parent.name == "isophasal" else None
        modules, names = {}, {}  # local name -> the module it binds, or -> the (module, name) it imports
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {alias.asname: alias.name for alias in node.names if alias.asname}
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["isophasal" if node.level else None, node.module]))
                for alias in node.names:
                    local, full = alias.asname or alias.name, f"{base}.{alias.name}"
                    if full in packaged:
                        modules[local] = full
                    else:
                        names[local] = (base, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read |= {names.get(node.id), (own, node.id)}
            elif isinstance(node, ast.Attribute):
                owner = ast.unparse(node.value)
                read.add((modules.get(owner, owner), node.attr))
    unread = []
    for module in MODULES:
        for stmt in ast.parse(Path(module.__file__).read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
            else:
                continue
            unread += [f"{module.__name__}.{name}" for name in defined
                       if (module.__name__, name) not in read and not (name.startswith("__") and name.endswith("__"))]
    assert not unread, f"defined but never read in src/ or tests/: {unread}"
