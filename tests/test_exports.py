"""Every exported name resolves, and the package re-exports only what its modules export."""

import importlib
import pkgutil

import pytest

import isophasal

MODULES = [importlib.import_module(f"isophasal.{info.name}") for info in pkgutil.iter_modules(isophasal.__path__)]


@pytest.mark.parametrize("module", [isophasal, *MODULES], ids=lambda mod: mod.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_are_module_exports():
    stray = [
        name
        for name in isophasal.__all__
        if not any(name in mod.__all__ and getattr(mod, name) is getattr(isophasal, name) for mod in MODULES)
    ]
    assert not stray, f"isophasal exports names no module's __all__ lists: {stray}"
