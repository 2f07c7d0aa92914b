"""Every name in each module's __all__ resolves, once."""

import importlib
import pkgutil

import pytest

import isophasal

MODULES = [importlib.import_module(f"isophasal.{info.name}") for info in pkgutil.iter_modules(isophasal.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)

