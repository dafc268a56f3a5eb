"""Every name a module lists in ``__all__`` exists in that module."""
import importlib
import pkgutil

import pytest

import isocayley

MODULES = sorted(m.name for m in pkgutil.iter_modules(isocayley.__path__, "isocayley."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
