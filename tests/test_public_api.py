"""Every name that kickflow or one of its modules exports in __all__ exists.

The benchmark tracer wraps functions by module ``__all__``, so a stale
entry would otherwise go unnoticed.
"""

import importlib
import pkgutil

import pytest

import kickflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(kickflow.__path__))


def test_package_all_resolves():
    missing = [name for name in kickflow.__all__ if not hasattr(kickflow, name)]
    assert not missing, f"kickflow.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"kickflow.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"kickflow.{module}.__all__ names missing attributes: {missing}"
