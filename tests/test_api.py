"""Public API: every exported name resolves."""

import importlib
import pkgutil

import pytest

import gridfilt

MODULES = sorted(m.name for m in pkgutil.iter_modules(gridfilt.__path__))


def test_modules_found():
    assert {"cli", "estimators", "fields", "harness", "signals", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"gridfilt.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
