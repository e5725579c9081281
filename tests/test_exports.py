"""Star imports of every module: a stale __all__ entry fails with AttributeError."""

import pkgutil

import pytest

import fsz_lab

MODULES = ["fsz_lab"] + [f"fsz_lab.{m.name}" for m in pkgutil.iter_modules(fsz_lab.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})
