"""Every name a smabar module lists in __all__ exists, so a deleted
function cannot leave a dead export behind."""

import pkgutil

import pytest

import smabar

MODULES = [f"smabar.{m.name}" for m in pkgutil.iter_modules(smabar.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    exec(f"from {module} import *", {})
