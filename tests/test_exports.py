"""Every name a hurwitz module lists in `__all__` resolves, so deleting a
function cannot leave `from hurwitz.<module> import *` broken."""

import importlib
import pkgutil

import pytest

import hurwitz

# cli is the command-line surface and exports nothing.
MODULES = sorted(m.name for m in pkgutil.iter_modules(hurwitz.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    module = importlib.import_module(f"hurwitz.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from hurwitz.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
