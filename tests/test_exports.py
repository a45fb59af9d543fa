"""Every name a hurwitz module lists in `__all__` resolves, so deleting a
function cannot leave `from hurwitz.<module> import *` broken, and is used
outside its module, so `__all__` holds no dead API."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hurwitz

# cli is the command-line surface and exports nothing.
MODULES = sorted(m.name for m in pkgutil.iter_modules(hurwitz.__path__) if m.name != "cli")

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {
    path: path.read_text()
    for folder in ("src/hurwitz", "tests", "perfbench")
    for path in sorted((ROOT / folder).glob("*.py"))
}


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    module = importlib.import_module(f"hurwitz.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from hurwitz.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_referenced_outside_its_module(name):
    """A name in `__all__` that no other module of src, tests or perfbench
    mentions is dead API."""
    own = ROOT / "src" / "hurwitz" / f"{name}.py"
    others = [text for path, text in SOURCES.items() if path != own]
    module = importlib.import_module(f"hurwitz.{name}")
    unused = [
        n for n in module.__all__ if not any(re.search(rf"\b{n}\b", text) for text in others)
    ]
    assert unused == []
