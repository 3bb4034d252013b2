"""The package's public surface: every name a module lists in __all__
exists, and every name the package re-exports from a module is listed in
that module's __all__, so a half-done deletion fails here."""

import ast
import importlib
from pathlib import Path

import pytest

import orbitloop

MODULES = ["linalg", "ltisys", "dynamics", "synthesis", "simulate"]


def _reexports() -> dict[str, set[str]]:
    """Per module, the names orbitloop/__init__.py imports from it."""
    tree = ast.parse(Path(orbitloop.__file__).read_text())
    names: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"orbitloop.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_package_reexports_are_public(name):
    module = importlib.import_module(f"orbitloop.{name}")
    reexported = _reexports()[name]
    assert reexported, f"orbitloop re-exports nothing from {name}"
    assert reexported <= set(module.__all__), reexported - set(module.__all__)
