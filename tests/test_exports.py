"""Every name in a `minorant` module's `__all__` resolves."""

import importlib
import pkgutil

import pytest

import minorant

MODULES = sorted(m.name for m in pkgutil.iter_modules(minorant.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"minorant.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
