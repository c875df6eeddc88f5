import importlib
import pkgutil

import pytest

import modlavg


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(modlavg.__path__)))
def test_every_export_resolves(name):
    module = importlib.import_module(f"modlavg.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"modlavg.{name}.__all__ names {missing}"
