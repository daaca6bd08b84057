import importlib
import pkgutil

import pytest

import affinemetrics

MODULES = sorted(f"affinemetrics.{info.name}"
                 for info in pkgutil.iter_modules(affinemetrics.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry fails only at ``from module import *``
    module = importlib.import_module(name)
    missing = [item for item in getattr(module, "__all__", ())
               if not hasattr(module, item)]
    assert not missing, missing
