import importlib
import pkgutil

import pytest

import affinemetrics

MODULES = ["affinemetrics"] + sorted(
    f"affinemetrics.{info.name}"
    for info in pkgutil.iter_modules(affinemetrics.__path__))

# the submodules that the package root names
SUBMODULES = {"errors", "expr", "jets", "numerics", "surfgeo", "curvegeo",
              "commensurate"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry fails only at ``from module import *``
    module = importlib.import_module(name)
    missing = [item for item in getattr(module, "__all__", ())
               if not hasattr(module, item)]
    assert not missing, missing


def test_package_names_are_their_home_objects():
    # 49 names of the modules' own and the 7 modules themselves
    homes = affinemetrics._HOME
    assert len(homes) == 56 and set(homes.values()) == SUBMODULES
    for name, home in homes.items():
        module = importlib.import_module(f"affinemetrics.{home}")
        expected = module if name == home else getattr(module, name)
        assert getattr(affinemetrics, name) is expected, name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from affinemetrics import *", namespace)
    assert set(affinemetrics.__all__) <= namespace.keys()
    assert set(affinemetrics.__all__) <= set(dir(affinemetrics))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        affinemetrics.no_such_name
    assert not hasattr(affinemetrics, "no_such_name")
