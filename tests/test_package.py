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


# the package root's names per home module, the module itself among them;
# perfbench's span recorder reads Jet1 and Jet2 off the root
NAMES = {
    "errors": {"errors"},
    "curvegeo": {"curvegeo", "ArcLength", "FrenetData", "affine_arclength",
                 "affine_integrand", "affine_integrand_via_euclidean",
                 "euclidean_frenet"},
    "commensurate": {"commensurate", "CommensurateIVP", "ParamCurve",
                     "SolutionTrace", "TraceCurve", "commensurate_residual",
                     "induced_arclength", "integrate_commensurate",
                     "run_family", "solve_theta_dd"},
    "expr": {"expr", "eval_ast", "parse_expression", "pretty", "tokenize"},
    "jets": {"jets", "Jet1", "Jet2", "compose_curve_in_surface"},
    "numerics": {"numerics", "OdeEvent", "OdeOptions", "QuadResult",
                 "find_root_bracketed", "ode_solve", "quad_adaptive"},
    "surfgeo": {"surfgeo", "CATALOG", "AffineForm", "QuadForm", "SurfaceDef",
                "affine_first_fundamental", "fundamental_forms_euclid",
                "gauss_curvature", "surface_jets"},
}


def test_package_names_are_their_home_objects():
    homes = affinemetrics._HOME
    assert set(NAMES) == SUBMODULES
    assert homes == {name: home for home, names in NAMES.items()
                     for name in names}
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
