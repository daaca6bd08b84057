"""Equiaffine differential invariants of curves and surfaces in 3-space,
comparison of the intrinsic and surface-induced affine arc lengths, and
numerical generation of curves on which the two agree.

Importing the package loads none of its modules: each public name is
imported from its home module when first read (PEP 562), so a command
line loads only the modules that its command runs.
"""

__version__ = "0.1.0"

# public name -> home module, spelled per module; a module's own name
# stands for the module itself
_HOME = {name: module for module, names in {
    "errors": ("errors",),
    "curvegeo": ("curvegeo", "ArcLength", "FrenetData", "affine_arclength",
                 "affine_integrand", "affine_integrand_via_euclidean",
                 "euclidean_frenet"),
    "commensurate": ("commensurate", "CommensurateIVP", "ParamCurve",
                     "SolutionTrace", "TraceCurve", "commensurate_residual",
                     "induced_arclength", "integrate_commensurate",
                     "run_family", "solve_theta_dd"),
    "expr": ("expr", "eval_ast", "parse_expression", "pretty", "tokenize"),
    "jets": ("jets", "Jet1", "Jet2", "compose_curve_in_surface"),
    "numerics": ("numerics", "OdeEvent", "OdeOptions", "QuadResult",
                 "find_root_bracketed", "ode_solve", "quad_adaptive"),
    "surfgeo": ("surfgeo", "CATALOG", "AffineForm", "QuadForm", "SurfaceDef",
                "affine_first_fundamental", "fundamental_forms_euclid",
                "gauss_curvature", "surface_jets"),
}.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value         # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
