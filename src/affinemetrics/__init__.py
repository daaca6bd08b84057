"""Equiaffine differential invariants of curves and surfaces in 3-space,
comparison of the intrinsic and surface-induced affine arc lengths, and
numerical generation of curves on which the two agree."""

from . import errors
from .curvegeo import (
    ArcLength,
    CurveDef,
    FrenetData,
    affine_arclength,
    affine_integrand,
    affine_integrand_via_euclidean,
    curve_jets,
    euclidean_frenet,
)
from .commensurate import (
    CommensurateIVP,
    ParamCurve,
    SolutionTrace,
    TraceCurve,
    check_condition_euclidean,
    commensurate_residual,
    commensurate_residual_general,
    induced_arclength,
    induced_arclength_integrand,
    integrate_commensurate,
    run_family,
    solve_theta_dd,
    sphere_reference_curve,
)
from .expr import eval_ast, parse_expression, pretty, tokenize
from .jets import Jet1, Jet2, compose_curve_in_surface
from .numerics import (
    OdeEvent,
    OdeOptions,
    QuadResult,
    find_root_bracketed,
    finite_diff,
    ode_solve,
    quad_adaptive,
)
from .surfgeo import (
    CATALOG,
    AffineForm,
    QuadForm,
    SurfaceDef,
    affine_first_fundamental,
    affine_lmn,
    catalog_surface,
    check_reparam_covariance,
    classify_point,
    fundamental_forms_euclid,
    gauss_curvature,
    iaff_apply,
    normal_curvature,
    surface_jets,
)

__version__ = "0.1.0"
