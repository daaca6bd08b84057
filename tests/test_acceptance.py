"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured deviation against its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math

import numpy as np
import pytest
from reference_routes import (
    CurveDef,
    check_reparam_covariance,
    finite_diff,
    sphere_reference_curve,
)

from affinemetrics.commensurate import (
    BREAKDOWN_SEEDS,
    CommensurateIVP,
    ParamCurve,
    TraceCurve,
    _condition_check,
    _sigma_integrand,
    commensurate_residual,
    integrate_commensurate,
    induced_arclength,
)
from affinemetrics.curvegeo import affine_arclength, affine_integrand
from affinemetrics.errors import AffineMetricsError
from affinemetrics.identities import (
    integrand_routes_suite,
    form_routes_suite,
    random_invertible_2x2,
    random_points,
    random_sl3,
    transformed_surface,
)
from affinemetrics.numerics import (
    OdeOptions,
    ode_solve,
    quad_adaptive,
)
from affinemetrics.surfgeo import (
    CATALOG,
    affine_first_fundamental,
    gauss_curvature,
)

SQRT_2PI = 2.5066282746310002
SPHERICAL_HELIX_SIGMA = 6.807910764719872   # 10^6-panel Simpson oracle


def _report(number, name, deviation, tolerance):
    status = "PASS" if deviation <= tolerance else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} "
          f"(deviation {deviation:.3e} <= {tolerance:.1e})")
    assert deviation <= tolerance, \
        f"criterion {number} ({name}): {deviation:.3e} > {tolerance:.1e}"


def _report_bool(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed {detail}"


def test_criterion_01_sphere_affine_form():
    surface = CATALOG["sphere"]
    us = np.linspace(surface.u_min + 1e-6, surface.u_max - 1e-6, 20)
    vs = np.linspace(surface.v_min + 1e-6, surface.v_max - 1e-6, 20)
    worst = 0.0
    for u in us:
        for v in vs:
            form = affine_first_fundamental(surface, float(u), float(v))
            worst = max(worst,
                        abs(form.a - math.cos(v) ** 2),
                        abs(form.b),
                        abs(form.c - 1.0))
    _report(1, "sphere-affine-form-grid", worst, 1e-10)


def test_criterion_02_spherical_helix_integrands():
    surface = CATALOG["sphere"]
    helix = ParamCurve.from_strings(surface, "8*t", "t", 0.0, 1.0)
    worst = 0.0
    for t in [k / 10.0 for k in range(11)]:
        induced = _sigma_integrand(*helix.form_direction(t), 1.0)[0]
        expected = math.sqrt(1.0 + 64.0 * math.cos(t) ** 2)
        worst = max(worst, abs(induced - expected) / expected)
        affine = affine_integrand(helix, t)
        expected = (48.0 * math.cos(t)
                    * (43.0 + 672.0 * math.cos(t) ** 2)) ** (1.0 / 6.0)
        worst = max(worst, abs(affine - expected) / expected)
    _report(2, "spherical-helix-integrands", worst, 1e-9)


def test_criterion_03_helicoid_worked_values():
    surface = CATALOG["helicoid"]
    worst_k = 0.0
    for u in np.linspace(-3.9, 3.9, 50):
        got = gauss_curvature(surface, float(u), 0.3)
        worst_k = max(worst_k, abs(got + 1.0 / (u * u + 1.0) ** 2))
    _report(3, "helicoid-gauss-curvature", worst_k, 1e-10)

    worst_form = 0.0
    for (u, v) in [(1.0, 0.0), (-2.0, 3.0), (0.5, -1.0), (3.0, 8.0)]:
        form = affine_first_fundamental(surface, u, v)
        worst_form = max(worst_form, abs(form.a), abs(form.b + 1.0),
                         abs(form.c))
    _report(3, "helicoid-affine-form", worst_form, 1e-10)

    ruling = ParamCurve.from_strings(surface, "t", "0.5", 0.0, 2.0)
    s_sigma = induced_arclength(ruling, 0.0, 2.0)
    s_alpha = affine_arclength(ruling, 0.0, 2.0)
    _report_bool(3, "helicoid-ruling-degenerate-zero",
                 s_sigma.value == 0.0 and s_sigma.degenerate
                 and abs(s_alpha.value) < 1e-12 and s_alpha.degenerate,
                 f"(s_alpha={s_alpha.value!r}, s_sigma={s_sigma.value!r})")

    spiral = ParamCurve.from_strings(surface, "t", "pi*t", 0.0, 1.5)
    got = induced_arclength(spiral, 0.0, 1.0, rel_tol=1e-12,
                            abs_tol=1e-14).value
    _report(3, "helical-spiral-induced-length", abs(got - SQRT_2PI), 1e-9)

    worst = 0.0
    for t in np.linspace(0.0, 1.0, 10):
        expected = (6.0 * math.pi ** 4
                    + t * t * math.pi ** 6) ** (1.0 / 6.0)
        got = affine_integrand(spiral, float(t))
        worst = max(worst, abs(got - expected) / expected)
    _report(3, "helical-spiral-affine-integrand", worst, 1e-9)


def test_criterion_04_integrand_routes_random_curves():
    report = integrand_routes_suite(np.random.default_rng(2024), 500, tolerance=1e-8)
    _report(4, "integrand-routes-500-random-curves", report.max_deviation,
            report.tolerance)


def test_criterion_05_form_routes_all_catalog_surfaces():
    worst = 0.0
    for name in sorted(CATALOG):
        report = form_routes_suite(CATALOG[name], np.random.default_rng(55), 200,
                              tolerance=1e-9)
        worst = max(worst, report.max_deviation)
    _report(5, "form-routes-six-surfaces-200-points", worst, 1e-9)


def test_criterion_06_equiaffine_invariance():
    rng = np.random.default_rng(66)
    curves = [
        CurveDef.from_strings("t; t^2; t^3", -2.0, 2.0),
        CurveDef.from_strings("cos(t); sin(t); t", -4.0, 4.0),
    ]
    worst = 0.0
    for k in range(100):
        A = random_sl3(rng)
        b = rng.uniform(-1.0, 1.0, size=3)
        surface = CATALOG["paraboloid"] if k % 2 == 0 else CATALOG["helicoid"]
        moved_surface = transformed_surface(surface, A, b)
        for (u, v) in random_points(surface, rng, 2):
            try:
                f0 = affine_first_fundamental(surface, u, v)
                f1 = affine_first_fundamental(moved_surface, u, v)
            except AffineMetricsError:
                continue
            scale = max(abs(f0.a), abs(f0.b), abs(f0.c))
            worst = max(worst, max(abs(f0.a - f1.a), abs(f0.b - f1.b),
                                   abs(f0.c - f1.c)) / scale)
            state = (u, v, *rng.uniform(-1.0, 1.0, size=3).tolist())
            r0 = commensurate_residual(surface, state)
            r1 = commensurate_residual(moved_surface, state)
            worst = max(worst, abs(r0 - r1) / max(abs(r0), abs(r1), 1.0))
        curve = curves[k % 2]
        t = float(rng.uniform(0.2, 1.0))
        moved_curve = transformed_surface(curve, A, b)
        i0 = affine_integrand(curve, t)
        i1 = affine_integrand(moved_curve, t)
        worst = max(worst, abs(i0 - i1) / i0)
    _report(6, "equiaffine-invariance-100-maps", worst, 1e-8)


def test_criterion_07_reparam_transformation_law():
    rng = np.random.default_rng(77)
    worst = 0.0
    for name in ("sphere", "paraboloid", "helicoid"):
        surface = CATALOG[name]
        for (u, v) in random_points(surface, rng, 200):
            jac = random_invertible_2x2(rng)
            try:
                lhs, rhs = check_reparam_covariance(surface, u, v, jac)
            except AffineMetricsError:
                continue
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    _report(7, "reparam-law-200-maps-3-surfaces", worst, 1e-9)


# seed set for criterion 8: five valid starts per surface
_CRIT8_IVPS = {
    "sphere": [(0.0, 0.0, 0.0, 0.5), (0.2, 0.1, 0.7, -0.3),
               (-0.5, 0.3, 1.2, 0.0), (1.0, -0.4, 2.0, 0.4),
               (0.0, 0.5, -0.8, -0.5)],
    "paraboloid": [(0.5, 0.5, 0.3, 0.0), (0.0, 1.0, 0.9, 0.2),
                   (-0.8, 1.5, 1.8, -0.2), (1.2, 0.8, 2.5, 0.3),
                   (0.3, 2.0, -0.5, 0.1)],
}


def test_criterion_08_solver_self_consistency():
    worst_residual = 0.0
    worst_condition = 0.0
    for name, seeds in _CRIT8_IVPS.items():
        surface = CATALOG[name]
        for (u0, v0, theta0, omega0) in seeds:
            ivp = CommensurateIVP(surface, u0, v0, theta0, omega0=omega0,
                                  t_span=(0.0, 1.0))
            trace = integrate_commensurate(ivp)
            assert trace.termination == "completed", (name, u0, v0, theta0,
                                                      omega0,
                                                      trace.termination)
            worst_residual = max(worst_residual, trace.max_residual)

            tc = TraceCurve(trace)
            for t in np.linspace(0.05, 0.95, 10):
                t = float(t)
                omega_dot_fd = finite_diff(
                    lambda s: trace.state_at(s)[3], t, order=1, step=1e-3)
                chk, _ = _condition_check(tc.sample(t, omega_dot_fd))
                worst_condition = max(worst_condition,
                                      abs(chk.lhs - chk.rhs))
    _report(8, "solver-residual-10-ivps", worst_residual, 1e-6)
    _report(8, "euclidean-condition-fd-hybrid", worst_condition, 1e-5)


def test_criterion_09_sphere_reference_curve():
    ref = sphere_reference_curve(5.0, 0.05)
    centers = np.array([ref.center(i) for i in range(len(ref.s))])
    drift = float(np.abs(centers - centers[0]).max())
    _report(9, "sphere-center-drift", drift, 1e-6)
    radii = np.linalg.norm(ref.position - centers, axis=1)
    _report(9, "sphere-unit-radius", float(np.abs(radii - 1.0).max()), 1e-6)
    _report(9, "curvature-torsion-product",
            float(np.abs(ref.kappa ** 2 * ref.tau - 1.0).max()), 1e-12)
    geo = max(abs(ref.geodesic_curvature(i) - ref.s[i])
              for i in range(len(ref.s)))
    _report(9, "geodesic-curvature-equals-arclength", float(geo), 1e-9)


def test_criterion_10_hyperbolic_breakdown():
    for name in ("hyperbolic-paraboloid", "hyperboloid", "helicoid"):
        seed = BREAKDOWN_SEEDS[name][0]
        ivp = CommensurateIVP(CATALOG[name], seed["u0"], seed["v0"],
                              seed["theta0"], omega0=seed["omega0"],
                              t_span=(0.0, seed["t_max"]),
                              rel_tol=1e-7, abs_tol=1e-9, max_steps=40_000)
        trace = integrate_commensurate(ivp)
        ok = (trace.termination == "AsymptoticProximity"
              and trace.t_stop < 10.0)
        _report_bool(10, f"breakdown-{name}", ok,
                     f"({trace.termination} at t={trace.t_stop:.3f})")


def test_criterion_11_numerics_kernels():
    res = ode_solve(
        lambda t, y: np.array([-1000.0 * (y[0] - math.cos(t))
                               - math.sin(t)]),
        [1.0], (0.0, 1.0), OdeOptions(rel_tol=1e-8, abs_tol=1e-10))
    _report(11, "stiff-problem-final-error",
            abs(res.ys[-1][0] - math.cos(1.0)), 1e-6)

    q1 = quad_adaptive(lambda t: t * t, 0.0, 1.0)
    _report(11, "quad-monomial", abs(q1.value - 1.0 / 3.0), 1e-12)
    q2 = quad_adaptive(math.sin, 0.0, math.pi)
    _report(11, "quad-sine", abs(q2.value - 2.0), 1e-12)
    q3 = quad_adaptive(lambda s: math.sqrt(1.0 + 64.0 * math.cos(s) ** 2),
                       0.0, 1.0, rel_tol=1e-12, abs_tol=1e-14)
    _report(11, "quad-simpson-oracle", abs(q3.value - SPHERICAL_HELIX_SIGMA),
            1e-9)
