"""Randomized identity suites behind the check-identities command.

Each suite draws deterministic samples from a seeded generator, evaluates
one of the package's structural identities along two independent routes,
and reports the worst relative deviation.  The test suite drives the same
functions with pinned seeds and tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .commensurate import (
    ParamCurve,
    check_condition_euclidean,
    commensurate_residual,
    commensurate_residual_general,
)
from .curvegeo import (
    CurveDef,
    affine_integrand,
    affine_integrand_via_euclidean,
    euclidean_frenet,
)
from .errors import AffineMetricsError
from .expr import BinOp, Const
from .surfgeo import (
    affine_first_fundamental,
    affine_lmn,
    check_reparam_covariance,
    fundamental_forms_euclid,
    gauss_curvature,
)

__all__ = [
    "IdentityReport", "random_sl3", "random_invertible_2x2",
    "random_nondegenerate_curve", "random_points", "transformed_surface",
    "transformed_curve", "integrand_routes_suite", "lmn_route_suite", "form_routes_suite",
    "equiaffine_invariance_suite", "reparam_law_suite", "condition_routes_suite",
    "reference_form_suite", "REFERENCE_FORMS",
]


@dataclass(frozen=True)
class IdentityReport:
    name: str
    max_deviation: float
    tolerance: float
    samples: int

    @property
    def passed(self):
        return self.max_deviation <= self.tolerance

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"identity {self.name}: max_dev={self.max_deviation:.3e} "
                f"tol={self.tolerance:.1e} samples={self.samples} {status}")


# ---------------------------------------------------------------------------
# random generators

def random_sl3(rng):
    """Random volume-preserving 3x3 matrix: QR factor a Gaussian matrix,
    fix the orthogonal factor's orientation, rescale to determinant one."""
    while True:
        m = rng.normal(size=(3, 3))
        q, r = np.linalg.qr(m)
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        q = q * signs
        r = signs[:, None] * r                      # positive diagonal
        if float(np.linalg.det(q)) < 0.0:
            q[:, 0] = -q[:, 0]
        a0 = q @ r                                  # det = prod(diag r) > 0
        det = float(np.prod(np.diag(r)))
        if det > 1e-3:
            return a0 / det ** (1.0 / 3.0)


def random_invertible_2x2(rng):
    # |det| bounded away from zero: the transformation-law check divides
    # by det^4, and near-singular maps push the comparison into the
    # cancellation noise of l n - m^2
    while True:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        if abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) > 0.4:
            return m


def random_points(surface, rng, count, margin=0.02):
    du = surface.u_max - surface.u_min
    dv = surface.v_max - surface.v_min
    us = rng.uniform(surface.u_min + margin * du, surface.u_max - margin * du,
                     size=count)
    vs = rng.uniform(surface.v_min + margin * dv, surface.v_max - margin * dv,
                     size=count)
    return list(zip(us.tolist(), vs.tolist()))


def _poly_trig_component(rng):
    coeffs = rng.uniform(-2.0, 2.0, size=5).tolist()
    poly = " + ".join(f"({c!r})*t^{k}" if k else f"({c!r})"
                      for k, c in enumerate(coeffs))
    amp_s, amp_c = rng.uniform(-2.0, 2.0, size=2).tolist()
    freq_s, freq_c = rng.uniform(0.5, 2.5, size=2).tolist()
    return (f"{poly} + ({amp_s!r})*sin(({freq_s!r})*t)"
            f" + ({amp_c!r})*cos(({freq_c!r})*t)")


def random_nondegenerate_curve(rng, max_tries=50):
    """A random polynomial+trig curve and a parameter value where it is
    comfortably nondegenerate with positive torsion.

    The conditioning filters (torsion, curvature, speed bounded away from
    zero) keep the sixth-root comparison meaningful in float arithmetic.
    """
    for _ in range(max_tries):
        curve = CurveDef.from_strings(
            [_poly_trig_component(rng) for _ in range(3)], -1.5, 1.5)
        t = float(rng.uniform(-1.0, 1.0))
        try:
            fr = euclidean_frenet(curve, t)
        except AffineMetricsError:
            continue
        if (fr.tau is not None and fr.tau > 1e-3
                and 1e-3 < fr.kappa < 1e3 and 1e-2 < fr.speed < 1e2):
            return curve, t
    raise RuntimeError("could not draw a well-conditioned curve")


def transformed_surface(surface, matrix, shift):
    """A surface (or a curve) under X -> A X + b, applied at the expression
    level, so that it runs through the identical evaluation pipeline."""
    comps = []
    for i in range(3):
        acc = None
        for j, comp in enumerate(surface.components):
            term = BinOp("*", Const(float(matrix[i][j])), comp)
            acc = term if acc is None else BinOp("+", acc, term)
        comps.append(BinOp("+", acc, Const(float(shift[i]))))
    return replace(surface, components=tuple(comps))


transformed_curve = transformed_surface


# ---------------------------------------------------------------------------
# suites

def _rel_dev(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def integrand_routes_suite(rng, samples, tolerance=1e-8):
    """Determinant route against the (kappa^2 tau)^(1/6) |a'| route on
    random curves with positive torsion."""
    worst = 0.0
    for _ in range(samples):
        curve, t = random_nondegenerate_curve(rng)
        direct = affine_integrand(curve, t)
        euclid = affine_integrand_via_euclidean(curve, t)
        worst = max(worst, _rel_dev(direct, euclid))
    return IdentityReport("integrand-det-vs-euclidean-route", worst, tolerance,
                          samples)


def _regular_nondegenerate_points(surface, rng, count):
    points = []
    tries = 0
    while len(points) < count and tries < 50 * count:
        tries += 1
        (u, v), = random_points(surface, rng, 1)
        try:
            affine_first_fundamental(surface, u, v)
            fundamental_forms_euclid(surface, u, v)
        except AffineMetricsError:
            continue
        points.append((u, v))
    return points


def lmn_route_suite(surface, rng, samples, tolerance=1e-10):
    """l = e sqrt(EG - F^2) and the m, n analogues."""
    worst = 0.0
    points = _regular_nondegenerate_points(surface, rng, samples)
    for (u, v) in points:
        first, second, _ = fundamental_forms_euclid(surface, u, v)
        root = math.sqrt(first.det)
        lmn = affine_lmn(surface, u, v)
        for det_val, dot_val in ((lmn.a, second.a), (lmn.b, second.b),
                                 (lmn.c, second.c)):
            scale = max(abs(det_val), abs(dot_val), root, 1.0)
            worst = max(worst, abs(det_val - dot_val * root) / scale)
    return IdentityReport("lmn-determinant-vs-dot-route", worst, tolerance,
                          len(points))


def form_routes_suite(surface, rng, samples, tolerance=1e-9):
    """I_aff against |K|^(-1/4) II_Euc, coefficientwise up to one common
    sign (the affine form is sign-normalized, the second form follows the
    cross-product normal)."""
    worst = 0.0
    points = _regular_nondegenerate_points(surface, rng, samples)
    for (u, v) in points:
        form = affine_first_fundamental(surface, u, v)
        _, second, _ = fundamental_forms_euclid(surface, u, v)
        K = gauss_curvature(surface, u, v)
        factor = abs(K) ** (-0.25)
        expected = np.array([second.a, second.b, second.c]) * factor
        got = np.array([form.a, form.b, form.c])
        sign = -1.0 if float(expected @ got) < 0.0 else 1.0
        scale = max(float(np.abs(expected).max()), 1e-30)
        worst = max(worst, float(np.abs(got - sign * expected).max()) / scale)
    return IdentityReport("form-det-vs-euclidean-route", worst, tolerance,
                          len(points))


def equiaffine_invariance_suite(surface, rng, samples, tolerance=1e-8):
    """Affine form coefficients and the curve-condition residual are
    unchanged under volume-preserving maps of the ambient space."""
    worst = 0.0
    count = 0
    for _ in range(max(1, samples // 4)):
        A = random_sl3(rng)
        b = rng.uniform(-1.0, 1.0, size=3)
        moved = transformed_surface(surface, A, b)
        for (u, v) in _regular_nondegenerate_points(surface, rng, 4):
            try:
                f0 = affine_first_fundamental(surface, u, v)
                f1 = affine_first_fundamental(moved, u, v)
            except AffineMetricsError:
                continue
            scale = max(abs(f0.a), abs(f0.b), abs(f0.c), 1e-30)
            worst = max(worst,
                        max(abs(f0.a - f1.a), abs(f0.b - f1.b),
                            abs(f0.c - f1.c)) / scale)
            state = (u, v, *rng.uniform(-1.0, 1.0, size=3))
            try:
                r0 = commensurate_residual(surface, state)
                r1 = commensurate_residual(moved, state)
            except AffineMetricsError:
                continue
            worst = max(worst, abs(r0 - r1) / max(abs(r0), abs(r1), 1.0))
            count += 1
    return IdentityReport("equiaffine-invariance", worst, tolerance,
                          count)


def reparam_law_suite(surface, rng, samples, tolerance=1e-9):
    """(l n - m^2) transforms with the fourth power of the parameter
    Jacobian determinant."""
    worst = 0.0
    points = _regular_nondegenerate_points(surface, rng, samples)
    for (u, v) in points:
        jac = random_invertible_2x2(rng)
        lhs, rhs = check_reparam_covariance(surface, u, v, jac)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return IdentityReport("reparam-fourth-power-law", worst, tolerance,
                          len(points))


def condition_routes_suite(surface, rng, samples, tolerance=1e-8):
    """The residual of the curve condition computed from determinants
    agrees with speed^6 times the Euclidean-invariant form of the same
    condition (curvature-torsion route)."""
    worst = 0.0
    count = 0
    points = _regular_nondegenerate_points(surface, rng, samples)
    for (u, v) in points:
        c1u, c2u, c1v, c2v = rng.uniform(-1.0, 1.0, size=4).tolist()
        norm = math.hypot(c1u, c1v)
        if norm < 0.3:
            continue
        pc = ParamCurve.from_strings(
            surface,
            f"({u!r}) + ({c1u!r})*t + ({c2u!r})*t^2",
            f"({v!r}) + ({c1v!r})*t + ({c2v!r})*t^2",
            -0.1, 0.1)
        derivs = (c1u, c1v, 2.0 * c2u, 2.0 * c2v, 0.0, 0.0)
        try:
            residual = commensurate_residual_general(surface, u, v, derivs)
            check = check_condition_euclidean(pc, 0.0)
        except AffineMetricsError:
            continue
        if check.degenerate:
            continue
        speed = float(np.linalg.norm(
            [comp.coeffs[1] for comp in pc.curve_jets(0.0, 3)]))
        other = speed ** 6 * (check.lhs - check.rhs)
        worst = max(worst,
                    abs(residual - other) / max(abs(residual), abs(other), 1.0))
        count += 1
    return IdentityReport("condition-det-vs-euclidean-route", worst,
                          tolerance, count)


# closed forms from the worked examples, used as reference checks for the
# catalog names (and as the forced-failure path for perturbed expressions)
REFERENCE_FORMS = {
    "sphere": {
        "iaff": lambda u, v: (math.cos(v) ** 2, 0.0, 1.0),
        "gauss": lambda u, v: 1.0,
    },
    "helicoid": {
        "iaff": lambda u, v: (0.0, -1.0, 0.0),
        "gauss": lambda u, v: -1.0 / (u * u + 1.0) ** 2,
    },
    "paraboloid": {
        "iaff": lambda u, v: (math.sqrt(2.0) * v * v, 0.0, math.sqrt(2.0)),
    },
    "hyperbolic-paraboloid": {
        "iaff": lambda u, v: (0.0, 1.0, 0.0),
    },
    "hyperboloid": {
        "lmn": lambda u, v: (-(v * v + 1.0), -1.0, 0.0),
    },
}


def reference_form_suite(surface, reference, rng, samples, tolerance=1e-9):
    """Closed-form invariants of the named catalog surface against the
    supplied parametrization."""
    forms = REFERENCE_FORMS[reference]
    worst = 0.0
    points = _regular_nondegenerate_points(surface, rng, samples)
    for (u, v) in points:
        if "iaff" in forms:
            form = affine_first_fundamental(surface, u, v)
            exp = forms["iaff"](u, v)
            scale = max(max(abs(x) for x in exp), 1.0)
            worst = max(worst, max(abs(form.a - exp[0]), abs(form.b - exp[1]),
                                   abs(form.c - exp[2])) / scale)
        if "lmn" in forms:
            lmn = affine_lmn(surface, u, v)
            exp = forms["lmn"](u, v)
            scale = max(max(abs(x) for x in exp), 1.0)
            worst = max(worst, max(abs(lmn.a - exp[0]), abs(lmn.b - exp[1]),
                                   abs(lmn.c - exp[2])) / scale)
        if "gauss" in forms:
            K = gauss_curvature(surface, u, v)
            exp = forms["gauss"](u, v)
            worst = max(worst, abs(K - exp) / max(abs(exp), 1.0))
    return IdentityReport(f"reference-forms-{reference}", worst, tolerance,
                          len(points))
