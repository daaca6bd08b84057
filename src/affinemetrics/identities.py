"""Randomized identity suites behind the check-identities command.

Each suite draws deterministic samples from a seeded generator, evaluates
one of the package's structural identities along two independent routes,
and reports the worst relative deviation.  The test suite drives the same
functions with pinned seeds and tolerances.

Random curves are built directly as expression trees, never written out
and parsed, and each sample's jets are evaluated once and shared by both
routes and by the sample filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial, reduce

import numpy as np

from .commensurate import (
    NodeTable,
    ParamCurve,
    _residual,
    check_condition_euclidean,
    commensurate_residual,
)
from .curvegeo import CurveDef, _alpha_integrand, curve_jets, frenet_from_jets
from .errors import AffineMetricsError
from .expr import BinOp, Call, Const, Var
from .surfgeo import (
    AffineForm,
    QuadForm,
    _reparam_discriminant,
    affine_first_fundamental,
    form_from_jets,
    forms_from_jets,
    gauss_from_forms,
    lmn_from_jets,
    surface_jets,
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


# Sample curves are trees in the shape the parser gives their written form.
# The parser reads "(c)" with c < 0 as Neg(Const(-c)); Const(c) evaluates
# to the same float.
_T = Var("t")


def _sum(terms):
    """The left-associated tree the parser makes of "a + b + c"."""
    return reduce(partial(BinOp, "+"), terms)


def _times(coeff, factor):
    return BinOp("*", Const(coeff), factor)


def _poly_trig_component(rng):
    """The tree of "(c0) + (c1)*t^1 + ... + (c4)*t^4 + (a)*sin((f)*t)
    + (b)*cos((g)*t)" with random coefficients."""
    coeffs = rng.uniform(-2.0, 2.0, size=5).tolist()
    amp_s, amp_c = rng.uniform(-2.0, 2.0, size=2).tolist()
    freq_s, freq_c = rng.uniform(0.5, 2.5, size=2).tolist()
    powers = [_times(c, BinOp("^", _T, Const(float(k))))
              for k, c in enumerate(coeffs) if k]
    return _sum([Const(coeffs[0]), *powers,
                 _times(amp_s, Call("sin", _times(freq_s, _T))),
                 _times(amp_c, Call("cos", _times(freq_c, _T)))])


def _draw_curve(rng, max_tries=50):
    """(curve, t, order-3 jets at t, Frenet data at t) for
    random_nondegenerate_curve, with the jets evaluated once."""
    for _ in range(max_tries):
        curve = CurveDef(tuple(_poly_trig_component(rng) for _ in range(3)),
                         -1.5, 1.5)
        t = float(rng.uniform(-1.0, 1.0))
        try:
            jets = curve_jets(curve, t, 3)
            fr = frenet_from_jets(jets, t)
        except AffineMetricsError:
            continue
        if (fr.tau is not None and fr.tau > 1e-3
                and 1e-3 < fr.kappa < 1e3 and 1e-2 < fr.speed < 1e2):
            return curve, t, jets, fr
    raise RuntimeError("could not draw a well-conditioned curve")


def random_nondegenerate_curve(rng, max_tries=50):
    """A random polynomial+trig curve and a parameter value where it is
    comfortably nondegenerate with positive torsion.

    The conditioning filters (torsion, curvature, speed bounded away from
    zero) keep the sixth-root comparison meaningful in float arithmetic.
    """
    return _draw_curve(rng, max_tries)[:2]


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
        # the draw holds tau > 0, so the determinant is positive and past
        # the degeneracy threshold: neither route can raise here
        _, _, jets, fr = _draw_curve(rng)
        direct = _alpha_integrand(jets, False)[0]
        euclid = (fr.kappa ** 2 * fr.tau) ** (1.0 / 6.0) * fr.speed
        worst = max(worst, _rel_dev(direct, euclid))
    return IdentityReport("integrand-det-vs-euclidean-route", worst, tolerance,
                          samples)


@dataclass(frozen=True)
class _Point:
    """A sample point with its order-2 surface jets, its affine form and
    its Euclidean first and second forms, all from one evaluation."""

    u: float
    v: float
    jets: tuple
    form: AffineForm
    first: QuadForm
    second: QuadForm


def _regular_nondegenerate_points(surface, rng, count):
    points = []
    tries = 0
    while len(points) < count and tries < 50 * count:
        tries += 1
        (u, v), = random_points(surface, rng, 1)
        try:
            jets = surface_jets(surface, u, v, 2)
            form = form_from_jets(jets)
            first, second, _ = forms_from_jets(jets, u, v)
        except AffineMetricsError:
            continue
        points.append(_Point(u, v, jets, form, first, second))
    return points


def lmn_route_suite(surface, rng, samples, tolerance=1e-10):
    """l = e sqrt(EG - F^2) and the m, n analogues."""
    worst = 0.0
    points = _regular_nondegenerate_points(surface, rng, samples)
    for p in points:
        root = math.sqrt(p.first.det)
        lmn = lmn_from_jets(p.jets)
        for det_val, dot_val in zip(lmn.coefficients(),
                                    p.second.coefficients()):
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
    for p in points:
        factor = abs(gauss_from_forms(p.first, p.second)) ** (-0.25)
        expected = np.array(p.second.coefficients()) * factor
        got = np.array(p.form.coefficients())
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
        for p in _regular_nondegenerate_points(surface, rng, 4):
            u, v, f0 = p.u, p.v, p.form
            try:
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
    for p in points:
        lhs, jdet = _reparam_discriminant(surface, p.u, p.v,
                                          random_invertible_2x2(rng))
        rhs = lmn_from_jets(p.jets).det * jdet ** 4
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return IdentityReport("reparam-fourth-power-law", worst, tolerance,
                          len(points))


def _quadratic(c0, c1, c2):
    """The tree of "(c0) + (c1)*t + (c2)*t^2"."""
    return _sum([Const(c0), _times(c1, _T),
                 _times(c2, BinOp("^", _T, Const(2.0)))])


def condition_routes_suite(surface, rng, samples, tolerance=1e-8):
    """The residual of the curve condition computed from determinants
    agrees with speed^6 times the Euclidean-invariant form of the same
    condition (curvature-torsion route)."""
    worst = 0.0
    count = 0
    points = _regular_nondegenerate_points(surface, rng, samples)
    for p in points:
        u, v = p.u, p.v
        c1u, c2u, c1v, c2v = rng.uniform(-1.0, 1.0, size=4).tolist()
        norm = math.hypot(c1u, c1v)
        if norm < 0.3:
            continue
        # one order-3 node at t = 0 serves the residual, the Euclidean
        # route and the speed
        pc = NodeTable(ParamCurve(surface, _quadratic(u, c1u, c2u),
                                  _quadratic(v, c1v, c2v), -0.1, 0.1))
        try:
            node = pc.node_jets(0.0, 3)
            residual = _residual(node)
            check = check_condition_euclidean(pc, 0.0)
        except AffineMetricsError:
            continue
        if check.degenerate:
            continue
        speed = float(np.linalg.norm([comp.coeffs[1] for comp in node[3]]))
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
    for p in points:
        u, v = p.u, p.v
        if "iaff" in forms:
            form = p.form
            exp = forms["iaff"](u, v)
            scale = max(max(abs(x) for x in exp), 1.0)
            worst = max(worst, max(abs(form.a - exp[0]), abs(form.b - exp[1]),
                                   abs(form.c - exp[2])) / scale)
        if "lmn" in forms:
            lmn = lmn_from_jets(p.jets)
            exp = forms["lmn"](u, v)
            scale = max(max(abs(x) for x in exp), 1.0)
            worst = max(worst, max(abs(lmn.a - exp[0]), abs(lmn.b - exp[1]),
                                   abs(lmn.c - exp[2])) / scale)
        if "gauss" in forms:
            K = gauss_from_forms(p.first, p.second)
            exp = forms["gauss"](u, v)
            worst = max(worst, abs(K - exp) / max(abs(exp), 1.0))
    return IdentityReport(f"reference-forms-{reference}", worst, tolerance,
                          len(points))
