"""Randomized identity suites behind the check-identities command.

Each suite draws deterministic samples from a seeded generator, evaluates
one of the package's structural identities along two independent routes,
and reports the worst relative deviation.  The test suite drives the same
functions with pinned seeds and tolerances.

Random curves are drawn as coefficients, never written out, parsed or
built as expression trees.  The integrand suite reads each sample's
order-3 jets off one straight-line kernel bound to those coefficients,
and shares them between both routes and the sample filter; the
condition suite's quadratic paths read their derivatives at t = 0 off a
kernel of their own.  tape records both at import from eval_ast's walks
of template trees over variable coefficients: the jets are the trees'
own, bit for bit.  Only the moved surfaces of the invariance suite are
expression trees; their jets, like those of the reparametrization walks,
come from eval_ast or its recorded walk (surfgeo), never from the jets'
chain rule that the two suites check.

The generators are numpy's.  Every uniform draw is a scaled rng.random
draw (_uniform), bit for bit what rng.uniform gives for the same bounds;
each sample takes all its numbers from one rng.random call, and so does
each round of sample points.  The integrand suite reflects a curve with
negative torsion instead of drawing again, so nearly every try is a
sample.  The functions that build arrays import numpy themselves, so
importing this module (as the CLI does) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial, reduce
from typing import NamedTuple

from .commensurate import (
    _condition_check,
    _path_node,
    commensurate_residual,
)
from .curvegeo import (
    _alpha_integrand,
    _columns,
    _frenet_invariants,
    _norm,
)
from .errors import AffineMetricsError, NonFiniteValue
from .expr import BinOp, Call, Const, Var
from .jets import Jet1, det3
from .surfgeo import (
    AffineForm,
    QuadForm,
    _partials,
    _reparam_discriminant,
    affine_first_fundamental,
    form_from_partials,
    forms_from_partials,
    surface_jets,
)
from .tape import _compile

__all__ = [
    "IdentityReport", "random_sl3", "random_invertible_2x2",
    "random_points", "transformed_surface", "integrand_routes_suite",
    "lmn_route_suite", "form_routes_suite", "equiaffine_invariance_suite",
    "reparam_law_suite", "condition_routes_suite", "reference_form_suite",
    "REFERENCE_FORMS",
]


@dataclass(frozen=True)
class IdentityReport:
    """One suite's outcome.  ``samples`` counts the samples checked;
    ``points`` counts the regular nondegenerate surface points the suite
    found to draw them at (None for a suite that samples no surface), so
    samples == 0 < points means the suite's own filter rejected every
    draw."""

    name: str
    max_deviation: float
    tolerance: float
    samples: int
    points: int | None = None

    @property
    def passed(self):
        return self.max_deviation <= self.tolerance

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"identity {self.name}: max_dev={self.max_deviation:.3e} "
                f"tol={self.tolerance:.1e} samples={self.samples} {status}")


# ---------------------------------------------------------------------------
# random generators

def _scaled(units, low, high):
    """The standard-uniform draws ``units`` moved to [low, high): numpy's
    Generator.uniform(low, high) is low + (high - low) U, for the U that
    Generator.random gives, and refuses a span past the float range, as
    this does."""
    span = high - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    return [low + span * x for x in units]


def _uniform(rng, low, high, count):
    """rng.uniform(low, high, size=count).tolist(), bit for bit, from one
    rng.random(count) call, which costs a fraction of numpy's uniform."""
    return _scaled(rng.random(count).tolist(), low, high)


def random_sl3(rng):
    """Random volume-preserving 3x3 matrix: QR factor a Gaussian matrix,
    fix the orthogonal factor's orientation, rescale to determinant one."""
    import numpy as np

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
    import numpy as np

    while True:
        m00, m01, m10, m11 = _uniform(rng, -2.0, 2.0, 4)
        if abs(m00 * m11 - m01 * m10) > 0.4:
            return np.array([[m00, m01], [m10, m11]])


def random_points(surface, rng, count, margin=0.02):
    """``count`` points (u, v) inside the domain less ``margin`` of each
    side, from one rng.random call: consecutive numbers pair as (u, v), so
    the points are those of ``count`` one-point calls."""
    du = surface.u_max - surface.u_min
    dv = surface.v_max - surface.v_min
    units = rng.random(2 * count).tolist()
    us = _scaled(units[0::2], surface.u_min + margin * du,
                 surface.u_max - margin * du)
    vs = _scaled(units[1::2], surface.v_min + margin * dv,
                 surface.v_max - margin * dv)
    return list(zip(us, vs))


def _component_coeffs(units):
    """The nine coefficients (c0, ..., c4, a, b, f, g) of one component
    "(c0) + (c1)*t^1 + ... + (c4)*t^4 + (a)*sin((f)*t) + (b)*cos((g)*t)"
    from nine standard-uniform draws in that order: the c and the
    amplitudes in [-2, 2), the frequencies in [0.5, 2.5)."""
    return (*_scaled(units[:7], -2.0, 2.0), *_scaled(units[7:], 0.5, 2.5))


_T = Var("t")


def _plus(*trees):
    """The left-associated tree the parser makes of "a + b + ..."."""
    return reduce(partial(BinOp, "+"), trees)


def _times(k, tree):
    """The tree of "(c<k>)*tree"."""
    return BinOp("*", Var(f"c{k}"), tree)


def _component(k):
    """One curve component's tree, over c<k> to c<k+8> in that order."""
    powers = [_times(k + j, BinOp("^", _T, Const(float(j))))
              for j in range(1, 5)]
    return _plus(Var(f"c{k}"), *powers,
                 _times(k + 5, Call("sin", _times(k + 7, _T))),
                 _times(k + 6, Call("cos", _times(k + 8, _T))))


# make(c0, ..., c26) and make(c0, ..., c5) -> kernel(t) -> the jet rows of
# the curve and of a sample's two paths "(c<k>) + (c<k+1>)*t +
# (c<k+2>)*t^2", k = 0 and 3, recorded at import
_CURVE = _compile([_component(k) for k in (0, 9, 18)], 3, Jet1, 27)
_PATHS = _compile([_plus(Var(f"c{k}"), _times(k + 1, _T),
                         _times(k + 2, BinOp("^", _T, Const(2.0))))
                   for k in (0, 3)], 3, Jet1, 6)


def _poly_trig_jets(components, t):
    """The order-3 Jet1s at t of the curve whose components have these
    coefficients: what eval_ast gives on their trees over Jet1.seed(t, 3),
    bit for bit, off the curve kernel bound to them."""
    x, y, z = components
    return tuple([Jet1._make(3, row) for row in _CURVE(*x, *y, *z)(t)])


def _reflected(components, jets):
    """The curve's coefficients and jets under z -> -z: the z component's
    seven non-frequency coefficients and its jet negated.  Negation
    commutes with every float operation of _poly_trig_jets, so the jets
    are those of the reflected coefficients."""
    *xy, z = components
    *xy_jets, z_jet = jets
    z = (*[-c for c in z[:7]], *z[7:])
    return (*xy, z), (*xy_jets, -z_jet)


def _draw_curve(rng, max_tries=50):
    """(component coefficients, t, order-3 jets at t, (speed, kappa, tau)
    at t) of a random polynomial+trig curve and a parameter value where it
    is comfortably nondegenerate with positive torsion, with the jets
    evaluated once.  The conditioning filters (torsion, curvature, speed
    bounded away from zero) keep the sixth-root comparison meaningful in
    float arithmetic.  Each try draws the three components' coefficients,
    then t in [-1, 1), from one rng.random call.  A try with torsion below
    -1e-3 is reflected in z -> -z, which negates tau and keeps speed and
    kappa; the coefficient ranges are symmetric, so the reflected curve
    is a draw from the same distribution."""
    for _ in range(max_tries):
        units = rng.random(28).tolist()
        components = tuple(_component_coeffs(units[k:k + 9])
                           for k in (0, 9, 18))
        t, = _scaled(units[27:], -1.0, 1.0)
        jets = _poly_trig_jets(components, t)
        try:
            speed, kappa, tau = _frenet_invariants(*_columns(jets), t)
        except AffineMetricsError:
            continue
        if (tau is None or abs(tau) <= 1e-3
                or not (1e-3 < kappa < 1e3 and 1e-2 < speed < 1e2)):
            continue
        if tau < 0.0:
            components, jets = _reflected(components, jets)
            tau = -tau
        return components, t, jets, (speed, kappa, tau)
    raise RuntimeError("could not draw a well-conditioned curve")


def transformed_surface(surface, matrix, shift):
    """A surface (or a curve) under X -> A X + b, applied at the expression
    level, so that it runs through the identical evaluation pipeline."""
    return replace(surface, components=tuple(
        _plus(*[BinOp("*", Const(float(a)), comp)
                for a, comp in zip(row, surface.components)], Const(float(b)))
        for row, b in zip(matrix, shift)))


# ---------------------------------------------------------------------------
# suites

def _rel_dev(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def _worse(worst, *devs):
    """The running maximum of ``worst`` and ``devs``, nan from the first nan
    on: max() keeps its first argument against a nan, so a nan deviation
    would pass."""
    for dev in devs:
        if dev > worst or dev != dev:
            worst = dev
    return worst


def integrand_routes_suite(rng, samples, tolerance=1e-8):
    """Determinant route against the (kappa^2 tau)^(1/6) |a'| route on
    random curves with positive torsion."""
    worst = 0.0
    for _ in range(samples):
        # the draw holds tau > 0, so the determinant is positive and
        # nonzero against its terms: neither route can raise here
        _, _, jets, (speed, kappa, tau) = _draw_curve(rng)
        direct = _alpha_integrand(*_columns(jets), False)[0]
        euclid = (kappa ** 2 * tau) ** (1.0 / 6.0) * speed
        worst = _worse(worst, _rel_dev(direct, euclid))
    return IdentityReport("integrand-det-vs-euclidean-route", worst, tolerance,
                          samples)


class _Point(NamedTuple):
    """A sample point with its raw form (l, m, n) as a tuple, its affine
    form, its Euclidean first and second forms and its Gauss curvature,
    all from one evaluation of its order-2 surface jets."""

    u: float
    v: float
    lmn: tuple
    form: AffineForm
    first: QuadForm
    second: QuadForm
    K: float


def _regular_nondegenerate_points(surface, rng, count):
    """Up to ``count`` regular nondegenerate points, from at most 50 count
    drawn candidates.  Each round draws the candidates still missing, at
    most the tries left, in one random_points call; a round adds at most
    the points missing, so the rounds draw the numbers that drawing one
    candidate at a time until ``count`` points are found would draw."""
    points = []
    tries_left = 50 * count
    while len(points) < count and tries_left > 0:
        k = min(count - len(points), tries_left)
        tries_left -= k
        for u, v in random_points(surface, rng, k):
            point = _regular_point(surface, u, v)
            if point is not None:
                points.append(point)
    return points


def _regular_point(surface, u, v):
    """The _Point at (u, v), or None where the surface is singular or its
    form degenerate there."""
    try:
        jets = surface_jets(surface, u, v, 2)
    except AffineMetricsError:
        return None
    # a non-finite surface ends the run, as in the other commands; its
    # deviations would be nan or 0 * inf
    x, y, z = jets
    if not all(map(math.isfinite, x.coeffs + y.coeffs + z.coeffs)):
        raise NonFiniteValue(
            f"surface jets not finite at (u, v) = ({u!r}, {v!r})")
    partials = _partials(jets)
    try:
        a, b, c, disc, flipped, lmn = form_from_partials(*partials)
        first, second, _, K = forms_from_partials(*partials, u, v)
    except AffineMetricsError:
        return None
    form = AffineForm(a, b, c, discriminant=disc, flipped=flipped)
    return _Point(u, v, lmn, form, first, second, K)


def lmn_route_suite(surface, rng, samples, tolerance=1e-10):
    """l = e sqrt(EG - F^2) and the m, n analogues."""
    worst = 0.0
    points = _regular_nondegenerate_points(surface, rng, samples)
    for p in points:
        root = math.sqrt(p.first.det)
        for det_val, dot_val in zip(p.lmn, p.second.coefficients()):
            scale = max(abs(det_val), abs(dot_val), root, 1.0)
            worst = _worse(worst, abs(det_val - dot_val * root) / scale)
    return IdentityReport("lmn-determinant-vs-dot-route", worst, tolerance,
                          len(points), len(points))


def form_routes_suite(surface, rng, samples, tolerance=1e-9):
    """I_aff against |K|^(-1/4) II_Euc, coefficientwise up to one common
    sign (the affine form is sign-normalized, the second form follows the
    cross-product normal)."""
    import numpy as np

    worst = 0.0
    points = _regular_nondegenerate_points(surface, rng, samples)
    for p in points:
        factor = abs(p.K) ** (-0.25)
        expected = np.array(p.second.coefficients()) * factor
        got = np.array(p.form.coefficients())
        sign = -1.0 if float(expected @ got) < 0.0 else 1.0
        scale = max(float(np.abs(expected).max()), 1e-30)
        worst = _worse(worst,
                       float(np.abs(got - sign * expected).max()) / scale)
    return IdentityReport("form-det-vs-euclidean-route", worst, tolerance,
                          len(points), len(points))


def equiaffine_invariance_suite(surface, rng, samples, tolerance=1e-8):
    """Affine form coefficients and the curve-condition residual are
    unchanged under volume-preserving maps of the ambient space.

    ``samples // 4`` random maps (at least one) are each checked at 4
    drawn points.  The check-identities command passes ``max(4, samples
    // 4)``, so its count is divided by 4 twice: ``--samples 20`` checks
    4 points and ``--samples 200`` checks 48, fewer where a point or its
    residual is rejected."""
    worst = 0.0
    count = 0
    found = 0
    for _ in range(max(1, samples // 4)):
        A = random_sl3(rng)
        b = _uniform(rng, -1.0, 1.0, 3)
        moved = transformed_surface(surface, A, b)
        points = _regular_nondegenerate_points(surface, rng, 4)
        found += len(points)
        for p in points:
            u, v, f0 = p.u, p.v, p.form
            try:
                f1 = affine_first_fundamental(moved, u, v)
            except AffineMetricsError:
                continue
            scale = max(abs(f0.a), abs(f0.b), abs(f0.c), 1e-30)
            worst = _worse(worst, abs(f0.a - f1.a) / scale,
                           abs(f0.b - f1.b) / scale, abs(f0.c - f1.c) / scale)
            state = (u, v, *_uniform(rng, -1.0, 1.0, 3))
            try:
                r0 = commensurate_residual(surface, state)
                r1 = commensurate_residual(moved, state)
            except AffineMetricsError:
                continue
            worst = _worse(worst, abs(r0 - r1) / max(abs(r0), abs(r1), 1.0))
            count += 1
    return IdentityReport("equiaffine-invariance", worst, tolerance,
                          count, found)


def reparam_law_suite(surface, rng, samples, tolerance=1e-9):
    """(l n - m^2) transforms with the fourth power of the parameter
    Jacobian determinant."""
    worst = 0.0
    points = _regular_nondegenerate_points(surface, rng, samples)
    for p in points:
        lhs, jdet = _reparam_discriminant(surface, p.u, p.v,
                                          random_invertible_2x2(rng))
        l, m, n = p.lmn
        rhs = (l * n - m * m) * jdet ** 4
        worst = _worse(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return IdentityReport("reparam-fourth-power-law", worst, tolerance,
                          len(points), len(points))


def _quadratic_paths(*coeffs):
    """The rows (p, p', p'', p''') at t = 0 of p = "(c0) + (c1)*t +
    (c2)*t^2" and of q = "(c3) + (c4)*t + (c5)*t^2", for coeffs = c0, ...,
    c5: the coefficients eval_ast gives on the parsed tree of each
    expression over Jet1.seed(0.0, 3), bit for bit, off one binding of the
    paths' kernel."""
    return _PATHS(*coeffs)(0.0)


def condition_routes_suite(surface, rng, samples, tolerance=1e-8):
    """The residual of the curve condition computed from determinants
    agrees with speed^6 times the Euclidean-invariant form of the same
    condition (curvature-torsion route)."""
    worst = 0.0
    count = 0
    points = _regular_nondegenerate_points(surface, rng, samples)
    for p in points:
        u, v = p.u, p.v
        c1u, c2u, c1v, c2v = _uniform(rng, -1.0, 1.0, 4)
        if math.hypot(c1u, c1v) < 0.3:
            continue
        # one float node at t = 0 of the parameter path (u + c1u t +
        # c2u t^2, v + c1v t + c2v t^2) and one affine form serve the
        # residual, the Euclidean route and the speed
        try:
            node = _path_node(surface, *_quadratic_paths(u, c1u, c2u,
                                                         v, c1v, c2v))
            check, form = _condition_check(node)
            residual = (det3(*node[3])
                        - form.apply(node[0][1], node[1][1]) ** 3)
        except AffineMetricsError:
            continue
        if check.degenerate:
            continue
        speed = _norm(node[3][0])
        other = speed ** 6 * (check.lhs - check.rhs)
        worst = _worse(worst, abs(residual - other)
                       / max(abs(residual), abs(other), 1.0))
        count += 1
    return IdentityReport("condition-det-vs-euclidean-route", worst,
                          tolerance, count, len(points))


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
            worst = _worse(worst, *(abs(x - y) / scale for x, y in
                                    zip(form.coefficients(), exp)))
        if "lmn" in forms:
            exp = forms["lmn"](u, v)
            scale = max(max(abs(x) for x in exp), 1.0)
            worst = _worse(worst, *(abs(x - y) / scale for x, y in
                                    zip(p.lmn, exp)))
        if "gauss" in forms:
            exp = forms["gauss"](u, v)
            worst = _worse(worst, abs(p.K - exp) / max(abs(exp), 1.0))
    return IdentityReport(f"reference-forms-{reference}", worst, tolerance,
                          len(points), len(points))
