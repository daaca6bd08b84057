"""Reference routes that tests compare the package against, and inputs
the package never builds: finite differences, stand-alone space curves,
the identity suites' curves as expression trees, their sample points
drawn one at a time, two per-point surface quantities, the closed-form
commensurate curve on the unit sphere, a surface in another chart, and a
shape's kernel recorded at its first evaluation.
No command runs them."""

import math
from dataclasses import dataclass, replace
from functools import partial, reduce

import numpy as np
import pytest

from affinemetrics import expr
from affinemetrics import identities as idn
from affinemetrics.curvegeo import _columns
from affinemetrics.errors import AffineMetricsError, DomainExit, NonFiniteValue
from affinemetrics.expr import (BinOp, Call, Const, Neg, Var, eval_ast,
                                parse_expression)
from affinemetrics.jets import Jet1
from affinemetrics.numerics import OdeOptions, ode_solve
from affinemetrics.surfgeo import (
    AffineForm,
    _partials,
    _reparam_discriminant,
    form_from_partials,
    forms_from_partials,
    fundamental_forms_euclid,
    lmn_from_jets,
    surface_jets,
)

# ---------------------------------------------------------------------------
# finite differences

_FD_DEFAULT_STEP = {1: 1e-4, 2: 2.5e-3, 3: 6e-3}


def finite_diff(f, x, order=1, step=None):
    """Central finite difference of f at x with one Richardson level.

    Supports derivative orders 1..3; the extrapolated truncation error is
    O(step^4).  The default steps sit near the roundoff/truncation optimum
    for each order (cancellation grows like eps/step^order, so higher
    orders need larger steps).
    """
    if order not in (1, 2, 3):
        raise ValueError("finite_diff supports orders 1, 2, 3")
    if step is None:
        step = _FD_DEFAULT_STEP[order]

    def stencil(h):
        if order == 1:
            return (f(x + h) - f(x - h)) / (2.0 * h)
        if order == 2:
            return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
        return (f(x + 2 * h) - 2.0 * f(x + h)
                + 2.0 * f(x - h) - f(x - 2 * h)) / (2.0 * h ** 3)

    coarse = stencil(step)
    fine = stencil(step / 2.0)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# stand-alone space curves

@dataclass(frozen=True)
class CurveDef:
    """Three component expressions in t plus the parameter interval."""

    components: tuple
    t_min: float
    t_max: float

    @classmethod
    def from_strings(cls, exprs, t_min, t_max):
        """Build from component strings; ``exprs`` is a 3-sequence or a
        single semicolon-separated string."""
        if isinstance(exprs, str):
            exprs = [part.strip() for part in exprs.split(";")]
        if len(exprs) != 3:
            raise ValueError("a curve needs exactly three components")
        comps = tuple(parse_expression(s, {"t"}) for s in exprs)
        return cls(comps, float(t_min), float(t_max))

    def contains(self, t):
        return self.t_min <= t <= self.t_max

    def curve_jets(self, t, order):
        """The jets of the components at t; see curve_jets."""
        return curve_jets(self, t, order)

    def columns(self, t):
        """a', a'', a''' at t, read off the order-3 jets."""
        return _columns(curve_jets(self, t, 3))


def curve_jets(curve, t, order):
    """Exact derivatives of the curve components at t, orders 1..3 (the
    seed refuses any other with UnsupportedOrder)."""
    seed = Jet1.seed(t, order)
    if not curve.contains(t):
        raise DomainExit(f"t = {t!r} outside [{curve.t_min}, {curve.t_max}]")
    bindings = {"t": seed}
    return tuple([seed.lift(eval_ast(comp, bindings))
                  for comp in curve.components])


# ---------------------------------------------------------------------------
# the identity suites' curves as expression trees

# A sample curve's tree has the shape the parser gives its written form.
# The parser reads "(c)" with c < 0 as Neg(Const(-c)); Const(c) evaluates
# to the same float.
_T = Var("t")


def _sum(terms):
    """The left-associated tree the parser makes of "a + b + c"."""
    return reduce(partial(BinOp, "+"), terms)


def _times(coeff, factor):
    return BinOp("*", Const(coeff), factor)


def draw_component(rng):
    """The nine coefficients of one component, drawn as the integrand
    suite draws them."""
    return idn._component_coeffs(rng.random(9).tolist())


def component_tree(coeffs):
    """The tree of the component "(c0) + (c1)*t^1 + ... + (c4)*t^4 +
    (a)*sin((f)*t) + (b)*cos((g)*t)" with these nine coefficients."""
    *poly, amp_s, amp_c, freq_s, freq_c = coeffs
    powers = [_times(c, BinOp("^", _T, Const(float(k))))
              for k, c in enumerate(poly) if k]
    return _sum([Const(poly[0]), *powers,
                 _times(amp_s, Call("sin", _times(freq_s, _T))),
                 _times(amp_c, Call("cos", _times(freq_c, _T)))])


def poly_trig_component(rng):
    """The tree of one component with random coefficients."""
    return component_tree(draw_component(rng))


def random_nondegenerate_curve(rng, max_tries=50):
    """The integrand suite's random curve as a CurveDef of trees, and its
    parameter value, from the same draws."""
    components, t, _, _ = idn._draw_curve(rng, max_tries)
    return CurveDef(tuple(map(component_tree, components)), -1.5, 1.5), t


def quadratic(c0, c1, c2):
    """The tree of "(c0) + (c1)*t + (c2)*t^2", the condition suite's
    parameter path."""
    return _sum([Const(c0), _times(c1, _T),
                 _times(c2, BinOp("^", _T, Const(2.0)))])


# ---------------------------------------------------------------------------
# per-point surface quantities

def normal_curvature(surface, u, v, du, dv):
    """II(du, dv) / I(du, dv) with the cross-product normal.

    The sign follows the X_u x X_v normal; on charts whose affine form was
    flipped the affine-aligned value is the negative of this one.
    """
    if du == 0.0 and dv == 0.0:
        raise ValueError("normal curvature needs a nonzero direction")
    first, second, _ = fundamental_forms_euclid(surface, u, v)
    return second.apply(du, dv) / first.apply(du, dv)


def one_point_at_a_time(surface, rng, count, margin=0.02):
    """The identity suites' sample points as they were drawn one candidate
    at a time, each from its own rng.random(2) call, until ``count`` are
    regular and nondegenerate or 50 count candidates are spent."""
    du = surface.u_max - surface.u_min
    dv = surface.v_max - surface.v_min
    points = []
    tries = 0
    while len(points) < count and tries < 50 * count:
        tries += 1
        unit_u, unit_v = rng.random(2).tolist()
        u, = idn._scaled([unit_u], surface.u_min + margin * du,
                         surface.u_max - margin * du)
        v, = idn._scaled([unit_v], surface.v_min + margin * dv,
                         surface.v_max - margin * dv)
        try:
            jets = surface_jets(surface, u, v, 2)
        except AffineMetricsError:
            continue
        x, y, z = jets
        if not all(map(math.isfinite, x.coeffs + y.coeffs + z.coeffs)):
            raise NonFiniteValue(
                f"surface jets not finite at (u, v) = ({u!r}, {v!r})")
        partials = _partials(jets)
        try:
            a, b, c, disc, flipped, lmn = form_from_partials(*partials)
            first, second, _, K = forms_from_partials(*partials, u, v)
        except AffineMetricsError:
            continue
        form = AffineForm(a, b, c, discriminant=disc, flipped=flipped)
        points.append(idn._Point(u, v, lmn, form, first, second, K))
    return points


def check_reparam_covariance(surface, u, v, jacobian):
    """Transformation law of ln - m^2 under a linear change of parameters.

    Evaluates the surface in new parameters (s, w) with (u, v) = (u, v) +
    jacobian @ (s, w) and returns (lhs, rhs) where lhs is the transformed
    discriminant at the origin and rhs = (ln - m^2) det(jacobian)^4.
    """
    lhs, jdet = _reparam_discriminant(surface, u, v, jacobian)
    lmn = lmn_from_jets(surface_jets(surface, u, v, 2))
    return lhs, lmn.det * jdet ** 4


# ---------------------------------------------------------------------------
# the closed-form reference curve on the unit sphere

@dataclass(frozen=True)
class ReferenceCurve:
    """Samples of the reference curve, each field a numpy array: one
    value per sample, or one row of three per sample for ``position`` and
    the frame."""
    s: object
    kappa: object
    tau: object
    position: object      # (n, 3)
    e1: object
    e2: object
    e3: object

    def center(self, i):
        """Osculating-sphere center at sample i; constant (and at unit
        distance) when the curve lies on a unit sphere."""
        s = self.s[i]
        inv_kappa_prime = -s * (s * s + 1.0) ** -1.5
        return (self.position[i]
                + self.e2[i] / self.kappa[i]
                + inv_kappa_prime / self.tau[i] * self.e3[i])

    def geodesic_curvature(self, i):
        return math.sqrt(self.kappa[i] ** 2 - 1.0)


def sphere_reference_curve(s_max, step, rel_tol=1e-10, abs_tol=1e-12):
    """Integrate the Frenet system with kappa(s) = sqrt(s^2 + 1) and
    tau(s) = 1/(s^2 + 1) from the identity frame at the origin.

    These closed forms satisfy kappa^2 tau = 1 identically, so the result
    is the canonical curve whose equiaffine and induced arc lengths agree
    on the unit sphere (every other one is a Euclidean motion of it).
    """
    if s_max <= 0.0:
        raise ValueError("s_max must be positive")

    def kappa(s):
        return math.sqrt(s * s + 1.0)

    def tau(s):
        return 1.0 / (s * s + 1.0)

    def rhs(s, y):
        y = np.asarray(y)
        e1, e2, e3 = y[3:6], y[6:9], y[9:12]
        k, tors = kappa(s), tau(s)
        return np.concatenate([e1, k * e2, -k * e1 + tors * e3, -tors * e2])

    y0 = np.array([0.0, 0.0, 0.0,
                   1.0, 0.0, 0.0,
                   0.0, 1.0, 0.0,
                   0.0, 0.0, 1.0])
    opts = OdeOptions(rel_tol=rel_tol, abs_tol=abs_tol)
    result = ode_solve(rhs, y0, (0.0, s_max), opts)

    samples = np.arange(0.0, s_max + 0.5 * step, step)
    samples = samples[samples <= s_max]
    states = np.array([result.interpolate(float(s)) for s in samples])
    return ReferenceCurve(
        s=samples,
        kappa=np.array([kappa(s) for s in samples]),
        tau=np.array([tau(s) for s in samples]),
        position=states[:, 0:3],
        e1=states[:, 3:6],
        e2=states[:, 6:9],
        e3=states[:, 9:12],
    )


# ---------------------------------------------------------------------------
# a change of chart

def _substituted(tree, bindings):
    """``tree`` with each variable named in ``bindings`` replaced by its
    tree there, all at once."""
    kind = type(tree)
    if kind is Var:
        return bindings.get(tree.name, tree)
    if kind is Neg:
        return Neg(_substituted(tree.child, bindings))
    if kind is BinOp:
        return BinOp(tree.op, _substituted(tree.left, bindings),
                     _substituted(tree.right, bindings))
    if kind is Call:
        return Call(tree.func, _substituted(tree.arg, bindings))
    return tree


def recharted(surface, u_of, v_of, domain):
    """``surface`` in another chart, at the expression level, as
    identities.transformed_surface moves it in space: X(phi(u, v)), its
    components with u = ``u_of`` and v = ``v_of`` substituted, expressions
    in the new chart's u and v, over the new ``domain``."""
    bindings = {"u": parse_expression(u_of, {"u", "v"}),
                "v": parse_expression(v_of, {"u", "v"})}
    (u0, u1), (v0, v1) = domain
    return replace(surface, components=tuple(
        _substituted(comp, bindings) for comp in surface.components),
        u_min=u0, u_max=u1, v_min=v0, v_max=v1, name=None)


# ---------------------------------------------------------------------------
# a shape's kernel, recorded at once

def recorded(trees, kind, order):
    """expr.bound_kernel of ``trees`` at ``kind`` and ``order`` with their
    shape recorded at its first evaluation: the kernel table's factory,
    recorded now or before, bound to the trees' constants; None where the
    trees cannot be recorded."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "RECORD_AFTER", 1)
        return expr.bound_kernel({}, trees, kind, order)
