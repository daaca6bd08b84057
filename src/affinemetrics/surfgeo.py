"""Euclidean and equiaffine invariants of parametrized surfaces.

Determinant route: l, m, n are det[X_u X_v X_uu], det[X_u X_v X_uv],
det[X_u X_v X_vv]; the affine fundamental form is |ln - m^2|^(-1/4) times
(l, m, n).  Euclidean route: E, F, G and e, f, g with the cross-product
normal, Gauss curvature (eg - f^2)/(EG - F^2).  The two routes are tied
together by l = e sqrt(EG - F^2) (and so on) and by the identity
I_aff = |K|^(-1/4) II_Euc, which the test suite checks at random points.

Sign convention: when the raw (l, m, n) form is negative definite the
returned affine form is flipped to its positive-definite representative
(the ``flipped`` flag records this).  The raw form's overall sign is a
property of the parametrization, not of the surface, and the positive
representative is the one all worked identities downstream expect.
Indefinite forms are returned as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSurfacePoint,
    DomainExit,
    IrregularPoint,
    SingularJacobian,
    UnsupportedOrder,
    ZeroDirection,
)
from .expr import eval_ast, parse_expression
from .jets import MAX_ORDER_2, Jet2, cross3, det3, dot3

__all__ = [
    "SurfaceDef", "QuadForm", "AffineForm", "PointClassification",
    "surface_jets", "fundamental_forms_euclid", "affine_lmn",
    "gauss_curvature", "affine_first_fundamental", "forms_from_jets",
    "lmn_from_jets", "gauss_from_forms", "form_from_jets",
    "classify_from_jets", "iaff_apply", "normal_curvature", "classify_point",
    "check_reparam_covariance", "CATALOG", "catalog_surface",
]

#: relative threshold on ln - m^2, scaled by EG - F^2
EPS_CLASSIFY = 1e-10
#: relative threshold on |X_u x X_v|^2 for regularity
EPS_REGULAR = 1e-24


@dataclass(frozen=True)
class SurfaceDef:
    """Three component expressions in (u, v) plus a rectangular domain."""

    components: tuple
    u_min: float
    u_max: float
    v_min: float
    v_max: float
    name: str | None = None

    @classmethod
    def from_strings(cls, exprs, domain, name=None):
        """``exprs``: 3-sequence or semicolon-separated string;
        ``domain``: ((u_min, u_max), (v_min, v_max))."""
        if isinstance(exprs, str):
            exprs = [part.strip() for part in exprs.split(";")]
        if len(exprs) != 3:
            raise ValueError("a surface needs exactly three components")
        comps = tuple(parse_expression(s, {"u", "v"}) for s in exprs)
        (u0, u1), (v0, v1) = domain
        return cls(comps, float(u0), float(u1), float(v0), float(v1), name)

    def contains(self, u, v):
        return (self.u_min <= u <= self.u_max
                and self.v_min <= v <= self.v_max)

    def point(self, u, v):
        """Embedded point X(u, v) as a plain array."""
        return np.array([eval_ast(c, {"u": float(u), "v": float(v)})
                         for c in self.components])


@dataclass(frozen=True)
class QuadForm:
    """Coefficients of a du^2 + 2 b du dv + c dv^2."""

    a: float
    b: float
    c: float

    def apply(self, du, dv):
        return self.a * du * du + 2.0 * self.b * du * dv + self.c * dv * dv

    @property
    def det(self):
        return self.a * self.c - self.b * self.b

    def definiteness(self, eps=0.0):
        d = self.det
        if d > eps:
            return "positive" if self.a + self.c > 0.0 else "negative"
        if d < -eps:
            return "indefinite"
        return "degenerate"

    def coefficients(self):
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class AffineForm(QuadForm):
    """Affine fundamental form plus bookkeeping: the raw discriminant
    ln - m^2 and whether the negative-definite raw form was flipped."""

    discriminant: float = 0.0
    flipped: bool = False

    @property
    def orientation_sign(self):
        return -1.0 if self.flipped else 1.0


@dataclass(frozen=True)
class PointClassification:
    kind: str            # elliptic | hyperbolic | degenerate
    discriminant: float  # raw ln - m^2
    threshold: float     # the epsilon it was compared against

    @property
    def margin(self):
        return abs(self.discriminant) / self.threshold if self.threshold else math.inf


def surface_jets(surface, u, v, order, check_domain=True):
    """Exact partial derivatives of the surface components, orders 1..3.

    ``check_domain=False`` skips the parameter-box check; the solver uses
    it because its steps may transiently evaluate just past the boundary
    that its exit event then locates.
    """
    if not isinstance(order, int) or not 1 <= order <= MAX_ORDER_2:
        raise UnsupportedOrder(
            f"surface jets support orders 1..{MAX_ORDER_2}, got {order}")
    if check_domain and not surface.contains(u, v):
        raise DomainExit(
            f"(u, v) = ({u!r}, {v!r}) outside "
            f"[{surface.u_min}, {surface.u_max}] x [{surface.v_min}, {surface.v_max}]")
    seed = Jet2.seed_u(u, order)
    bindings = {"u": seed, "v": Jet2.seed_v(v, order)}
    jets = []
    for comp in surface.components:
        jets.append(seed.lift(eval_ast(comp, bindings)))
    return tuple(jets)


def _partials(jets):
    """X_u, X_v, X_uu, X_uv, X_vv as plain 3-tuples, read from the graded
    layout of surface jets of order >= 2 (coefficients 1 to 5)."""
    return tuple(tuple(jet.coeffs[k] for jet in jets) for k in range(1, 6))


def fundamental_forms_euclid(surface, u, v):
    """(first form, second form, unit normal) at (u, v).

    The normal is X_u x X_v normalized; e, f, g are the dot products of the
    second partials with it.
    """
    return forms_from_jets(surface_jets(surface, u, v, 2), u, v)


def forms_from_jets(jets, u, v):
    """fundamental_forms_euclid from already-evaluated surface jets (order
    >= 2) at (u, v); the point is used only in the IrregularPoint message."""
    xu, xv, xuu, xuv, xvv = _partials(jets)
    cross = cross3(xu, xv)
    cross_sq = dot3(cross, cross)
    E, F, G = dot3(xu, xu), dot3(xu, xv), dot3(xv, xv)
    if cross_sq <= EPS_REGULAR * max(E * G, 1e-300):
        raise IrregularPoint(f"X_u x X_v vanishes at ({u!r}, {v!r})")
    norm = math.sqrt(cross_sq)
    normal = tuple(c / norm for c in cross)
    second = QuadForm(dot3(xuu, normal), dot3(xuv, normal),
                      dot3(xvv, normal))
    return QuadForm(E, F, G), second, np.array(normal)


def affine_lmn(surface, u, v):
    """The raw determinant form (l, m, n) as a QuadForm."""
    return lmn_from_jets(surface_jets(surface, u, v, 2))


def lmn_from_jets(jets):
    """affine_lmn from already-evaluated surface jets (order >= 2)."""
    return QuadForm(*_lmn_and_threshold(jets)[:3])


def _lmn_and_threshold(jets):
    """l, m, n and the bound below which |ln - m^2| counts as degenerate:
    EPS_CLASSIFY * |X_u x X_v|^2 = EPS_CLASSIFY * (EG - F^2)."""
    xu, xv, xuu, xuv, xvv = _partials(jets)
    cross = cross3(xu, xv)
    return (det3(xu, xv, xuu), det3(xu, xv, xuv), det3(xu, xv, xvv),
            EPS_CLASSIFY * dot3(cross, cross))


def gauss_curvature(surface, u, v):
    first, second, _ = fundamental_forms_euclid(surface, u, v)
    return gauss_from_forms(first, second)


def gauss_from_forms(first, second):
    """Gauss curvature (eg - f^2)/(EG - F^2) from the two Euclidean forms."""
    return second.det / first.det


def form_from_jets(jets):
    """Affine fundamental form from already-evaluated surface jets
    (order >= 2); see affine_first_fundamental."""
    l, m, n, eps = _lmn_and_threshold(jets)
    disc = l * n - m * m
    if abs(disc) <= eps:
        raise DegenerateSurfacePoint(
            f"ln - m^2 = {disc!r} is within {eps!r} of zero",
            margin=abs(disc) / eps if eps else None)
    scale = abs(disc) ** (-0.25)
    a, b, c = scale * l, scale * m, scale * n
    flipped = disc > 0.0 and a < 0.0
    if flipped:
        a, b, c = -a, -b, -c
    # + 0.0 normalizes negative zeros out of the coefficients
    return AffineForm(a + 0.0, b + 0.0, c + 0.0, discriminant=disc,
                      flipped=flipped)


def affine_first_fundamental(surface, u, v):
    """The affine fundamental form |ln - m^2|^(-1/4) (l, m, n).

    Raises DegenerateSurfacePoint when |ln - m^2| is below the
    (EG - F^2)-scaled threshold.  A negative-definite result is flipped to
    its positive representative; see the module docstring.
    """
    return form_from_jets(surface_jets(surface, u, v, 2))


def iaff_apply(form, du, dv):
    """Evaluate a quadratic form on a parameter-plane direction."""
    return form.apply(du, dv)


def normal_curvature(surface, u, v, du, dv):
    """II(du, dv) / I(du, dv) with the cross-product normal.

    The sign follows the X_u x X_v normal; on charts whose affine form was
    flipped (see affine_first_fundamental) the affine-aligned value is the
    negative of this one.
    """
    if du == 0.0 and dv == 0.0:
        raise ZeroDirection("normal curvature needs a nonzero direction")
    first, second, _ = fundamental_forms_euclid(surface, u, v)
    return second.apply(du, dv) / first.apply(du, dv)


def classify_point(surface, u, v):
    return classify_from_jets(surface_jets(surface, u, v, 2))


def classify_from_jets(jets):
    """classify_point from already-evaluated surface jets (order >= 2)."""
    l, m, n, eps = _lmn_and_threshold(jets)
    disc = l * n - m * m
    if disc > eps:
        kind = "elliptic"
    elif disc < -eps:
        kind = "hyperbolic"
    else:
        kind = "degenerate"
    return PointClassification(kind, disc, eps)


def _reparam_discriminant(surface, u, v, jacobian):
    """(ln - m^2 of the surface in new parameters (s, w) at the origin,
    det(jacobian)), where (u, v) = (u, v) + jacobian @ (s, w)."""
    jac = np.asarray(jacobian, dtype=float)
    if jac.shape != (2, 2):
        raise ValueError("jacobian must be 2x2")
    jdet = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])
    if abs(jdet) <= 1e-12 * max(1.0, float(np.abs(jac).max()) ** 2):
        raise SingularJacobian(f"jacobian determinant {jdet!r} is singular")

    s = Jet2.seed_u(0.0, 2)
    w = Jet2.seed_v(0.0, 2)
    bindings = {"u": s * jac[0, 0] + w * jac[0, 1] + float(u),
                "v": s * jac[1, 0] + w * jac[1, 1] + float(v)}
    jets = tuple([s.lift(eval_ast(comp, bindings))
                  for comp in surface.components])
    return lmn_from_jets(jets).det, jdet


def check_reparam_covariance(surface, u, v, jacobian):
    """Transformation law of ln - m^2 under a linear change of parameters.

    Evaluates the surface in new parameters (s, w) with (u, v) = (u, v) +
    jacobian @ (s, w) and returns (lhs, rhs) where lhs is the transformed
    discriminant at the origin and rhs = (ln - m^2) det(jacobian)^4.
    """
    lhs, jdet = _reparam_discriminant(surface, u, v, jacobian)
    return lhs, affine_lmn(surface, u, v).det * jdet ** 4


# ---------------------------------------------------------------------------
# builtin surface catalog

_CATALOG_SPECS = {
    "sphere": ("cos(u)*cos(v); sin(u)*cos(v); sin(v)",
               ((-4.0 * math.pi, 4.0 * math.pi), (-1.45, 1.45))),
    "helicoid": ("u*cos(v); u*sin(v); v",
                 ((-12.0, 12.0), (-13.0, 13.0))),
    "paraboloid": ("v*cos(u); v*sin(u); v^2",
                   ((-3.2, 3.2), (0.05, 3.0))),
    "hyperbolic-paraboloid": ("u; v; u*v",
                              ((-12.0, 12.0), (-12.0, 12.0))),
    "hyperboloid": ("cos(u)-v*sin(u); sin(u)+v*cos(u); v",
                    ((-2.0 * math.pi, 2.0 * math.pi), (-13.0, 13.0))),
    "plane": ("u; v; 0",
              ((-1.0, 1.0), (-1.0, 1.0))),
}

CATALOG = {name: SurfaceDef.from_strings(exprs, domain, name=name)
           for name, (exprs, domain) in _CATALOG_SPECS.items()}


def catalog_surface(name):
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown surface {name!r}; catalog: {', '.join(sorted(CATALOG))}"
        ) from None
