"""Euclidean and equiaffine invariants of parametrized surfaces.

Determinant route: l, m, n are det[X_u X_v X_uu], det[X_u X_v X_uv],
det[X_u X_v X_vv]; the affine fundamental form is |ln - m^2|^(-1/4) times
(l, m, n).  Euclidean route: E, F, G and e, f, g with the cross-product
normal, Gauss curvature (eg - f^2)/|X_u x X_v|^2.  The two routes are tied
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
from dataclasses import dataclass, field

from .errors import (
    DegenerateSurfacePoint,
    DomainExit,
    IrregularPoint,
    SingularJacobian,
)
from .expr import KernelCache, eval_ast, jet_rows, parse_expression
from .jets import (
    MAX_ORDER_2,
    ZERO_RTOL,
    Jet2,
    _check_order,
    cross3,
    cross3_is_zero,
    cross3_terms,
    det3,
    det3_terms,
    dot3,
)

__all__ = [
    "SurfaceDef", "QuadForm", "AffineForm", "surface_jets",
    "fundamental_forms_euclid", "gauss_curvature",
    "affine_first_fundamental", "lmn_from_jets",
    "form_from_jets", "form_from_partials",
    "forms_from_partials", "CATALOG",
]

@dataclass(frozen=True)
class SurfaceDef:
    """Three component expressions in (u, v) plus a rectangular domain."""

    components: tuple
    u_min: float
    u_max: float
    v_min: float
    v_max: float
    name: str | None = None
    # the bound kernels of its orders and of "reparam"
    _kernels: KernelCache = field(default_factory=KernelCache, init=False,
                                  repr=False, compare=False)

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
        """Embedded point X(u, v) as a tuple of three floats."""
        bindings = {"u": float(u), "v": float(v)}
        return tuple([eval_ast(c, bindings) for c in self.components])


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


def surface_jets(surface, u, v, order, check_domain=True):
    """Exact partial derivatives of the surface components, orders 1..3.

    ``check_domain=False`` skips the parameter-box check; the solver uses
    it because its steps may transiently evaluate just past the boundary
    that its exit event then locates.

    The jets come from expr.jet_rows over the Jet2 seeds: from eval_ast
    until the trees of this surface's shape have been evaluated
    expr.RECORD_AFTER times at ``order``, then off its recorded kernel,
    bit for bit the same.
    """
    _check_order(order, MAX_ORDER_2, "surface_jets")
    if check_domain and not surface.contains(u, v):
        raise DomainExit(
            f"(u, v) = ({u!r}, {v!r}) outside "
            f"[{surface.u_min}, {surface.u_max}] x [{surface.v_min}, {surface.v_max}]")
    x, y, z = jet_rows(surface._kernels, surface.components, Jet2, order,
                       (float(u), float(v)))
    return Jet2._make(order, x), Jet2._make(order, y), Jet2._make(order, z)


def _partials(jets):
    """X_u, X_v, X_uu, X_uv, X_vv as plain 3-tuples, read from the graded
    layout of surface jets of order >= 2 (coefficients 1 to 5)."""
    x, y, z = jets[0].coeffs, jets[1].coeffs, jets[2].coeffs
    return ((x[1], y[1], z[1]), (x[2], y[2], z[2]), (x[3], y[3], z[3]),
            (x[4], y[4], z[4]), (x[5], y[5], z[5]))


def fundamental_forms_euclid(surface, u, v):
    """(first form, second form, unit normal) at (u, v).

    The normal is X_u x X_v normalized, a tuple of three floats; e, f, g
    are the dot products of the second partials with it.
    """
    return forms_from_partials(*_partials(surface_jets(surface, u, v, 2)),
                               u, v)[:3]


def forms_from_partials(xu, xv, xuu, xuv, xvv, u, v):
    """(first form, second form, unit normal, K) from the first and second
    partials, with K = (eg - f^2)/|X_u x X_v|^2 by Lagrange's identity.
    IrregularPoint names (u, v) where X_u x X_v is zero or its square
    underflows."""
    cross = cross3(xu, xv)
    cross_sq = dot3(cross, cross)
    if cross3_is_zero(cross, cross3_terms(xu, xv)) or not cross_sq:
        raise IrregularPoint(f"X_u x X_v vanishes at ({u!r}, {v!r})")
    norm = math.sqrt(cross_sq)
    normal = tuple(c / norm for c in cross)
    second = QuadForm(dot3(xuu, normal), dot3(xuv, normal),
                      dot3(xvv, normal))
    first = QuadForm(dot3(xu, xu), dot3(xu, xv), dot3(xv, xv))
    return first, second, normal, second.det / cross_sq


def lmn_from_jets(jets):
    """The raw determinant form (l, m, n) as a QuadForm, from
    already-evaluated surface jets (order >= 2)."""
    return QuadForm(*_lmn(*_partials(jets)))


def _lmn(xu, xv, xuu, xuv, xvv):
    """l, m, n: det[X_u, X_v, X_uu], det[X_u, X_v, X_uv] and
    det[X_u, X_v, X_vv], from the first and second partials."""
    return det3(xu, xv, xuu), det3(xu, xv, xuv), det3(xu, xv, xvv)


def gauss_curvature(surface, u, v):
    return forms_from_partials(*_partials(surface_jets(surface, u, v, 2)),
                               u, v)[3]


def form_from_jets(jets):
    """Affine fundamental form from already-evaluated surface jets
    (order >= 2); see affine_first_fundamental."""
    a, b, c, disc, flipped, _ = form_from_partials(*_partials(jets))
    return AffineForm(a, b, c, discriminant=disc, flipped=flipped)


def form_from_partials(xu, xv, xuu, xuv, xvv):
    """(a, b, c, ln - m^2, flipped, (l, m, n)): the affine
    fundamental form's coefficients from the first and second partials,
    as plain floats, and the raw form (l, m, n) they scale; the one place
    where DegenerateSurfacePoint is raised and a negative-definite form is
    flipped (see affine_first_fundamental).  ln - m^2 is zero against
    T(l)|n| + |l|T(n) + 2T(m)|m|, T the det3_terms, sharing X_u x X_v's."""
    ct = cross3_terms(xu, xv)
    l, m, n = _lmn(xu, xv, xuu, xuv, xvv)
    disc = l * n - m * m
    terms = (det3_terms(ct, xuu) * abs(n) + abs(l) * det3_terms(ct, xvv)
             + 2.0 * det3_terms(ct, xuv) * abs(m))
    if abs(disc) <= ZERO_RTOL * terms:
        raise DegenerateSurfacePoint(
            f"ln - m^2 = {disc!r} is zero against its terms {terms!r}")
    scale = abs(disc) ** (-0.25)
    a, b, c = scale * l, scale * m, scale * n
    flipped = disc > 0.0 and a < 0.0
    if flipped:
        a, b, c = -a, -b, -c
    # + 0.0 normalizes negative zeros out of the coefficients
    return a + 0.0, b + 0.0, c + 0.0, disc, flipped, (l, m, n)


def affine_first_fundamental(surface, u, v):
    """The affine fundamental form |ln - m^2|^(-1/4) (l, m, n).

    Raises DegenerateSurfacePoint where ln - m^2 is zero (see
    form_from_partials).  A negative-definite result is flipped to its
    positive representative; see the module docstring.
    """
    return form_from_jets(surface_jets(surface, u, v, 2))


def _reparam_discriminant(surface, u, v, jacobian):
    """(ln - m^2 of the surface in new parameters (s, w) at the origin,
    det(jacobian)), where (u, v) = (u, v) + jacobian @ (s, w): the jets of
    the kind "reparam" of expr.jet_rows, from eval_ast over those linear
    bindings or from their recorded walk, bit for bit the same."""
    try:
        (j00, j01), (j10, j11) = jacobian
        j00, j01, j10, j11 = float(j00), float(j01), float(j10), float(j11)
    except (TypeError, ValueError):
        raise ValueError("jacobian must be 2x2") from None
    jdet = j00 * j11 - j01 * j10
    if abs(jdet) <= ZERO_RTOL * (abs(j00 * j11) + abs(j01 * j10)):
        raise SingularJacobian(f"jacobian determinant {jdet!r} is singular")
    rows = jet_rows(surface._kernels, surface.components, "reparam", 2,
                    (float(u), float(v), j00, j01, j10, j11))
    return lmn_from_jets([Jet2._make(2, row) for row in rows]).det, jdet


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
