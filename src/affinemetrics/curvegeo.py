"""Euclidean and equiaffine invariants of parametrized curves in 3-space.

The central quantity is det[a'(t), a''(t), a'''(t)]: its sixth root is the
integrand of the equiaffine arc length, and the cross-check route expresses
the same integrand through the Euclidean curvature and torsion as
(kappa^2 tau)^(1/6) * |a'|.  All derivatives come from jet evaluation of
the component expressions, never from numerical differentiation.

A curve is anything with ``curve_jets(t, order)``: a CurveDef, or a curve
in a surface (orders <= 3).  A caller holding a point's order-3 jets reads
the Frenet data off them with frenet_from_jets, not euclidean_frenet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCurve,
    DomainExit,
    EuclideanDegenerate,
    NegativeOrientation,
    NonpositiveTorsion,
    UnsupportedOrder,
    ZeroSpeed,
)
from .expr import eval_ast, parse_expression
from .jets import Jet1, cross3, det3
from .numerics import quad_adaptive

__all__ = [
    "CurveDef", "FrenetData", "AffineFrenetData", "ArcLength",
    "curve_jets", "affine_integrand", "affine_arclength",
    "euclidean_frenet", "frenet_from_jets", "affine_integrand_via_euclidean",
    "affine_frenet",
]

#: relative determinant-degeneracy threshold (scaled by |a'||a''||a'''|)
EPS_DEGENERATE = 1e-12


@dataclass(frozen=True)
class CurveDef:
    """Three component expressions in t plus the parameter interval."""

    components: tuple
    t_min: float
    t_max: float
    name: str | None = None

    @classmethod
    def from_strings(cls, exprs, t_min, t_max, name=None):
        """Build from component strings; ``exprs`` is a 3-sequence or a
        single semicolon-separated string."""
        if isinstance(exprs, str):
            exprs = [part.strip() for part in exprs.split(";")]
        if len(exprs) != 3:
            raise ValueError("a curve needs exactly three components")
        comps = tuple(parse_expression(s, {"t"}) for s in exprs)
        return cls(comps, float(t_min), float(t_max), name)

    def contains(self, t):
        return self.t_min <= t <= self.t_max

    def curve_jets(self, t, order):
        """The jets of the components at t; see the module's curve_jets."""
        return curve_jets(self, t, order)


@dataclass(frozen=True)
class FrenetData:
    """Euclidean frame and invariants at one parameter value.

    ``tau`` is None when det[a', a'', a'''] is below the degeneracy
    threshold (the torsion of a numerically planar configuration carries
    no information)."""

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    speed: float
    kappa: float
    tau: float | None

    @property
    def tau_defined(self):
        return self.tau is not None


@dataclass(frozen=True)
class AffineFrenetData:
    """Affine frame (the s-derivatives of the curve) and the two affine
    curvature functions."""

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    kappa1: float
    kappa2: float
    frame_det: float        # should be 1 for exact arithmetic
    solve_residual: float   # third component of the structure-equation solve


@dataclass(frozen=True)
class ArcLength:
    """Arc-length value plus quadrature metadata.  ``degenerate`` is set
    when the integrand ran through (near-)degenerate points."""

    value: float
    error_estimate: float
    evaluations: int
    degenerate: bool = False

    def __float__(self):
        return self.value


def curve_jets(curve, t, order):
    """Exact derivatives of the curve components at t, orders 1..6."""
    if not isinstance(order, int) or not 1 <= order <= 6:
        raise UnsupportedOrder(f"curve jets support orders 1..6, got {order}")
    if not curve.contains(t):
        raise DomainExit(f"t = {t!r} outside [{curve.t_min}, {curve.t_max}]")
    seed = Jet1.seed(t, order)
    bindings = {"t": seed}
    return tuple([seed.lift(eval_ast(comp, bindings))
                  for comp in curve.components])


def _det_and_scale(jets):
    """det[a', a'', a'''], the scale max(1, |a'| |a''| |a'''|) of its
    degeneracy threshold, and a', a'', a''' as plain 3-tuples.  Each norm
    is a math.hypot, so it stays finite; a product past the float range is
    inf, and then every determinant counts as degenerate."""
    d1, d2, d3 = (tuple(j.coeffs[k] for j in jets) for k in (1, 2, 3))
    det = det3(d1, d2, d3)
    scale = max(1.0, math.hypot(*d1) * math.hypot(*d2) * math.hypot(*d3))
    return det, scale, (d1, d2, d3)


def _alpha_integrand(jets, mirror):
    """(|det|^(1/6), det, degenerate) on order-3 curve jets, with det =
    det[a', a'', a'''] negated when ``mirror``.  ``degenerate`` is set when
    |det| is within the scale-aware threshold; past it, a negative det
    raises NegativeOrientation carrying it."""
    det, scale, _ = _det_and_scale(jets)
    if mirror:
        det = -det
    if abs(det) <= EPS_DEGENERATE * scale:
        return abs(det) ** (1.0 / 6.0), det, True
    if det < 0.0:
        raise NegativeOrientation(det)
    return det ** (1.0 / 6.0), det, False


def affine_integrand(curve, t, mirror=False):
    """Sixth root of det[a', a'', a'''] at t.

    Raises DegenerateCurve when the determinant is below the scale-aware
    threshold and NegativeOrientation (carrying the raw determinant) when
    it is negative.  ``mirror=True`` evaluates the reflected curve instead,
    whose determinant has the opposite sign.
    """
    value, det, degenerate = _alpha_integrand(curve.curve_jets(t, 3), mirror)
    if degenerate:
        raise DegenerateCurve(
            f"det[a', a'', a'''] = {det!r} is degenerate at t = {t!r}")
    return value


def affine_arclength(curve, t0, t1, rel_tol=1e-10, abs_tol=1e-12,
                     mirror=False):
    """Equiaffine arc length between t0 and t1 by adaptive quadrature.

    Isolated zeros of the determinant are integrable (the integrand is
    continuous there); nodes within the degeneracy threshold only set the
    ``degenerate`` flag on the result.  A sign change beyond the threshold
    still raises NegativeOrientation.
    """
    if t0 == t1:
        return ArcLength(0.0, 0.0, 0, False)
    flagged = [False]

    def integrand(t):
        value, _, degenerate = _alpha_integrand(curve.curve_jets(t, 3), mirror)
        flagged[0] = flagged[0] or degenerate
        return value

    res = quad_adaptive(integrand, t0, t1, rel_tol=rel_tol, abs_tol=abs_tol)
    return ArcLength(res.value, res.error_estimate, res.evaluations,
                     flagged[0])


def euclidean_frenet(curve, t):
    """Frenet frame, speed, curvature and (possibly flagged) torsion."""
    return frenet_from_jets(curve.curve_jets(t, 3), t)


def frenet_from_jets(jets, t):
    """euclidean_frenet from already-evaluated order-3 curve jets at t; t
    is used only in the error messages."""
    det, scale, (d1, d2, _) = _det_and_scale(jets)
    d1, d2 = np.array(d1), np.array(d2)
    v = float(np.linalg.norm(d1))
    if v <= 1e-300:
        raise ZeroSpeed(f"|a'(t)| = 0 at t = {t!r}")
    cross = np.array(cross3(d1, d2))
    cross_norm = float(np.linalg.norm(cross))
    if cross_norm <= 1e-12 * v * max(float(np.linalg.norm(d2)), 1e-300):
        raise EuclideanDegenerate(
            f"a' and a'' are parallel at t = {t!r}; frame undefined")
    kappa = cross_norm / v ** 3
    tau = det / cross_norm ** 2 if abs(det) > EPS_DEGENERATE * scale else None
    e1 = d1 / v
    e2_raw = d2 - float(np.dot(d2, e1)) * e1
    e2 = e2_raw / np.linalg.norm(e2_raw)
    e3 = np.array(cross3(e1, e2))
    return FrenetData(e1, e2, e3, v, kappa, tau)


def affine_integrand_via_euclidean(curve, t):
    """Cross-check route: (kappa^2 tau)^(1/6) * |a'| requires tau > 0."""
    fr = euclidean_frenet(curve, t)
    if fr.tau is None or fr.tau <= 0.0:
        raise NonpositiveTorsion(
            f"tau = {fr.tau!r} at t = {t!r}; the sixth-root route needs tau > 0")
    return (fr.kappa ** 2 * fr.tau) ** (1.0 / 6.0) * fr.speed


def affine_frenet(curve, t):
    """Affine Frenet frame and affine curvatures at t.

    The frame vectors are the first three derivatives of the curve with
    respect to its affine arc length; they are produced by applying the
    operator d/ds = (1/s'(t)) d/dt in jet arithmetic, where s'(t) is the
    sixth root of the determinant carried as an order-3 jet.  kappa1 and
    kappa2 solve e3'(s) = kappa1 e1 + kappa2 e2.  They need order-6 jets,
    so a curve in a surface raises UnsupportedOrder.
    """
    jets = curve.curve_jets(t, 6)
    a1 = tuple(j.derivative() for j in jets)                 # order 5
    a2 = tuple(j.derivative() for j in a1)                   # order 4
    a3 = tuple(j.derivative() for j in a2)                   # order 3
    det_jet = det3(tuple(j.truncated(3) for j in a1),
                   tuple(j.truncated(3) for j in a2),
                   a3)
    scale = max(1.0, float(np.linalg.norm([j.value for j in a1])
                           * np.linalg.norm([j.value for j in a2])
                           * np.linalg.norm([j.value for j in a3])))
    if abs(det_jet.value) <= EPS_DEGENERATE * scale:
        raise DegenerateCurve(f"degenerate at t = {t!r}")
    if det_jet.value < 0.0:
        raise NegativeOrientation(det_jet.value)

    inv_speed = det_jet ** (-1.0 / 6.0)                      # 1/s'(t), order 3
    g1 = tuple(j.truncated(3) * inv_speed for j in a1)       # da/ds
    g2 = tuple(j.derivative() * inv_speed.truncated(2) for j in g1)
    g3 = tuple(j.derivative() * inv_speed.truncated(1) for j in g2)
    e1 = np.array([j.value for j in g1])
    e2 = np.array([j.value for j in g2])
    e3 = np.array([j.value for j in g3])
    e3_prime = np.array([j.coeffs[1] * inv_speed.value for j in g3])

    frame = np.column_stack([e1, e2, e3])
    coeffs = np.linalg.solve(frame, e3_prime)
    return AffineFrenetData(e1, e2, e3,
                            kappa1=float(coeffs[0]), kappa2=float(coeffs[1]),
                            frame_det=float(np.linalg.det(frame)),
                            solve_residual=float(abs(coeffs[2])))
