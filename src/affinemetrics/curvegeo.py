"""Euclidean and equiaffine invariants of parametrized curves in 3-space.

The central quantity is det[a'(t), a''(t), a'''(t)]: its sixth root is the
integrand of the equiaffine arc length, and the cross-check route expresses
the same integrand through the Euclidean curvature and torsion as
(kappa^2 tau)^(1/6) * |a'|.  All derivatives come from jet evaluation of
the component expressions, never from numerical differentiation.

A curve is anything with ``curve_jets(t, order)`` for orders 1..3 and
``columns(t)``, the columns a', a'', a''' at t as three sequences of
three floats.  Every curve object of the package lies in a surface: its
columns are those of its float node (commensurate's ``sample``), and
its jets wrap them.  The equiaffine integrand and arc length read the
columns alone.  A caller holding a point's order-3 jets reads the
Frenet data off them with frenet_from_jets, not euclidean_frenet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DegenerateCurve,
    EuclideanDegenerate,
    NegativeOrientation,
    NonpositiveTorsion,
    ZeroSpeed,
)
from .jets import (
    ZERO_RTOL,
    cross3,
    cross3_is_zero,
    cross3_terms,
    det3,
    det3_terms,
)
from .numerics import quad_adaptive

__all__ = [
    "FrenetData", "ArcLength", "affine_integrand", "affine_arclength",
    "euclidean_frenet", "frenet_from_jets", "affine_integrand_via_euclidean",
]


@dataclass(frozen=True)
class FrenetData:
    """Euclidean frame and invariants at one parameter value.

    ``e1``, ``e2`` and ``e3`` are numpy arrays of three floats.  ``tau``
    is None when det[a', a'', a'''] is zero against its terms (the torsion
    of a numerically planar configuration carries no information)."""

    e1: object
    e2: object
    e3: object
    speed: float
    kappa: float
    tau: float | None


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


def _columns(jets):
    """a', a'', a''' of order-3 curve jets, as plain 3-tuples."""
    return tuple([tuple([j.coeffs[k] for j in jets]) for k in (1, 2, 3)])


def _alpha_integrand(d1, d2, d3, mirror):
    """(|det|^(1/6), det, degenerate) on the columns a', a'', a''' of a
    curve, with det = det[a', a'', a'''] negated when ``mirror``.
    ``degenerate`` is set when det is zero against its six terms (a term
    past the float range makes every det zero); otherwise a negative det
    raises NegativeOrientation carrying it.  Every route to the equiaffine
    integrand decides here."""
    det = det3(d1, d2, d3)
    if mirror:
        det = -det
    if abs(det) <= ZERO_RTOL * det3_terms(cross3_terms(d1, d2), d3):
        return abs(det) ** (1.0 / 6.0), det, True
    if det < 0.0:
        raise NegativeOrientation(det)
    return det ** (1.0 / 6.0), det, False


def affine_integrand(curve, t, mirror=False):
    """Sixth root of det[a', a'', a'''] at t.

    Raises DegenerateCurve when the determinant is zero against its terms
    and NegativeOrientation (carrying the raw determinant) when
    it is negative.  ``mirror=True`` evaluates the reflected curve instead,
    whose determinant has the opposite sign.
    """
    value, det, degenerate = _alpha_integrand(*curve.columns(t), mirror)
    if degenerate:
        raise DegenerateCurve(
            f"det[a', a'', a'''] = {det!r} is degenerate at t = {t!r}")
    return value


def affine_arclength(curve, t0, t1, rel_tol=1e-10, abs_tol=1e-12,
                     mirror=False):
    """Equiaffine arc length between t0 and t1 by adaptive quadrature.

    Isolated zeros of the determinant are integrable (the integrand is
    continuous there); nodes where it is zero only set the ``degenerate``
    flag on the result.  A nonzero determinant of the other sign still
    raises NegativeOrientation.
    """
    if t0 == t1:
        return ArcLength(0.0, 0.0, 0, False)
    flagged = [False]

    def integrand(t):
        value, _, degenerate = _alpha_integrand(*curve.columns(t), mirror)
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
    import numpy as np

    d1, d2, d3 = _columns(jets)
    v, kappa, tau = _frenet_invariants(d1, d2, d3, t)
    e1 = np.array(d1) / v
    d2 = np.array(d2)
    e2_raw = d2 - float(np.dot(d2, e1)) * e1
    e2 = e2_raw / _norm(e2_raw)
    e3 = np.array(cross3(e1, e2))
    return FrenetData(e1, e2, e3, v, kappa, tau)


def _frenet_invariants(d1, d2, d3, t):
    """(speed, kappa, tau) of frenet_from_jets from the columns a', a'',
    a''' at t, with its checks but not its frame."""
    v = _norm(d1)
    if v <= 1e-300:
        raise ZeroSpeed(f"|a'(t)| = 0 at t = {t!r}")
    cross, terms = cross3(d1, d2), cross3_terms(d1, d2)
    cross_norm = _norm(cross)
    # an underflowing |a' x a''| would be divided by
    if cross3_is_zero(cross, terms) or not cross_norm:
        raise EuclideanDegenerate(
            f"a' and a'' are parallel at t = {t!r}; frame undefined")
    kappa = cross_norm / v ** 3
    det = det3(d1, d2, d3)
    tau = (det / cross_norm ** 2
           if abs(det) > ZERO_RTOL * det3_terms(terms, d3) else None)
    return v, kappa, tau


def _norm(x):
    """float(np.linalg.norm(x)) of a vector of floats, bit for bit: numpy
    takes the norm of a float64 vector as sqrt(x.dot(x)), and this skips
    its wrapper.  Not math.hypot or a sum of squares in Python, which
    round differently from the BLAS dot product."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    return math.sqrt(x.dot(x))


def affine_integrand_via_euclidean(curve, t):
    """Cross-check route: (kappa^2 tau)^(1/6) * |a'| requires tau > 0."""
    fr = euclidean_frenet(curve, t)
    if fr.tau is None or fr.tau <= 0.0:
        raise NonpositiveTorsion(
            f"tau = {fr.tau!r} at t = {t!r}; the sixth-root route needs tau > 0")
    return (fr.kappa ** 2 * fr.tau) ** (1.0 / 6.0) * fr.speed

