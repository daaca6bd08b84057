"""The Jet route of a curve in a surface: the reference for its float node.

The package evaluates a curve a(t) = X(u(t), v(t)) in a surface as one
node per t on floats (``sample``): the parameter path, the order-3 surface
jets X at (u(t), v(t)) and the columns a', a'', a''' of the curve.  This
module builds the same node from public pieces as Jets: the parameter
path as Jet1s, ``surface_jets``, and the curve jets that
``compose_curve_in_surface`` gives; and it reads the residual of the curve
condition and the Euclidean condition check off that node, as the package
once did.  Tests hold the two routes equal bit for bit.

``loop_columns``, ``det3_lmn_terms`` and ``det3_form`` are the chain rule,
the form's arithmetic and the form as the package wrote them before
jets.float_node: a loop over the components, and det3 with its term sums.
``reference_parts`` and ``reference_residual`` build a theta-state's
solver values and residual from them.  Tests hold the package's float
node to them bit for bit.

The route calls compose_curve_in_surface through the ``jets`` module, so
the tests' counters see it; ``refuse_jet_route`` makes that function fail
the test under every name the package binds it to, so a test can show
that a computation does not take this route.  Compute a reference outside
such a guard.
"""

import math
import sys

import pytest

from affinemetrics import jets
from affinemetrics.commensurate import (
    ConditionCheck,
    TraceCurve,
    solve_theta_dd,
)
from affinemetrics.errors import DegenerateSurfacePoint, DomainError
from affinemetrics.jets import (
    ZERO_RTOL,
    Jet1,
    cross3,
    cross3_is_zero,
    cross3_terms,
    det3,
    det3_terms,
    dot3,
)
from affinemetrics.surfgeo import (
    _partials,
    form_from_jets,
    forms_from_partials,
    surface_jets,
)


def theta_jets(u, v, theta, omega, omega_dot=0.0, order=3):
    """Jets of the parameter path u' = cos(theta), v' = sin(theta) with
    theta' = omega and theta'' = omega_dot, up to ``order``; an infinite
    theta is a DomainError."""
    try:
        c, s = math.cos(theta), math.sin(theta)
    except ValueError:
        raise DomainError(f"cos({theta!r}) of an infinite angle") from None
    du = (u, c, -omega * s, -omega_dot * s - omega * omega * c)
    dv = (v, s, omega * c, omega_dot * c - omega * omega * s)
    return Jet1(du[:order + 1]), Jet1(dv[:order + 1])


def partial(jet, i, j):
    """The raw partial derivative d^(i+j) f / du^i dv^j of a Jet2, read off
    its graded coefficient layout."""
    return jet.coeffs[jets._POS2[jet.order][(i, j)]]


def node(surface, u, v, order=3):
    """(u, v, X, a): the parameter jets u and v, the surface jets at
    (u(t), v(t)) and the curve jets of X(u(t), v(t))."""
    X = surface_jets(surface, u.value, v.value, order)
    return u, v, X, jets.compose_curve_in_surface(X, u, v, order)


def trace_node(trace, t, omega_dot=None):
    """The order-3 node of a trace at t, with theta'' = ``omega_dot`` or
    the theta'' that the curve condition gives."""
    u, v, theta, omega = trace.state_at(t)
    X = surface_jets(trace.surface, u, v, 3)
    if omega_dot is None:
        omega_dot = solve_theta_dd(trace.surface, u, v, theta, omega)
    u_jet, v_jet = theta_jets(u, v, theta, omega, omega_dot)
    return u_jet, v_jet, X, jets.compose_curve_in_surface(X, u_jet, v_jet, 3)


def curve_node(curve, t, order=3):
    """The node of any curve in a surface at t, up to ``order``."""
    if isinstance(curve, TraceCurve) and order == 3:
        return trace_node(curve.trace, t)
    return node(curve.surface, *curve.param_jets(t, order), order)


def as_float_node(node):
    """An order-3 Jet node as the package's float node (u, v, X, a,
    partials), its partials the fifteen floats of _partials."""
    u, v, X, a = node
    return (u.coeffs, v.coeffs, X,
            tuple([[comp.coeffs[k] for comp in a] for k in (1, 2, 3)]),
            sum(_partials(X), ()))


def loop_columns(rows, u1, u2, u3, v1, v2, v3):
    """The columns a', a'' and a''' of a(t) = X(u(t), v(t)), each a list
    of three floats, by the chain rule in a loop over the coefficient
    rows of X's components."""
    uu, uv, vv = u1 * u1, u1 * v1, v1 * v1
    d1, d2, d3 = [], [], []
    for x in rows:
        d1.append(x[1] * u1 + x[2] * v1)
        d2.append(x[3] * uu + 2.0 * x[4] * uv + x[5] * vv
                  + x[1] * u2 + x[2] * v2)
        d3.append(x[6] * uu * u1 + 3.0 * x[7] * uu * v1
                  + 3.0 * x[8] * u1 * vv + x[9] * vv * v1
                  + 3.0 * (x[3] * u1 * u2 + x[4] * (u1 * v2 + u2 * v1)
                           + x[5] * v1 * v2)
                  + x[1] * u3 + x[2] * v3)
    return d1, d2, d3


def det3_lmn_terms(xu, xv, xuu, xuv, xvv):
    """(l, m, n, ln - m^2, terms) from the first and second partials, each
    a 3-tuple, by det3, cross3_terms and det3_terms."""
    ct = cross3_terms(xu, xv)
    l, m, n = det3(xu, xv, xuu), det3(xu, xv, xuv), det3(xu, xv, xvv)
    terms = (det3_terms(ct, xuu) * abs(n) + abs(l) * det3_terms(ct, xvv)
             + 2.0 * det3_terms(ct, xuv) * abs(m))
    return l, m, n, l * n - m * m, terms


def det3_form(xu, xv, xuu, xuv, xvv):
    """form_from_partials as the package wrote it before lmn_terms: (a, b,
    c, ln - m^2, flipped, (l, m, n)) from det3_lmn_terms, its zero test,
    its scale |ln - m^2|^(-1/4) and the flip of a negative-definite
    form."""
    l, m, n, disc, terms = det3_lmn_terms(xu, xv, xuu, xuv, xvv)
    if abs(disc) <= ZERO_RTOL * terms:
        raise DegenerateSurfacePoint(
            f"ln - m^2 = {disc!r} is zero against its terms {terms!r}")
    scale = abs(disc) ** (-0.25)
    a, b, c = scale * l, scale * m, scale * n
    flipped = disc > 0.0 and a < 0.0
    if flipped:
        a, b, c = -a, -b, -c
    return a + 0.0, b + 0.0, c + 0.0, disc, flipped, (l, m, n)


def reference_parts(surface, u, v, theta, omega):
    """The solver's _condition_parts at a theta-state by loop_columns and
    det3_form on the order-3 surface jets, with no check of the domain."""
    X = surface_jets(surface, u, v, 3, check_domain=False)
    u_jet, v_jet = theta_jets(u, v, theta, omega)
    c, s = u_jet.coeffs[1], v_jet.coeffs[1]
    d1, d2, d3 = loop_columns([x.coeffs for x in X], *u_jet.coeffs[1:],
                              *v_jet.coeffs[1:])
    xu, xv, xuu, xuv, xvv = _partials(X)
    a, b, cc, disc, _, _ = det3_form(xu, xv, xuu, xuv, xvv)
    w = tuple(-s * p + c * q for p, q in zip(xu, xv))
    qa, qb, qc = a * c * c, 2.0 * b * c * s, cc * s * s
    q = qa + qb + qc
    return {
        "residual0": det3(d1, d2, d3) - q ** 3,
        "denom": (det3(d1, d2, w)
                  if abs(q) > ZERO_RTOL * (abs(qa) + abs(qb) + abs(qc))
                  else 0.0),
        "q": q,
        "gm": abs(disc) ** 0.25,
    }


def reference_residual(surface, state):
    """commensurate_residual at a theta-state (u, v, theta, omega,
    omega_dot) by theta_jets, surface_jets, loop_columns and det3_form."""
    u_jet, v_jet = theta_jets(*state)
    X = surface_jets(surface, u_jet.value, v_jet.value, 3)
    d1, d2, d3 = loop_columns([x.coeffs for x in X], *u_jet.coeffs[1:],
                              *v_jet.coeffs[1:])
    a, b, c = det3_form(*_partials(X))[:3]
    du, dv = u_jet.coeffs[1], v_jet.coeffs[1]
    return det3(d1, d2, d3) - (a * du * du + 2.0 * b * du * dv
                               + c * dv * dv) ** 3


def residual(node):
    """det[a', a'', a'''] - [form(a')]^3 at an order-3 node."""
    u, v, X, a = node
    d1, d2, d3 = ([comp.coeffs[k] for comp in a] for k in (1, 2, 3))
    q = form_from_jets(X).apply(u.coeffs[1], v.coeffs[1])
    return det3(d1, d2, d3) - q ** 3


def condition_check(node):
    """Both sides of the Euclidean-invariant curve condition, as
    commensurate's ConditionCheck, at an order-3 node."""
    u_jet, v_jet, X, a = node
    u, v = u_jet.value, v_jet.value

    d1, d2, d3 = (tuple(comp.coeffs[k] for comp in a) for k in (1, 2, 3))
    speed = math.hypot(*d1)
    cross = cross3(d1, d2)
    cross_sq = dot3(cross, cross)
    degenerate = False
    if cross3_is_zero(cross, cross3_terms(d1, d2)) or not cross_sq:
        lhs = 0.0
        degenerate = True
    else:
        kappa_sq = cross_sq / speed ** 6
        tau = det3(d1, d2, d3) / cross_sq
        lhs = kappa_sq * tau

    first, second, _, K = forms_from_partials(*_partials(X), u, v)
    du, dv = u_jet.coeffs[1], v_jet.coeffs[1]
    i_val = first.apply(du, dv)
    k_n = second.apply(du, dv) / i_val
    sigma = form_from_jets(X).orientation_sign
    rhs = (abs(K) ** (-0.25) * k_n * sigma) ** 3
    return ConditionCheck(lhs, rhs, degenerate)


class JetRouteCurve:
    """``curve`` with its curve jets, the columns affine_arclength reads
    and the form and direction the induced side reads, all taken off the
    Jet node."""

    def __init__(self, curve):
        self.curve = curve
        self.surface = curve.surface

    def curve_jets(self, t, order):
        return curve_node(self.curve, t, order)[3]

    def columns(self, t):
        jets = self.curve_jets(t, 3)
        return [[jet.coeffs[k] for jet in jets] for k in (1, 2, 3)]

    def form_direction(self, t):
        u, v, X, _ = curve_node(self.curve, t)
        return (*form_from_jets(X).coefficients(), u.coeffs[1],
                v.coeffs[1])


def refuse_jet_route(patch, *others):
    """Make compose_curve_in_surface, and each function of ``others``,
    fail the test under every name a module of the package binds it to;
    ``patch`` is a monkeypatch."""
    def refused(*args, **kwargs):
        pytest.fail("the Jet route ran")

    for original in (jets.compose_curve_in_surface, *others):
        name = original.__name__
        for key, module in list(sys.modules.items()):
            if (key.startswith("affinemetrics")
                    and getattr(module, name, None) is original):
                patch.setattr(module, name, refused)

