"""The Jet route of a curve in a surface: the reference for its float node.

The package evaluates a curve a(t) = X(u(t), v(t)) in a surface as one
node per t on floats (``sample``): the parameter path, the order-3 surface
jets X at (u(t), v(t)) and the columns a', a'', a''' of the curve.  This
module builds the same node from public pieces as Jets: the parameter
path as Jet1s, ``surface_jets``, and the curve jets that
``compose_curve_in_surface`` gives; and it reads the residual of the curve
condition and the Euclidean condition check off that node, as the package
once did.  Tests hold the two routes equal bit for bit.

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
from affinemetrics.errors import DomainError
from affinemetrics.jets import (
    Jet1,
    cross3,
    cross3_is_zero,
    cross3_terms,
    det3,
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
    """An order-3 Jet node as the package's float node (u, v, X, a)."""
    u, v, X, a = node
    return (u.coeffs, v.coeffs, X,
            tuple([[comp.coeffs[k] for comp in a] for k in (1, 2, 3)]))


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
        return form_from_jets(X), u.coeffs[1], v.coeffs[1]


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

