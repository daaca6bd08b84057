"""Arc-length comparison and commensurate-curve generation.

A curve a(t) = X(u(t), v(t)) inside a nondegenerate surface carries two
arc lengths: the equiaffine one (sixth root of det[a', a'', a''']) and the
one induced by the surface's affine fundamental form (square root of the
form on a').  The curve condition equating the two integrands,

    det[a'(t), a''(t), a'''(t)] = [form(a'(t))]^3,

is linear in the highest derivative once the parameter path is written as
u' = cos(theta), v' = sin(theta); solving for theta'' turns the condition
into a 4-dimensional first-order system (u, v, theta, omega) integrated by
the Dormand-Prince stepper in :mod:`.numerics`.

Sign conventions: the cube on the right-hand side is signed, so on
surfaces with an indefinite form the condition remains meaningful where
the form is negative on a'.  The induced arc length itself measures
sqrt(|form(a')|); its driver picks the sign branch from the curve and
refuses curves that cross the asymptotic cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curvegeo import ArcLength
from .errors import (
    AffineMetricsError,
    DomainError,
    InvalidIVP,
    MaxSteps,
    NegativeForm,
    SingularDenominator,
    StepFailure,
    UnsupportedOrder,
)
from .expr import eval_ast, parse_expression
from .jets import Jet1, compose_curve_in_surface, cross3, det3, dot3
from .numerics import (
    OdeEvent,
    OdeOptions,
    gk15_nodes,
    ode_solve,
    quad_adaptive,
)
from .surfgeo import (
    affine_first_fundamental,
    form_from_jets,
    forms_from_jets,
    gauss_from_forms,
    surface_jets,
)

__all__ = [
    "ParamCurve", "TraceCurve", "NodeTable", "CommensurateIVP",
    "SolutionTrace", "TraceNode", "ConditionCheck",
    "induced_arclength_integrand", "induced_arclength",
    "commensurate_residual", "commensurate_residual_general",
    "solve_theta_dd", "integrate_commensurate", "run_family",
    "check_condition_euclidean", "sphere_reference_curve",
    "BREAKDOWN_SEEDS",
]

#: relative threshold below which form(a') counts as asymptotic/degenerate
EPS_FORM = 1e-12


class _EmbeddedCurve:
    """Evaluation of a curve a(t) = X(u(t), v(t)) in a surface from its
    parameter jets; subclasses provide ``surface`` and ``param_jets``."""

    def node_jets(self, t, order):
        """(u, v, X, a) at t: the parameter jets, the surface jets at
        (u(t), v(t)) and the jets of the embedded curve, up to ``order``."""
        if order > 3:
            raise UnsupportedOrder(
                "surface-embedded curves support derivative order <= 3")
        return _node(self.surface, *self.param_jets(t, order), order)

    def curve_jets(self, t, order):
        """Jets of the embedded curve X(u(t), v(t))."""
        return self.node_jets(t, order)[3]

    def form_direction(self, t):
        """(form, u', v') at t: the affine fundamental form at (u(t), v(t))
        from order-2 surface jets, and the parameter direction."""
        u, v = self.param_jets(t, 1)
        form = affine_first_fundamental(self.surface, u.value, v.value)
        return form, u.coeffs[1], v.coeffs[1]


@dataclass(frozen=True)
class ParamCurve(_EmbeddedCurve):
    """A parameter-plane curve (u(t), v(t)) inside a surface, with the
    parameter functions given as expressions in t."""

    surface: object
    u_of_t: object
    v_of_t: object
    t_min: float
    t_max: float

    @classmethod
    def from_strings(cls, surface, u_expr, v_expr, t_min, t_max):
        return cls(surface,
                   parse_expression(u_expr, {"t"}),
                   parse_expression(v_expr, {"t"}),
                   float(t_min), float(t_max))

    def param_jets(self, t, order):
        seed = Jet1.seed(float(t), order)
        bindings = {"t": seed}
        return (seed.lift(eval_ast(self.u_of_t, bindings)),
                seed.lift(eval_ast(self.v_of_t, bindings)))


class TraceCurve(_EmbeddedCurve):
    """ParamCurve-compatible view of a numerically generated trace.

    Parameter values come from the dense output of the underlying solve;
    first and second derivatives come from the state (theta, omega), the
    third from the curve condition itself.
    """

    def __init__(self, trace):
        self.trace = trace
        self.surface = trace.surface
        self.t_min = trace.nodes[0].t
        self.t_max = trace.nodes[-1].t

    def param_jets(self, t, order):
        if order >= 3:
            return self.node_jets(t, order)[:2]
        return _theta_jets(*self.trace.state_at(t), 0.0, order)

    def node_jets(self, t, order):
        """As for any curve in a surface; at order 3 the theta'' solve and
        the composition share one evaluation of the surface jets, which
        raises DomainExit outside the surface's domain."""
        if order != 3:
            return super().node_jets(t, order)
        u, v, theta, omega = self.trace.state_at(t)
        X = surface_jets(self.surface, u, v, 3)
        omega_dot = _theta_dd(_parts_from_jets(X, u, v, theta, omega),
                              u, v, theta)
        u_jet, v_jet = _theta_jets(u, v, theta, omega, omega_dot)
        return u_jet, v_jet, X, compose_curve_in_surface(X, u_jet, v_jet, 3)


class NodeTable(_EmbeddedCurve):
    """A curve in a surface whose order-3 node evaluations are kept, so
    that consumers evaluating the same t share one evaluation.

    arclen-compare integrates both arc lengths over the same segment, so
    the first GK15 panels of the two quadratures (and the sample row at
    the segment's end) have the same nodes.  The equiaffine side evaluates
    a node once at order 3 (parameter jets, surface jets and curve jets);
    the induced side reads the affine form and (u', v') off that entry,
    and evaluates order-2 surface jets itself only at nodes the table
    lacks.  ``clear`` drops the entries when a segment is done.
    """

    def __init__(self, curve):
        self.curve = curve
        self.surface = curve.surface
        self._entries = {}

    def clear(self):
        self._entries.clear()

    def param_jets(self, t, order):
        return self.curve.param_jets(t, order)

    def node_jets(self, t, order):
        if order != 3:
            return super().node_jets(t, order)
        entry = self._entries.get(t)
        if entry is None:
            entry = self._entries[t] = super().node_jets(t, 3)
        return entry

    def form_direction(self, t):
        entry = self._entries.get(t)
        if entry is None:
            return super().form_direction(t)
        u, v, X, _ = entry
        return form_from_jets(X), u.coeffs[1], v.coeffs[1]


# ---------------------------------------------------------------------------
# induced arc length

def _form_threshold(form, du, dv):
    mag = abs(form.a) + 2.0 * abs(form.b) + abs(form.c)
    return EPS_FORM * max(1.0, mag) * max(1.0, du * du + dv * dv)


def _sigma_integrand(form, du, dv, orientation):
    """(sqrt(orientation * form(du, dv)), degenerate).  Within the
    threshold of zero the value is 0 and ``degenerate`` is set (asymptotic
    directions measure zero length); below the negative threshold
    NegativeForm is raised, carrying form(du, dv)."""
    q = form.apply(du, dv)
    oriented = orientation * q
    eps = _form_threshold(form, du, dv)
    if oriented < -eps:
        raise NegativeForm(q)
    if oriented <= eps:
        return 0.0, True
    return math.sqrt(oriented), False


def induced_arclength_integrand(pc, t, orientation=1.0):
    """sqrt of the affine fundamental form on a'(t).

    ``orientation`` selects the sign branch on indefinite surfaces: the
    integrand is sqrt(orientation * form(a')).  Values below the negative
    threshold raise NegativeForm; values within the threshold of zero
    clamp to zero (asymptotic directions measure zero length).
    """
    return _sigma_integrand(*pc.form_direction(t), orientation)[0]


def _probe_orientation(pc, t0, t1, nodes):
    """The sign of form(a') of largest magnitude at the nodes of the first
    GK15 panel over [t0, t1]; nodes whose geometry fails are skipped.  The
    evaluations that succeed are kept in ``nodes`` for the quadrature."""
    best = 0.0
    for t in gk15_nodes(t0, t1):
        try:
            node = nodes[t] = pc.form_direction(t)
        except AffineMetricsError:
            continue
        q = node[0].apply(node[1], node[2])
        if abs(q) > abs(best):
            best = q
    return -1.0 if best < 0.0 else 1.0


def induced_arclength(pc, t0, t1, rel_tol=1e-10, abs_tol=1e-12,
                      orientation=None):
    """Induced arc length over [t0, t1] by adaptive quadrature.

    With ``orientation=None`` the sign branch is probed from the curve
    itself: the form value of largest magnitude among the quadrature's
    first-panel nodes gives the sign, and the panel then reuses those
    evaluations.  So curves living in the negative cone of an indefinite
    form are measured with sqrt(-form); a genuine sign change along the
    curve still raises NegativeForm.
    """
    if t0 == t1:
        return ArcLength(0.0, 0.0, 0, False)
    nodes = {}
    if orientation is None:
        orientation = _probe_orientation(pc, t0, t1, nodes)
    flagged = [False]

    def integrand(t):
        node = nodes.pop(t, None) or pc.form_direction(t)
        value, degenerate = _sigma_integrand(*node, orientation)
        flagged[0] = flagged[0] or degenerate
        return value

    res = quad_adaptive(integrand, t0, t1, rel_tol=rel_tol, abs_tol=abs_tol)
    return ArcLength(res.value, res.error_estimate, res.evaluations,
                     flagged[0])


# ---------------------------------------------------------------------------
# the curve condition

def _theta_jets(u, v, theta, omega, omega_dot=0.0, order=3):
    """Jets of the parameter path u' = cos(theta), v' = sin(theta) with
    theta' = omega and theta'' = omega_dot, up to ``order`` (at most 3):

        u'' = -omega sin,  u''' = -omega_dot sin - omega^2 cos
        v'' =  omega cos,  v''' =  omega_dot cos - omega^2 sin

    This is the one place the theta parametrization is differentiated.
    An infinite theta, as a trial stage past the float range gives, is a
    DomainError.
    """
    try:
        c, s = math.cos(theta), math.sin(theta)
    except ValueError:
        raise DomainError(f"cos({theta!r}) of an infinite angle") from None
    du = (u, c, -omega * s, -omega_dot * s - omega * omega * c)
    dv = (v, s, omega * c, omega_dot * c - omega * omega * s)
    return Jet1(du[:order + 1]), Jet1(dv[:order + 1])


def _node(surface, u, v, order=3):
    """(u, v, X, a): parameter jets, the surface jets at (u(t), v(t)) and
    the curve jets of X(u(t), v(t)).  Builds every node but a trace's."""
    X = surface_jets(surface, u.value, v.value, order)
    return u, v, X, compose_curve_in_surface(X, u, v, order)


def _residual(node):
    """det[a', a'', a'''] - [form(a')]^3 at an order-3 node."""
    u, v, X, a = node
    d1, d2, d3 = ([comp.coeffs[k] for comp in a] for k in (1, 2, 3))
    q = form_from_jets(X).apply(u.coeffs[1], v.coeffs[1])
    return det3(d1, d2, d3) - q ** 3


def commensurate_residual_general(surface, u, v, derivs):
    """det[a', a'', a'''] - [form(a')]^3 for an arbitrary parameter path.

    ``derivs`` = (u', v', u'', v'', u''', v''') at the evaluation point;
    the embedded derivatives are assembled by the bivariate chain rule.
    """
    u1, v1, u2, v2, u3, v3 = derivs
    return _residual(_node(surface, Jet1((u, u1, u2, u3)),
                           Jet1((v, v1, v2, v3))))


def commensurate_residual(surface, state):
    """Residual of the curve condition for a theta-parametrized state
    (u, v, theta, theta', theta'')."""
    return _residual(_node(surface, *_theta_jets(*state)))


def _condition_parts(surface, u, v, theta, omega):
    """Split the residual as R + D * theta'' and return the geometry needed
    by the solver and its events.  One jet evaluation serves the form, the
    determinant and the denominator."""
    return _parts_from_jets(surface_jets(surface, u, v, 3, check_domain=False),
                            u, v, theta, omega)


def _parts_from_jets(X, u, v, theta, omega):
    """_condition_parts from already-evaluated order-3 surface jets."""
    u_jet, v_jet = _theta_jets(u, v, theta, omega)        # at theta'' = 0
    c, s = u_jet.coeffs[1], v_jet.coeffs[1]
    a = compose_curve_in_surface(X, u_jet, v_jet, 3)
    d1, d2, d3_base = (tuple(comp.coeffs[k] for comp in a) for k in (1, 2, 3))
    # graded layout: X_u and X_v are coefficients 1 and 2
    xu, xv = (tuple(comp.coeffs[k] for comp in X) for k in (1, 2))
    w = tuple(-s * x + c * y for x, y in zip(xu, xv))

    form = form_from_jets(X)
    q = form.apply(c, s)
    residual0 = det3(d1, d2, d3_base) - q ** 3
    denom = det3(d1, d2, w)
    denom_scale = (math.hypot(*d1) * math.hypot(*d2)
                   * math.hypot(*cross3(xu, xv)))
    return {
        "residual0": residual0,
        "denom": denom,
        "denom_scale": denom_scale,
        "q": q,
        "form": form,
        "gm": abs(form.discriminant) ** 0.25,
    }


def solve_theta_dd(surface, u, v, theta, omega, eps_den=1e-10):
    """theta'' that zeroes the curve condition at this state.

    The residual is affine in theta'': residual = D * theta'' + R with
    D = det[a', a'', -sin(theta) X_u + cos(theta) X_v]; raises
    SingularDenominator when |D| is below eps_den times its natural scale.
    """
    return _theta_dd(_condition_parts(surface, u, v, theta, omega),
                     u, v, theta, eps_den)


def _theta_dd(parts, u, v, theta, eps_den=1e-10):
    """solve_theta_dd from the _condition_parts of the state."""
    if abs(parts["denom"]) <= eps_den * max(parts["denom_scale"], 1e-300):
        raise SingularDenominator(
            f"theta'' coefficient {parts['denom']!r} is singular at "
            f"(u, v, theta) = ({u!r}, {v!r}, {theta!r})",
            denominator=parts["denom"])
    return -parts["residual0"] / parts["denom"]


# ---------------------------------------------------------------------------
# the initial value problem

_EVENT_KINDS = ("AsymptoticProximity", "SingularDenominator", "DomainExit",
                "StepFailure")


@dataclass(frozen=True)
class CommensurateIVP:
    surface: object
    u0: float
    v0: float
    theta0: float
    omega0: float = 0.0
    t_span: tuple = (0.0, 1.0)
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 100_000
    eps_asym: float = 1e-4
    eps_den: float = 1e-10
    method: str = "dopri5"          # the only stepper


@dataclass(frozen=True)
class TraceNode:
    t: float
    u: float
    v: float
    theta: float
    theta_prime: float
    x: float
    y: float
    z: float
    residual: float


@dataclass
class SolutionTrace:
    surface: object
    ivp: CommensurateIVP
    nodes: list
    termination: str            # "completed" or one of _EVENT_KINDS
    t_stop: float
    max_residual: float
    ode_result: object = field(repr=False, default=None)

    @property
    def completed(self):
        return self.termination == "completed"

    def state_at(self, t):
        y = self.ode_result.interpolate(t)
        return float(y[0]), float(y[1]), float(y[2]), float(y[3])


def integrate_commensurate(ivp):
    """Integrate the curve-condition system from the given initial data.

    The trace ends at the first of: the time span completing, the tangent
    direction entering the asymptotic threshold, the theta'' coefficient
    becoming singular, the path leaving the surface domain, or the stepper
    failing.  Starting on an asymptotic direction raises InvalidIVP.
    """
    surface = ivp.surface
    parts0 = _condition_parts(surface, ivp.u0, ivp.v0, ivp.theta0, ivp.omega0)
    if abs(parts0["q"]) <= ivp.eps_asym * max(parts0["gm"], 1e-300):
        raise InvalidIVP(
            f"initial direction theta0 = {ivp.theta0!r} is asymptotic: "
            f"form value {parts0['q']!r}")

    # one geometry evaluation per state: the events at an accepted node
    # reuse the right-hand side's last stage, which is taken there
    y0 = np.array([ivp.u0, ivp.v0, ivp.theta0, ivp.omega0], dtype=float)
    last = [y0.tobytes(), parts0]

    def parts_at(y):
        key = y.tobytes()
        if key != last[0]:
            last[1] = _condition_parts(surface, *(float(c) for c in y))
            last[0] = key
        return last[1]

    def rhs(t, y):
        try:
            parts = parts_at(y)
        except AffineMetricsError:
            return np.full(4, np.nan)
        denom = parts["denom"]
        if denom == 0.0:
            return np.full(4, np.nan)
        theta, omega = y[2], y[3]
        return np.array([math.cos(theta), math.sin(theta), omega,
                         -parts["residual0"] / denom])

    def guarded(func):
        def g(t, y):
            try:
                return func(parts_at(y))
            except AffineMetricsError:
                return math.nan
        return g

    def g_asym(parts):
        return abs(parts["q"]) / max(parts["gm"], 1e-300) - ivp.eps_asym

    def g_cone(parts):
        # signed form value: a zero crossing means the tangent passed
        # straight through the asymptotic cone, where |q| < eps_asym holds
        # however thin the dip is
        return parts["q"] / max(parts["gm"], 1e-300)

    def g_den(parts):
        return (abs(parts["denom"]) / max(parts["denom_scale"], 1e-300)
                - ivp.eps_den)

    def g_domain(t, y):
        return min(y[0] - surface.u_min, surface.u_max - y[0],
                   y[1] - surface.v_min, surface.v_max - y[1])

    events = (
        OdeEvent(guarded(g_asym), terminal=True, direction=-1,
                 name="AsymptoticProximity"),
        OdeEvent(guarded(g_cone), terminal=True, direction=0,
                 name="AsymptoticProximity"),
        OdeEvent(guarded(g_den), terminal=True, direction=-1,
                 name="SingularDenominator"),
        OdeEvent(g_domain, terminal=True, direction=-1, name="DomainExit"),
    )
    opts = OdeOptions(rel_tol=ivp.rel_tol, abs_tol=ivp.abs_tol,
                      max_steps=ivp.max_steps, method=ivp.method,
                      events=events)

    termination = "completed"
    try:
        result = ode_solve(rhs, y0, ivp.t_span, opts)
        if result.status == "event":
            termination = result.event_name
    except (StepFailure, MaxSteps) as exc:
        result = exc.trace
        termination = "StepFailure"

    nodes = []
    max_residual = 0.0
    for t, y, f in zip(result.ts, result.ys, result.fs):
        u, v, theta, omega = (float(c) for c in y)
        # theta'' is the right-hand side the solve stored at this node
        omega_dot = float(f[3])
        try:
            residual = commensurate_residual(surface,
                                             (u, v, theta, omega, omega_dot))
        except AffineMetricsError:
            residual = math.nan
        point = surface.point(u, v)
        if math.isfinite(residual):
            max_residual = max(max_residual, abs(residual))
        nodes.append(TraceNode(t, u, v, theta, omega,
                               float(point[0]), float(point[1]),
                               float(point[2]), residual))

    return SolutionTrace(surface, ivp, nodes, termination,
                         t_stop=result.ts[-1], max_residual=max_residual,
                         ode_result=result)


def run_family(ivp, omega0_values):
    """Integrate one IVP per omega0 seed (the 1-parameter family)."""
    return [integrate_commensurate(replace(ivp, omega0=float(w)))
            for w in omega0_values]


# ---------------------------------------------------------------------------
# Euclidean-invariant form of the curve condition

@dataclass(frozen=True)
class ConditionCheck:
    lhs: float                  # kappa^2 tau
    rhs: float                  # (|K|^(-1/4) k_n)^3, affine-aligned sign
    degenerate: bool = False


def check_condition_euclidean(pc, t, omega_dot=None):
    """Both sides of the Euclidean-invariant curve condition at t.

    lhs = kappa(t)^2 tau(t) of the embedded curve; rhs is the cube of
    |K|^(-1/4) times the normal curvature in the curve direction, with the
    normal aligned to the orientation of the affine fundamental form (the
    ``flipped`` flag of the chart).  For a trace-backed curve an explicit
    theta'' may be supplied (e.g. from finite differences) to keep the
    left side independent of the curve condition.
    """
    if omega_dot is None:
        u_jet, v_jet, X, a = pc.node_jets(t, 3)
    else:
        u_jet, v_jet, X, a = _node(
            pc.surface, *_theta_jets(*pc.trace.state_at(t), omega_dot))
    u, v = u_jet.value, v_jet.value

    d1, d2, d3 = (tuple(comp.coeffs[k] for comp in a) for k in (1, 2, 3))
    speed = math.hypot(*d1)
    cross = cross3(d1, d2)
    cross_sq = dot3(cross, cross)
    degenerate = False
    if cross_sq <= 1e-24 * max(speed, 1e-300) ** 2 * max(dot3(d2, d2), 1e-300):
        lhs = 0.0          # kappa = 0: both kappa and tau are degenerate
        degenerate = True
    else:
        kappa_sq = cross_sq / speed ** 6
        tau = det3(d1, d2, d3) / cross_sq
        lhs = kappa_sq * tau

    first, second, _ = forms_from_jets(X, u, v)
    du, dv = u_jet.coeffs[1], v_jet.coeffs[1]
    i_val = first.apply(du, dv)
    k_n = second.apply(du, dv) / i_val
    K = gauss_from_forms(first, second)
    sigma = form_from_jets(X).orientation_sign
    rhs = (abs(K) ** (-0.25) * k_n * sigma) ** 3
    return ConditionCheck(lhs, rhs, degenerate)


# ---------------------------------------------------------------------------
# the closed-form reference curve on the unit sphere

@dataclass(frozen=True)
class ReferenceCurve:
    s: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    position: np.ndarray      # (n, 3)
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray

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
# documented seeds that exhibit the hyperbolic breakdown behavior: a strong
# retrograde swing (large |omega0|) drives the tangent into an asymptotic
# direction well before t = 10 at the default thresholds

BREAKDOWN_SEEDS = {
    "hyperbolic-paraboloid": [
        {"u0": 0.0, "v0": 0.0, "theta0": 0.3, "omega0": -5.0, "t_max": 10.0},
        {"u0": 0.0, "v0": 0.0, "theta0": 0.4, "omega0": -6.0, "t_max": 10.0},
    ],
    "hyperboloid": [
        {"u0": 0.0, "v0": 0.5, "theta0": -1.0, "omega0": -4.0, "t_max": 10.0},
        {"u0": 0.0, "v0": 0.0, "theta0": -0.6, "omega0": 2.0, "t_max": 10.0},
    ],
    "helicoid": [
        {"u0": 1.0, "v0": 0.0, "theta0": 0.3, "omega0": -5.0, "t_max": 10.0},
        {"u0": 1.0, "v0": 0.0, "theta0": 0.4, "omega0": -8.0, "t_max": 10.0},
    ],
}
