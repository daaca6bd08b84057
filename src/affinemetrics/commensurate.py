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
the form is negative on a'.  The induced arc length measures
sqrt(|form(a')|); running_arclengths reads both sign branches off its first
Chebyshev grid, so a curve crossing the asymptotic cone is refused.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace

from .curvegeo import ArcLength, _alpha_integrand, affine_arclength
from .errors import (
    AffineMetricsError,
    DomainError,
    InvalidIVP,
    MaxSteps,
    NegativeForm,
    NegativeOrientation,
    SingularDenominator,
    StepFailure,
)
from .expr import KernelCache, eval_ast, jet_rows, parse_expression
from .jets import (
    MAX_ORDER_1,
    ZERO_RTOL,
    Jet1,
    Jet2,
    _check_order,
    cross3,
    cross3_is_zero,
    cross3_terms,
    det3,
    dot3,
    float_node,
    lmn_terms,
)
from .numerics import (
    ChebResult,
    OdeEvent,
    OdeOptions,
    cheb_cumulative,
    cheb_points,
    gk15_nodes,
    ode_solve,
    quad_adaptive,
)
from .surfgeo import (
    _partials,
    _require_domain,
    form_from_lmn,
    form_from_jets,
    forms_from_partials,
    surface_jets,
)

__all__ = [
    "ParamCurve", "TraceCurve", "NodeTable", "CommensurateIVP",
    "SolutionTrace", "TraceNode", "ConditionCheck", "induced_arclength",
    "ArcLengthRows", "running_arclengths", "commensurate_residual",
    "solve_theta_dd", "integrate_commensurate", "run_family",
    "BREAKDOWN_SEEDS",
]


class _EmbeddedCurve:
    """A curve a(t) = X(u(t), v(t)) in a surface; subclasses provide
    ``surface``, ``param_jets`` and ``sample``.

    Every consumer reads one node per t, on floats: ``sample`` gives
    (u, v, X, a, partials), the parameter path u = (u, u', u'', u''') and
    v alike, the order-3 surface jets X at (u(t), v(t)), and the columns
    a = (a', a'', a''') of the curve and the fifteen first and second
    partials that jets.float_node gives on X's coefficient rows.  ``columns``,
    ``curve_jets`` and ``form_direction`` read it at every order: the
    lower coefficients of order-3 jets are computed by the same float
    operations as those of a lower order."""

    def columns(self, t):
        """The columns a', a'', a''' of the node at t."""
        return self.sample(t)[3]

    def curve_jets(self, t, order):
        """Jets of the embedded curve X(u(t), v(t)) up to ``order``: the
        node's columns wrapped in Jet1s."""
        _check_order(order, MAX_ORDER_1, "curve_jets")
        _, _, X, columns, _ = self.sample(t)
        return tuple([Jet1._make(order, (comp.coeffs[0],) + d[:order])
                      for comp, d in zip(X, zip(*columns))])

    def form_direction(self, t):
        """(a, b, c, u', v') at t, floats: the coefficients of the affine
        fundamental form at (u(t), v(t)) and the parameter direction, read
        off the node: lmn_terms of its partials, decided by form_from_lmn."""
        u, v, _, _, partials = self.sample(t)
        a, b, c = form_from_lmn(lmn_terms(*partials))[:3]
        return a, b, c, u[1], v[1]


def _path_node(surface, u, v):
    """The float node (u, v, X, a, partials) of a curve in ``surface``
    whose parameter path is u = (u, u', u'', u''') and v alike: X holds
    the order-3 surface jets at (u, v), and a the columns and
    ``partials`` the partials of float_node."""
    X = surface_jets(surface, u[0], v[0], 3)
    return (u, v, X, *float_node((X[0].coeffs, X[1].coeffs, X[2].coeffs),
                                 *u[1:], *v[1:]))


@dataclass(frozen=True)
class ParamCurve(_EmbeddedCurve):
    """A parameter-plane curve (u(t), v(t)) inside a surface, with the
    parameter functions given as expressions in t."""

    surface: object
    u_of_t: object
    v_of_t: object
    t_min: float
    t_max: float
    # the bound kernel of the path at order 3
    _kernels: KernelCache = field(default_factory=KernelCache, init=False,
                                  repr=False, compare=False)

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

    def sample(self, t):
        """The float node at t.  Its parameter path comes from
        expr.jet_rows over a Jet1 seed: from eval_ast until the paths of
        this one's shape have been evaluated expr.RECORD_AFTER times, then
        off its recorded kernel, bit for bit the same."""
        return _path_node(self.surface, *jet_rows(
            self._kernels, (self.u_of_t, self.v_of_t), Jet1, MAX_ORDER_1,
            (float(t),)))


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
        _check_order(order, MAX_ORDER_1, "param_jets")
        path = (self.sample(t)[:2] if order == 3
                else _theta_path(*self.trace.state_at(t)))
        return tuple([Jet1(p[:order + 1]) for p in path])

    def sample(self, t, omega_dot=None):
        """The float node at t, with theta'' = ``omega_dot`` or, by
        default, the theta'' that the curve condition gives; the theta''
        solve and the node share one evaluation of the surface jets, which
        raises DomainExit outside the surface's domain."""
        u, v, theta, omega = self.trace.state_at(t)
        X = surface_jets(self.surface, u, v, 3)
        rows = (X[0].coeffs, X[1].coeffs, X[2].coeffs)
        if omega_dot is None:
            omega_dot = _theta_dd(
                _condition_parts(self.surface, u, v, theta, omega, rows),
                u, v, theta)
        u, v = _theta_path(u, v, theta, omega, omega_dot)
        return (u, v, X, *float_node(rows, *u[1:], *v[1:]))


class NodeTable(_EmbeddedCurve):
    """A curve in a surface whose nodes are kept, so that consumers
    evaluating the same t share one evaluation.

    arclen-compare samples both arc lengths' integrands at the same nodes,
    on its Chebyshev path and in the GK15 quadratures of its fallback.
    Each node is the curve's own (``sample``): a ParamCurve's reads its
    recorded parameter path, and a TraceCurve's evaluates its surface jets
    once.  The induced side reads the affine form and (u', v') off the
    same node.  ``discard`` drops one node, ``clear`` all of them.
    """

    def __init__(self, curve):
        self.curve = curve
        self.surface = curve.surface
        self._samples = {}

    def clear(self):
        self._samples.clear()

    def discard(self, t):
        self._samples.pop(t, None)

    def param_jets(self, t, order):
        return self.curve.param_jets(t, order)

    def sample(self, t):
        entry = self._samples.get(t)
        if entry is None:
            entry = self._samples[t] = self.curve.sample(t)
        return entry


# ---------------------------------------------------------------------------
# induced arc length

def _sigma_integrand(a, b, c, du, dv, orientation):
    """(sqrt(orientation * form(du, dv)), degenerate) for the form with
    coefficients (a, b, c).  Where form(du, dv) is zero against its terms
    the value is 0 and ``degenerate`` is set (asymptotic directions
    measure zero length); a value of the other sign raises NegativeForm,
    carrying form(du, dv) and ``orientation``."""
    # the terms of QuadForm.apply, and their sum, bit for bit
    qa, qb, qc = a * du * du, 2.0 * b * du * dv, c * dv * dv
    q = qa + qb + qc
    if abs(q) <= ZERO_RTOL * (abs(qa) + abs(qb) + abs(qc)):
        return 0.0, True
    oriented = orientation * q
    if oriented < 0.0:
        raise NegativeForm(q, orientation)
    return math.sqrt(oriented), False


def _probe_orientation(pc, ts, nodes):
    """The sign of form(a') of largest magnitude at the nodes ``ts``;
    nodes whose geometry fails are skipped.  The (a, b, c, u', v') that
    succeed are kept in the dict ``nodes``."""
    best = 0.0
    for t in ts:
        try:
            node = nodes[t] = pc.form_direction(t)
        except AffineMetricsError:
            continue
        a, b, c, du, dv = node
        q = a * du * du + 2.0 * b * du * dv + c * dv * dv   # QuadForm.apply
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
        orientation = _probe_orientation(pc, gk15_nodes(t0, t1), nodes)
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
# both arc lengths at a list of samples

@dataclass(frozen=True)
class ArcLengthRows:
    """Both arc lengths of a curve in a surface at samples ts[0], ts[1], ...

    ``s_alpha`` and ``s_sigma`` are running sums from ts[0];
    ``integrand_alpha`` and ``integrand_sigma`` are the integrands at each
    sample (0 where undefined; sqrt|form(a')| on the induced side);
    ``alpha_degenerate`` says whether the equiaffine side was skipped, its
    determinant degenerate at every node of the first grid;
    ``sigma_degenerate`` says whether the induced side has met a
    degenerate point up to each sample.  ``quadrature`` maps "alpha" and
    "sigma" to the side's ``path`` ("chebyshev" or "gk15"), the ``points``
    of its last Chebyshev grid, its ``error_estimate`` and its integrand
    ``evaluations``.
    """
    s_alpha: list
    s_sigma: list
    integrand_alpha: list
    integrand_sigma: list
    alpha_degenerate: bool
    sigma_degenerate: list
    quadrature: dict


def _sampled(evaluate):
    """``evaluate`` as an integrand for cheb_cumulative: NaN where it
    raises, which keeps the side off the Chebyshev path."""
    def sample(t):
        try:
            return evaluate(t)
        except AffineMetricsError:
            return math.nan
    return sample


def _strict_sigma(node, orientation):
    """The induced integrand at an (a, b, c, u', v') node; NaN where it is
    degenerate or off the ``orientation`` branch."""
    try:
        value, degenerate = _sigma_integrand(*node, orientation)
    except NegativeForm:
        return math.nan
    return math.nan if degenerate else value


def _alpha_at(nodes, t, mirror):
    """_alpha_integrand on the columns of the float node at t."""
    return _alpha_integrand(*nodes.sample(t)[3], mirror)


def _alpha_value(nodes, t, mirror):
    """The equiaffine integrand at t for cheb_cumulative: NaN where it is
    degenerate or, by raising, off the ``mirror`` branch."""
    value, _, degenerate = _alpha_at(nodes, t, mirror)
    return math.nan if degenerate else value


def _alpha_branch(nodes, grid, auto_orient):
    """(mirror, degenerate): the first node of ``grid`` whose det[a', a'',
    a'''] is not degenerate decides; a negative det there mirrors the curve
    if ``auto_orient`` and raises NegativeOrientation if not.  A failure
    before that node is raised; every node degenerate is ``degenerate``."""
    for t in grid:
        try:
            degenerate = _alpha_at(nodes, t, False)[2]
        except NegativeOrientation:
            if not auto_orient:
                raise
            return True, False
        if not degenerate:
            return False, False
    return False, True


def running_arclengths(pc, ts, tol=1e-10, auto_orient=False):
    """Both arc lengths of ``pc`` from ts[0] to each sample in ``ts``, as
    ArcLengthRows.

    Both sign branches are decided once, on the nodes of the first
    Chebyshev grid ([ts[0]] for a zero-width range): the equiaffine one by
    _alpha_branch (a degenerate side has zero sums and integrands), the
    induced one by _probe_orientation.  Every later step keeps them, so a
    curve that crosses the asymptotic cone raises NegativeForm whichever
    way it runs.

    Each side's running sums are read off one Chebyshev interpolant of its
    integrand over [ts[0], ts[-1]] (cheb_cumulative at tolerance ``tol``).
    The integrands are then evaluated at every sample for their columns,
    and each value is checked against its interpolant: the grid says
    nothing of a feature between its nodes, and the samples, which grow
    with their number, see it.  A side whose interpolant fails (a tail
    that does not decay, a failing, degenerate or non-finite node, or a
    sample that disagrees) sums GK15 quadratures segment by segment
    instead, on its decided branch, so its sums and errors are those of
    affine_arclength and induced_arclength given that branch.  One
    NodeTable serves both sides and the fallback, so a node is evaluated
    once, on floats (NodeTable.sample: the curve's own node, whose
    parameter path is recorded once its shape has been evaluated
    expr.RECORD_AFTER times).
    """
    ts = [float(t) for t in ts]
    a, b = ts[0], ts[-1]
    nodes = NodeTable(pc)
    grid = cheb_points(a, b, 9) if a != b else [a]
    # the equiaffine side samples first, so that the induced side reads
    # its nodes, and its sign branch, from the table
    mirror, alpha_degenerate = _alpha_branch(nodes, grid, auto_orient)
    if alpha_degenerate:
        alpha_fit = ChebResult([0.0] * len(ts), 0.0, 0)
    else:
        alpha_fit = cheb_cumulative(
            _sampled(lambda t: _alpha_value(nodes, t, mirror)), a, b, ts, tol)
    # the first grid's forms, which the probe reads, serve its nodes
    probed = {}
    orientation = _probe_orientation(nodes, grid, probed)
    sigma_fit = cheb_cumulative(
        _sampled(lambda t: _strict_sigma(
            probed.pop(t, None) or nodes.form_direction(t), orientation)),
        a, b, ts, tol)
    fits = {"alpha": alpha_fit, "sigma": sigma_fit}
    gk15 = {side for side, fit in fits.items() if fit.values is None}

    # the integrand columns, one node per sample, each value checked
    # against its side's interpolant
    columns = {"alpha": [], "sigma": []}
    row_flags = []
    failure = None
    for i, t in enumerate(ts):
        ia = alpha = 0.0
        if not alpha_degenerate:
            try:
                ia, _, degenerate = _alpha_at(nodes, t, mirror)
            except NegativeOrientation:
                degenerate = True
            except AffineMetricsError as exc:
                failure = exc
                break
            alpha = ia
            if degenerate:
                ia, alpha = 0.0, math.nan
        try:
            node = nodes.form_direction(t)
        except AffineMetricsError:
            js, sigma, flagged = 0.0, math.nan, True
        else:
            sigma = _strict_sigma(node, orientation)
            try:
                js, flagged = _sigma_integrand(*node, 1.0)
            except NegativeForm as exc:
                js, flagged = math.sqrt(abs(exc.value)), False
        # the grids' nodes stay for the samples that land on them; a
        # sample's own node goes once it is read
        nodes.discard(t)
        for side, value in (("alpha", alpha), ("sigma", sigma)):
            if not fits[side].agrees(i, value, tol):
                gk15.add(side)
        columns["alpha"].append(ia)
        columns["sigma"].append(js)
        row_flags.append(flagged)

    # the GK15 sides segment by segment, the segment before a sample ahead
    # of it as in a stand-alone loop, so that a sample that failed raises
    # only if no segment up to it raised first
    sums = {side: [0.0] for side in gk15}
    totals = {side: [0.0, 0] for side in gk15}
    seg_flags = [False] * len(ts)
    last = len(row_flags) if failure is not None else len(ts) - 1
    for j in range(1, last + 1):
        nodes.clear()
        prev, t = ts[j - 1], ts[j]
        segs = []
        if "alpha" in gk15:
            segs.append(("alpha", affine_arclength(
                nodes, prev, t, rel_tol=tol, abs_tol=tol * 1e-2,
                mirror=mirror)))
        if "sigma" in gk15:
            seg = induced_arclength(
                nodes, prev, t, rel_tol=tol, abs_tol=tol * 1e-2,
                orientation=orientation)
            seg_flags[j] = seg.degenerate
            segs.append(("sigma", seg))
        for side, seg in segs:
            sums[side].append(sums[side][-1] + seg.value)
            totals[side][0] += seg.error_estimate
            totals[side][1] += seg.evaluations
    if failure is not None:
        raise failure

    quadrature = {}
    for side, fit in fits.items():
        if side in gk15:
            err, evaluations = totals[side]
            quadrature[side] = {"path": "gk15", "points": fit.points,
                                "error_estimate": err,
                                "evaluations": fit.points + evaluations}
        else:
            # + 0.0: a reversed range's zero sums are -0.0 (b - a < 0)
            sums[side] = [float(s) + 0.0 for s in fit.values]
            quadrature[side] = {"path": "chebyshev", "points": fit.points,
                                "error_estimate": fit.error_estimate,
                                "evaluations": fit.points}
    sigma_degenerate = list(itertools.accumulate(
        map(operator.or_, row_flags, seg_flags), operator.or_))
    return ArcLengthRows(sums["alpha"], sums["sigma"], columns["alpha"],
                         columns["sigma"], alpha_degenerate,
                         sigma_degenerate, quadrature)


# ---------------------------------------------------------------------------
# the curve condition

def _direction(theta):
    """(cos(theta), sin(theta)), the parameter direction (u', v').  An
    infinite theta, as a trial stage past the float range gives, is a
    DomainError."""
    try:
        return math.cos(theta), math.sin(theta)
    except ValueError:
        raise DomainError(f"cos({theta!r}) of an infinite angle") from None


def _theta_path(u, v, theta, omega, omega_dot=0.0):
    """(u, u', u'', u''') and (v, v', v'', v''') of the parameter path
    u' = cos(theta), v' = sin(theta) with theta' = omega and theta'' =
    omega_dot:

        u'' = -omega sin,  u''' = -omega_dot sin - omega^2 cos
        v'' =  omega cos,  v''' =  omega_dot cos - omega^2 sin

    A TraceCurve's node and commensurate_residual read their path here;
    _condition_parts writes out its case theta'' = 0.
    """
    c, s = _direction(theta)
    return ((u, c, -omega * s, -omega_dot * s - omega * omega * c),
            (v, s, omega * c, omega_dot * c - omega * omega * s))


def commensurate_residual(surface, state):
    """Residual of the curve condition for a theta-parametrized state
    (u, v, theta, theta', theta''), read off float_node on the surface's
    rows and _theta_path's path: the solve calls this at every node, and
    it builds no jet and no form object.  DomainExit outside the domain
    box, unless the path fails first."""
    u, v, theta, omega, omega_dot = state
    # floats: the identity suites pass numpy scalars, whose overflow would
    # warn, not raise
    u, v = float(u), float(v)
    (_, c, u2, u3), (_, s, v2, v3) = _theta_path(u, v, theta, float(omega),
                                                 float(omega_dot))
    _require_domain(surface, u, v)
    (d1, d2, d3), partials = float_node(
        jet_rows(surface._kernels, surface.components, Jet2, 3, (u, v)),
        c, u2, u3, s, v2, v3)
    a, b, cc = form_from_lmn(lmn_terms(*partials))[:3]
    # the form's value as QuadForm.apply computes it
    return det3(d1, d2, d3) - (a * c * c + 2.0 * b * c * s + cc * s * s) ** 3


def _condition_parts(surface, u, v, theta, omega, rows=None):
    """Split the residual as R + D * theta'' and return the geometry needed
    by the solver and its events: a dict of ``residual0``, the residual at
    theta'' = 0; ``denom``, the coefficient D = det[a', a'', w] of
    theta''; ``q``, the raw form value form(a'); and ``gm``,
    |ln - m^2|^(1/4), the chart scale of q.  One float_node on the
    surface's order-3 rows at (u, v): ``rows``, or else evaluated here
    with no check of the domain box.

    |D| = |q| gm, so D vanishes only on the asymptotic cone, ``denom`` is
    0.0 where q is zero against its terms, and _cone_ratio is the one
    measure of how near the cone a state lies."""
    if rows is None:
        rows = jet_rows(surface._kernels, surface.components, Jet2, 3,
                        (float(u), float(v)))
    c, s = _direction(theta)
    # _theta_path's path at theta'' = 0; no column reads its values u, v
    columns, partials = float_node(
        rows, c, -omega * s, -0.0 * s - omega * omega * c,
        s, omega * c, 0.0 * c - omega * omega * s)
    (d10, d11, d12), (d20, d21, d22), (d30, d31, d32) = columns
    a, b, cc, disc, _, _ = form_from_lmn(lmn_terms(*partials))
    x, y, z = rows
    # w = -s X_u + c X_v, the column that theta'' multiplies in a'''
    w0, w1, w2 = (-s * x[1] + c * x[2], -s * y[1] + c * y[2],
                  -s * z[1] + c * z[2])
    qa, qb, qc = a * c * c, 2.0 * b * c * s, cc * s * s
    q = qa + qb + qc
    # det[a', a'', a'''] and det[a', a'', w] as det3 computes them, written
    # out: two det3 calls cost about 3% of a state (tools/percall.py)
    return {
        "residual0": (d10 * (d21 * d32 - d22 * d31)
                      - d11 * (d20 * d32 - d22 * d30)
                      + d12 * (d20 * d31 - d21 * d30)) - q ** 3,
        "denom": (d10 * (d21 * w2 - d22 * w1) - d11 * (d20 * w2 - d22 * w0)
                  + d12 * (d20 * w1 - d21 * w0)
                  if abs(q) > ZERO_RTOL * (abs(qa) + abs(qb) + abs(qc))
                  else 0.0),
        "q": q,
        "gm": abs(disc) ** 0.25,
    }


def _cone_ratio(parts):
    """q / gm of _condition_parts: form(a') free of the chart's scale,
    equiaffine-invariant, and zero exactly on the asymptotic cone (gm > 0)."""
    return parts["q"] / parts["gm"]


def solve_theta_dd(surface, u, v, theta, omega):
    """theta'' that zeroes the curve condition at this state.

    The residual is affine in theta'': residual = D * theta'' + R with
    D = det[a', a'', -sin(theta) X_u + cos(theta) X_v].  |D| = |q| gm, so
    D vanishes only on the asymptotic cone: raises SingularDenominator
    where q = form(a') is zero against its terms.
    """
    return _theta_dd(_condition_parts(surface, u, v, theta, omega),
                     u, v, theta)


def _theta_dd(parts, u, v, theta):
    """solve_theta_dd from the _condition_parts of the state."""
    if not parts["denom"]:
        raise SingularDenominator(
            f"theta'' coefficient is zero at (u, v, theta) = ({u!r}, {v!r}, "
            f"{theta!r}): form(a') = {parts['q']!r}, the direction is "
            f"asymptotic")
    return -parts["residual0"] / parts["denom"]


# ---------------------------------------------------------------------------
# the initial value problem

_NAN4 = (math.nan,) * 4


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
    # "completed", "AsymptoticProximity", "DomainExit" or "StepFailure"
    termination: str
    t_stop: float
    max_residual: float
    ode_result: object = field(repr=False, default=None)

    def state_at(self, t):
        """(u, v, theta, omega) at t, floats from the solve's dense output."""
        return self.ode_result.interpolate(t)


def integrate_commensurate(ivp):
    """Integrate the curve-condition system from the given initial data.

    The trace ends at the first of: the time span completing, the tangent
    direction reaching the band |q| / gm <= eps_asym around the
    asymptotic cone (where the theta'' coefficient vanishes), the path
    leaving the surface domain, or the stepper failing.  An asymptotic
    stop lies on the band's edge, where |q| / gm = eps_asym, even when the
    last step jumps across the cone.  Starting inside the band raises
    InvalidIVP.
    """
    surface = ivp.surface
    # theta0 reduced into [-pi, pi] once, so that theta keeps turning for a
    # large theta0; it is returned unchanged when it lies there already
    theta0 = math.remainder(ivp.theta0, math.tau)
    parts0 = _condition_parts(surface, ivp.u0, ivp.v0, theta0, ivp.omega0)
    if abs(_cone_ratio(parts0)) <= ivp.eps_asym:
        raise InvalidIVP(
            f"initial direction theta0 = {ivp.theta0!r} is asymptotic: "
            f"form value {parts0['q']!r}")

    # one geometry evaluation per state: the asymptotic event at an
    # accepted node reuses the right-hand side's last stage, taken there
    # (the solver passes each state as a tuple of floats)
    y0 = (float(ivp.u0), float(ivp.v0), theta0, float(ivp.omega0))
    last = [y0, parts0]

    def parts_at(y):
        if y != last[0]:
            last[1] = _condition_parts(surface, *y)
            last[0] = y
        return last[1]

    def rhs(t, y):
        u, v, theta, omega = y
        try:
            omega_dot = _theta_dd(parts_at(y), u, v, theta)
        except AffineMetricsError:
            return _NAN4
        return math.cos(theta), math.sin(theta), omega, omega_dot

    # q / gm is continuous and starts outside the band |q| / gm <=
    # eps_asym, so a trace enters the band through its edge on the start's
    # side: side * q / gm - eps_asym equals |q| / gm - eps_asym up to that
    # edge and falls through zero there, also in a step that jumps across
    # the cone inside the band
    side = math.copysign(1.0, _cone_ratio(parts0))

    def g_asym(t, y):
        try:
            return side * _cone_ratio(parts_at(y)) - ivp.eps_asym
        except AffineMetricsError:
            return math.nan

    def g_domain(t, y):
        return min(y[0] - surface.u_min, surface.u_max - y[0],
                   y[1] - surface.v_min, surface.v_max - y[1])

    events = (OdeEvent(g_asym, name="AsymptoticProximity"),
              OdeEvent(g_domain, name="DomainExit"))
    opts = OdeOptions(rel_tol=ivp.rel_tol, abs_tol=ivp.abs_tol,
                      max_steps=ivp.max_steps, method=ivp.method,
                      events=events)

    try:
        result = ode_solve(rhs, y0, ivp.t_span, opts)
        termination = result.event_name or "completed"
    except (StepFailure, MaxSteps) as exc:
        result = exc.trace
        termination = "StepFailure"

    nodes = []
    max_residual = 0.0
    for t, y, f in zip(result.ts, result.ys, result.fs):
        u, v, theta, omega = y
        # theta'' is the right-hand side the solve stored at this node
        omega_dot = f[3]
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


def _condition_check(node):
    """(ConditionCheck, the affine form) at a float node (u, v, X, a, _):
    both sides of the Euclidean-invariant curve condition.  lhs = kappa^2
    tau of the embedded curve; rhs is the cube of |K|^(-1/4) times the
    normal curvature in the curve direction, with the normal aligned to
    the orientation of the affine fundamental form (the ``flipped`` flag
    of the chart)."""
    u, v, X, (d1, d2, d3), _ = node

    speed = math.hypot(*d1)
    cross = cross3(d1, d2)
    cross_sq = dot3(cross, cross)
    degenerate = False
    # or an underflowing |a' x a''|^2, which kappa and tau divide by
    if cross3_is_zero(cross, cross3_terms(d1, d2)) or not cross_sq:
        lhs = 0.0          # kappa = 0: both kappa and tau are degenerate
        degenerate = True
    else:
        kappa_sq = cross_sq / speed ** 6
        tau = det3(d1, d2, d3) / cross_sq
        lhs = kappa_sq * tau

    first, second, _, K = forms_from_partials(*_partials(X), u[0], v[0])
    du, dv = u[1], v[1]
    i_val = first.apply(du, dv)
    k_n = second.apply(du, dv) / i_val
    form = form_from_jets(X)
    rhs = (abs(K) ** (-0.25) * k_n * form.orientation_sign) ** 3
    return ConditionCheck(lhs, rhs, degenerate), form


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
