import copy
import math
import pickle
import sys
from dataclasses import replace

import jet_route
import numpy as np
import pytest
from reference_routes import finite_diff, recharted, sphere_reference_curve

from affinemetrics import expr
from affinemetrics.commensurate import (
    BREAKDOWN_SEEDS,
    CommensurateIVP,
    NodeTable,
    ParamCurve,
    TraceCurve,
    _condition_check,
    _condition_parts,
    _node_residual,
    _path_node,
    _sigma_integrand,
    commensurate_residual,
    induced_arclength,
    integrate_commensurate,
    run_family,
    solve_theta_dd,
)
from affinemetrics.curvegeo import affine_arclength
from affinemetrics.errors import (
    AffineMetricsError,
    DegenerateSurfacePoint,
    DomainError,
    DomainExit,
    InvalidIVP,
    NegativeForm,
    SingularDenominator,
    UnsupportedOrder,
)
from affinemetrics.jets import (
    ZERO_RTOL,
    Jet1,
    compose_curve_in_surface,
    det3,
    dot3,
)
from affinemetrics.numerics import quad_adaptive
from affinemetrics.surfgeo import (
    CATALOG,
    SurfaceDef,
    affine_first_fundamental,
    form_from_jets,
    surface_jets,
)

SQRT_2PI = 2.5066282746310002
SPIRAL_RESIDUAL_AT_0 = 832.5047596464132     # 6 pi^4 + 8 pi^3

SPHERE = CATALOG["sphere"]
HELICOID = CATALOG["helicoid"]
PARABOLOID = CATALOG["paraboloid"]
HYP_PAR = CATALOG["hyperbolic-paraboloid"]

GREAT_CIRCLE = ParamCurve.from_strings(SPHERE, "t", "0", 0.0, 3.0)
SPH_HELIX = ParamCurve.from_strings(SPHERE, "8*t", "t", 0.0, 1.0)
RULING = ParamCurve.from_strings(HELICOID, "t", "0.5", 0.0, 2.0)
SPIRAL = ParamCurve.from_strings(HELICOID, "t", "pi*t", 0.0, 1.5)


def _sigma(pc, t):
    """The induced integrand sqrt(form(a')) at t, on the positive
    branch."""
    return _sigma_integrand(*pc.form_direction(t), 1.0)[0]


def _check(pc, t, *omega_dot):
    """Both sides of the Euclidean-invariant condition at the node at t;
    a trace curve's node takes theta'' = ``omega_dot`` where it is
    given."""
    return _condition_check(pc.sample(t, *omega_dot))[0]


def _residual_general(surface, u, v, derivs):
    """det[a', a'', a'''] - [form(a')]^3 at the float node of the
    parameter path with derivatives (u', v', u'', v'', u''', v''') at
    (u, v)."""
    u1, v1, u2, v2, u3, v3 = derivs
    node = _path_node(surface, (u, u1, u2, u3), (v, v1, v2, v3))
    return _node_residual(node, form_from_jets(node[2]))


class TestInducedArcLength:
    def test_great_circle_unit_integrand(self):
        for t in (0.0, 0.7, 2.0):
            assert _sigma(GREAT_CIRCLE, t) \
                == pytest.approx(1.0, rel=1e-13)

    def test_spherical_helix_integrand(self):
        for t in np.linspace(0.0, 1.0, 7):
            expected = math.sqrt(1.0 + 64.0 * math.cos(t) ** 2)
            assert _sigma(SPH_HELIX, float(t)) \
                == pytest.approx(expected, rel=1e-12)

    def test_ruling_measures_zero(self):
        assert _sigma(RULING, 0.5) == 0.0
        res = induced_arclength(RULING, 0.0, 2.0)
        assert res.value == 0.0
        assert res.degenerate

    def test_great_circle_length(self):
        res = induced_arclength(GREAT_CIRCLE, 0.0, 2.0)
        assert res.value == pytest.approx(2.0, rel=1e-10)

    def test_spiral_needs_negative_branch(self):
        # the spiral runs in the negative cone of the helicoid's
        # indefinite form: the default orientation refuses it...
        with pytest.raises(NegativeForm):
            _sigma(SPIRAL, 0.5)
        # ...and the auto-oriented arc length measures sqrt(2 pi) t
        res = induced_arclength(SPIRAL, 0.0, 1.0)
        assert res.value == pytest.approx(SQRT_2PI, abs=1e-9)

    def test_empty_interval(self):
        assert induced_arclength(SPIRAL, 0.5, 0.5).value == 0.0


class TestNodeTable:
    @pytest.mark.parametrize("pc", [SPH_HELIX, SPIRAL, RULING],
                             ids=["helix", "spiral", "ruling"])
    def test_entries_match_direct_evaluation(self, pc):
        table = NodeTable(pc)
        for t in (0.1, 0.45, 0.9):
            jets = table.curve_jets(t, 3)
            assert [j.coeffs for j in jets] \
                == [j.coeffs for j in jet_route.curve_node(pc, t)[3]]
            # the form read off the order-3 entry is the order-2 one
            form, du, dv = table.form_direction(t)
            u, v = pc.param_jets(t, 1)
            assert form == affine_first_fundamental(pc.surface, u.value,
                                                    v.value)
            assert (du, dv) == (u.coeffs[1], v.coeffs[1])
            assert table.form_direction(t) == pc.form_direction(t)
        table.clear()
        assert table.form_direction(0.45) == pc.form_direction(0.45)

    @pytest.fixture
    def jet_orders(self, monkeypatch):
        """The order of every surface_jets call made during the test."""
        from affinemetrics import commensurate, surfgeo

        orders = []
        original = surfgeo.surface_jets

        def counting(surface, u, v, order, check_domain=True):
            orders.append(order)
            return original(surface, u, v, order, check_domain)

        for module in (commensurate, surfgeo):
            monkeypatch.setattr(module, "surface_jets", counting)
        return orders

    def test_probe_costs_no_extra_evaluation(self, jet_orders):
        res = induced_arclength(SPIRAL, 0.0, 1.0)
        assert jet_orders == [3] * res.evaluations

    def test_nodes_evaluated_once_for_both_arc_lengths(self, jet_orders):
        table = NodeTable(SPH_HELIX)
        alpha = affine_arclength(table, 0.2, 0.3)
        sigma = induced_arclength(table, 0.2, 0.3)
        assert alpha.evaluations == sigma.evaluations == 15
        assert jet_orders == [3] * 15
        assert alpha.value == affine_arclength(SPH_HELIX, 0.2, 0.3).value
        assert sigma.value == induced_arclength(SPH_HELIX, 0.2, 0.3).value

    def test_trace_nodes_evaluate_the_surface_once(self, jet_orders):
        # a TraceCurve's node solves theta'' on its own surface jets; the
        # table takes that node as it is
        ivp = CommensurateIVP(SPHERE, 0.1, 0.1, 0.3, omega0=0.5,
                              t_span=(0.0, 0.3))
        trace = integrate_commensurate(ivp)
        table = NodeTable(TraceCurve(trace))
        for t in (0.05, 0.2):
            jet_orders.clear()
            node = table.sample(t)
            assert jet_orders == [3]
            assert _node_bits(node) == _node_bits(TraceCurve(trace).sample(t))

    def test_arc_length_reads_the_node_columns(self, monkeypatch):
        # affine_arclength reads each node's columns: no Jet1 is built
        # once the path is recorded, here at its first node
        monkeypatch.setattr(expr, "RECORD_AFTER", 1)
        table = NodeTable(replace(SPH_HELIX))
        want = affine_arclength(jet_route.JetRouteCurve(SPH_HELIX), 0.2, 0.3)
        table.sample(0.2)                   # records the path
        made = []
        make = Jet1._make.__func__
        monkeypatch.setattr(Jet1, "_make", classmethod(
            lambda cls, order, coeffs: (cls is Jet1 and made.append(order),
                                        make(cls, order, coeffs))[1]))
        assert affine_arclength(table, 0.2, 0.3) == want
        assert made == []
        assert table.columns(0.25) == table.sample(0.25)[3]


def _node_bits(node):
    """A float node (u, v, X, a) by IEEE bits."""
    u, v, X, a = node
    return [x.hex() for x in (*u, *v, *sum((j.coeffs for j in X), ()),
                              *sum(map(tuple, a), ()))]


class TestKernelCache:
    """A ParamCurve's bound kernel is not copied with it: an unpickled,
    deep-copied or replaced curve binds its own at its first node, its
    shape being recorded, and its nodes are the original's bit for
    bit."""

    def test_copies_bind_their_kernel_afresh(self, monkeypatch):
        monkeypatch.setattr(expr, "RECORD_AFTER", 1)
        pc = ParamCurve.from_strings(SPHERE, "0.3 + 0.2*t",
                                     "0.1 - 0.5*t + t^2", -0.1, 0.1)
        want = _node_bits(pc.sample(0.05))
        kernel = pc._kernels[3]
        assert callable(kernel)
        copies = [pickle.loads(pickle.dumps(pc)), copy.deepcopy(pc),
                  replace(pc)]
        for other in copies:
            assert other == pc and other._kernels == {}
            assert type(other._kernels) is expr.KernelCache
        for other in copies:
            assert _node_bits(other.sample(0.05)) == want
            assert callable(other._kernels[3])
            assert other._kernels[3] is not kernel
        assert pc._kernels[3] is kernel


class TestResidual:
    def test_great_circle_residual(self):
        r = _residual_general(
            SPHERE, 0.0, 0.0, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        assert r == pytest.approx(-1.0, rel=1e-12)

    def test_helical_spiral_residual(self):
        r = _residual_general(
            HELICOID, 0.0, 0.0, (1.0, math.pi, 0.0, 0.0, 0.0, 0.0))
        assert r == pytest.approx(SPIRAL_RESIDUAL_AT_0, rel=1e-12)

    def test_affine_in_second_order_term(self):
        state = (0.5, 0.6, 0.4, 0.2)
        r0 = commensurate_residual(PARABOLOID, state + (0.0,))
        r1 = commensurate_residual(PARABOLOID, state + (1.0,))
        r2 = commensurate_residual(PARABOLOID, state + (2.0,))
        assert r2 - 2.0 * r1 + r0 == pytest.approx(0.0, abs=1e-9)

    def test_solver_zeroes_residual(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            u = float(rng.uniform(0.2, 3.0))
            v = float(rng.uniform(0.3, 2.5))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            omega = float(rng.uniform(-2.0, 2.0))
            omega_dot = solve_theta_dd(PARABOLOID, u, v, theta, omega)
            r = commensurate_residual(PARABOLOID,
                                      (u, v, theta, omega, omega_dot))
            scale = max(1.0, abs(omega_dot))
            assert abs(r) <= 1e-10 * scale

    def test_singular_denominator(self):
        # theta = 0 runs along a ruling of the hyperbolic paraboloid
        # z = u v, an asymptotic direction, so the coefficient vanishes
        with pytest.raises(SingularDenominator):
            solve_theta_dd(HYP_PAR, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("theta, singular", [
        (0.0, True), (-0.0, True), (1e-13, False), (-1e-13, False),
        (1e-11, False), (-1e-11, False)])
    @pytest.mark.parametrize("stretch", [None, (1e4, 1e-4, 1.0)],
                             ids=["catalog", "stretched"])
    def test_singular_band_is_equiaffine(self, theta, singular, stretch):
        # on z = u v at the origin q = 2 m cos(theta) sin(theta) is one
        # product, so it is zero against its terms only where it is 0: at
        # theta = 0 theta'' is singular, an SL(3) map does not move that,
        # and theta'' next to it agrees
        from affinemetrics.identities import transformed_surface

        surface = HYP_PAR if stretch is None else transformed_surface(
            HYP_PAR, np.diag(stretch), (0.0, 0.0, 0.0))
        outcome = _outcome(solve_theta_dd, surface, 0.0, 0.0, theta, 0.3)
        if singular:
            assert outcome is SingularDenominator
        else:
            assert outcome == pytest.approx(
                solve_theta_dd(HYP_PAR, 0.0, 0.0, theta, 0.3), rel=1e-9)


NONPLANAR = [name for name in CATALOG if name != "plane"]


class TestThetaCoefficient:
    @pytest.mark.parametrize("name", NONPLANAR)
    def test_coefficient_is_q_times_gm(self, name):
        # |det[a', a'', w]| = |q| |ln - m^2|^(1/4): theta'' is singular
        # only on the asymptotic cone, so the cone's one equiaffine ratio
        # |q| / gm is the solver's only stop there
        surface = CATALOG[name]
        rng = np.random.default_rng(25)
        worst = 0.0
        for _ in range(200):
            state = (float(rng.uniform(surface.u_min, surface.u_max)),
                     float(rng.uniform(surface.v_min, surface.v_max)),
                     *rng.uniform(-4.0, 4.0, size=2).tolist())
            parts = _condition_parts(surface, *state)
            worst = max(worst, abs(abs(parts["denom"])
                                   / (abs(parts["q"]) * parts["gm"]) - 1.0))
        assert worst <= 1e-11


def _jet1_route_parts(X, u, v, theta, omega):
    """_parts_from_jets by the Jet1 route: theta_jets, then
    compose_curve_in_surface, form_from_jets and det3."""
    u_jet, v_jet = jet_route.theta_jets(u, v, theta, omega)
    c, s = u_jet.coeffs[1], v_jet.coeffs[1]
    a = compose_curve_in_surface(X, u_jet, v_jet, 3)
    d1, d2, d3 = (tuple(comp.coeffs[k] for comp in a) for k in (1, 2, 3))
    xu, xv = (tuple(comp.coeffs[k] for comp in X) for k in (1, 2))
    w = tuple(-s * x + c * y for x, y in zip(xu, xv))
    form = form_from_jets(X)
    q = form.apply(c, s)
    q_terms = (abs(form.a * c * c) + abs(2.0 * form.b * c * s)
               + abs(form.c * s * s))
    return {
        "residual0": det3(d1, d2, d3) - q ** 3,
        "denom": det3(d1, d2, w) if abs(q) > ZERO_RTOL * q_terms else 0.0,
        "q": q,
        "gm": abs(form.discriminant) ** 0.25,
    }


def _outcome(func, *args):
    """func(*args), or the class of the AffineMetricsError it raises."""
    try:
        return func(*args)
    except AffineMetricsError as exc:
        return type(exc)


def _kind(outcome):
    """The exception class of an _outcome, or the type of its value."""
    return outcome if isinstance(outcome, type) else type(outcome)


def _counting(calls, func):
    """``func``, appending its arguments to ``calls`` on each call."""
    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)
    return counted


def record_calls(monkeypatch, original):
    """Arguments of every call of the function ``original``, seen under
    each binding of its name in the package's modules."""
    calls = []
    name = original.__name__
    for key, mod in list(sys.modules.items()):
        if (key.startswith("affinemetrics")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, _counting(calls, original))
    return calls


def _kernel_parts(surface, state):
    return _condition_parts(surface, *state[:4])


def _jet1_parts(surface, state):
    u, v, theta, omega = state[:4]
    X = surface_jets(surface, u, v, 3, check_domain=False)
    return _jet1_route_parts(X, u, v, theta, omega)


def _jet1_residual(surface, state):
    return jet_route.residual(jet_route.node(surface,
                                             *jet_route.theta_jets(*state)))


QUOTIENT = SurfaceDef.from_strings("u;v;u*v/(1+u^2)", ((-3.0, 3.0),
                                                        (-3.0, 3.0)))


class TestStateGeometry:
    """The solver's float kernel gives every value of the Jet1 route, bit
    for bit, and fails where it fails with the same exception class."""

    @pytest.mark.parametrize("surface", [*CATALOG.values(), QUOTIENT],
                             ids=[*CATALOG, "quotient"])
    def test_equals_the_jet1_route(self, surface):
        rng = np.random.default_rng(17)
        outcomes = set()
        for _ in range(50):
            state = (float(rng.uniform(surface.u_min, surface.u_max)),
                     float(rng.uniform(surface.v_min, surface.v_max)),
                     *rng.uniform(-4.0, 4.0, size=3).tolist())
            parts = _outcome(_kernel_parts, surface, state)
            assert parts == _outcome(_jet1_parts, surface, state)
            residual = _outcome(commensurate_residual, surface, state)
            assert residual == _outcome(_jet1_residual, surface, state)
            outcomes.add(_kind(parts))
        # every plane point is degenerate, no point of the others is
        plane = surface is CATALOG["plane"]
        assert outcomes == {DegenerateSurfacePoint if plane else dict}

    @pytest.mark.parametrize("surface, state, parts_kind, residual_kind", [
        (CATALOG["plane"], (0.2, 0.3, 0.4, 0.5, 0.6),
         DegenerateSurfacePoint, DegenerateSurfacePoint),
        (SPHERE, (0.1, 0.1, math.inf, 0.5, 0.6), DomainError, DomainError),
        # the angle fails before the surface jets check the domain
        (SPHERE, (0.1, 5.0, math.inf, 0.5, 0.6), DomainError, DomainError),
        (SPHERE, (0.1, 5.0, 0.3, 0.5, 0.6), dict, DomainExit),
    ], ids=["degenerate", "infinite-angle", "infinite-angle-outside",
            "outside"])
    def test_failures_raise_the_jet1_routes_class(self, surface, state,
                                                  parts_kind,
                                                  residual_kind):
        parts = _outcome(_kernel_parts, surface, state)
        assert parts == _outcome(_jet1_parts, surface, state)
        assert _kind(parts) is parts_kind
        residual = _outcome(commensurate_residual, surface, state)
        assert residual == _outcome(_jet1_residual, surface, state)
        assert _kind(residual) is residual_kind

    def test_solve_builds_no_jet(self, monkeypatch):
        compose = record_calls(monkeypatch, compose_curve_in_surface)
        forms = record_calls(monkeypatch, form_from_jets)
        jet_calls = record_calls(monkeypatch, surface_jets)
        builds = []
        monkeypatch.setattr(Jet1, "__init__", _counting(builds, Jet1.__init__))
        monkeypatch.setattr(Jet1, "_like", _counting(builds, Jet1._like))
        monkeypatch.setattr(Jet1, "_make", classmethod(
            _counting(builds, Jet1._make.__func__)))
        trace = integrate_commensurate(CommensurateIVP(
            SPHERE, 0.1, 0.1, 0.3, omega0=0.5, t_span=(0.0, 1.0)))
        assert trace.termination == "completed"
        assert compose == forms == builds == []
        # one order-3 evaluation per right-hand side (260) and per node
        # (44), as many as the Jet1 route made
        evaluations = trace.ode_result.n_rhs + len(trace.nodes)
        assert evaluations == 304
        assert [args[3] for args in jet_calls] == [3] * evaluations
        # the counters see a trace curve's Jet1 wrappers, and the Jet route
        TraceCurve(trace).curve_jets(0.5, 3)
        assert compose == []
        assert len(builds) == 3
        jet_route.trace_node(trace, 0.5)
        assert len(compose) == 1


def _jet_residual_general(surface, u, v, derivs):
    """_residual_general on the Jet route."""
    u1, v1, u2, v2, u3, v3 = derivs
    return jet_route.residual(jet_route.node(
        surface, Jet1((u, u1, u2, u3)), Jet1((v, v1, v2, v3))))


def _jet_check(curve, t):
    """_check on the Jet route."""
    return jet_route.condition_check(jet_route.curve_node(curve, t))


class TestFloatNodes:
    """Every consumer of a curve in a surface reads its float node: under
    a guard that fails the test where compose_curve_in_surface runs, each
    gives what the Jet route gives, bit for bit, and fails where it fails
    with the same exception class."""

    @pytest.mark.parametrize("pc", [SPH_HELIX, SPIRAL, RULING],
                             ids=["helix", "spiral", "ruling"])
    def test_standalone_arc_lengths(self, monkeypatch, pc):
        with monkeypatch.context() as patch:
            jet_route.refuse_jet_route(patch)
            got = [_outcome(affine_arclength, pc, 0.2, 0.3),
                   _outcome(affine_arclength, pc, 0.2, 0.3, 1e-10, 1e-12,
                            True),
                   _outcome(induced_arclength, pc, 0.2, 0.3)]
        ref = jet_route.JetRouteCurve(pc)
        assert got == [_outcome(affine_arclength, ref, 0.2, 0.3),
                       _outcome(affine_arclength, ref, 0.2, 0.3, 1e-10,
                                1e-12, True),
                       _outcome(induced_arclength, ref, 0.2, 0.3)]

    def test_condition_check_on_param_curves(self, monkeypatch):
        curves = [SPH_HELIX, SPIRAL, RULING, GREAT_CIRCLE,
                  NodeTable(SPH_HELIX)]
        ts = [0.1, 0.45, 0.9]
        with monkeypatch.context() as patch:
            jet_route.refuse_jet_route(patch)
            got = [_outcome(_check, pc, t)
                   for pc in curves for t in ts]
        assert got == [_outcome(_jet_check, pc, t)
                       for pc in curves for t in ts]

    def test_condition_check_on_a_trace(self, monkeypatch):
        trace = integrate_commensurate(CommensurateIVP(
            PARABOLOID, 0.5, 0.8, 0.4, omega0=0.1, t_span=(0.0, 0.5)))
        tc = TraceCurve(trace)
        ts = np.linspace(0.0, 0.5, 6).tolist()
        with monkeypatch.context() as patch:
            jet_route.refuse_jet_route(patch)
            got = [(_check(tc, t),
                    _check(tc, t, 0.1),
                    [jet.coeffs for jet in tc.curve_jets(t, 3)])
                   for t in ts]
        assert got == [
            (_jet_check(tc, t),
             jet_route.condition_check(jet_route.trace_node(trace, t, 0.1)),
             [jet.coeffs for jet in jet_route.trace_node(trace, t)[3]])
            for t in ts]

    def test_residual_of_a_parameter_path(self, monkeypatch):
        rng = np.random.default_rng(23)
        cases = []
        for surface in [*CATALOG.values(), QUOTIENT]:
            for _ in range(20):
                cases.append((
                    surface,
                    float(rng.uniform(surface.u_min, surface.u_max)),
                    float(rng.uniform(surface.v_min, surface.v_max)),
                    tuple(rng.uniform(-2.0, 2.0, size=6).tolist())))
        with monkeypatch.context() as patch:
            jet_route.refuse_jet_route(patch)
            got = [_outcome(_residual_general, *case)
                   for case in cases]
        assert got == [_outcome(_jet_residual_general, *case)
                       for case in cases]
        # every plane point is degenerate, no point of the others is
        assert {_kind(outcome) for outcome in got} == {
            float, DegenerateSurfacePoint}


class TestIntegration:
    def test_sphere_trace_self_consistency(self):
        ivp = CommensurateIVP(SPHERE, 0.0, 0.0, 0.0, omega0=0.5,
                              t_span=(0.0, 1.0))
        trace = integrate_commensurate(ivp)
        assert trace.termination == "completed"
        assert trace.max_residual <= 1e-6
        ts = [n.t for n in trace.nodes]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert all(SPHERE.contains(n.u, n.v) for n in trace.nodes)

    def test_asymptotic_start_rejected(self):
        with pytest.raises(InvalidIVP):
            integrate_commensurate(CommensurateIVP(HYP_PAR, 0.0, 0.0, 0.0))

    def test_hyperbolic_termination_kinds(self):
        ivp = CommensurateIVP(HYP_PAR, 0.0, 0.0, math.pi / 4, omega0=-5.0,
                              t_span=(0.0, 10.0), rel_tol=1e-7, abs_tol=1e-9)
        trace = integrate_commensurate(ivp)
        assert trace.termination in ("completed", "AsymptoticProximity",
                                     "DomainExit", "StepFailure")

    def test_domain_exit_event(self):
        # a straight parameter path from the box edge leaves quickly
        ivp = CommensurateIVP(PARABOLOID, 3.0, 1.0, 0.0, omega0=0.0,
                              t_span=(0.0, 2.0))
        trace = integrate_commensurate(ivp)
        assert trace.termination == "DomainExit"
        assert trace.t_stop < 2.0

    def test_unit_parameter_speed_along_trace(self):
        ivp = CommensurateIVP(PARABOLOID, 0.5, 0.5, 0.3, t_span=(0.0, 1.0))
        trace = integrate_commensurate(ivp)
        for t in np.linspace(0.05, 0.95, 9):
            du = finite_diff(lambda s: trace.state_at(s)[0], float(t),
                             order=1, step=1e-3)
            dv = finite_diff(lambda s: trace.state_at(s)[1], float(t),
                             order=1, step=1e-3)
            assert du * du + dv * dv == pytest.approx(1.0, abs=1e-9)

    def test_sphere_trace_is_not_stiff(self):
        # a criterion-08 start: the stiffness estimate never trips
        ivp = CommensurateIVP(SPHERE, 0.2, 0.1, 0.7, omega0=-0.3,
                              t_span=(0.0, 1.0))
        trace = integrate_commensurate(ivp)
        assert trace.termination == "completed"
        assert trace.ode_result.stiff_steps == 0

    def test_theta0_is_reduced_once_at_the_start(self):
        # a theta0 many turns out traces the same curve; unreduced, each
        # increment of theta fell below one ulp and the direction never
        # turned
        def trace(theta0):
            return integrate_commensurate(CommensurateIVP(
                SPHERE, 0.1, 0.1, theta0, omega0=0.5, t_span=(0.0, 0.5)))
        near = trace(0.3)
        far = trace(0.3 + 2.0 * math.pi * 1000)
        assert far.nodes[0].theta == pytest.approx(0.3, abs=1e-9)
        assert near.termination == far.termination == "completed"
        # the reduced theta0 differs from 0.3 in the last bits, so the two
        # step meshes differ; compare where both end, at t = 0.5
        a, b = near.nodes[-1], far.nodes[-1]
        assert a.t == b.t == 0.5
        assert (b.x, b.y, b.z) == pytest.approx((a.x, a.y, a.z), abs=1e-9)
        assert trace(1e300).nodes[0].theta == math.remainder(1e300, math.tau)

    def test_theta0_within_pi_is_kept_exactly(self):
        for theta0 in (0.3, -3.04, math.pi, -math.pi):
            trace = integrate_commensurate(CommensurateIVP(
                SPHERE, 0.1, 0.1, theta0, omega0=0.5, t_span=(0.0, 0.05)))
            assert trace.nodes[0].theta == theta0

    def test_family_sweep(self):
        ivp = CommensurateIVP(SPHERE, 0.0, 0.0, 0.0, t_span=(0.0, 0.2))
        traces = run_family(ivp, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert len(traces) == 5
        assert [t.ivp.omega0 for t in traces] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert all(t.termination == "completed" for t in traces)


def _geodesic_curvature_and_speed(curve, t):
    """kappa_g = det[a, a', a''] / |a'|^3 and |a'| of a curve in the unit
    sphere, where the position a is the unit normal.  a' and a'' do not
    depend on theta'', so the values do not read the curve condition."""
    a = curve.curve_jets(t, 2)
    p, d1, d2 = ([comp.coeffs[k] for comp in a] for k in (0, 1, 2))
    speed = math.sqrt(dot3(d1, d1))
    return det3(p, d1, d2) / speed ** 3, speed


class TestSphereGlobalError:
    @pytest.mark.parametrize("omega0", [0.5, -1.0])
    def test_geodesic_curvature_changes_by_arclength(self, omega0):
        # on the unit sphere kappa^2 tau = 1 holds exactly when kappa_g' =
        # +-1, so along a commensurate trace kappa_g changes by exactly the
        # Euclidean arc length s; |delta kappa_g| - s is the solve's global
        # error (at rtol 1e-6, 1e-8, 1e-10: 3.7e-5, 6.8e-8, 1.6e-10 for
        # omega0 = 0.5 and 2.2e-6, 1.3e-9, 3.6e-11 for omega0 = -1 with the
        # stepper's former starting step t_span / 100)
        gaps = []
        for rtol in (1e-6, 1e-8, 1e-10):
            trace = integrate_commensurate(CommensurateIVP(
                SPHERE, 0.1, 0.1, 0.3, omega0=omega0, t_span=(0.0, 3.0),
                rel_tol=rtol, abs_tol=rtol / 100))
            assert trace.termination == "completed"
            curve = TraceCurve(trace)
            ts = [n.t for n in trace.nodes]
            s = math.fsum(quad_adaptive(
                lambda t: _geodesic_curvature_and_speed(curve, t)[1], a, b,
                rel_tol=1e-13, abs_tol=1e-15).value
                for a, b in zip(ts, ts[1:]))
            k0 = _geodesic_curvature_and_speed(curve, ts[0])[0]
            k1 = _geodesic_curvature_and_speed(curve, ts[-1])[0]
            gap = abs(abs(k1 - k0) - s)
            assert gap <= 100.0 * rtol
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]


class TestQuadricOracle:
    @pytest.mark.parametrize("omega0", [0.7, -1.3])
    def test_round_paraboloid_theta_is_quadratic(self, omega0):
        # On X = (u, v, (u^2 + v^2)/2) write g = (u, v), g' = (c, s) =
        # (cos theta, sin theta) and n = (-s, c), so g'' = theta' n and
        # g''' = theta'' n - theta'^2 g'.  Each column of det[a', a'', a''']
        # is (g^(k), third entry); subtracting g . (first two entries)
        # from the third entry leaves 0 for a', g' . g' = 1 for a'' and
        # 3 g' . g'' = 0 for a'''.  Expanding along that row, det =
        # -(c g'''_v - s g'''_u) = -theta''.  l = n = 1 and m = 0, so
        # form(a') = c^2 + s^2 = 1, and the condition -theta'' = 1 gives
        # theta'' = -1: theta = theta0 + omega0 t - t^2/2 exactly, which
        # DOPRI5 integrates without truncation error, so the gap checks
        # the condition's implementation.  The third partials vanish here;
        # the sphere oracle covers them.
        surface = SurfaceDef.from_strings("u;v;(u^2+v^2)/2",
                                          ((-5.0, 5.0), (-5.0, 5.0)))
        theta0 = 0.4
        for rtol in (1e-6, 1e-8, 1e-10):
            trace = integrate_commensurate(CommensurateIVP(
                surface, 0.3, -0.2, theta0, omega0=omega0,
                t_span=(0.0, 4.0), rel_tol=rtol, abs_tol=rtol / 100))
            assert trace.termination == "completed"
            for node in trace.nodes:
                t = node.t
                assert abs(node.theta - (theta0 + omega0 * t - t * t / 2)) \
                    <= 1e-13
                assert abs(node.theta_prime - (omega0 - t)) <= 1e-13

    @pytest.mark.parametrize("omega0", [0.7, -1.3])
    def test_round_paraboloid_path_is_a_fresnel_spiral(self, omega0):
        # With theta'' = -1 (the test above), theta(t) = theta0 + omega0 t
        # - t^2/2 = phi - (t - omega0)^2/2 with phi = theta0 + omega0^2/2,
        # and the solver's path u' = cos theta, v' = sin theta gives
        #     u + i v = u0 + i v0 + int_0^t exp(i theta(s)) ds
        #             = u0 + i v0 + sqrt(pi) e^(i phi) [C(z) - i S(z)],
        # the Fresnel integrals C and S taken between z = -omega0/sqrt(pi)
        # and (t - omega0)/sqrt(pi): an Euler spiral in the (u, v) plane.
        # The reference integrates exp(i theta) node to node by mpmath at
        # 30 digits.  Unlike theta, u and v carry the stepper's truncation
        # error, so the gap is the solve's global error in the state: at
        # most 2.5e-7, 2.8e-9 and 3.3e-11 (omega0 = 0.7) and 3.2e-7, 3.1e-9
        # and 3.0e-11 (omega0 = -1.3) at rtol 1e-6, 1e-8 and 1e-10 as
        # measured, so rtol itself bounds it with a margin of 3 or more.
        mpmath = pytest.importorskip("mpmath")
        surface = SurfaceDef.from_strings("u;v;(u^2+v^2)/2",
                                          ((-5.0, 5.0), (-5.0, 5.0)))
        theta0 = 0.4
        gaps = []
        for rtol in (1e-6, 1e-8, 1e-10):
            trace = integrate_commensurate(CommensurateIVP(
                surface, 0.3, -0.2, theta0, omega0=omega0,
                t_span=(0.0, 4.0), rel_tol=rtol, abs_tol=rtol / 100))
            assert trace.termination == "completed"
            gap = 0.0
            with mpmath.workdps(30):
                z, prev = mpmath.mpc(0.3, -0.2), 0.0
                for node in trace.nodes:
                    z += mpmath.quad(
                        lambda s: mpmath.expj(theta0 + omega0 * s - s * s / 2),
                        [prev, node.t], method="gauss-legendre")
                    prev = node.t
                    gap = max(gap, abs(node.u - float(z.real)),
                              abs(node.v - float(z.imag)))
            assert gap <= rtol
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("start", [
        (0.3, -0.2, 0.5, 0.8),
        (0.1, 0.4, -0.5, 0.3),          # the negative cone, sin 2 theta < 0
        (0.2, 0.1, 1.1, -0.4),
    ])
    def test_hyperbolic_paraboloid_first_integral(self, start):
        # On X = (u, v, g^T H g / 2) with g = (u, v), g' = (c, s) = (cos
        # theta, sin theta), n = (-s, c) and Q(g') = g'^T H g', the third
        # entries of a', a'', a''' less H g . (their first two entries) are
        # 0, Q(g') and 3 theta' g'^T H n (g'' = theta' n, g''' = theta'' n
        # - theta'^2 g').  Expanding along that row, det[a', a'', a'''] =
        # -Q(g') theta'' + 3 theta'^2 g'^T H n.  The catalog surface (u, v,
        # uv) has H = [[0, 1], [1, 0]], so Q = sin 2theta, g'^T H n = cos
        # 2theta and, with l = n = 0 and m = 1, form(a') = 2 u'v' = sin
        # 2theta.  Writing S = sin 2theta, the condition is
        #     -S theta'' + 3 theta'^2 cos 2theta = S^3.
        # Differentiating along a trace, with theta'' from the condition,
        # d/dt (theta'^2 / |S|^3) = 2 theta' theta''/|S|^3 - 6 theta'^3
        # cos 2theta / (|S|^3 S) = -2 theta' / |S|, and d/dt (sgn S
        # ln|tan theta|) = 2 theta' / |S| while S keeps its sign, so
        #     E = 2 theta'^2 / |sin 2theta|^3 + 2 sgn(sin 2theta) ln|tan theta|
        # is constant on every trace.  Its drift over the nodes is the
        # solve's error in the first integral (measured at most 1.0e-4,
        # 5.4e-7 and 3.8e-9 over these three starts at rtol 1e-6, 1e-8 and
        # 1e-10).
        def first_integral(node):
            s = math.sin(2.0 * node.theta)
            return (2.0 * node.theta_prime ** 2 / abs(s) ** 3
                    + 2.0 * math.copysign(1.0, s)
                    * math.log(abs(math.tan(node.theta))))

        u0, v0, theta0, omega0 = start
        drifts = []
        for rtol in (1e-6, 1e-8, 1e-10):
            trace = integrate_commensurate(CommensurateIVP(
                HYP_PAR, u0, v0, theta0, omega0=omega0, t_span=(0.0, 5.0),
                rel_tol=rtol, abs_tol=rtol / 100))
            assert trace.termination == "completed"
            e0 = first_integral(trace.nodes[0])
            drift = max(abs(first_integral(node) - e0)
                        for node in trace.nodes)
            assert drift <= 300.0 * rtol
            drifts.append(drift)
        assert drifts[0] > drifts[1] > drifts[2]

    @pytest.mark.parametrize("index, exact", [(0, 8.180936039441),
                                              (1, 9.672654586855)])
    def test_hyperbolic_paraboloid_stop_time(self, index, exact):
        # On the catalog surface (u, v, uv), q/gm = form(a')/|ln - m^2|^(1/4)
        # = sin 2theta (first-integral test), so AsymptoticProximity fires
        # where |sin 2theta| reaches eps_asym = 1e-4.  Both breakdown seeds
        # start in the positive cone with omega0 < 0, and E of the
        # first-integral test gives theta'^2 = |sin 2theta|^3 (E - 2 ln tan
        # theta)/2 > 0 on the way down, so theta falls monotonically to
        # theta* = asin(1e-4)/2 and
        #     t_stop = int_{theta*}^{theta0} dtheta / |theta'(theta)|,
        # a one-dimensional quadrature, taken here by mpmath at 30 digits.
        # Stop times are far less well determined than states: at the first
        # seed's stop E gives theta' = 1.2e-5, so the event function's slope
        # is about 2.4e-5 and the solver's error some 330 rtol, measured
        # 1.1e-3, 5.1e-6 and 3.3e-8 (first seed) and 1.3e-3, 5.7e-6 and
        # 3.0e-8 (second) at rtol 1e-6, 1e-8 and 1e-10.  The bounds are
        # those figures with a margin of 2 to 5, not a multiple of rtol.
        mpmath = pytest.importorskip("mpmath")
        seed = BREAKDOWN_SEEDS["hyperbolic-paraboloid"][index]
        with mpmath.workdps(30):
            theta0 = mpmath.mpf(seed["theta0"])
            omega0 = mpmath.mpf(seed["omega0"])
            energy = (2 * omega0 ** 2 / abs(mpmath.sin(2 * theta0)) ** 3
                      + 2 * mpmath.log(mpmath.tan(theta0)))
            theta_star = mpmath.asin(mpmath.mpf("1e-4")) / 2
            oracle = float(mpmath.quad(
                lambda th: 1 / mpmath.sqrt(
                    (energy - 2 * mpmath.log(mpmath.tan(th)))
                    * abs(mpmath.sin(2 * th)) ** 3 / 2),
                [theta_star, theta0]))
        assert abs(oracle - exact) <= 1e-11
        errors = []
        for rtol, bound in ((1e-6, 3e-3), (1e-8, 2e-5), (1e-10, 1.5e-7)):
            trace = integrate_commensurate(CommensurateIVP(
                HYP_PAR, seed["u0"], seed["v0"], seed["theta0"],
                omega0=seed["omega0"], t_span=(0.0, seed["t_max"]),
                rel_tol=rtol, abs_tol=rtol / 100))
            assert trace.termination == "AsymptoticProximity"
            error = abs(trace.t_stop - oracle)
            assert error <= bound
            errors.append(error)
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("start", [
        (0.5, 0.5, 0.3, 0.0),
        (0.0, 1.0, 0.9, 0.2),
        (-0.8, 1.5, 1.8, -0.2),
    ])
    def test_paraboloid_planar_curvature_changes_by_arclength(self, start):
        # The catalog paraboloid (v cos u, v sin u, v^2) is the graph of
        # g^T H g / 2 with H = 2I over g = (x, y) = (v cos u, v sin u).  As
        # in the first-integral test, det[a', a'', a'''] = -Q(g') phi'' +
        # 3 phi'^2 g'^T H n for g' = (cos phi, sin phi) at unit planar
        # speed; here Q = 2 and g'^T H n = 0, and form(a') = |det H|^(-1/4)
        # Q = sqrt 2, so the condition -2 phi'' = 2 sqrt 2 gives phi'' =
        # -sqrt 2.  The condition does not depend on the parametrization,
        # so the planar curvature k = phi' of the (x, y) projection of a
        # trace changes by -sqrt 2 per unit of its arc length s:
        # ||delta k| - sqrt 2 s| is the solve's global error (measured at
        # most 3.4e-6, 3.6e-8 and 2.0e-10 over these criterion-08 starts
        # at rtol 1e-6, 1e-8 and 1e-10).  k and s read only the state
        # (theta, theta'), not the condition.
        def curvature_and_speed(curve, t):
            x, y, _ = curve.curve_jets(t, 2)
            x1, y1 = x.coeffs[1], y.coeffs[1]
            speed = math.hypot(x1, y1)
            return (x1 * y.coeffs[2] - y1 * x.coeffs[2]) / speed ** 3, speed

        u0, v0, theta0, omega0 = start
        gaps = []
        for rtol, bound in ((1e-6, 1e-5), (1e-8, 1e-7), (1e-10, 6e-10)):
            trace = integrate_commensurate(CommensurateIVP(
                PARABOLOID, u0, v0, theta0, omega0=omega0, t_span=(0.0, 1.0),
                rel_tol=rtol, abs_tol=rtol / 100))
            assert trace.termination == "completed"
            curve = TraceCurve(trace)
            ts = [n.t for n in trace.nodes]
            s = math.fsum(quad_adaptive(
                lambda t: curvature_and_speed(curve, t)[1], a, b,
                rel_tol=1e-13, abs_tol=1e-15).value
                for a, b in zip(ts, ts[1:]))
            k0 = curvature_and_speed(curve, ts[0])[0]
            k1 = curvature_and_speed(curve, ts[-1])[0]
            gap = abs(abs(k1 - k0) - math.sqrt(2.0) * s)
            assert gap <= bound
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]


def _stretched(name, stretch):
    """The first BREAKDOWN_SEEDS start on ``name`` over t in [0, 2], under
    the map diag(``stretch``)."""
    return name, {**BREAKDOWN_SEEDS[name][0], "t_max": 2.0}, stretch


class TestEquiaffineTraces:
    @pytest.mark.parametrize("name, start, stretch", [
        ("hyperbolic-paraboloid", BREAKDOWN_SEEDS["hyperbolic-paraboloid"][0],
         None),
        ("hyperboloid", BREAKDOWN_SEEDS["hyperboloid"][0], None),
        ("sphere", {"u0": 0.1, "v0": 0.1, "theta0": 0.3, "omega0": 0.5,
                    "t_max": 3.0}, None),
        # far from isotropic maps: no Euclidean scale may decide a stop
        _stretched("hyperbolic-paraboloid", (1e4, 1e-4, 1.0)),
        _stretched("hyperboloid", (1e4, 1e-4, 1.0)),
        _stretched("hyperboloid", (1.0, 1e4, 1e-4)),
    ], ids=["hyperbolic-paraboloid", "hyperboloid", "sphere",
            "hyperbolic-paraboloid-stretched-xy", "hyperboloid-stretched-xy",
            "hyperboloid-stretched-yz"])
    def test_trace_is_invariant_under_sl3(self, name, start, stretch):
        # q, gm, the residual and theta'' are invariant under X -> A X + b
        # with det A = 1, so the whole trace is; the node times are not
        # (the step controller sees rounding), so states are compared at
        # equal t from the dense output.  A is random unless ``stretch``
        # gives its diagonal.
        from affinemetrics.identities import random_sl3, transformed_surface

        rng = np.random.default_rng(3)
        A = random_sl3(rng) if stretch is None else np.diag(stretch)
        b = rng.uniform(-1.0, 1.0, size=3)
        surface = CATALOG[name]
        traces = [integrate_commensurate(CommensurateIVP(
            s, start["u0"], start["v0"], start["theta0"],
            omega0=start["omega0"], t_span=(0.0, start["t_max"])))
            for s in (surface, transformed_surface(surface, A, b))]
        assert traces[0].termination == traces[1].termination
        assert abs(traces[0].t_stop - traces[1].t_stop) <= 1e-9
        t_end = min(trace.t_stop for trace in traces)
        for t in np.linspace(0.0, t_end, 50).tolist():
            here, moved = (trace.state_at(t) for trace in traces)
            assert max(abs(p - q) for p, q in zip(here, moved)) <= 1e-12


class TestChartChangeTraces:
    """A trace does not depend on the chart.  Chart B is the linear chart
    u = 1.3 s + 0.4 w + 0.1, v = -0.2 s + 0.9 w - 0.2 (recharted), and
    psi its inverse.  With e = (cos theta0, sin theta0) and e_perp =
    (-sin theta0, cos theta0), chart B's trace starts at psi(u0, v0) with
    theta_B = atan2(p1) and omega_B = (p1 x p2) / |p1|^3, where p1 = D psi e
    and p2 = omega0 D psi e_perp (D^2 psi = 0).  Its parameter tau is the
    chart-B parameter length of trace A, dtau/dt = |D psi (cos theta, sin
    theta)| along it, integrated by quad_adaptive on trace A's dense
    output.  The two traces end at the same point of space: the distance
    falls with the tolerance and stays within MARGIN times the figures of
    ROADMAP item 5 (measured: at most 1.7 times, helicoid at 1e-6).  No
    chart of B enters the theta'' right-hand side of A."""

    # D psi = (D phi)^-1, with D phi = ((1.3, 0.4), (-0.2, 0.9)), det 1.25
    DPSI = ((0.9 / 1.25, -0.4 / 1.25), (0.2 / 1.25, 1.3 / 1.25))
    RTOLS = (1e-6, 1e-8, 1e-10)
    MARGIN = 4.0

    @classmethod
    def _dpsi(cls, x, y):
        (a, b), (c, d) = cls.DPSI
        return a * x + b * y, c * x + d * y

    @classmethod
    def _mapped_start(cls, u0, v0, theta0, omega0):
        """(s0, w0, theta_B, omega_B): the start in chart B."""
        s0, w0 = cls._dpsi(u0 - 0.1, v0 + 0.2)
        p1 = cls._dpsi(math.cos(theta0), math.sin(theta0))
        p2 = [omega0 * x for x in cls._dpsi(-math.sin(theta0),
                                            math.cos(theta0))]
        return (s0, w0, math.atan2(p1[1], p1[0]),
                (p1[0] * p2[1] - p1[1] * p2[0]) / math.hypot(*p1) ** 3)

    @pytest.mark.parametrize("name, start, t_max, table", [
        ("helicoid", (1.0, 0.0, 0.3, -1.0), 2.0, (1.7e-8, 1.8e-10, 7.2e-13)),
        ("hyperboloid", (0.0, 0.5, -1.0, -1.0), 2.0,
         (2.2e-8, 3.0e-10, 3.3e-12)),
        ("sphere", (0.1, 0.1, 0.3, 0.5), 1.0, (1.5e-7, 1.4e-9, 1.2e-11)),
    ])
    def test_traces_agree_across_charts(self, name, start, t_max, table):
        surface = CATALOG[name]
        moved = recharted(surface, "1.3*u + 0.4*v + 0.1",
                          "-0.2*u + 0.9*v - 0.2",
                          ((-50.0, 50.0), (-50.0, 50.0)))
        start_b = self._mapped_start(*start)
        errors = []
        for rtol in self.RTOLS:
            trace = integrate_commensurate(CommensurateIVP(
                surface, *start, t_span=(0.0, t_max), rel_tol=rtol,
                abs_tol=rtol / 100))

            def speed(t):
                theta = trace.state_at(t)[2]
                return math.hypot(*self._dpsi(math.cos(theta),
                                              math.sin(theta)))

            tau = quad_adaptive(speed, 0.0, t_max, rel_tol=1e-14,
                                abs_tol=1e-15).value
            other = integrate_commensurate(CommensurateIVP(
                moved, *start_b, t_span=(0.0, tau), rel_tol=rtol,
                abs_tol=rtol / 100))
            assert trace.termination == other.termination == "completed"
            a, b = trace.nodes[-1], other.nodes[-1]
            assert (a.t, b.t) == (t_max, tau)
            errors.append(math.dist((a.x, a.y, a.z), (b.x, b.y, b.z)))
        for error, figure in zip(errors, table):
            assert error <= self.MARGIN * figure, (errors, table)
        # a tolerance 100 times tighter gains at least a factor 10
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse / 10.0, errors


class TestConditionEquivalence:
    def test_commensurate_trace_arclengths_agree(self):
        ivp = CommensurateIVP(PARABOLOID, 0.5, 0.8, 0.4, omega0=0.1,
                              t_span=(0.0, 1.0), rel_tol=1e-10,
                              abs_tol=1e-12)
        trace = integrate_commensurate(ivp)
        assert trace.termination == "completed"
        assert trace.max_residual <= 1e-8
        tc = TraceCurve(trace)
        s_alpha = affine_arclength(tc, 0.05, 0.95, rel_tol=1e-9,
                                   abs_tol=1e-11).value
        s_sigma = induced_arclength(tc, 0.05, 0.95, rel_tol=1e-9,
                                    abs_tol=1e-11).value
        # dense-output interpolation bounds the achievable agreement
        assert s_alpha == pytest.approx(s_sigma, abs=5e-7)

    def test_non_commensurate_curve_disagrees(self):
        pc = ParamCurve.from_strings(PARABOLOID, "0.3 + t", "0.7 + 0.3*t",
                                     0.0, 1.0)
        worst = 0.0
        for t in np.linspace(0.1, 0.9, 9):
            u, v = pc.param_jets(float(t), 3)
            derivs = (u.coeffs[1], v.coeffs[1], u.coeffs[2], v.coeffs[2],
                      u.coeffs[3], v.coeffs[3])
            worst = max(worst, abs(_residual_general(
                PARABOLOID, u.value, v.value, derivs)))
        assert worst > 1e-2
        s_alpha = affine_arclength(pc, 0.1, 0.9).value
        s_sigma = induced_arclength(pc, 0.1, 0.9).value
        assert abs(s_alpha - s_sigma) > 1e-3

    def test_reparametrized_trace_still_commensurate(self):
        # a monotone reparametrization phi scales both integrands by phi',
        # so the arc lengths over matching windows stay equal
        ivp = CommensurateIVP(PARABOLOID, 0.5, 0.8, 0.4, omega0=0.1,
                              t_span=(0.0, 1.0), rel_tol=1e-10,
                              abs_tol=1e-12)
        tc = TraceCurve(integrate_commensurate(ivp))

        def phi(s):
            return 0.05 + 0.6 * s + 0.2 * s * s

        def phi_prime(s):
            return 0.6 + 0.4 * s

        from affinemetrics.curvegeo import affine_integrand
        from affinemetrics.numerics import quad_adaptive
        a, b = 0.0, 1.0
        s_alpha = quad_adaptive(
            lambda s: affine_integrand(tc, phi(s)) * phi_prime(s), a, b,
            rel_tol=1e-9, abs_tol=1e-11).value
        s_sigma = quad_adaptive(
            lambda s: _sigma(tc, phi(s)) * phi_prime(s),
            a, b, rel_tol=1e-9, abs_tol=1e-11).value
        assert s_alpha == pytest.approx(s_sigma, abs=5e-7)


class TestConditionCheck:
    def test_along_trace_nodes(self):
        ivp = CommensurateIVP(SPHERE, 0.0, 0.0, 0.0, omega0=0.5,
                              t_span=(0.0, 1.0))
        trace = integrate_commensurate(ivp)
        tc = TraceCurve(trace)
        for t in np.linspace(0.1, 0.9, 5):
            chk = _check(tc, float(t))
            assert abs(chk.lhs - chk.rhs) \
                <= 1e-6 * max(abs(chk.lhs), abs(chk.rhs), 1.0)

    def test_one_surface_jet_evaluation(self, monkeypatch):
        from affinemetrics import commensurate, surfgeo

        orders = []
        original = surfgeo.surface_jets

        def counting(surface, u, v, order, check_domain=True):
            orders.append(order)
            return original(surface, u, v, order, check_domain)

        for module in (commensurate, surfgeo):
            monkeypatch.setattr(module, "surface_jets", counting)
        _check(SPH_HELIX, 0.4)
        assert orders == [3]

        ivp = CommensurateIVP(SPHERE, 0.0, 0.0, 0.0, omega0=0.5,
                              t_span=(0.0, 0.3))
        tc = TraceCurve(integrate_commensurate(ivp))
        orders.clear()
        _check(tc, 0.2, 0.1)
        assert orders == [3]

    def test_trace_curve_evaluates_each_point_once(self, monkeypatch):
        from affinemetrics import commensurate, surfgeo

        orders = []
        original = surfgeo.surface_jets

        def counting(surface, u, v, order, check_domain=True):
            orders.append(order)
            return original(surface, u, v, order, check_domain)

        ivp = CommensurateIVP(SPHERE, 0.1, 0.1, 0.3, omega0=0.5,
                              t_span=(0.0, 0.3))
        tc = TraceCurve(integrate_commensurate(ivp))
        for module in (commensurate, surfgeo):
            monkeypatch.setattr(module, "surface_jets", counting)
        jets = tc.curve_jets(0.1, 3)
        assert orders == [3]
        orders.clear()
        _check(tc, 0.1)
        assert orders == [3]
        # the same jets as solving for theta'' and then evaluating the
        # surface jets again, as the generic curve-in-surface path does
        state = tc.trace.state_at(0.1)
        omega_dot = commensurate.solve_theta_dd(SPHERE, *state)
        u, v = jet_route.theta_jets(*state, omega_dot)
        X = original(SPHERE, u.value, v.value, 3)
        want = compose_curve_in_surface(X, u, v, 3)
        assert [j.coeffs for j in jets] == [j.coeffs for j in want]

    def test_trace_curve_outside_the_domain_is_a_domain_exit(self):
        from affinemetrics.errors import DomainExit
        from affinemetrics.surfgeo import SurfaceDef

        ivp = CommensurateIVP(SPHERE, 0.0, 0.0, 0.0, t_span=(0.0, 0.3))
        trace = integrate_commensurate(ivp)
        # the same sphere on a box that the trace leaves at u = 0.1
        box = SurfaceDef(SPHERE.components, SPHERE.u_min, 0.1,
                         SPHERE.v_min, SPHERE.v_max)
        tc = TraceCurve(replace(trace, surface=box))
        tc.curve_jets(0.05, 3)
        for order in (1, 2, 3):
            with pytest.raises(DomainExit):
                tc.curve_jets(0.2, order)

    def test_great_circle_not_commensurate(self):
        chk = _check(GREAT_CIRCLE, 0.5)
        assert chk.lhs == pytest.approx(0.0, abs=1e-12)
        assert chk.rhs == pytest.approx(1.0, rel=1e-12)

    def test_ruling_degenerate_flag(self):
        chk = _check(RULING, 0.5)
        assert chk.degenerate
        assert chk.lhs == 0.0

    def test_trace_curve_caps_order(self):
        ivp = CommensurateIVP(SPHERE, 0.0, 0.0, 0.0, t_span=(0.0, 0.2))
        tc = TraceCurve(integrate_commensurate(ivp))
        with pytest.raises(UnsupportedOrder):
            tc.param_jets(0.1, 4)


class TestSphereReferenceCurve:
    def test_initial_invariants(self):
        ref = sphere_reference_curve(1.0, 0.5)
        assert ref.kappa[0] == 1.0
        assert ref.tau[0] == 1.0

    def test_center_and_radius(self):
        ref = sphere_reference_curve(5.0, 0.05)
        centers = np.array([ref.center(i) for i in range(len(ref.s))])
        assert np.abs(centers - centers[0]).max() <= 1e-6
        radii = np.linalg.norm(ref.position - centers, axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-6

    def test_curvature_torsion_product(self):
        ref = sphere_reference_curve(5.0, 0.1)
        drift = np.abs(ref.kappa ** 2 * ref.tau - 1.0).max()
        assert drift <= 1e-12

    def test_geodesic_curvature_equals_arclength(self):
        ref = sphere_reference_curve(5.0, 0.1)
        for i in range(len(ref.s)):
            assert ref.geodesic_curvature(i) == pytest.approx(ref.s[i],
                                                              abs=1e-9)


class TestBreakdownSeeds:
    @pytest.mark.parametrize("name", sorted(BREAKDOWN_SEEDS))
    def test_documented_seed_breaks_down(self, name):
        surface = CATALOG[name]
        seed = BREAKDOWN_SEEDS[name][0]
        ivp = CommensurateIVP(surface, seed["u0"], seed["v0"], seed["theta0"],
                              omega0=seed["omega0"],
                              t_span=(0.0, seed["t_max"]),
                              rel_tol=1e-7, abs_tol=1e-9, max_steps=40_000)
        trace = integrate_commensurate(ivp)
        assert trace.termination == "AsymptoticProximity"
        assert trace.t_stop < seed["t_max"]

    def test_converged_breakdown_time(self):
        # the second hyperboloid seed at the default tolerances stops
        # within 1.1e-4 of the independent event time 7.4213879 (an
        # rtol-1e-8 solve stops near 7.342, off by its global error)
        seed = BREAKDOWN_SEEDS["hyperboloid"][1]
        ivp = CommensurateIVP(CATALOG["hyperboloid"], seed["u0"], seed["v0"],
                              seed["theta0"], omega0=seed["omega0"],
                              t_span=(0.0, seed["t_max"]))
        trace = integrate_commensurate(ivp)
        assert trace.termination == "AsymptoticProximity"
        assert trace.t_stop == pytest.approx(7.4214, rel=5e-4)

    # stop times of every start at eps_asym = 1e-4 from a route that shares
    # no code with the solver: sympy's derivatives of the surface, the
    # theta'' they give, and scipy's DOP853 at rtol 1e-13; the hyperbolic
    # paraboloid's two match an mpmath stop-time oracle to 6e-11
    INDEPENDENT_STOPS = {
        "hyperbolic-paraboloid": (8.1809360395, 9.6726545869),
        "hyperboloid": (9.0443689879, 7.4213879131),
        "helicoid": (8.2310084761, 7.4309646711),
    }

    @pytest.mark.parametrize("name, index", [
        (name, index) for name in sorted(INDEPENDENT_STOPS)
        for index in (0, 1)])
    def test_default_tolerance_stops_match_independent_values(self, name,
                                                               index):
        # the second hyperboloid start nears its threshold so slowly (the
        # stop moves by about 3.2 per unit of ln eps_asym) that the default
        # tolerances place it about 1e-4 early
        seed = BREAKDOWN_SEEDS[name][index]
        ivp = CommensurateIVP(CATALOG[name], seed["u0"], seed["v0"],
                              seed["theta0"], omega0=seed["omega0"],
                              t_span=(0.0, seed["t_max"]))
        trace = integrate_commensurate(ivp)
        assert trace.termination == "AsymptoticProximity"
        bound = 3e-4 if (name, index) == ("hyperboloid", 1) else 2e-7
        want = self.INDEPENDENT_STOPS[name][index]
        assert abs(trace.t_stop - want) <= bound
