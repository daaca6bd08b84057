import math

import numpy as np
import pytest

from affinemetrics.commensurate import (
    BREAKDOWN_SEEDS,
    CommensurateIVP,
    NodeTable,
    ParamCurve,
    TraceCurve,
    check_condition_euclidean,
    commensurate_residual,
    commensurate_residual_general,
    induced_arclength,
    induced_arclength_integrand,
    integrate_commensurate,
    run_family,
    solve_theta_dd,
    sphere_reference_curve,
)
from affinemetrics.curvegeo import affine_arclength
from affinemetrics.errors import (
    InvalidIVP,
    NegativeForm,
    SingularDenominator,
    UnsupportedOrder,
)
from affinemetrics.numerics import finite_diff
from affinemetrics.surfgeo import CATALOG

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


class TestInducedArcLength:
    def test_great_circle_unit_integrand(self):
        for t in (0.0, 0.7, 2.0):
            assert induced_arclength_integrand(GREAT_CIRCLE, t) \
                == pytest.approx(1.0, rel=1e-13)

    def test_spherical_helix_integrand(self):
        for t in np.linspace(0.0, 1.0, 7):
            expected = math.sqrt(1.0 + 64.0 * math.cos(t) ** 2)
            assert induced_arclength_integrand(SPH_HELIX, float(t)) \
                == pytest.approx(expected, rel=1e-12)

    def test_ruling_measures_zero(self):
        assert induced_arclength_integrand(RULING, 0.5) == 0.0
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
            induced_arclength_integrand(SPIRAL, 0.5)
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
                == [j.coeffs for j in pc.curve_jets(t, 3)]
            # the form read off the order-3 entry is the order-2 one
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
        assert jet_orders == [2] * res.evaluations

    def test_nodes_evaluated_once_for_both_arc_lengths(self, jet_orders):
        table = NodeTable(SPH_HELIX)
        alpha = affine_arclength(table, 0.2, 0.3)
        sigma = induced_arclength(table, 0.2, 0.3)
        assert alpha.evaluations == sigma.evaluations == 15
        assert jet_orders == [3] * 15
        assert alpha.value == affine_arclength(SPH_HELIX, 0.2, 0.3).value
        assert sigma.value == induced_arclength(SPH_HELIX, 0.2, 0.3).value


class TestResidual:
    def test_great_circle_residual(self):
        r = commensurate_residual_general(
            SPHERE, 0.0, 0.0, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        assert r == pytest.approx(-1.0, rel=1e-12)

    def test_helical_spiral_residual(self):
        r = commensurate_residual_general(
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
        # on the hyperbolic paraboloid at theta = 0, omega = 0 both the
        # second derivative and the theta'' column are tangent to the
        # ruling plane, so the coefficient vanishes
        with pytest.raises(SingularDenominator):
            solve_theta_dd(HYP_PAR, 0.0, 0.0, 0.0, 0.0)


class TestIntegration:
    def test_sphere_trace_self_consistency(self):
        ivp = CommensurateIVP(SPHERE, 0.0, 0.0, 0.0, omega0=0.5,
                              t_span=(0.0, 1.0))
        trace = integrate_commensurate(ivp)
        assert trace.completed
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
                                     "SingularDenominator", "DomainExit",
                                     "StepFailure")

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
        assert trace.completed
        assert trace.ode_result.stiff_steps == 0

    def test_family_sweep(self):
        ivp = CommensurateIVP(SPHERE, 0.0, 0.0, 0.0, t_span=(0.0, 0.2))
        traces = run_family(ivp, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert len(traces) == 5
        assert [t.ivp.omega0 for t in traces] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert all(t.completed for t in traces)


class TestConditionEquivalence:
    def test_commensurate_trace_arclengths_agree(self):
        ivp = CommensurateIVP(PARABOLOID, 0.5, 0.8, 0.4, omega0=0.1,
                              t_span=(0.0, 1.0), rel_tol=1e-10,
                              abs_tol=1e-12)
        trace = integrate_commensurate(ivp)
        assert trace.completed
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
            worst = max(worst, abs(commensurate_residual_general(
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
            lambda s: induced_arclength_integrand(tc, phi(s)) * phi_prime(s),
            a, b, rel_tol=1e-9, abs_tol=1e-11).value
        assert s_alpha == pytest.approx(s_sigma, abs=5e-7)


class TestConditionCheck:
    def test_along_trace_nodes(self):
        ivp = CommensurateIVP(SPHERE, 0.0, 0.0, 0.0, omega0=0.5,
                              t_span=(0.0, 1.0))
        trace = integrate_commensurate(ivp)
        tc = TraceCurve(trace)
        for t in np.linspace(0.1, 0.9, 5):
            chk = check_condition_euclidean(tc, float(t))
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
        check_condition_euclidean(SPH_HELIX, 0.4)
        assert orders == [3]

        ivp = CommensurateIVP(SPHERE, 0.0, 0.0, 0.0, omega0=0.5,
                              t_span=(0.0, 0.3))
        tc = TraceCurve(integrate_commensurate(ivp))
        orders.clear()
        check_condition_euclidean(tc, 0.2, omega_dot=0.1)
        assert orders == [3]

    def test_great_circle_not_commensurate(self):
        chk = check_condition_euclidean(GREAT_CIRCLE, 0.5)
        assert chk.lhs == pytest.approx(0.0, abs=1e-12)
        assert chk.rhs == pytest.approx(1.0, rel=1e-12)

    def test_ruling_degenerate_flag(self):
        chk = check_condition_euclidean(RULING, 0.5)
        assert chk.degenerate
        assert chk.lhs == 0.0

    def test_trace_curve_caps_order(self):
        ivp = CommensurateIVP(SPHERE, 0.0, 0.0, 0.0, t_span=(0.0, 0.2))
        tc = TraceCurve(integrate_commensurate(ivp))
        with pytest.raises(UnsupportedOrder):
            tc.param_jets(0.1, 4)

    def test_affine_curvatures_unsupported_for_embedded_curves(self):
        from affinemetrics.curvegeo import affine_frenet
        with pytest.raises(UnsupportedOrder):
            affine_frenet(SPH_HELIX, 0.2)


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
        assert trace.termination in ("AsymptoticProximity",
                                     "SingularDenominator")
        assert trace.t_stop < seed["t_max"]

    def test_converged_breakdown_time(self):
        # the second hyperboloid seed at the default tolerances stops at
        # the converged event time 7.4214 (an rtol-1e-8 solve stops near
        # 7.342, off by its global error)
        seed = BREAKDOWN_SEEDS["hyperboloid"][1]
        ivp = CommensurateIVP(CATALOG["hyperboloid"], seed["u0"], seed["v0"],
                              seed["theta0"], omega0=seed["omega0"],
                              t_span=(0.0, seed["t_max"]))
        trace = integrate_commensurate(ivp)
        assert trace.termination == "AsymptoticProximity"
        assert trace.t_stop == pytest.approx(7.4214, rel=5e-4)
