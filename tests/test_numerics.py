import math

import numpy as np
import pytest

from affinemetrics.errors import (
    MaxSteps,
    NoBracket,
    NonFiniteValue,
    QuadratureFailure,
    StepFailure,
)
from affinemetrics.numerics import (
    OdeEvent,
    OdeOptions,
    find_root_bracketed,
    finite_diff,
    ode_solve,
    quad_adaptive,
)

# frozen reference for int_0^1 sqrt(1 + 64 cos^2) dt, from a 10^6-panel
# composite Simpson rule (cross-checked against adaptive high-precision
# quadrature)
SPHERICAL_HELIX_SIGMA = 6.807910764719872


class TestQuadrature:
    def test_monomial(self):
        res = quad_adaptive(lambda t: t * t, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert res.evaluations >= 15

    def test_sine_half_period(self):
        res = quad_adaptive(math.sin, 0.0, math.pi)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_spherical_helix_oracle(self):
        res = quad_adaptive(lambda s: math.sqrt(1.0 + 64.0 * math.cos(s) ** 2),
                            0.0, 1.0, rel_tol=1e-12, abs_tol=1e-14)
        assert res.value == pytest.approx(SPHERICAL_HELIX_SIGMA, abs=1e-9)

    def test_polynomial_exactness(self):
        # inside the degree of the embedded rule: a single panel suffices
        coeffs = [3.0, -2.0, 1.0, 0.5, -0.25, 2.0, -1.5, 0.125]

        def poly(t):
            return sum(c * t ** k for k, c in enumerate(coeffs))

        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        res = quad_adaptive(poly, 0.0, 1.0)
        assert res.value == pytest.approx(exact, abs=1e-13)

    def test_empty_interval(self):
        assert quad_adaptive(math.sin, 2.0, 2.0).value == 0.0

    def test_reversed_interval_flips_sign(self):
        fwd = quad_adaptive(lambda t: t * t, 0.0, 1.0).value
        rev = quad_adaptive(lambda t: t * t, 1.0, 0.0).value
        assert rev == -fwd

    def test_budget_failure(self):
        with pytest.raises(QuadratureFailure):
            quad_adaptive(lambda t: math.sin(1000.0 * t) / (1e-8 + abs(t)),
                          0.0, 1.0, rel_tol=1e-14, abs_tol=1e-16,
                          max_panels=8)

    def test_non_finite_integrand(self):
        with pytest.raises(NonFiniteValue):
            quad_adaptive(lambda t: math.inf, 0.0, 1.0)


STIFF_LAMBDA = 1000.0


def _stiff_rhs(t, y):
    return np.array([-STIFF_LAMBDA * (y[0] - math.cos(t)) - math.sin(t)])


class TestOdeSolve:
    def test_exponential(self):
        res = ode_solve(lambda t, y: y, [1.0], (0.0, 1.0),
                        OdeOptions(rel_tol=1e-10, abs_tol=1e-12))
        assert res.ys[-1][0] == pytest.approx(math.e, abs=1e-8)

    def test_exponential_dopri5(self):
        res = ode_solve(lambda t, y: y, [1.0], (0.0, 1.0),
                        OdeOptions(rel_tol=1e-10, abs_tol=1e-12,
                                   method="dopri5"))
        assert res.ys[-1][0] == pytest.approx(math.e, abs=1e-9)

    def test_stiff_problem(self):
        res = ode_solve(_stiff_rhs, [1.0], (0.0, 1.0),
                        OdeOptions(rel_tol=1e-8, abs_tol=1e-10))
        assert res.ys[-1][0] == pytest.approx(math.cos(1.0), abs=1e-6)
        assert res.n_steps < 100_000

    def test_tolerance_response_on_stiff_problem(self):
        errors = []
        for rel in (1e-6, 1e-7, 1e-8):
            res = ode_solve(_stiff_rhs, [1.0], (0.0, 1.0),
                            OdeOptions(rel_tol=rel, abs_tol=rel * 1e-2))
            errors.append(abs(res.ys[-1][0] - math.cos(1.0)))
        assert errors[1] <= 10.0 * errors[0]
        assert errors[2] <= 10.0 * errors[1]

    def test_terminal_event_location(self):
        ev = OdeEvent(lambda t, y: y[0] - 0.5, terminal=True, direction=0,
                      name="crossing")
        res = ode_solve(lambda t, y: np.array([1.0]), [0.0], (0.0, 1.0),
                        OdeOptions(events=(ev,)))
        assert res.status == "event"
        assert res.event_name == "crossing"
        assert res.t_event == pytest.approx(0.5, abs=1e-10)

    def test_event_direction_filter(self):
        # y = sin crosses zero downward only at pi on (0.5, 4); an
        # upward-only event must ignore it
        up = OdeEvent(lambda t, y: y[0], terminal=True, direction=1,
                      name="up")
        opts = dict(rel_tol=1e-10, abs_tol=1e-12)
        res = ode_solve(lambda t, y: np.array([math.cos(t)]),
                        [math.sin(0.5)], (0.5, 4.0),
                        OdeOptions(events=(up,), **opts))
        assert res.status == "completed"
        down = OdeEvent(lambda t, y: y[0], terminal=True, direction=-1,
                        name="down")
        res = ode_solve(lambda t, y: np.array([math.cos(t)]),
                        [math.sin(0.5)], (0.5, 4.0),
                        OdeOptions(events=(down,), **opts))
        assert res.status == "event"
        assert res.t_event == pytest.approx(math.pi, abs=1e-8)

    def test_non_terminal_event_continues(self):
        ev = OdeEvent(lambda t, y: y[0] - 0.5, terminal=False, direction=0)
        res = ode_solve(lambda t, y: np.array([1.0]), [0.0], (0.0, 1.0),
                        OdeOptions(events=(ev,)))
        assert res.status == "completed"
        assert res.ts[-1] == pytest.approx(1.0)

    def test_max_steps_carries_trace(self):
        with pytest.raises(MaxSteps) as err:
            ode_solve(_stiff_rhs, [1.0], (0.0, 1.0),
                      OdeOptions(rel_tol=1e-10, abs_tol=1e-13, max_steps=5))
        assert err.value.trace is not None
        assert len(err.value.trace.ts) >= 1

    def test_step_failure_on_nan_rhs(self):
        def bad(t, y):
            return np.array([math.nan])

        with pytest.raises((StepFailure, NonFiniteValue)):
            ode_solve(bad, [1.0], (0.0, 1.0), OdeOptions())

    def test_dense_output_accuracy(self):
        # y'' = -y: the 4th-order continuous extension tracks sin t between
        # the steps to about the step tolerance (cubic Hermite on the same
        # steps is off by 1.7e-7)
        res = ode_solve(lambda t, y: np.array([y[1], -y[0]]), [0.0, 1.0],
                        (0.0, 5.0), OdeOptions())
        assert res.n_steps <= 100
        ts = np.linspace(0.0, 5.0, 99)[1:-1]
        worst = max(abs(res.interpolate(float(t))[0] - math.sin(t))
                    for t in ts)
        assert worst <= 3e-8

    def test_stiffness_tripwire_fires_on_stiff_problem(self):
        # at a loose tolerance the step size settles on the stability
        # boundary h*lambda ~ 3.3, which the estimate reports
        res = ode_solve(_stiff_rhs, [1.0], (0.0, 1.0),
                        OdeOptions(rel_tol=1e-4, abs_tol=1e-6))
        assert res.stiff_steps >= (len(res.ts) - 1) // 4

    def test_dense_output_linear(self):
        res = ode_solve(lambda t, y: np.array([2.0]), [1.0], (0.0, 1.0),
                        OdeOptions())
        for t in (0.1, 0.37, 0.9):
            assert res.interpolate(t)[0] == pytest.approx(1.0 + 2.0 * t,
                                                          abs=1e-12)


class TestRootFinding:
    def test_linear(self):
        assert find_root_bracketed(lambda t: t - 0.25, 0.0, 1.0) \
            == pytest.approx(0.25, abs=1e-12)

    def test_sqrt_two(self):
        root = find_root_bracketed(lambda t: t * t - 2.0, 1.0, 2.0,
                                   tol=1e-13)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_inverts_constant_integrand_arclength(self):
        # s(t) = 12^(1/6) t; s = 1 at t = 12^(-1/6)
        rate = 12.0 ** (1.0 / 6.0)
        root = find_root_bracketed(lambda t: rate * t - 1.0, 0.0, 1.0)
        assert root == pytest.approx(0.6609010760833647, abs=1e-10)

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            find_root_bracketed(lambda t: t * t + 1.0, -1.0, 1.0)


class TestFiniteDiff:
    def test_first_derivative_of_sin(self):
        assert finite_diff(math.sin, 0.0, order=1) == pytest.approx(1.0,
                                                                    abs=1e-10)

    def test_second_derivative_of_cube(self):
        assert finite_diff(lambda x: x ** 3, 1.0, order=2) \
            == pytest.approx(6.0, abs=1e-7)

    def test_third_derivative_of_exp(self):
        assert finite_diff(math.exp, 0.0, order=3) == pytest.approx(1.0,
                                                                    abs=1e-5)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            finite_diff(math.sin, 0.0, order=4)
