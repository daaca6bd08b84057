import inspect
import math

import numpy as np
import pytest
from reference_routes import finite_diff

from affinemetrics.errors import (
    MaxSteps,
    NoBracket,
    NonFiniteValue,
    QuadratureFailure,
    StepFailure,
)
from affinemetrics.numerics import (
    CHEB_MAX_POINTS,
    OdeEvent,
    OdeOptions,
    cheb_cumulative,
    cheb_points,
    find_root_bracketed,
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


class TestChebCumulative:
    def test_grids_nest_bit_for_bit(self):
        fine = cheb_points(0.1, 0.7, CHEB_MAX_POINTS)
        for n in (9, 17, 33, 65, 129):
            grid = cheb_points(0.1, 0.7, n)
            assert grid[0] == 0.1 and grid[-1] == 0.7
            assert np.array_equal(grid, fine[::(CHEB_MAX_POINTS - 1)
                                             // (n - 1)])

    def test_running_integrals_of_exp(self):
        ts = np.linspace(0.0, 1.0, 7)
        calls = []

        def f(t):
            calls.append(t)
            return math.exp(t)

        res = cheb_cumulative(f, 0.0, 1.0, ts, 1e-10)
        assert res.values[0] == 0.0
        assert res.values == pytest.approx(np.exp(ts) - 1.0, abs=1e-15)
        # each node sampled once, across the grids
        assert len(calls) == len(set(calls)) == res.points
        assert res.error_estimate <= 1e-10

    def test_fitted_values_check_f_between_the_nodes(self):
        ts = np.linspace(0.0, 1.0, 7)
        res = cheb_cumulative(math.exp, 0.0, 1.0, ts, 1e-10)
        assert res.fitted == pytest.approx(np.exp(ts), rel=1e-14)
        assert res.scale == math.e
        assert all(res.agrees(i, math.exp(t), 1e-10)
                   for i, t in enumerate(ts))
        # a bump the grid does not see, or a value that is not a number,
        # disagrees with the interpolant
        assert not res.agrees(3, math.exp(ts[3]) + 1e-6, 1e-10)
        assert not res.agrees(3, math.nan, 1e-10)

    def test_spherical_helix_oracle(self):
        res = cheb_cumulative(
            lambda t: math.sqrt(1.0 + 64.0 * math.cos(t) ** 2), 0.0, 1.0,
            [1.0], 1e-10)
        assert res.values[-1] == pytest.approx(SPHERICAL_HELIX_SIGMA,
                                               rel=1e-13)

    def test_reversed_range_negates(self):
        ts = np.linspace(1.0, 0.0, 5)
        res = cheb_cumulative(math.cos, 1.0, 0.0, ts, 1e-10)
        assert res.values == pytest.approx(np.sin(ts) - math.sin(1.0),
                                           abs=1e-15)

    def test_zero_width_range_samples_nothing(self):
        res = cheb_cumulative(lambda t: pytest.fail("sampled"), 0.5, 0.5,
                              [0.5, 0.5], 1e-10)
        assert list(res.values) == [0.0, 0.0]
        assert (res.error_estimate, res.points) == (0.0, 0)

    def test_kink_does_not_converge(self):
        res = cheb_cumulative(lambda t: abs(t - 0.3) ** (1.0 / 3.0), 0.0,
                              1.0, [1.0], 1e-10)
        assert res.values is None
        assert res.points == CHEB_MAX_POINTS
        assert res.error_estimate > 1e-10

    def test_non_finite_value_stops_at_its_grid(self):
        res = cheb_cumulative(lambda t: math.nan if t == 0.5 else 1.0, 0.0,
                              1.0, [1.0], 1e-10)
        assert res.values is None
        assert res.points == 9


def _rebuilt_cheb_coefficients(values):
    """The DCT-I with its cosine matrix rebuilt on every call."""
    m = len(values) - 1
    w = values[::-1].copy()
    w[[0, -1]] *= 0.5
    jk = np.outer(np.arange(m + 1), np.arange(m + 1)) % (2 * m)
    c = (np.cos(np.pi * jk / m) @ w) * (2.0 / m)
    c[[0, -1]] *= 0.5
    return c


def _numpy_clenshaw(c, x):
    """Clenshaw's recurrence over a numpy array of x."""
    b1 = b2 = np.zeros_like(x)
    for ck in c[:0:-1]:
        b1, b2 = ck + 2.0 * x * b1 - b2, b1
    return c[0] + x * b1 - b2


class TestChebyshevKernels:
    """The cached DCT-I matrix and the float Clenshaw recurrence give what
    the numpy formulas they replaced give, bit for bit, at every grid size
    cheb_cumulative uses, on random, signed-zero and non-finite values."""

    SIZES = [2 ** k + 1 for k in range(3, 9)]       # 9 ... 257

    @staticmethod
    def _arrays(rng, n):
        """Random values, with signed zeros, and with non-finite values."""
        base = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
        zeros = base.copy()
        zeros[rng.integers(0, n, n // 3)] = 0.0
        zeros[rng.integers(0, n, n // 3)] = -0.0
        wild = zeros.copy()
        wild[rng.integers(0, n, 3)] = [math.inf, -math.inf, math.nan]
        wild[rng.integers(0, n, 2)] = 1e308
        return base, zeros, np.array([0.0] * n), np.array([-0.0] * n), wild

    @staticmethod
    def _bits(values):
        """Each value exactly, a NaN of either sign as one value: CPython
        gives a NaN of either sign from two NaN operands (see test_jets)."""
        return ["nan" if x != x else x.hex() for x in map(float, values)]

    @pytest.mark.parametrize("n", SIZES)
    def test_cached_matrix_coefficients(self, n):
        from affinemetrics.numerics import _cheb_coefficients

        rng = np.random.default_rng(n)
        for values in self._arrays(rng, n):
            with np.errstate(over="ignore", invalid="ignore"):
                want = _rebuilt_cheb_coefficients(values)
                # the first call may build the matrix, the second reads it
                for _ in range(2):
                    got = _cheb_coefficients(values)
                    assert self._bits(got) == self._bits(want)

    @pytest.mark.parametrize("n", SIZES)
    def test_clenshaw_on_floats_and_on_arrays(self, n):
        from affinemetrics.numerics import CLENSHAW_FLOAT_POINTS, _clenshaw

        rng = np.random.default_rng(1000 + n)
        xs = np.concatenate([
            [0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300, math.inf, -math.inf,
             math.nan],
            rng.uniform(-1.0, 1.0, 2 * CLENSHAW_FLOAT_POINTS)])
        for c in self._arrays(rng, n + 1) + self._arrays(rng, n):
            # on Python floats up to the cut, over one array past it
            for m in (1, CLENSHAW_FLOAT_POINTS, CLENSHAW_FLOAT_POINTS + 1,
                      len(xs)):
                with np.errstate(over="ignore", invalid="ignore"):
                    want = _numpy_clenshaw(c, xs[:m])
                got = _clenshaw(c.tolist(), xs[:m].tolist())
                assert all(type(value) is float for value in got)
                assert self._bits(got) == self._bits(want)


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
        ev = OdeEvent(lambda t, y: y[0] - 0.5, direction=0, name="crossing")
        res = ode_solve(lambda t, y: np.array([1.0]), [0.0], (0.0, 1.0),
                        OdeOptions(events=(ev,)))
        assert res.status == "event"
        assert res.event_name == "crossing"
        assert res.t_event == pytest.approx(0.5, abs=1e-10)

    def test_event_direction_filter(self):
        # y = sin crosses zero downward only at pi on (0.5, 4); an
        # upward-only event must ignore it
        up = OdeEvent(lambda t, y: y[0], direction=1, name="up")
        opts = dict(rel_tol=1e-10, abs_tol=1e-12)
        res = ode_solve(lambda t, y: np.array([math.cos(t)]),
                        [math.sin(0.5)], (0.5, 4.0),
                        OdeOptions(events=(up,), **opts))
        assert res.status == "completed"
        down = OdeEvent(lambda t, y: y[0], direction=-1, name="down")
        res = ode_solve(lambda t, y: np.array([math.cos(t)]),
                        [math.sin(0.5)], (0.5, 4.0),
                        OdeOptions(events=(down,), **opts))
        assert res.status == "event"
        assert res.t_event == pytest.approx(math.pi, abs=1e-8)

    @pytest.mark.parametrize("direction, status", [(1, "completed"),
                                                   (-1, "event")])
    def test_event_evals_counts_the_location_calls(self, direction, status):
        # the event function runs at t0, at the end of each accepted step
        # (a crossing step cut at the event included) and, only where it
        # crossed, event_evals times to locate the root
        calls = []

        def g(t, y):
            calls.append(t)
            return y[0]

        res = ode_solve(lambda t, y: (math.cos(t),), [math.sin(0.5)],
                        (0.5, 4.0),
                        OdeOptions(events=(OdeEvent(g, direction),)))
        assert res.status == status
        assert len(calls) == 1 + res.steps_accepted + res.event_evals
        if status == "completed":
            assert res.event_evals == 0
        else:
            max_iter = inspect.signature(
                find_root_bracketed).parameters["max_iter"].default
            assert 1 <= res.event_evals <= max_iter

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

    def test_last_step_lands_on_t_end(self):
        # stretched to end at t_end itself, not one ulp short of it
        for t_end in (0.0309, 1.0 / 3.0, 7.0):
            res = ode_solve(lambda t, y: (math.cos(t),), [0.0], (0.0, t_end))
            assert res.ts[-1] == t_end
            assert res.ys[-1][0] == pytest.approx(math.sin(t_end), abs=1e-8)

    def test_span_below_the_underflow_bound_is_one_step(self):
        res = ode_solve(lambda t, y: (1.0,), [0.0], (0.0, 1e-15))
        assert res.status == "completed"
        assert res.ts == [0.0, 1e-15]
        assert res.ys[-1][0] == pytest.approx(1e-15, rel=1e-12)

    def test_tolerance_near_the_underflow_bound_fails_fast(self):
        # |y0| and |f0| over abs_tol overflow the starting step's norms;
        # the start falls back to 1e-6 instead of a nan step that is
        # rejected until the step budget runs out
        with pytest.raises(StepFailure) as exc:
            ode_solve(lambda t, y: (math.cos(t),), [1.0], (0.0, 1.0),
                      OdeOptions(rel_tol=1e-300, abs_tol=1e-300,
                                 max_steps=1000))
        assert exc.value.trace.n_steps < 100

    def test_interpolate_returns_the_state_format_of_ys(self):
        res = ode_solve(lambda t, y: (y[1], -y[0]), [0.0, 1.0], (0.0, 2.0))
        assert res.interpolate(-1.0) == res.ys[0]
        assert res.interpolate(3.0) == res.ys[-1]
        mid = res.interpolate(1.0)
        assert type(mid) is tuple
        assert all(type(x) is float for x in mid)
        assert mid[0] == pytest.approx(math.sin(1.0), abs=1e-8)

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
