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
    ChebResult,
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
            # the first call may build the matrix, the second reads it;
            # a list goes in and a list of floats comes out
            for _ in range(2):
                got = _cheb_coefficients(values.tolist())
                assert all(type(value) is float for value in got)
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


def _numpy_cheb_points(a, b, n):
    """The Lobatto grid as one numpy expression over the whole array."""
    m = n - 1
    t = 0.5 * (a + b) + 0.5 * (b - a) * np.sin(
        np.pi * np.arange(-m, m + 1, 2) / (2 * m))
    t[0], t[-1] = a, b
    return t


def _numpy_antiderivative(c):
    """The antiderivative coefficients by array slices."""
    d = np.concatenate([c, [0.0, 0.0]])
    d[0] *= 2.0
    k = np.arange(1, len(c) + 1)
    return np.concatenate([[0.0], (d[:-2] - d[2:]) / (2.0 * k)])


def _numpy_cheb_cumulative(f, a, b, ts, tol):
    """cheb_cumulative with every step on numpy arrays: the grids, the
    finiteness test, the tail and scale by numpy's max (which propagates
    a NaN), the grid growth, the antiderivative and the map to [-1, 1]."""
    n = 9
    values = np.array([f(float(t)) for t in _numpy_cheb_points(a, b, n)])
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if not np.isfinite(values).all():
                return ChebResult(None, math.inf, n)
            c = _rebuilt_cheb_coefficients(values)
            tail = float(np.abs(c[-3:]).max())
            scale = float(np.abs(values).max())
            if tail <= tol * scale:
                break
            if n >= CHEB_MAX_POINTS:
                return ChebResult(None, tail * abs(b - a), n)
            n = 2 * n - 1
            grown = np.empty(n)
            grown[0::2] = values
            grown[1::2] = [f(float(t))
                           for t in _numpy_cheb_points(a, b, n)[1::2]]
            values = grown
        half = 0.5 * (b - a)
        x = (np.array([a, *ts]) - 0.5 * (a + b)) / half
        F = _numpy_clenshaw(_numpy_antiderivative(c), x)
        integrals = half * (F[1:] - F[0])
        if not np.isfinite(integrals).all():
            return ChebResult(None, math.inf, n)
        return ChebResult(integrals.tolist(), tail * abs(b - a), n,
                          _numpy_clenshaw(c, x[1:]).tolist(), scale)


class TestChebyshevFloatLayer:
    """The Chebyshev layer on Python floats gives what the numpy formulas
    it replaced give, bit for bit: the grids, the antiderivative and whole
    fits, a fit whose DCT overflows to NaN included."""

    _bits = staticmethod(TestChebyshevKernels._bits)

    ULP = math.ulp(1.0)
    RANGES = [(0.1, 0.7), (0.7, 0.1), (-3.5, -1.25), (-1.25, -3.5),
              (-2.0, 1e-3), (1.0, 1.0 + ULP), (1.0 + ULP, 1.0),
              (-0.3, math.nextafter(-0.3, 0.0)), (0.0, 5e-324)]

    def test_points_at_every_size(self):
        for n in range(9, CHEB_MAX_POINTS + 1):
            for a, b in self.RANGES:
                got = cheb_points(a, b, n)
                assert all(type(t) is float for t in got)
                assert self._bits(got) == \
                    self._bits(_numpy_cheb_points(a, b, n)), (n, a, b)

    @pytest.mark.parametrize("n", TestChebyshevKernels.SIZES)
    def test_antiderivative(self, n):
        from affinemetrics.numerics import _antiderivative

        rng = np.random.default_rng(2000 + n)
        for c in TestChebyshevKernels._arrays(rng, n):
            with np.errstate(over="ignore", invalid="ignore"):
                want = _numpy_antiderivative(c)
            got = _antiderivative(c.tolist())
            assert all(type(value) is float for value in got)
            assert self._bits(got) == self._bits(want)

    @pytest.mark.parametrize("f, a, b", [
        (math.exp, 0.0, 1.0),
        (math.cos, 1.0, 0.0),
        (lambda t: math.sqrt(1.0 + 64.0 * math.cos(t) ** 2), -0.5, 2.0),
        (lambda t: 1.0 / (1.0 + 25.0 * t * t), -1.0, 1.0),
        (lambda t: abs(t - 0.3) ** (1.0 / 3.0), 0.0, 1.0),
        (lambda t: math.nan if t == 0.5 else 1.0, 0.0, 1.0),
        (lambda t: 1e300 * math.exp(t), 0.0, 1.0),
    ], ids=["exp", "reversed-cos", "helix", "runge", "kink", "nan",
            "huge"])
    def test_fits(self, f, a, b):
        ts = np.linspace(a, b, 60).tolist()
        self._check_fit(f, a, b, ts, 1e-10)

    def test_nan_coefficient_ends_at_the_finest_grid(self):
        # values near 1e308 are finite, but the DCT's sums overflow: on
        # the 17-point grid the last three coefficients hold a finite one
        # first and a NaN after it, which numpy's max propagates and the
        # builtin max would skip, ending the fit there as converged
        def f(t):
            return 1.79e308 * math.cos(3.0 * t)

        got = self._check_fit(f, 0.0, 1.0, [0.5, 1.0], 1e-10)
        assert got.values is None
        assert got.points == CHEB_MAX_POINTS
        assert math.isnan(got.error_estimate)

    def _check_fit(self, f, a, b, ts, tol):
        got = cheb_cumulative(f, a, b, ts, tol)
        want = _numpy_cheb_cumulative(f, a, b, ts, tol)
        for field in ("values", "fitted"):
            g, w = getattr(got, field), getattr(want, field)
            assert (g is None) == (w is None)
            if g is not None:
                assert self._bits(g) == self._bits(w)
        assert self._bits([got.error_estimate, got.scale]) == \
            self._bits([want.error_estimate, want.scale])
        assert got.points == want.points
        return got


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
        ev = OdeEvent(lambda t, y: 0.5 - y[0], name="crossing")
        res = ode_solve(lambda t, y: np.array([1.0]), [0.0], (0.0, 1.0),
                        OdeOptions(events=(ev,)))
        assert res.event_name == "crossing"
        assert res.ts[-1] == pytest.approx(0.5, abs=1e-10)

    def test_event_direction_filter(self):
        # y = sin crosses zero downward only at pi on (0.5, 4); an event
        # fires only where its g falls through zero, so g = -y, which rises
        # there, is ignored and g = y is located
        up = OdeEvent(lambda t, y: -y[0], name="up")
        opts = dict(rel_tol=1e-10, abs_tol=1e-12)
        res = ode_solve(lambda t, y: np.array([math.cos(t)]),
                        [math.sin(0.5)], (0.5, 4.0),
                        OdeOptions(events=(up,), **opts))
        assert res.event_name is None
        assert res.ts[-1] == 4.0
        down = OdeEvent(lambda t, y: y[0], name="down")
        res = ode_solve(lambda t, y: np.array([math.cos(t)]),
                        [math.sin(0.5)], (0.5, 4.0),
                        OdeOptions(events=(down,), **opts))
        assert res.event_name == "down"
        assert res.ts[-1] == pytest.approx(math.pi, abs=1e-8)

    @pytest.mark.parametrize("direction, status", [(1, "completed"),
                                                   (-1, "event")])
    def test_event_evals_counts_the_location_calls(self, direction, status):
        # the event function runs at t0, at the end of each accepted step
        # (a crossing step cut at the event included) and, only where it
        # fell through zero, event_evals times to locate the root; g =
        # -direction * y falls where y = sin crosses zero in ``direction``,
        # which here it does only downward
        calls = []

        def g(t, y):
            calls.append(t)
            return -direction * y[0]

        res = ode_solve(lambda t, y: (math.cos(t),), [math.sin(0.5)],
                        (0.5, 4.0), OdeOptions(events=(OdeEvent(g),)))
        assert (res.event_name is None) == (status == "completed")
        assert len(calls) == 1 + res.steps_accepted + res.event_evals
        if status == "completed":
            assert res.event_evals == 0
        else:
            max_iter = inspect.signature(
                find_root_bracketed).parameters["max_iter"].default
            assert 1 <= res.event_evals <= max_iter

    @staticmethod
    def _longest_step(t_end):
        """(a, b): the longest accepted step of y' = 1 from y(0) = 0 over
        (0, t_end) at the default options; events change no step before
        the one they end."""
        ts = ode_solve(lambda t, y: (1.0,), [0.0], (0.0, t_end)).ts
        return max(zip(ts, ts[1:]), key=lambda step: step[1] - step[0])

    def test_earlier_of_two_events_in_one_step_ends_the_solve(self):
        # y = t, so g_r = r - y falls through zero at t = r; both roots lie
        # inside one accepted step, and the later one is listed first
        a, b = self._longest_step(1.0)
        early, late = a + 0.3 * (b - a), a + 0.6 * (b - a)
        calls = {"early": 0, "late": 0}

        def event(name, root):
            def g(t, y):
                calls[name] += 1
                return root - y[0]
            return OdeEvent(g, name=name)

        res = ode_solve(lambda t, y: (1.0,), [0.0], (0.0, 1.0),
                        OdeOptions(events=(event("late", late),
                                           event("early", early))))
        assert res.event_name == "early"
        assert res.ts[-1] == pytest.approx(early, abs=1e-10)
        assert res.ts[-2] == a
        # each event ran at t0 and at each step's end, and both were
        # located in the step that holds their roots
        located = [n - 1 - res.steps_accepted for n in calls.values()]
        assert min(located) >= 1
        assert res.event_evals == sum(located)

    def test_event_that_falls_far_below_zero_in_one_step_is_located(self):
        # the cone jump in miniature: g = q - eps for q = r - y, and the
        # step that holds the root takes q from above eps to far below
        # -eps; g is positive at the step's start and far below zero at its
        # end, and the root q = eps is located, not skipped
        a, b = self._longest_step(1.0)
        root = 0.5 * (a + b)
        eps = 1e-6 * (b - a)
        ev = OdeEvent(lambda t, y: (root - y[0]) - eps, name="band")
        res = ode_solve(lambda t, y: (1.0,), [0.0], (0.0, 1.0),
                        OdeOptions(events=(ev,)))
        assert (root - a) - eps > 0.0 and (root - b) - eps < -1e5 * eps
        assert res.event_name == "band"
        assert res.ts[-2] == a
        assert res.ts[-1] == pytest.approx(root - eps, abs=1e-10)

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
        assert res.event_name is None
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
