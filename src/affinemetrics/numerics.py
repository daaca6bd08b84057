"""Shared numerical kernels: adaptive quadrature, Chebyshev interpolation
with cumulative integration, adaptive ODE integration with event
detection and a bracketing root finder.

All kernels are deterministic: fixed evaluation order, no randomized
subdivision.  The ODE integrator is the explicit Dormand-Prince 5(4) pair
with its 4th-order continuous extension, which serves dense output and
event location; a stiffness estimate on every accepted step reports
problems that an explicit method handles poorly.

Only the Chebyshev block works on numpy arrays, and each of its functions
imports numpy itself; everything else runs on floats and tuples, so
importing this module does not load numpy.
"""

from __future__ import annotations

import bisect
import heapq
import math
import sys
from dataclasses import dataclass, field

from .errors import (
    MaxSteps,
    NoBracket,
    NonFiniteValue,
    QuadratureFailure,
    StepFailure,
)

__all__ = [
    "QuadResult", "quad_adaptive", "gk15_nodes",
    "ChebResult", "cheb_points", "cheb_cumulative",
    "OdeOptions", "OdeEvent", "OdeResult", "ode_solve",
    "find_root_bracketed",
]

# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 adaptive quadrature

# (node, Gauss-7 weight, Kronrod-15 weight); Gauss weight 0 on the
# Kronrod-only nodes
_GK15 = (
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int


def gk15_nodes(a, b):
    """The fifteen abscissae of the GK15 panel over [a, b], in the order
    the panel evaluates them.  quad_adaptive(f, a, b) evaluates exactly
    these floats first, for a and b in either order."""
    if b < a:
        a, b = b, a
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return [mid + half * node for node, _, _ in _GK15]


def _gk15_panel(f, a, b):
    half = 0.5 * (b - a)
    gauss = 0.0
    kronrod = 0.0
    for x, (_, wg, wk) in zip(gk15_nodes(a, b), _GK15):
        y = f(x)
        if not math.isfinite(y):
            raise NonFiniteValue(f"integrand returned {y!r} near x = {x!r}")
        gauss += wg * y
        kronrod += wk * y
    return kronrod * half, abs(kronrod - gauss) * abs(half)


def quad_adaptive(f, a, b, rel_tol=1e-10, abs_tol=1e-12, max_panels=2000):
    """Globally adaptive Gauss-Kronrod integration of f over [a, b].

    The panel with the largest error estimate is bisected until the summed
    estimate satisfies max(abs_tol, rel_tol*|value|); exceeding the panel
    budget raises QuadratureFailure.
    """
    if a == b:
        return QuadResult(0.0, 0.0, 0)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    value, err = _gk15_panel(f, a, b)
    evaluations = 15
    # heap keyed on -error so the worst panel pops first; the counter
    # breaks ties deterministically
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total, total_err = value, err
    while total_err > max(abs_tol, rel_tol * abs(total)):
        if len(heap) >= max_panels:
            raise QuadratureFailure(
                f"tolerance not reached within {max_panels} panels "
                f"(error estimate {total_err:.3e})")
        _, _, lo, hi, pv, pe = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        lv, le = _gk15_panel(f, lo, mid)
        rv, re = _gk15_panel(f, mid, hi)
        evaluations += 30
        total += lv + rv - pv
        total_err += le + re - pe
        counter += 1
        heapq.heappush(heap, (-le, counter, lo, mid, lv, le))
        counter += 1
        heapq.heappush(heap, (-re, counter, mid, hi, rv, re))
    return QuadResult(float(sign * total), float(total_err), evaluations)


# ---------------------------------------------------------------------------
# Chebyshev interpolation with cumulative integration (Trefethen,
# Approximation Theory and Approximation Practice, SIAM 2013, chs. 3, 19)

#: the finest Chebyshev-Lobatto grid cheb_cumulative samples
CHEB_MAX_POINTS = 257


@dataclass(frozen=True)
class ChebResult:
    """Integrals from a to each requested t, read off one interpolant.

    ``values`` is None when the interpolant's tail did not decay within
    CHEB_MAX_POINTS points or a sampled value was not finite.
    ``error_estimate`` is |b - a| times the largest of the last three
    Chebyshev coefficients; ``points`` is the size of the last grid
    sampled, so f was called that many times.  ``fitted`` holds the
    interpolant itself at each t (None where nothing was interpolated)
    and ``scale`` is max|f| over the grid.
    """
    values: object
    error_estimate: float
    points: int
    fitted: object = None
    scale: float = 0.0

    def agrees(self, i, value, tol):
        """Whether ``value``, f at the i-th t, lies within tol * max|f| of
        the interpolant there.  The grid says nothing of f between its
        nodes, so a caller that evaluates f at the t anyway checks it
        here; a NaN never agrees."""
        if self.fitted is None:
            return True
        return abs(self.fitted[i] - value) <= tol * self.scale


def cheb_points(a, b, n):
    """The n Chebyshev-Lobatto points of [a, b], from a to b, ends exact.

    For n = 2^k + 1 the grids nest bit for bit: the n-point grid is every
    other point of the (2n - 1)-point grid."""
    import numpy as np

    m = n - 1
    t = 0.5 * (a + b) + 0.5 * (b - a) * np.sin(
        np.pi * np.arange(-m, m + 1, 2) / (2 * m))
    t[0], t[-1] = a, b
    return t


# m -> the (m + 1) x (m + 1) DCT-I matrix cos(pi j k / m): one per grid
# size, at most six (m = 8 ... 256, 0.5 MB for the largest)
_DCT = {}


def _cheb_coefficients(values):
    """Coefficients c_0..c_m of the interpolant through ``values`` at the
    ascending Lobatto points: a DCT-I of the descending values."""
    import numpy as np

    m = len(values) - 1
    w = values[::-1].copy()
    w[[0, -1]] *= 0.5
    matrix = _DCT.get(m)
    if matrix is None:
        jk = np.outer(np.arange(m + 1), np.arange(m + 1)) % (2 * m)
        matrix = _DCT[m] = np.cos(np.pi * jk / m)
    c = (matrix @ w) * (2.0 / m)
    c[[0, -1]] *= 0.5
    return c


#: most points at which _clenshaw runs on Python floats: a numpy pass pays
#: a few microseconds per coefficient, a float one about 0.12 us per
#: coefficient and point, and the two break even near 50 points
CLENSHAW_FLOAT_POINTS = 48


def _clenshaw(c, xs):
    """[sum c_k T_k(x) for x in xs] for lists of floats c and xs, as a list
    of floats.  Each x runs the recurrence b_k = c_k + 2 x b_(k+1) -
    b_(k+2) in the same float operations in the same order, on Python
    floats up to CLENSHAW_FLOAT_POINTS points and over one numpy array of
    them beyond, so every value is the same either way, bit for bit."""
    rest = c[:0:-1]
    if len(xs) > CLENSHAW_FLOAT_POINTS:
        import numpy as np

        x = np.array(xs)
        b1 = b2 = np.zeros_like(x)
        with np.errstate(over="ignore", invalid="ignore"):
            for ck in rest:
                b1, b2 = ck + 2.0 * x * b1 - b2, b1
            return (c[0] + x * b1 - b2).tolist()
    out = []
    for x in xs:
        b1 = b2 = 0.0
        for ck in rest:
            b1, b2 = ck + 2.0 * x * b1 - b2, b1
        out.append(c[0] + x * b1 - b2)
    return out


def cheb_cumulative(f, a, b, ts, tol):
    """The integrals of f from a to each t in ts, from one Chebyshev
    interpolant of f over [a, b] (Clenshaw-Curtis, read cumulatively).

    f is sampled at 9, 17, 33, ... Lobatto points, each grid reusing the
    values of the one before, until the last three coefficients are at
    most tol * max|f|.  Reversed ranges give negated integrals.
    """
    import numpy as np

    if a == b:
        return ChebResult([0.0] * len(ts), 0.0, 0)
    n = 9
    values = np.array([f(float(t)) for t in cheb_points(a, b, n)])
    while True:
        if not np.isfinite(values).all():
            return ChebResult(None, math.inf, n)
        with np.errstate(over="ignore", invalid="ignore"):
            c = _cheb_coefficients(values)
        tail = float(np.abs(c[-3:]).max())
        scale = float(np.abs(values).max())
        if tail <= tol * scale:
            break
        if n >= CHEB_MAX_POINTS:
            return ChebResult(None, tail * abs(b - a), n)
        n = 2 * n - 1
        grown = np.empty(n)
        grown[0::2] = values
        grown[1::2] = [f(float(t)) for t in cheb_points(a, b, n)[1::2]]
        values = grown
    # antiderivative coefficients C_k = (c_{k-1} - c_{k+1}) / (2k), with c_0
    # counted twice; F(x) - F(x(a)) fixes the constant
    d = np.concatenate([c, [0.0, 0.0]])
    d[0] *= 2.0
    C = np.concatenate([[0.0],
                        (d[:-2] - d[2:]) / (2.0 * np.arange(1, n + 1))])
    a, b = float(a), float(b)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = [(float(t) - mid) / half for t in (a, *ts)]
    F = _clenshaw(C.tolist(), x)
    integrals = [half * (f - F[0]) for f in F[1:]]
    if not all(map(math.isfinite, integrals)):
        return ChebResult(None, math.inf, n)
    return ChebResult(integrals, tail * abs(b - a), n,
                      _clenshaw(c.tolist(), x[1:]), scale)


# ---------------------------------------------------------------------------
# adaptive ODE integration

@dataclass
class OdeEvent:
    """Scalar event g(t, y); a root of g terminates the solve.

    direction: +1 triggers only on - to + crossings, -1 only on + to -,
    0 on any sign change.
    """
    func: object
    direction: int = 0
    name: str = ""


@dataclass
class OdeOptions:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_steps: int = 100_000
    method: str = "dopri5"             # the only stepper
    events: tuple = ()

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.method != "dopri5":
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class OdeResult:
    """The accepted step mesh of one solve.

    ``ys`` and ``fs`` hold each node's state and right-hand side as
    tuples of floats.  ``dense[i]`` is the continuous extension of the step
    that starts at ``ts[i]``: its length h and the coefficient rows of
    ``_dense_eval``.  A trace ended by an event cuts its last step at the
    event time and keeps that step's polynomial.  ``n_steps`` counts
    attempted steps, rejected ones included; ``n_rhs`` counts every call
    of f, the starting step's included; ``stiff_steps`` counts the
    accepted steps whose stiffness estimate h*|lambda| exceeded
    ``STIFF_THRESHOLD``; ``event_evals`` counts the calls of event
    functions that locating sign changes made, the step ends' values
    excluded (0 when no event crossed).
    """
    ts: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    fs: list = field(default_factory=list)
    dense: list = field(default_factory=list)
    status: str = "completed"          # completed | event
    event_name: str | None = None
    t_event: float | None = None
    n_steps: int = 0
    n_rhs: int = 0
    stiff_steps: int = 0
    event_evals: int = 0

    @property
    def steps_accepted(self):
        return len(self.ts) - 1

    @property
    def steps_rejected(self):
        return self.n_steps - self.steps_accepted

    def interpolate(self, t):
        """The state at t, a tuple of floats as in ``ys``, from the
        4th-order continuous extension of the step containing t; clamped to
        the ends of the trace."""
        ts = self.ts
        if not ts:
            raise ValueError("empty trace")
        if t <= ts[0]:
            return self.ys[0]
        if t >= ts[-1]:
            return self.ys[-1]
        i = bisect.bisect_right(ts, t) - 1
        h, rows = self.dense[i]
        return _dense_eval(rows, (t - ts[i]) / h)


# Dormand-Prince 5(4) coefficients (exact rationals): the nodes _C*, the
# stage rows _A*, the 5th-order weights _B* (also the row of the seventh
# stage, so that stage is f at the new state and serves as the next step's
# first), the error weights _E* (5th minus 4th order) and the weights _D*
# of the 4th-order continuous extension (Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, section II.6; CONTD5 of their dopri5
# code).  The steps run on tuples of floats: on a state of a few components
# numpy's per-call overhead costs more than the arithmetic.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = (19372 / 6561, -25360 / 2187, 64448 / 6561,
                          -212 / 729)
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    _B1 - 5179 / 57600, _B3 - 7571 / 16695, _B4 - 393 / 640,
    _B5 + 92097 / 339200, _B6 - 187 / 2100, -1 / 40)
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423)

#: h*|lambda| above which an accepted step counts as stiff: the stability
#: boundary of DOPRI5 on the negative real axis (Hairer & Wanner, Solving
#: Ordinary Differential Equations II, section IV.2)
STIFF_THRESHOLD = 3.25


def _dopri5_step(f, t, y, h, k1):
    """One step of length h from (t, y), where k1 = f(t, y).

    Returns the 5th-order state, the embedded error, the seven stages (the
    last one is f at the new state) and the state of the sixth stage, all
    tuples of floats.  A stage past the float range is inf or nan,
    silently (float products do not raise): the caller rejects a step
    whose state or error is not finite.
    """
    k2 = f(t + _C2 * h, tuple([a + h * (_A21 * p) for a, p in zip(y, k1)]))
    k3 = f(t + _C3 * h, tuple([a + h * (_A31 * p + _A32 * q)
                               for a, p, q in zip(y, k1, k2)]))
    k4 = f(t + _C4 * h, tuple([a + h * (_A41 * p + _A42 * q + _A43 * r)
                               for a, p, q, r in zip(y, k1, k2, k3)]))
    k5 = f(t + _C5 * h, tuple([
        a + h * (_A51 * p + _A52 * q + _A53 * r + _A54 * s)
        for a, p, q, r, s in zip(y, k1, k2, k3, k4)]))
    y6 = tuple([a + h * (_A61 * p + _A62 * q + _A63 * r + _A64 * s
                         + _A65 * w)
                for a, p, q, r, s, w in zip(y, k1, k2, k3, k4, k5)])
    k6 = f(t + h, y6)
    y_new = tuple([a + h * (_B1 * p + _B3 * r + _B4 * s + _B5 * w + _B6 * x)
                   for a, p, r, s, w, x in zip(y, k1, k3, k4, k5, k6)])
    k7 = f(t + h, y_new)
    err = tuple([h * (_E1 * p + _E3 * r + _E4 * s + _E5 * w + _E6 * x
                      + _E7 * z)
                 for p, r, s, w, x, z in zip(k1, k3, k4, k5, k6, k7)])
    return y_new, err, (k1, k2, k3, k4, k5, k6, k7), y6


def _stiffness(h, ks, y_new, y6):
    """h*|lambda| estimated from the last two stages, which share t + h."""
    num = den = 0.0
    for p, q, a, b in zip(ks[6], ks[5], y_new, y6):
        num += (p - q) * (p - q)
        den += (a - b) * (a - b)
    if den == 0.0:
        return 0.0
    return h * math.sqrt(num / den)


def _dense_rows(y, y_new, h, ks):
    """Coefficient rows of one step's continuous extension."""
    k1, _, k3, k4, k5, k6, k7 = ks
    dy = tuple([b - a for a, b in zip(y, y_new)])
    bspl = tuple([h * p - d for p, d in zip(k1, dy)])
    c4 = tuple([d - h * z - b for d, z, b in zip(dy, k7, bspl)])
    c5 = tuple([h * (_D1 * p + _D3 * r + _D4 * s + _D5 * w + _D6 * x
                     + _D7 * z)
                for p, r, s, w, x, z in zip(k1, k3, k4, k5, k6, k7)])
    return (y, dy, bspl, c4, c5)


def _dense_eval(rows, s):
    """The continuous extension at s = (t - t_step) / h in [0, 1]; it
    matches the state and the derivative at both ends of the step."""
    s1 = 1.0 - s
    return tuple([a + s * (d + s1 * (b + s * (c + s1 * e)))
                  for a, d, b, c, e in zip(*rows)])


def _rms(vec, scale):
    """Root mean square of vec / scale; squares are products, so a value
    past the float range gives inf, not OverflowError."""
    total = 0.0
    for x, sc in zip(vec, scale):
        q = x / sc
        total += q * q
    return math.sqrt(total / len(scale))


def _error_norm(err, y, y_new, rel_tol, abs_tol):
    return _rms(err, [abs_tol + rel_tol * max(abs(a), abs(b))
                      for a, b in zip(y, y_new)])


def _finite(vec):
    return all(map(math.isfinite, vec))


def _initial_step(rhs, t0, y0, f0, h_max, rel_tol, abs_tol):
    """The starting step of Hairer, Norsett & Wanner, Solving Ordinary
    Differential Equations I, section II.4 (HINIT of their dopri5 code, at
    order 5), in the error test's norm.

    A step h0 = 0.01 |y0| / |f0| moves the state by about 1%; one explicit
    Euler step of that length estimates |y''|, and the step h1 at which
    h1^5 max(|f0|, |y''|) = 0.01 is taken if it is at most 100 h0.  Costs
    one call of rhs.  A norm past the float range (a tolerance near the
    underflow bound) falls back to h0 = 1e-6, and a non-finite |y''| or a
    zero h1 to h0.
    """
    scale = [abs_tol + rel_tol * abs(a) for a in y0]
    d0, d1 = _rms(y0, scale), _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0.0:                    # nan or 0 from an infinite norm
        h0 = 1e-6
    h0 = min(h0, h_max)
    f1 = rhs(t0 + h0, tuple([a + h0 * p for a, p in zip(y0, f0)]))
    d2 = _rms([q - p for p, q in zip(f0, f1)], scale) / h0
    if not math.isfinite(d2):
        return h0
    d12 = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if d12 <= 1e-15 else (0.01 / d12) ** 0.2
    return min(100.0 * h0, h1, h_max) if h1 > 0.0 else h0


def ode_solve(f, y0, t_span, opts=None):
    """Integrate y' = f(t, y) over t_span with the Dormand-Prince 5(4)
    pair, adaptive step control (the standard factor capped by
    Gustafsson's predictive one) and dense event location.

    f receives y as a tuple of floats and returns a sequence of floats;
    ``OdeResult.ys`` and ``fs`` hold tuples.  The first step is HNW's
    starting step (``_initial_step``), and a step that would end within
    1% of t_span[1] is stretched to end exactly there, as their dopri5
    does; that last step is exempt from the underflow test, so a span
    shorter than the underflow bound is one step.  Each accepted step
    keeps its 4th-order continuous extension, which serves
    ``OdeResult.interpolate``, event location and the state at an event.
    Events are detected by sign change across each accepted step and
    located by Brent's method on the continuous extension to a bracket of
    1e-10 in t; the first one ends the trace.  Steps whose stiffness
    estimate exceeds ``STIFF_THRESHOLD`` are counted in ``stiff_steps``
    and change nothing else.  Raises StepFailure on step-size underflow
    and MaxSteps on budget exhaustion; both carry the partial OdeResult in
    their ``trace`` attribute.
    """
    opts = opts or OdeOptions()
    t0, t_end = float(t_span[0]), float(t_span[1])
    if t_end <= t0:
        raise ValueError("t_span must be increasing")
    y = tuple(map(float, y0))
    result = OdeResult()

    def rhs(t, yy):
        result.n_rhs += 1
        return tuple(map(float, f(t, yy)))

    f_now = rhs(t0, y)
    if not _finite(f_now):
        raise NonFiniteValue("right-hand side not finite at the initial point")

    result.ts.append(t0)
    result.ys.append(y)
    result.fs.append(f_now)

    g_now = [ev.func(t0, y) for ev in opts.events]

    h = _initial_step(rhs, t0, y, f_now, t_end - t0, opts.rel_tol,
                      opts.abs_tol)
    t = t0
    facmin, facmax, safety = 0.2, 6.0, 0.9
    rejected = False
    h_acc = err_acc = None          # the last accepted step and its error

    while t < t_end:
        while True:
            last = t + 1.01 * h >= t_end
            if last:
                h = t_end - t
            elif h < 1e-14 * max(abs(t), 1.0):
                raise StepFailure(f"step size underflow at t = {t!r}",
                                  trace=result)
            if result.n_steps >= opts.max_steps:
                raise MaxSteps(f"exceeded {opts.max_steps} steps", trace=result)
            result.n_steps += 1
            y_new, err_vec, ks, y6 = _dopri5_step(rhs, t, y, h, f_now)
            err = (_error_norm(err_vec, y, y_new, opts.rel_tol, opts.abs_tol)
                   if _finite(y_new) and _finite(err_vec) else math.inf)
            bad = not math.isfinite(err)
            if err <= 1.0:
                break
            fac = facmin if bad else max(facmin, safety * err ** -0.2)
            h *= min(fac, 0.5 if rejected else 1.0)
            rejected = True

        t_new = t_end if last else t + h
        f_new = ks[6]
        dense = (h, _dense_rows(y, y_new, h, ks))
        if _stiffness(h, ks, y_new, y6) > STIFF_THRESHOLD:
            result.stiff_steps += 1

        # event detection on this step
        g_new = [ev.func(t_new, y_new) for ev in opts.events]
        hit = None
        for i, ev in enumerate(opts.events):
            if _crossed(g_now[i], g_new[i], ev.direction):
                t_hit, evals = _locate_event(ev.func, t, g_now[i], t_new,
                                             g_new[i], dense)
                result.event_evals += evals
                if hit is None or t_hit < hit[0]:
                    hit = (t_hit, i)
        if hit is not None:
            t_hit, i = hit
            y_hit = _dense_eval(dense[1], (t_hit - t) / h)
            result.ts.append(t_hit)
            result.ys.append(y_hit)
            result.fs.append(rhs(t_hit, y_hit))
            result.dense.append(dense)
            result.status = "event"
            result.event_name = opts.events[i].name
            result.t_event = t_hit
            return result

        result.ts.append(t_new)
        result.ys.append(y_new)
        result.fs.append(f_new)
        result.dense.append(dense)
        t, y, f_now, g_now = t_new, y_new, f_new, g_new

        err = max(err, 1e-10)
        fac = max(facmin, min(facmax, safety * err ** -0.2))
        if h_acc is not None:
            # Gustafsson's predictive controller (HNW II, IV.8): the error
            # trend since the last accepted step may only shrink the step
            fac_pred = h / h_acc * (err_acc / (err * err)) ** 0.2 * safety
            fac = min(fac, max(facmin, min(facmax, fac_pred)))
        h_acc, err_acc = h, max(1e-2, err)
        if rejected:
            fac = min(fac, 1.0)
        rejected = False
        h *= fac

    return result


def _crossed(g0, g1, direction):
    if g0 == 0.0 and g1 == 0.0:
        return False
    if direction >= 1:
        return g0 < 0.0 <= g1
    if direction <= -1:
        return g0 > 0.0 >= g1
    return (g0 < 0.0 <= g1) or (g0 > 0.0 >= g1)


def _locate_event(g, t0, g0, t1, g1, dense, tol=1e-10):
    """Root of g(t, y(t)) on [t0, t1], with y(t) the step's continuous
    extension, by Brent's method down to a bracket of width tol; g0 and g1
    are the values of g the step already has at its ends.  Returns the root
    and the number of calls of g the search made."""
    h, rows = dense
    calls = 0

    def g_on_step(t):
        nonlocal calls
        calls += 1
        return g(t, _dense_eval(rows, (t - t0) / h))

    root = find_root_bracketed(g_on_step, t0, t1, tol=tol, f_lo=g0, f_hi=g1)
    return root, calls


# ---------------------------------------------------------------------------
# root finding

def find_root_bracketed(f, lo, hi, tol=1e-12, max_iter=200, f_lo=None,
                        f_hi=None):
    """Brent's method on a sign-changing bracket [lo, hi].

    ``f_lo`` and ``f_hi`` pass values of f at the ends that the caller
    already has, so they are not evaluated again.
    """
    a, b = float(lo), float(hi)
    fa = f(a) if f_lo is None else f_lo
    fb = f(b) if f_hi is None else f_hi
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise NoBracket(f"f({a}) = {fa!r} and f({b}) = {fb!r} do not bracket a root")
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * sys.float_info.epsilon * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b = b + (d if abs(d) > tol1 else math.copysign(tol1, xm))
        fb = f(b)
    return b
