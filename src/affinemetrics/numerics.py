"""Shared numerical kernels: adaptive quadrature, Chebyshev interpolation
with cumulative integration, adaptive ODE integration with event
detection, a bracketing root finder, and finite differences.

All kernels are deterministic: fixed evaluation order, no randomized
subdivision.  The ODE integrator is the explicit Dormand-Prince 5(4) pair with
its 4th-order continuous extension, which serves dense output and event
location; a stiffness estimate on every accepted step reports problems
that an explicit method handles poorly.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

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
    "find_root_bracketed", "finite_diff",
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
    m = n - 1
    t = 0.5 * (a + b) + 0.5 * (b - a) * np.sin(
        np.pi * np.arange(-m, m + 1, 2) / (2 * m))
    t[0], t[-1] = a, b
    return t


def _cheb_coefficients(values):
    """Coefficients c_0..c_m of the interpolant through ``values`` at the
    ascending Lobatto points: a DCT-I of the descending values."""
    m = len(values) - 1
    w = values[::-1].copy()
    w[[0, -1]] *= 0.5
    jk = np.outer(np.arange(m + 1), np.arange(m + 1)) % (2 * m)
    c = (np.cos(np.pi * jk / m) @ w) * (2.0 / m)
    c[[0, -1]] *= 0.5
    return c


def _clenshaw(c, x):
    """sum c_k T_k(x) for an array x."""
    b1 = b2 = np.zeros_like(x)
    for ck in c[:0:-1]:
        b1, b2 = ck + 2.0 * x * b1 - b2, b1
    return c[0] + x * b1 - b2


def cheb_cumulative(f, a, b, ts, tol):
    """The integrals of f from a to each t in ts, from one Chebyshev
    interpolant of f over [a, b] (Clenshaw-Curtis, read cumulatively).

    f is sampled at 9, 17, 33, ... Lobatto points, each grid reusing the
    values of the one before, until the last three coefficients are at
    most tol * max|f|.  Reversed ranges give negated integrals.
    """
    if a == b:
        return ChebResult(np.zeros(len(ts)), 0.0, 0)
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
    half = 0.5 * (b - a)
    x = (np.concatenate([[a], ts]) - 0.5 * (a + b)) / half
    with np.errstate(over="ignore", invalid="ignore"):
        F = _clenshaw(C, x)
        integrals = half * (F[1:] - F[0])
        fitted = _clenshaw(c, x[1:])
    if not np.isfinite(integrals).all():
        return ChebResult(None, math.inf, n)
    return ChebResult(integrals, tail * abs(b - a), n, fitted, scale)


# ---------------------------------------------------------------------------
# adaptive ODE integration

@dataclass
class OdeEvent:
    """Scalar event g(t, y); a root of g terminates or marks the solve.

    direction: +1 triggers only on - to + crossings, -1 only on + to -,
    0 on any sign change.
    """
    func: object
    terminal: bool = True
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

    ``dense[i]`` is the continuous extension of the step that starts at
    ``ts[i]``: its length h and the coefficient rows of ``_dense_eval``.  A
    trace ended by an event cuts its last step at the event time and keeps
    that step's polynomial.  ``n_steps`` counts attempted steps, rejected
    ones included; ``stiff_steps`` counts the accepted steps whose
    stiffness estimate h*|lambda| exceeded ``STIFF_THRESHOLD``.
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

    def interpolate(self, t):
        """The state at t from the 4th-order continuous extension of the
        step containing t; clamped to the ends of the trace."""
        ts = self.ts
        if not ts:
            raise ValueError("empty trace")
        if t <= ts[0]:
            return np.array(self.ys[0], copy=True)
        if t >= ts[-1]:
            return np.array(self.ys[-1], copy=True)
        i = bisect.bisect_right(ts, t) - 1
        h, rows = self.dense[i]
        return _dense_eval(rows, (t - ts[i]) / h)


# Dormand-Prince 5(4) coefficients (exact rationals).  Row 6 of _DP_A is
# the 5th-order solution, so the last stage is f at the new state and
# serves as the next step's first stage.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = tuple(np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4
# weights of the 4th-order continuous extension (Hairer, Norsett & Wanner,
# Solving Ordinary Differential Equations I, section II.6; CONTD5 of their
# dopri5 code)
_DP_D = np.array([-12715105075 / 11282082432, 0.0,
                  87487479700 / 32700410799, -10690763975 / 1880347072,
                  701980252875 / 199316789632, -1453857185 / 822651844,
                  69997945 / 29380423])

#: h*|lambda| above which an accepted step counts as stiff: the stability
#: boundary of DOPRI5 on the negative real axis (Hairer & Wanner, Solving
#: Ordinary Differential Equations II, section IV.2)
STIFF_THRESHOLD = 3.25


def _dopri5_step(f, t, y, h, f0):
    """One step of length h from (t, y), where f0 = f(t, y).

    Returns the 5th-order state, the embedded error vector, the seven
    stages (the last one is f at the new state) and the state of the sixth
    stage.  A stage past the float range is inf or nan, silently: the
    caller rejects a step whose state or error is not finite.
    """
    ks = np.empty((7, y.size))
    ks[0] = f0
    y_stage = y
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, 7):
            y_prev = y_stage
            y_stage = y + h * (_DP_A[i] @ ks[:i])
            ks[i] = f(t + _DP_C[i] * h, y_stage)
        return y_stage, h * (_DP_E @ ks), ks, y_prev


def _stiffness(h, ks, y_new, y6):
    """h*|lambda| estimated from the last two stages, which share t + h."""
    den = float(np.sum((y_new - y6) ** 2))
    if den == 0.0:
        return 0.0
    return h * math.sqrt(float(np.sum((ks[6] - ks[5]) ** 2)) / den)


def _dense_rows(y, y_new, h, ks):
    """Coefficient rows of one step's continuous extension."""
    dy = y_new - y
    bspl = h * ks[0] - dy
    return (y, dy, bspl, dy - h * ks[6] - bspl, h * (_DP_D @ ks))


def _dense_eval(rows, s):
    """The continuous extension at s = (t - t_step) / h in [0, 1]; it
    matches the state and the derivative at both ends of the step."""
    y, dy, bspl, c4, c5 = rows
    s1 = 1.0 - s
    return y + s * (dy + s1 * (bspl + s * (c4 + s1 * c5)))


def _error_norm(err, y, y_new, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
    return math.sqrt(float(np.mean((err / scale) ** 2)))


def ode_solve(f, y0, t_span, opts=None):
    """Integrate y' = f(t, y) over t_span with the Dormand-Prince 5(4)
    pair, adaptive step control and dense event location.

    Each accepted step keeps its 4th-order continuous extension, which
    serves ``OdeResult.interpolate``, event location and the state at a
    terminal event.  Terminal events are detected by sign change across
    each accepted step and located by Brent's method on the continuous
    extension to a bracket of 1e-10 in t; the first one ends the trace.
    Steps whose stiffness estimate exceeds ``STIFF_THRESHOLD`` are counted
    in ``stiff_steps`` and change nothing else.  Raises StepFailure on
    step-size underflow and MaxSteps on budget exhaustion; both carry the
    partial OdeResult in their ``trace`` attribute.
    """
    opts = opts or OdeOptions()
    t0, t_end = float(t_span[0]), float(t_span[1])
    if t_end <= t0:
        raise ValueError("t_span must be increasing")
    y = np.asarray(y0, dtype=float).copy()
    result = OdeResult()

    def rhs(t, yy):
        result.n_rhs += 1
        return np.asarray(f(t, yy), dtype=float)

    f_now = rhs(t0, y)
    if not np.all(np.isfinite(f_now)):
        raise NonFiniteValue("right-hand side not finite at the initial point")

    result.ts.append(t0)
    result.ys.append(y)
    result.fs.append(f_now)

    g_now = [ev.func(t0, y) for ev in opts.events]

    h = (t_end - t0) / 100.0
    t = t0
    facmin, facmax, safety = 0.2, 6.0, 0.9
    rejected = False

    while t < t_end:
        h = min(h, t_end - t)
        if h < 1e-14 * max(abs(t), 1.0):
            raise StepFailure(f"step size underflow at t = {t!r}", trace=result)

        while True:
            if result.n_steps >= opts.max_steps:
                raise MaxSteps(f"exceeded {opts.max_steps} steps", trace=result)
            result.n_steps += 1
            y_new, err_vec, ks, y6 = _dopri5_step(rhs, t, y, h, f_now)
            bad = not (np.all(np.isfinite(y_new))
                       and np.all(np.isfinite(err_vec)))
            err = math.inf if bad else _error_norm(err_vec, y, y_new,
                                                   opts.rel_tol, opts.abs_tol)
            if err <= 1.0:
                break
            fac = facmin if bad else max(facmin, safety * err ** -0.2)
            h *= min(fac, 0.5 if rejected else 1.0)
            rejected = True
            if h < 1e-14 * max(abs(t), 1.0):
                raise StepFailure(f"step size underflow at t = {t!r}",
                                  trace=result)

        t_new = t + h
        f_new = ks[6]
        dense = (h, _dense_rows(y, y_new, h, ks))
        if _stiffness(h, ks, y_new, y6) > STIFF_THRESHOLD:
            result.stiff_steps += 1

        # terminal-event detection on this step
        g_new = [ev.func(t_new, y_new) for ev in opts.events]
        hit = None
        for i, ev in enumerate(opts.events):
            if ev.terminal and _crossed(g_now[i], g_new[i], ev.direction):
                t_hit = _locate_event(ev.func, t, g_now[i], t_new, g_new[i],
                                      dense)
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

        fac = max(facmin, min(facmax, safety * max(err, 1e-10) ** -0.2))
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
    are the values of g the step already has at its ends."""
    h, rows = dense

    def g_dense(t):
        return g(t, _dense_eval(rows, (t - t0) / h))

    return find_root_bracketed(g_dense, t0, t1, tol=tol, f_lo=g0, f_hi=g1)


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
        tol1 = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * tol
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


# ---------------------------------------------------------------------------
# finite differences (oracle for the jet kernels)

_FD_DEFAULT_STEP = {1: 1e-4, 2: 2.5e-3, 3: 6e-3}


def finite_diff(f, x, order=1, step=None):
    """Central finite difference of f at x with one Richardson level.

    Supports derivative orders 1..3; the extrapolated truncation error is
    O(step^4).  The default steps sit near the roundoff/truncation optimum
    for each order (cancellation grows like eps/step^order, so higher
    orders need larger steps).
    """
    if order not in (1, 2, 3):
        raise ValueError("finite_diff supports orders 1, 2, 3")
    if step is None:
        step = _FD_DEFAULT_STEP[order]

    def stencil(h):
        if order == 1:
            return (f(x + h) - f(x - h)) / (2.0 * h)
        if order == 2:
            return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
        return (f(x + 2 * h) - 2.0 * f(x + h)
                + 2.0 * f(x - h) - f(x - 2 * h)) / (2.0 * h ** 3)

    coarse = stencil(step)
    fine = stencil(step / 2.0)
    return (4.0 * fine - coarse) / 3.0
