"""Truncated derivative ("jet") arithmetic.

A :class:`Jet1` holds a value together with raw derivatives d^k/dt^k up to a
fixed order (at most 6); a :class:`Jet2` holds raw partial derivatives
d^{i+j}/du^i dv^j for i+j up to a fixed total order (at most 3, all that the
invariants of curves in surfaces need).  Arithmetic propagates exact
derivatives, so evaluating a parsed expression over a seed jet yields the
true derivatives of that expression up to floating-point rounding.

Raw derivatives (not Taylor coefficients) are stored, because the geometry
layers consume a', a'', a''' directly.

The two kinds are one ring over two coefficient layouts, written once in
their base class ``_Jet``: the operand check (a jet of the same kind and
order; NotImplemented for the other kind; a fast path for a plain number),
+ - * and their reflected forms, negation, / by a number or a jet, integer
and real powers, abs, ``value``, ``is_constant`` and ``lift`` (a number
as a constant jet like the seed).  Results built here skip validation
(``_make``, ``_like``); the public ``Jet1(coeffs)`` and
``Jet2(order, coeffs)`` validate.  Each kind adds what its layout decides:
its constructor, seeds and ``constant``; its derivative access
(``derivative`` and ``truncated``, or ``partial``); its Leibniz product
tables (``_MUL1``, ``_MUL2``: per order and output coefficient, the
(binomial weight, index into a, index into b) terms, so that a product is
one flat loop); its quotient kernel (Jet1 solves Leibniz's rule for the
quotient, and divides each coefficient by a plain divisor; Jet2 multiplies
by the reciprocal, of a jet or of a plain divisor); and its elementary
functions.

A Jet2 function g = phi(f) is the bivariate chain rule on the graded
partials, written out to order 3:

    g_u   = phi' f_u
    g_uv  = phi'' f_u f_v + phi' f_uv
    g_uuv = phi''' f_u^2 f_v + phi'' (2 f_u f_uv + f_uu f_v) + phi' f_uuv

and so on.  The Jet1 functions, which go up to order 6, apply the classical
power-series recurrences to normalized Taylor coefficients.  phi and its
first three derivatives at f's value come from one closed-form table per
function (``_PHI``), the only place the jets call :mod:`math`; it reports a
math overflow or domain error as DomainError.

:func:`compose_curve_in_surface` gives the derivatives of a(t) =
X(u(t), v(t)) up to order 3 by the chain rule, written out term by term on
floats.
"""

from __future__ import annotations

import math
import types

from .errors import DomainError, OrderMismatch, UnsupportedOrder

__all__ = ["Jet1", "Jet2", "compose_curve_in_surface", "power_int",
           "dot3", "cross3", "det3", "MAX_ORDER_1", "MAX_ORDER_2"]

MAX_ORDER_1 = 6
MAX_ORDER_2 = 3

_FACT = (1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0)
_BINOM = tuple(tuple(math.comb(k, j) for j in range(k + 1)) for k in range(7))

# Jet2 coefficient layout: graded order, u-degree descending within a grade.
_IDX2 = {
    n: tuple((i, d - i) for d in range(n + 1) for i in range(d, -1, -1))
    for n in range(MAX_ORDER_2 + 1)
}
_POS2 = {n: {ij: k for k, ij in enumerate(_IDX2[n])} for n in _IDX2}

# Leibniz product tables: per order, per output coefficient, its terms
# (binomial weight, index into a, index into b).
_MUL1 = {
    n: tuple(tuple((_BINOM[k][j], j, k - j) for j in range(k + 1))
             for k in range(n + 1))
    for n in range(1, MAX_ORDER_1 + 1)
}
_MUL2 = {
    n: tuple(tuple((_BINOM[i][p] * _BINOM[j][q], _POS2[n][(p, q)],
                    _POS2[n][(i - p, j - q)])
                   for p in range(i + 1) for q in range(j + 1))
             for (i, j) in _IDX2[n])
    for n in range(1, MAX_ORDER_2 + 1)
}


# ---------------------------------------------------------------------------
# (phi, phi', phi'', phi''') of each elementary function at x

def _d_sin(x):
    s, c = math.sin(x), math.cos(x)
    return s, c, -s, -c


def _d_cos(x):
    s, c = math.sin(x), math.cos(x)
    return c, -s, -c, s


def _d_tan(x):
    c = math.cos(x)
    if c == 0.0:
        raise DomainError("tan at a pole")
    t = math.sin(x) / c
    sec2 = 1.0 + t * t
    return t, sec2, 2.0 * t * sec2, 2.0 * sec2 * (sec2 + 2.0 * t * t)


def _d_sinh(x):
    s, c = math.sinh(x), math.cosh(x)
    return s, c, s, c


def _d_cosh(x):
    s, c = math.sinh(x), math.cosh(x)
    return c, s, c, s


def _d_tanh(x):
    # sech^2 from exp(-2|x|): no cancellation in 1 - tanh^2, no overflow
    e = math.exp(-2.0 * abs(x))
    t = math.tanh(x)
    sech2 = 4.0 * e / ((1.0 + e) * (1.0 + e))
    return t, sech2, -2.0 * t * sech2, 2.0 * sech2 * (2.0 * t * t - sech2)


def _d_exp(x):
    e = math.exp(x)
    return e, e, e, e


def _d_log(x):
    if x <= 0.0:
        raise DomainError("log of a nonpositive jet value")
    r = 1.0 / x
    return math.log(x), r, -r * r, 2.0 * r * r * r


def _d_sqrt(x):
    if x <= 0.0:
        raise DomainError("sqrt of a nonpositive jet value")
    s = math.sqrt(x)
    d1 = 0.5 / s
    d2 = -0.5 * d1 / x
    return s, d1, d2, -1.5 * d2 / x


def _d_reciprocal(x):
    if x == 0.0:
        raise DomainError("jet division by zero value")
    r = 1.0 / x
    r2 = r * r
    return r, -r2, 2.0 * r2 * r, -6.0 * r2 * r2


_PHI = {"sin": _d_sin, "cos": _d_cos, "tan": _d_tan, "sinh": _d_sinh,
        "cosh": _d_cosh, "tanh": _d_tanh, "exp": _d_exp, "log": _d_log,
        "sqrt": _d_sqrt, "reciprocal": _d_reciprocal}


def _phi(name, x):
    """(phi, phi', phi'', phi''') of the named function at x.  A math
    overflow (exp(1000)) or domain error (sin(inf)) is a DomainError."""
    try:
        return _PHI[name](x)
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"{name}({x!r}): {exc}") from None


def _leibniz(table, a, b):
    """The coefficients of a product from its table in _MUL1 or _MUL2."""
    out = []
    for terms in table:
        acc = 0.0
        for w, i, j in terms:
            acc += w * a[i] * b[j]
        out.append(acc)
    return tuple(out)


def power_int(base, n):
    """base ** n for an integer n >= 1 by square-and-multiply, in any ring
    with ``*`` (floats, Jet1, Jet2): at most 2 log2(n) products.  Products
    rather than float ``**``, which raises OverflowError, and they keep
    negative bases legal."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else base * result
        n >>= 1
        if not n:
            return result
        base = base * base


def _check_order(order, maximum, what):
    if not isinstance(order, int) or order < 1 or order > maximum:
        raise UnsupportedOrder(f"{what} supports orders 1..{maximum}, got {order}")


class _Jet:
    """The ring Jet1 and Jet2 share.  A subclass provides ``_MUL``, its
    Leibniz tables by order; ``constant``; its quotient kernel
    (``_quotient``, ``__rtruediv__``, ``_reciprocal``); and the elementary
    functions that ``**`` and ``eval_ast`` call."""

    __slots__ = ("order", "coeffs")

    def __init_subclass__(cls):
        # each kind runs its own copy of this code: CPython 3.11 specializes
        # attribute access per code object and type, so a copy shared by
        # interleaved Jet1 and Jet2 operands runs unspecialized (arclen 5%)
        for name, f in list(vars(_Jet).items()):
            if isinstance(f, types.FunctionType) and name not in vars(cls):
                setattr(cls, name, types.FunctionType(
                    f.__code__.replace(), f.__globals__, name))

    @classmethod
    def _make(cls, order, coeffs):
        """A jet over a tuple of floats of a valid length, unchecked."""
        jet = object.__new__(cls)
        jet.order = order
        jet.coeffs = coeffs
        return jet

    def _like(self, coeffs):
        """A jet of this one's kind and order over ``coeffs``, unchecked."""
        jet = object.__new__(self.__class__)
        jet.order = self.order
        jet.coeffs = coeffs
        return jet

    @property
    def value(self):
        return self.coeffs[0]

    def is_constant(self):
        return all(c == 0.0 for c in self.coeffs[1:])

    def lift(self, x):
        """``x`` if it is a jet, else the constant jet of this one's kind
        and order."""
        return x if isinstance(x, _Jet) else self.constant(x, self.order)

    # -- ring operations ----------------------------------------------------
    #
    # _other gives the coefficients of a jet operand of the same kind and
    # order, NotImplemented for a jet of the other kind, and None for a
    # plain number.

    def _other(self, other):
        if isinstance(other, _Jet):
            if other.__class__ is not self.__class__:
                return NotImplemented
            if other.order != self.order:
                raise OrderMismatch(
                    f"jet orders differ: {self.order} vs {other.order}")
            return other.coeffs
        return None

    def __add__(self, other):
        a = self.coeffs
        b = self._other(other)
        if b is None:
            return self._like((a[0] + float(other),) + a[1:])
        if b is NotImplemented:
            return NotImplemented
        return self._like(tuple([x + y for x, y in zip(a, b)]))

    __radd__ = __add__

    def __neg__(self):
        return self._like(tuple([-x for x in self.coeffs]))

    def __sub__(self, other):
        a = self.coeffs
        b = self._other(other)
        if b is None:
            return self._like((a[0] - float(other),) + a[1:])
        if b is NotImplemented:
            return NotImplemented
        return self._like(tuple([x - y for x, y in zip(a, b)]))

    def __rsub__(self, other):
        a = self.coeffs
        return self._like((float(other) - a[0],) + tuple([-x for x in a[1:]]))

    def __mul__(self, other):
        a = self.coeffs
        b = self._other(other)
        if b is None:
            s = float(other)
            return self._like(tuple([x * s for x in a]))
        if b is NotImplemented:
            return NotImplemented
        return self._like(_leibniz(self._MUL[self.order], a, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._other(other)
        if b is None:
            other = float(other)
            if other == 0.0:
                raise DomainError("jet division by zero value")
        elif b is NotImplemented:
            return NotImplemented
        return self._quotient(other)

    def __pow__(self, exponent):
        if isinstance(exponent, int) or (
                isinstance(exponent, float) and exponent.is_integer()):
            return self.pow_int(int(exponent))
        return (self.log() * exponent).exp()

    def pow_int(self, n):
        if n == 0:
            return self.constant(1.0, self.order)
        if n < 0:
            return power_int(self, -n)._reciprocal()
        return power_int(self, n)

    def abs(self):
        if self.value > 0.0:
            return self
        if self.value < 0.0:
            return -self
        raise DomainError("abs is not differentiable at zero")

    __abs__ = abs


class Jet1(_Jet):
    """Univariate jet: raw derivatives (f, f', ..., f^(N)) at a point."""

    __slots__ = ()
    _MUL = _MUL1

    def __init__(self, coeffs):
        coeffs = tuple(float(c) for c in coeffs)
        if not 1 <= len(coeffs) - 1 <= MAX_ORDER_1:
            raise UnsupportedOrder(
                f"Jet1 supports orders 1..{MAX_ORDER_1}, got {len(coeffs) - 1}")
        self.order = len(coeffs) - 1
        self.coeffs = coeffs

    @classmethod
    def seed(cls, value, order):
        """The identity function t at t = value."""
        _check_order(order, MAX_ORDER_1, "Jet1")
        return Jet1._make(order, (float(value), 1.0) + (0.0,) * (order - 1))

    @classmethod
    def constant(cls, value, order):
        _check_order(order, MAX_ORDER_1, "Jet1")
        return Jet1._make(order, (float(value),) + (0.0,) * order)

    def derivative(self):
        """The jet of f', one order lower."""
        if self.order < 2:
            raise OrderMismatch("cannot differentiate an order-1 jet")
        return Jet1._make(self.order - 1, self.coeffs[1:])

    def truncated(self, order):
        if not isinstance(order, int) or order < 1:
            raise UnsupportedOrder(f"cannot truncate a jet to order {order!r}")
        if order > self.order:
            raise OrderMismatch(
                f"cannot extend a jet of order {self.order} to {order}")
        return Jet1._make(order, self.coeffs[:order + 1])

    def __repr__(self):
        return f"Jet1({list(self.coeffs)!r})"

    # -- quotient kernel: Leibniz's rule solved for the quotient ------------

    def _quotient(self, other):
        if isinstance(other, float):
            return self._like(tuple([x / other for x in self.coeffs]))
        return self._like(_divide1(self.coeffs, other.coeffs))

    def __rtruediv__(self, other):
        numerator = (float(other),) + (0.0,) * self.order
        return self._like(_divide1(numerator, self.coeffs))

    def _reciprocal(self):
        return self.__rtruediv__(1.0)

    # -- elementary functions (normalized Taylor recurrences) ---------------

    def _taylor(self):
        return [c / _FACT[k] for k, c in enumerate(self.coeffs)]

    def _from_taylor(self, tay):
        return self._like(tuple([c * _FACT[k] for k, c in enumerate(tay)]))

    def _pair(self, name, sign):
        """(phi(f), phi'(f)) where phi'' = sign * phi: (sin, cos) for sign
        -1, (sinh, cosh) for sign +1, by the coupled recurrence."""
        u = self._taylor()
        n = self.order
        s = [0.0] * (n + 1)
        c = [0.0] * (n + 1)
        s[0], c[0] = _phi(name, u[0])[:2]
        fsum = math.fsum
        for k in range(1, n + 1):
            s[k] = fsum([j * u[j] * c[k - j] for j in range(1, k + 1)]) / k
            c[k] = sign * fsum([j * u[j] * s[k - j]
                                for j in range(1, k + 1)]) / k
        return self._from_taylor(s), self._from_taylor(c)

    def sin(self):
        return self._pair("sin", -1.0)[0]

    def cos(self):
        return self._pair("sin", -1.0)[1]

    def tan(self):
        s, c = self._pair("sin", -1.0)
        if c.value == 0.0:
            raise DomainError("tan at a pole")
        return s / c

    def sinh(self):
        return self._pair("sinh", 1.0)[0]

    def cosh(self):
        return self._pair("sinh", 1.0)[1]

    def tanh(self):
        # t' = w u' with w = 1 - t^2; w's value sech^2 never overflows
        u = self._taylor()
        n = self.order
        t = [0.0] * (n + 1)
        w = [0.0] * (n + 1)
        t[0], w[0] = _phi("tanh", u[0])[:2]
        fsum = math.fsum
        for k in range(1, n + 1):
            t[k] = fsum([j * u[j] * w[k - j] for j in range(1, k + 1)]) / k
            w[k] = -fsum([t[i] * t[k - i] for i in range(k + 1)])
        return self._from_taylor(t)

    def _series(self, name, step):
        """phi(f), for ``name`` in _PHI, from the recurrence v[0] = phi(u[0]),
        v[k] = step(u, v, k) on normalized Taylor coefficients."""
        u = self._taylor()
        v = [_phi(name, u[0])[0]]
        for k in range(1, self.order + 1):
            v.append(step(u, v, k))
        return self._from_taylor(v)

    def exp(self):
        # v' = v u'
        return self._series("exp", lambda u, v, k: math.fsum(
            [j * u[j] * v[k - j] for j in range(1, k + 1)]) / k)

    def log(self):
        # u v' = u'
        return self._series("log", lambda u, v, k: (u[k] - math.fsum(
            [j * v[j] * u[k - j] for j in range(1, k)]) / k) / u[0])

    def sqrt(self):
        # v^2 = u
        return self._series("sqrt", lambda u, v, k: (u[k] - math.fsum(
            [v[j] * v[k - j] for j in range(1, k)])) / (2.0 * v[0]))


def _divide1(a, b):
    """Raw derivatives of a / b, solving Leibniz's rule for them in turn."""
    if b[0] == 0.0:
        raise DomainError("jet division by zero value")
    c = []
    for k, terms in enumerate(_MUL1[len(a) - 1]):
        acc = a[k]
        # the last term, (1, k, 0), is the unknown c[k] * b[0]
        for w, i, j in terms[:-1]:
            acc -= w * c[i] * b[j]
        c.append(acc / b[0])
    return tuple(c)


class Jet2(_Jet):
    """Bivariate jet: raw partials d^{i+j}f/du^i dv^j for i+j <= N."""

    __slots__ = ()
    _MUL = _MUL2

    def __init__(self, order, coeffs):
        _check_order(order, MAX_ORDER_2, "Jet2")
        coeffs = tuple(float(c) for c in coeffs)
        if len(coeffs) != len(_IDX2[order]):
            raise UnsupportedOrder(
                f"Jet2 of order {order} needs {len(_IDX2[order])} coefficients")
        self.order = order
        self.coeffs = coeffs

    @staticmethod
    def _seed(value, order, ij):
        _check_order(order, MAX_ORDER_2, "Jet2")
        coeffs = [0.0] * len(_IDX2[order])
        coeffs[0] = float(value)
        coeffs[_POS2[order][ij]] = 1.0
        return Jet2._make(order, tuple(coeffs))

    @classmethod
    def seed_u(cls, value, order):
        return Jet2._seed(value, order, (1, 0))

    @classmethod
    def seed_v(cls, value, order):
        return Jet2._seed(value, order, (0, 1))

    @classmethod
    def constant(cls, value, order):
        _check_order(order, MAX_ORDER_2, "Jet2")
        return Jet2._make(order,
                          (float(value),) + (0.0,) * (len(_IDX2[order]) - 1))

    def partial(self, i, j):
        """Raw partial derivative d^{i+j}f/du^i dv^j."""
        try:
            return self.coeffs[_POS2[self.order][(i, j)]]
        except KeyError:
            raise OrderMismatch(
                f"partial ({i},{j}) exceeds jet order {self.order}") from None

    def __repr__(self):
        return f"Jet2(order={self.order}, {list(self.coeffs)!r})"

    # -- quotient kernel: a product with the reciprocal ---------------------

    def _quotient(self, other):
        if isinstance(other, float):
            return self * (1.0 / other)
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        return self._apply("reciprocal")

    # -- elementary functions by the order-3 chain rule ---------------------

    def _apply(self, name):
        """phi(f) for the function ``name`` of the _PHI table."""
        f = self.coeffs
        p0, p1, p2, p3 = _phi(name, f[0])
        fu, fv = f[1], f[2]
        if self.order == 1:
            return self._like((p0, p1 * fu, p1 * fv))
        fuu, fuv, fvv = f[3], f[4], f[5]
        g = (p0, p1 * fu, p1 * fv,
             p2 * fu * fu + p1 * fuu,
             p2 * fu * fv + p1 * fuv,
             p2 * fv * fv + p1 * fvv)
        if self.order == 2:
            return self._like(g)
        return self._like(g + (
            p3 * fu * fu * fu + 3.0 * p2 * fu * fuu + p1 * f[6],
            p3 * fu * fu * fv + p2 * (2.0 * fu * fuv + fuu * fv) + p1 * f[7],
            p3 * fu * fv * fv + p2 * (2.0 * fv * fuv + fu * fvv) + p1 * f[8],
            p3 * fv * fv * fv + 3.0 * p2 * fv * fvv + p1 * f[9]))

    def sin(self):
        return self._apply("sin")

    def cos(self):
        return self._apply("cos")

    def tan(self):
        return self._apply("tan")

    def sinh(self):
        return self._apply("sinh")

    def cosh(self):
        return self._apply("cosh")

    def tanh(self):
        return self._apply("tanh")

    def exp(self):
        return self._apply("exp")

    def log(self):
        return self._apply("log")

    def sqrt(self):
        return self._apply("sqrt")


# ---------------------------------------------------------------------------
# composition and small vector helpers

def compose_curve_in_surface(surface_jets, u_jet, v_jet, order=None):
    """Jets of a(t) = X(u(t), v(t)) from Jet2 components of X and Jet1
    components of u, v, by the chain rule up to order 3:

        a'   = X_u u' + X_v v'
        a''  = X_uu u'^2 + 2 X_uv u'v' + X_vv v'^2 + X_u u'' + X_v v''
        a''' = X_uuu u'^3 + 3 X_uuv u'^2 v' + 3 X_uvv u'v'^2 + X_vvv v'^3
               + 3 (X_uu u'u'' + X_uv (u'v'' + u''v') + X_vv v'v'')
               + X_u u''' + X_v v'''

    ``surface_jets`` is a 3-tuple of Jet2 expanded at (u_jet.value,
    v_jet.value).  The output order defaults to the largest the inputs
    support (at most MAX_ORDER_2 = 3); requesting more raises
    OrderMismatch.
    """
    available = min(min(c.order for c in surface_jets),
                    u_jet.order, v_jet.order)
    if order is None:
        order = available
    elif order > available:
        raise OrderMismatch(
            f"requested order {order} exceeds available input order {available}")

    pad = (0.0,) * (3 - order)
    u1, u2, u3 = u_jet.coeffs[1:order + 1] + pad
    v1, v2, v3 = v_jet.coeffs[1:order + 1] + pad
    uu, uv, vv = u1 * u1, u1 * v1, v1 * v1
    out = []
    for comp in surface_jets:
        # graded layout: X, X_u, X_v, X_uu, X_uv, X_vv, X_uuu, X_uuv, ...
        x = comp.coeffs
        d = [x[0], x[1] * u1 + x[2] * v1]
        if order >= 2:
            d.append(x[3] * uu + 2.0 * x[4] * uv + x[5] * vv
                     + x[1] * u2 + x[2] * v2)
        if order >= 3:
            d.append(x[6] * uu * u1 + 3.0 * x[7] * uu * v1
                     + 3.0 * x[8] * u1 * vv + x[9] * vv * v1
                     + 3.0 * (x[3] * u1 * u2 + x[4] * (u1 * v2 + u2 * v1)
                              + x[5] * v1 * v2)
                     + x[1] * u3 + x[2] * v3)
        out.append(Jet1._make(order, tuple(d)))
    return tuple(out)


def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def det3(a, b, c):
    """Determinant of the 3x3 matrix with columns a, b, c."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))
