"""Truncated derivative ("jet") arithmetic.

A :class:`Jet1` holds a value together with raw derivatives d^k/dt^k up to a
fixed order (at most 6); a :class:`Jet2` holds raw partial derivatives
d^{i+j}/du^i dv^j for i+j up to a fixed total order (at most 3, all that the
invariants of curves in surfaces need).  Arithmetic propagates exact
derivatives: Leibniz for products, triangular recurrences for quotients and
the elementary functions, so evaluating a parsed expression over a seed jet
yields the true derivatives of that expression up to floating-point
rounding.

Raw derivatives (not Taylor coefficients) are stored, because the geometry
layers consume a', a'', a''' directly.  Internally the elementary-function
kernels convert to normalized Taylor coefficients, apply the classical
power-series recurrences, and convert back.

:func:`compose_curve_in_surface` gives the derivatives of a(t) =
X(u(t), v(t)) up to order 3 by the chain rule, written out term by term on
floats.
"""

from __future__ import annotations

import math

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


class Jet1:
    """Univariate jet: raw derivatives (f, f', ..., f^(N)) at a point."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(float(c) for c in coeffs)
        if not 1 <= len(coeffs) - 1 <= MAX_ORDER_1:
            raise UnsupportedOrder(
                f"Jet1 supports orders 1..{MAX_ORDER_1}, got {len(coeffs) - 1}")
        self.coeffs = coeffs

    @classmethod
    def seed(cls, value, order):
        """The identity function t at t = value."""
        _check_order(order, MAX_ORDER_1, "Jet1")
        return cls((float(value), 1.0) + (0.0,) * (order - 1))

    @classmethod
    def constant(cls, value, order):
        _check_order(order, MAX_ORDER_1, "Jet1")
        return cls((float(value),) + (0.0,) * order)

    @property
    def order(self):
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def is_constant(self):
        return all(c == 0.0 for c in self.coeffs[1:])

    def derivative(self):
        """The jet of f', one order lower."""
        if self.order < 2:
            raise OrderMismatch("cannot differentiate an order-1 jet")
        return Jet1(self.coeffs[1:])

    def truncated(self, order):
        if order > self.order:
            raise OrderMismatch(
                f"cannot extend a jet of order {self.order} to {order}")
        return Jet1(self.coeffs[:order + 1])

    def __repr__(self):
        return f"Jet1({list(self.coeffs)!r})"

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet1):
            if other.order != self.order:
                raise OrderMismatch(
                    f"jet orders differ: {self.order} vs {other.order}")
            return other
        if isinstance(other, Jet2):
            return NotImplemented
        return Jet1.constant(float(other), self.order)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet1(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Jet1(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet1(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(len(a)):
            binom = _BINOM[k]
            out.append(math.fsum(binom[j] * a[j] * b[k - j] for j in range(k + 1)))
        return Jet1(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if b[0] == 0.0:
            raise DomainError("jet division by zero value")
        c = [0.0] * len(a)
        for k in range(len(a)):
            binom = _BINOM[k]
            acc = a[k] - math.fsum(binom[j] * c[j] * b[k - j] for j in range(k))
            c[k] = acc / b[0]
        return Jet1(tuple(c))

    def __rtruediv__(self, other):
        return Jet1.constant(float(other), self.order) / self

    def __pow__(self, exponent):
        if isinstance(exponent, int) or (
                isinstance(exponent, float) and exponent.is_integer()):
            return self.pow_int(int(exponent))
        return (self.log() * exponent).exp()

    def pow_int(self, n):
        if n == 0:
            return Jet1.constant(1.0, self.order)
        if n < 0:
            return Jet1.constant(1.0, self.order) / power_int(self, -n)
        return power_int(self, n)

    # -- elementary functions (normalized Taylor recurrences) ---------------

    def _taylor(self):
        return [c / _FACT[k] for k, c in enumerate(self.coeffs)]

    @staticmethod
    def _from_taylor(tay):
        return Jet1(tuple(c * _FACT[k] for k, c in enumerate(tay)))

    def _sin_cos(self):
        u = self._taylor()
        n = self.order
        s = [0.0] * (n + 1)
        c = [0.0] * (n + 1)
        s[0] = math.sin(u[0])
        c[0] = math.cos(u[0])
        for k in range(1, n + 1):
            s[k] = math.fsum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k
            c[k] = -math.fsum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k
        return Jet1._from_taylor(s), Jet1._from_taylor(c)

    def sin(self):
        return self._sin_cos()[0]

    def cos(self):
        return self._sin_cos()[1]

    def tan(self):
        s, c = self._sin_cos()
        if c.value == 0.0:
            raise DomainError("tan at a pole")
        return s / c

    def _sinh_cosh(self):
        u = self._taylor()
        n = self.order
        s = [0.0] * (n + 1)
        c = [0.0] * (n + 1)
        s[0] = math.sinh(u[0])
        c[0] = math.cosh(u[0])
        for k in range(1, n + 1):
            s[k] = math.fsum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k
            c[k] = math.fsum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k
        return Jet1._from_taylor(s), Jet1._from_taylor(c)

    def sinh(self):
        return self._sinh_cosh()[0]

    def cosh(self):
        return self._sinh_cosh()[1]

    def tanh(self):
        s, c = self._sinh_cosh()
        return s / c

    def exp(self):
        u = self._taylor()
        n = self.order
        v = [0.0] * (n + 1)
        v[0] = math.exp(u[0])
        for k in range(1, n + 1):
            v[k] = math.fsum(j * u[j] * v[k - j] for j in range(1, k + 1)) / k
        return Jet1._from_taylor(v)

    def log(self):
        u = self._taylor()
        if u[0] <= 0.0:
            raise DomainError("log of a nonpositive jet value")
        n = self.order
        v = [0.0] * (n + 1)
        v[0] = math.log(u[0])
        for k in range(1, n + 1):
            conv = math.fsum(j * v[j] * u[k - j] for j in range(1, k))
            v[k] = (u[k] - conv / k) / u[0]
        return Jet1._from_taylor(v)

    def sqrt(self):
        u = self._taylor()
        if u[0] <= 0.0:
            raise DomainError("sqrt of a nonpositive jet value")
        n = self.order
        v = [0.0] * (n + 1)
        v[0] = math.sqrt(u[0])
        for k in range(1, n + 1):
            conv = math.fsum(v[j] * v[k - j] for j in range(1, k))
            v[k] = (u[k] - conv) / (2.0 * v[0])
        return Jet1._from_taylor(v)

    def abs(self):
        if self.value > 0.0:
            return self
        if self.value < 0.0:
            return -self
        raise DomainError("abs is not differentiable at zero")

    __abs__ = abs


class Jet2:
    """Bivariate jet: raw partials d^{i+j}f/du^i dv^j for i+j <= N."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        _check_order(order, MAX_ORDER_2, "Jet2")
        coeffs = tuple(float(c) for c in coeffs)
        if len(coeffs) != len(_IDX2[order]):
            raise UnsupportedOrder(
                f"Jet2 of order {order} needs {len(_IDX2[order])} coefficients")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def seed_u(cls, value, order):
        _check_order(order, MAX_ORDER_2, "Jet2")
        coeffs = [0.0] * len(_IDX2[order])
        coeffs[0] = float(value)
        coeffs[_POS2[order][(1, 0)]] = 1.0
        return cls(order, coeffs)

    @classmethod
    def seed_v(cls, value, order):
        _check_order(order, MAX_ORDER_2, "Jet2")
        coeffs = [0.0] * len(_IDX2[order])
        coeffs[0] = float(value)
        coeffs[_POS2[order][(0, 1)]] = 1.0
        return cls(order, coeffs)

    @classmethod
    def constant(cls, value, order):
        _check_order(order, MAX_ORDER_2, "Jet2")
        return cls(order, (float(value),) + (0.0,) * (len(_IDX2[order]) - 1))

    @property
    def value(self):
        return self.coeffs[0]

    def partial(self, i, j):
        """Raw partial derivative d^{i+j}f/du^i dv^j."""
        try:
            return self.coeffs[_POS2[self.order][(i, j)]]
        except KeyError:
            raise OrderMismatch(
                f"partial ({i},{j}) exceeds jet order {self.order}") from None

    def is_constant(self):
        return all(c == 0.0 for c in self.coeffs[1:])

    def __repr__(self):
        return f"Jet2(order={self.order}, {list(self.coeffs)!r})"

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet2):
            if other.order != self.order:
                raise OrderMismatch(
                    f"jet orders differ: {self.order} vs {other.order}")
            return other
        if isinstance(other, Jet1):
            return NotImplemented
        return Jet2.constant(float(other), self.order)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet2(self.order,
                    tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet2(self.order,
                    tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.order
        idx = _IDX2[n]
        pos = _POS2[n]
        a, b = self.coeffs, other.coeffs
        out = []
        for (i, j) in idx:
            bi, bj = _BINOM[i], _BINOM[j]
            acc = 0.0
            for p in range(i + 1):
                for q in range(j + 1):
                    acc += (bi[p] * bj[q]
                            * a[pos[(p, q)]] * b[pos[(i - p, j - q)]])
            out.append(acc)
        return Jet2(n, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0.0:
            raise DomainError("jet division by zero value")
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        if self.value == 0.0:
            raise DomainError("jet division by zero value")
        return self._reciprocal() * other

    def __pow__(self, exponent):
        if isinstance(exponent, int) or (
                isinstance(exponent, float) and exponent.is_integer()):
            return self.pow_int(int(exponent))
        return (self.log() * exponent).exp()

    def pow_int(self, n):
        if n == 0:
            return Jet2.constant(1.0, self.order)
        if n < 0:
            return power_int(self, -n)._reciprocal()
        return power_int(self, n)

    # -- elementary functions via univariate composition --------------------
    #
    # For g = phi(f): expand phi as a Taylor polynomial at f's value (its
    # derivatives supplied by the Jet1 kernels) and evaluate it by Horner
    # in the Jet2 algebra on w = f - f(0,0).  w has no constant term, so
    # truncation at the jet order is exact.

    def _apply_univariate(self, scalar_func):
        n = self.order
        derivs = scalar_func(Jet1.seed(self.value, max(n, 1))).coeffs
        taylor = [derivs[k] / _FACT[k] for k in range(n + 1)]
        w = Jet2(n, (0.0,) + self.coeffs[1:])
        result = Jet2.constant(taylor[n], n)
        for k in range(n - 1, -1, -1):
            result = result * w + taylor[k]
        return result

    def _reciprocal(self):
        if self.value == 0.0:
            raise DomainError("jet division by zero value")
        return self._apply_univariate(lambda j: 1.0 / j)

    def sin(self):
        return self._apply_univariate(Jet1.sin)

    def cos(self):
        return self._apply_univariate(Jet1.cos)

    def tan(self):
        return self._apply_univariate(Jet1.tan)

    def sinh(self):
        return self._apply_univariate(Jet1.sinh)

    def cosh(self):
        return self._apply_univariate(Jet1.cosh)

    def tanh(self):
        return self._apply_univariate(Jet1.tanh)

    def exp(self):
        return self._apply_univariate(Jet1.exp)

    def log(self):
        if self.value <= 0.0:
            raise DomainError("log of a nonpositive jet value")
        return self._apply_univariate(Jet1.log)

    def sqrt(self):
        if self.value <= 0.0:
            raise DomainError("sqrt of a nonpositive jet value")
        return self._apply_univariate(Jet1.sqrt)

    def abs(self):
        if self.value > 0.0:
            return self
        if self.value < 0.0:
            return -self
        raise DomainError("abs is not differentiable at zero")

    __abs__ = abs


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
        out.append(Jet1(d))
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
