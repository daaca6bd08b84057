"""Truncated derivative ("jet") arithmetic.

A :class:`Jet1` holds a value together with raw derivatives d^k/dt^k up to a
fixed order; a :class:`Jet2` holds raw partial derivatives d^{i+j}/du^i dv^j
for i+j up to a fixed total order.  Both stop at order 3, all that the two
arc lengths and the invariants of curves in surfaces need.  Arithmetic
propagates exact derivatives, so evaluating a parsed expression over a seed
jet yields the true derivatives of that expression up to floating-point
rounding.

Raw derivatives (not Taylor coefficients) are stored, because the geometry
layers consume a', a'', a''' directly.

The two kinds are one ring over two coefficient layouts, written once in
their base class ``_Jet``: the operand check (a jet of the same kind and
order; NotImplemented for the other kind; a fast path for a plain number),
+ - * and their reflected forms, negation, / by a number or a jet, integer
and real powers, abs, the elementary functions, ``value``,
``is_constant`` and ``lift`` (a number as a constant jet like the seed).
Results built here skip validation (``_make``, ``_like``); the public
``Jet1(coeffs)`` and ``Jet2(order, coeffs)`` validate.  Each kind adds
what its layout decides: its constructor, seeds and ``constant``; Jet2's
``partial``; its product kernels (``_PRODUCT``); and its chain rule
(``_apply``), which the elementary functions call.  Both kinds divide the
same way: a quotient is a product with the reciprocal, of a jet (the
chain rule of 1/x) or of a plain divisor.

A product is one straight-line function per kind and order, generated at
import from the Leibniz tables ``_MUL1`` and ``_MUL2`` (per order and
output coefficient, the (binomial weight, index into a, index into b)
terms): each coefficient is 0.0 plus its terms in table order, the same
float operations in the same order as a loop over the table.

A Jet2 function g = phi(f) is the bivariate chain rule on the graded
partials, written out to order 3:

    g_u   = phi' f_u
    g_uv  = phi'' f_u f_v + phi' f_uv
    g_uuv = phi''' f_u^2 f_v + phi'' (2 f_u f_uv + f_uu f_v) + phi' f_uuv

and so on.  A Jet1 function is the same rule in one variable,
g''' = phi''' f'^3 + 3 phi'' f' f'' + phi' f'''.  phi and its first three
derivatives at f's value come from one closed-form table per function
(``_PHI``), which reports a math overflow or domain error as DomainError.

:func:`float_node` gives the derivatives of a(t) = X(u(t), v(t)) up to
order 3 by the chain rule, term by term on the surface's coefficient rows,
and the partials that the affine form's arithmetic (:func:`lmn_terms`)
reads; :func:`compose_curve_in_surface` gives the derivatives as Jet1s.

Every "is this zero?" of the package is one rule, which no diagonal SL(3)
map or uniform scale moves: a value summed from products is zero when
|value| <= ZERO_RTOL times the products' magnitudes summed (Higham 2002).
"""

from __future__ import annotations

import math
import types

from .errors import DomainError, OrderMismatch, UnsupportedOrder

__all__ = ["Jet1", "Jet2", "compose_curve_in_surface", "float_node",
           "lmn_terms", "power_int", "dot3", "cross3", "det3", "det3_terms",
           "ZERO_RTOL", "cross3_terms", "cross3_is_zero", "MAX_ORDER_1",
           "MAX_ORDER_2"]

MAX_ORDER_1 = 3
MAX_ORDER_2 = 3
#: |value| <= ZERO_RTOL * (the magnitudes of its terms summed) is zero
ZERO_RTOL = 1e-12

_BINOM = tuple(tuple(math.comb(k, j) for j in range(k + 1))
               for k in range(MAX_ORDER_1 + 1))

# Jet2 coefficient layout: graded order, u-degree descending within a grade.
_IDX2 = {
    n: tuple((i, d - i) for d in range(n + 1) for i in range(d, -1, -1))
    for n in range(MAX_ORDER_2 + 1)
}
_POS2 = {n: {ij: k for k, ij in enumerate(_IDX2[n])} for n in _IDX2}
# per order, the coefficients after the value of the seeds u and v
_SEED_TAILS = {
    n: tuple(tuple(float(ij == unit) for ij in _IDX2[n][1:])
             for unit in ((1, 0), (0, 1)))
    for n in range(1, MAX_ORDER_2 + 1)
}

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


def _unrolled(table):
    """The product kernel of one _MUL1 or _MUL2 table, as straight-line
    code: f(a, b) is the tuple of product coefficients.  Each coefficient
    is 0.0 plus its terms w * a[i] * b[j] in table order, left to right,
    which is what summing the table in a loop computes: the leading 0.0
    makes a sum of -0.0 terms +0.0, as the loop's accumulator did, and a
    weight of 1 is left out, since 1.0 * x is x."""
    sums = []
    for terms in table:
        sums.append(" + ".join(["0.0"] + [
            f"a{i} * b{j}" if w == 1 else f"{float(w)!r} * a{i} * b{j}"
            for w, i, j in terms]))
    a = ", ".join(f"a{k}" for k in range(len(table)))
    b = ", ".join(f"b{k}" for k in range(len(table)))
    namespace = {}
    exec(f"def product(a, b):\n"
         f"    {a} = a\n"
         f"    {b} = b\n"
         f"    return ({', '.join(sums)},)\n", namespace)
    return namespace["product"]


# per kind, the product kernel of each order, indexed by order
_PRODUCT1 = (None,) + tuple(_unrolled(_MUL1[n])
                            for n in range(1, MAX_ORDER_1 + 1))
_PRODUCT2 = (None,) + tuple(_unrolled(_MUL2[n])
                            for n in range(1, MAX_ORDER_2 + 1))


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
    """The ring Jet1 and Jet2 share.  A subclass provides ``_PRODUCT``, its
    product kernels indexed by order; ``constant``; and ``_apply``, the
    chain rule under the elementary functions, the reciprocal among them,
    that ``/``, ``**`` and ``eval_ast`` call."""

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
        return self._like(self._PRODUCT[self.order](a, b))

    __rmul__ = __mul__

    # a quotient is a product with the reciprocal, of a jet (the chain
    # rule of 1/x) or of a plain divisor

    def __truediv__(self, other):
        b = self._other(other)
        if b is None:
            other = float(other)
            if other == 0.0:
                raise DomainError("jet division by zero value")
            return self * (1.0 / other)
        if b is NotImplemented:
            return NotImplemented
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        return self._apply("reciprocal")

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

    # -- elementary functions: each kind's order-3 chain rule ---------------

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


class Jet1(_Jet):
    """Univariate jet: raw derivatives (f, f', ..., f^(N)) at a point."""

    __slots__ = ()
    _PRODUCT = _PRODUCT1

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
        return cls._make(order, (float(value),) + (0.0,) * order)

    def __repr__(self):
        return f"Jet1({list(self.coeffs)!r})"

    # -- chain rule --------------------------------------------------------

    def _apply(self, name):
        """phi(f) for the function ``name`` of the _PHI table: Jet2._apply's
        chain rule in one variable."""
        f = self.coeffs
        p0, p1, p2, p3 = _phi(name, f[0])
        f1 = f[1]
        if self.order == 1:
            return self._like((p0, p1 * f1))
        f2 = f[2]
        g = (p0, p1 * f1, p2 * f1 * f1 + p1 * f2)
        if self.order == 2:
            return self._like(g)
        return self._like(g + (
            p3 * f1 * f1 * f1 + 3.0 * p2 * f1 * f2 + p1 * f[3],))


class Jet2(_Jet):
    """Bivariate jet: raw partials d^{i+j}f/du^i dv^j for i+j <= N."""

    __slots__ = ()
    _PRODUCT = _PRODUCT2

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
        return Jet2._make(order, (float(value),) + _SEED_TAILS[order][0])

    @classmethod
    def seed_v(cls, value, order):
        _check_order(order, MAX_ORDER_2, "Jet2")
        return Jet2._make(order, (float(value),) + _SEED_TAILS[order][1])

    @classmethod
    def constant(cls, value, order):
        _check_order(order, MAX_ORDER_2, "Jet2")
        return cls._make(order,
                         (float(value),) + (0.0,) * (len(_IDX2[order]) - 1))

    def __repr__(self):
        return f"Jet2(order={self.order}, {list(self.coeffs)!r})"

    # -- chain rule --------------------------------------------------------

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


# ---------------------------------------------------------------------------
# composition and small vector helpers

def float_node(rows, u1, u2, u3, v1, v2, v3):
    """((a', a'', a'''), partials) of a(t) = X(u(t), v(t)), floats: the
    columns, each a 3-tuple, by the chain rule up to order 3,

        a'   = X_u u' + X_v v'
        a''  = X_uu u'^2 + 2 X_uv u'v' + X_vv v'^2 + X_u u'' + X_v v''
        a''' = X_uuu u'^3 + 3 X_uuv u'^2 v' + 3 X_uvv u'v'^2 + X_vvv v'^3
               + 3 (X_uu u'u'' + X_uv (u'v'' + u''v') + X_vv v'v'')
               + X_u u''' + X_v v''',

    from the order-3 coefficient rows of X's components (the graded
    layout of Jet2) and the derivatives of u and v; ``partials``, the
    fifteen first and second partials, are lmn_terms' arguments.  The one
    chain rule of a curve in a surface.  No column reads a derivative
    past its order: zeros may stand in."""
    ((_, xu, xv, xuu, xuv, xvv, xuuu, xuuv, xuvv, xvvv),
     (_, yu, yv, yuu, yuv, yvv, yuuu, yuuv, yuvv, yvvv),
     (_, zu, zv, zuu, zuv, zvv, zuuu, zuuv, zuvv, zvvv)) = rows
    uu, uv, vv = u1 * u1, u1 * v1, v1 * v1
    mixed = u1 * v2 + u2 * v1
    return (((xu * u1 + xv * v1, yu * u1 + yv * v1, zu * u1 + zv * v1),
             (xuu * uu + 2.0 * xuv * uv + xvv * vv + xu * u2 + xv * v2,
              yuu * uu + 2.0 * yuv * uv + yvv * vv + yu * u2 + yv * v2,
              zuu * uu + 2.0 * zuv * uv + zvv * vv + zu * u2 + zv * v2),
             (xuuu * uu * u1 + 3.0 * xuuv * uu * v1 + 3.0 * xuvv * u1 * vv
              + xvvv * vv * v1
              + 3.0 * (xuu * u1 * u2 + xuv * mixed + xvv * v1 * v2)
              + xu * u3 + xv * v3,
              yuuu * uu * u1 + 3.0 * yuuv * uu * v1 + 3.0 * yuvv * u1 * vv
              + yvvv * vv * v1
              + 3.0 * (yuu * u1 * u2 + yuv * mixed + yvv * v1 * v2)
              + yu * u3 + yv * v3,
              zuuu * uu * u1 + 3.0 * zuuv * uu * v1 + 3.0 * zuvv * u1 * vv
              + zvvv * vv * v1
              + 3.0 * (zuu * u1 * u2 + zuv * mixed + zvv * v1 * v2)
              + zu * u3 + zv * v3)),
            (xu, yu, zu, xv, yv, zv, xuu, yuu, zuu, xuv, yuv, zuv,
             xvv, yvv, zvv))


def lmn_terms(xu, yu, zu, xv, yv, zv, xuu, yuu, zuu, xuv, yuv, zuv,
              xvv, yvv, zvv):
    """(l, m, n, ln - m^2, terms) from the first and second partials as
    fifteen floats: l = det[X_u, X_v, X_uu], m and n alike with X_uv and
    X_vv, as det3 computes them, and the magnitudes ln - m^2 is summed
    from, T(l)|n| + |l|T(n) + 2T(m)|m|, T the det3_terms over X_u x X_v's
    cross3_terms.  The one copy of the form's arithmetic."""
    t0 = abs(yu * zv) + abs(zu * yv)
    t1 = abs(zu * xv) + abs(xu * zv)
    t2 = abs(xu * yv) + abs(yu * xv)
    l = (xu * (yv * zuu - zv * yuu) - yu * (xv * zuu - zv * xuu)
         + zu * (xv * yuu - yv * xuu))
    m = (xu * (yv * zuv - zv * yuv) - yu * (xv * zuv - zv * xuv)
         + zu * (xv * yuv - yv * xuv))
    n = (xu * (yv * zvv - zv * yvv) - yu * (xv * zvv - zv * xvv)
         + zu * (xv * yvv - yv * xvv))
    return l, m, n, l * n - m * m, (
        (abs(xuu) * t0 + abs(yuu) * t1 + abs(zuu) * t2) * abs(n)
        + abs(l) * (abs(xvv) * t0 + abs(yvv) * t1 + abs(zvv) * t2)
        + 2.0 * (abs(xuv) * t0 + abs(yuv) * t1 + abs(zuv) * t2) * abs(m))


def compose_curve_in_surface(surface_jets, u_jet, v_jet, order=None):
    """Jets of a(t) = X(u(t), v(t)) from Jet2 components of X and Jet1
    components of u, v: each component's value X(u, v) followed by its
    entries of the columns of float_node.

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
    rows = [c.coeffs + (0.0,) * (10 - len(c.coeffs)) for c in surface_jets]
    columns = float_node(rows, u1, u2, u3, v1, v2, v3)[0][:order]
    return tuple([Jet1._make(order, (comp.coeffs[0],) + d)
                  for comp, d in zip(surface_jets, zip(*columns))])


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


def cross3_terms(a, b):
    """Per component of cross3(a, b), the magnitudes of its two products
    summed."""
    return (abs(a[1] * b[2]) + abs(a[2] * b[1]),
            abs(a[2] * b[0]) + abs(a[0] * b[2]),
            abs(a[0] * b[1]) + abs(a[1] * b[0]))


def det3_terms(ab_terms, c):
    """The magnitudes of the six products of det3(a, b, c) summed, from
    ab_terms = cross3_terms(a, b), since det[a, b, c] = c . (a x b)."""
    t0, t1, t2 = ab_terms
    return abs(c[0]) * t0 + abs(c[1]) * t1 + abs(c[2]) * t2


def cross3_is_zero(cross, terms):
    """Whether every component of a cross product is zero against its
    cross3_terms."""
    return (abs(cross[0]) <= ZERO_RTOL * terms[0]
            and abs(cross[1]) <= ZERO_RTOL * terms[1]
            and abs(cross[2]) <= ZERO_RTOL * terms[2])
