import itertools
import math
import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jet_route import partial
from reference_routes import finite_diff, recorded

from affinemetrics import expr, jets, tape
from affinemetrics.errors import DomainError, OrderMismatch, UnsupportedOrder
from affinemetrics.expr import eval_ast, parse_expression, pretty
from affinemetrics.jets import Jet1, Jet2, compose_curve_in_surface, det3
from affinemetrics.surfgeo import CATALOG, surface_jets


class TestJet1Basics:
    def test_sin_of_seed(self):
        assert Jet1.seed(0.0, 3).sin().coeffs == (0.0, 1.0, 0.0, -1.0)

    def test_cube_of_seed(self):
        assert Jet1.seed(2.0, 3).pow_int(3).coeffs == (8.0, 12.0, 12.0, 6.0)

    def test_exp_of_seed(self):
        e = math.e
        assert Jet1.seed(1.0, 3).exp().coeffs == (e, e, e, e)

    def test_orders_capped_at_three(self):
        with pytest.raises(UnsupportedOrder):
            Jet1.seed(0.0, 4)
        with pytest.raises(UnsupportedOrder):
            Jet1.seed(0.0, 0)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            Jet1.seed(0.0, 3) + Jet1.seed(0.0, 2)

    def test_division_by_zero_value(self):
        with pytest.raises(DomainError):
            Jet1.constant(1.0, 2) / Jet1.seed(0.0, 2)

    def test_log_sqrt_domain(self):
        with pytest.raises(DomainError):
            Jet1.seed(-1.0, 2).log()
        with pytest.raises(DomainError):
            Jet1.seed(-1.0, 2).sqrt()
        with pytest.raises(DomainError):
            Jet1.seed(0.0, 2).abs()

    def test_abs_branches(self):
        j = Jet1.seed(2.0, 2)
        assert j.abs().coeffs == j.coeffs
        assert (-j).abs().coeffs == j.coeffs

    def test_division_inverts_multiplication(self):
        a = Jet1((1.3, -0.2, 4.0, 0.7))
        b = Jet1((2.0, 1.0, -3.0, 0.25))
        back = (a * b) / b
        for got, want in zip(back.coeffs, a.coeffs):
            assert got == pytest.approx(want, rel=1e-14)

    def test_general_power_via_exp_log(self):
        j = Jet1.seed(2.0, 3)
        got = j ** 0.5
        want = j.sqrt()
        for g, w in zip(got.coeffs, want.coeffs):
            assert g == pytest.approx(w, rel=1e-13)


class TestJet2Basics:
    def test_product_of_seeds(self):
        p = Jet2.seed_u(1.0, 2) * Jet2.seed_v(2.0, 2)
        assert p.value == 2.0
        assert partial(p, 1, 0) == 2.0
        assert partial(p, 0, 1) == 1.0
        assert partial(p, 2, 0) == 0.0
        assert partial(p, 1, 1) == 1.0
        assert partial(p, 0, 2) == 0.0

    def test_cos_of_u_seed(self):
        c = Jet2.seed_u(0.0, 2).cos()
        assert c.value == 1.0
        assert partial(c, 1, 0) == 0.0
        assert partial(c, 2, 0) == -1.0
        assert partial(c, 0, 1) == 0.0
        assert partial(c, 1, 1) == 0.0
        assert partial(c, 0, 2) == 0.0

    def test_orders_capped_at_four(self):
        with pytest.raises(UnsupportedOrder):
            Jet2.seed_u(0.0, 5)

    def test_partial_beyond_order(self):
        # an order-2 jet holds no third partial
        assert len(Jet2.seed_u(0.0, 2).coeffs) == 6
        with pytest.raises(KeyError):
            partial(Jet2.seed_u(0.0, 2), 3, 0)

    def test_reciprocal_round_trip(self):
        j = Jet2.seed_u(0.5, 3) + Jet2.seed_v(0.25, 3) * 2.0 + 1.5
        one = j * (1.0 / j)
        assert one.value == pytest.approx(1.0, rel=1e-15)
        for (i, k) in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            assert partial(one, i, k) == pytest.approx(0.0, abs=1e-13)


_POLY_RNG = np.random.default_rng(42)


def _random_poly_source(rng):
    terms = []
    for i in range(4):
        for j in range(4 - i):
            c = float(rng.uniform(-2, 2))
            terms.append(f"({c!r})*u^{i}*v^{j}")
    return " + ".join(terms)


def _fd_partial(scalar, u0, v0, i, j):
    """Mixed-partial oracle by nested central differences.  The higher
    derivative order goes inside (it needs its Richardson step); the outer
    low-order pass uses a wide step so the inner noise is not amplified."""
    if j == 0:
        return finite_diff(lambda u: scalar(u, v0), u0, order=i)
    if i == 0:
        return finite_diff(lambda v: scalar(u0, v), v0, order=j)
    if i >= j:
        def inner(v):
            return finite_diff(lambda u: scalar(u, v), u0, order=i)
        return finite_diff(inner, v0, order=j, step=1e-2)

    def inner(u):
        return finite_diff(lambda v: scalar(u, v), v0, order=j)
    return finite_diff(inner, u0, order=i, step=1e-2)


class TestFiniteDifferenceOracle:
    def test_random_polynomial_partials(self):
        ast = parse_expression(_random_poly_source(_POLY_RNG), {"u", "v"})
        u0, v0 = 0.37, -0.58
        jet = eval_ast(ast, {"u": Jet2.seed_u(u0, 3), "v": Jet2.seed_v(v0, 3)})

        def scalar(u, v):
            return eval_ast(ast, {"u": u, "v": v})

        for i in range(4):
            for j in range(4 - i):
                if i + j == 0:
                    continue
                ref = _fd_partial(scalar, u0, v0, i, j)
                assert partial(jet, i, j) == pytest.approx(ref, rel=1e-6,
                                                          abs=1e-9)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_surface_partials_match_oracle(self, name):
        surface = CATALOG[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        du = surface.u_max - surface.u_min
        dv = surface.v_max - surface.v_min
        for _ in range(3):
            u0 = float(rng.uniform(surface.u_min + 0.1 * du,
                                   surface.u_max - 0.1 * du))
            v0 = float(rng.uniform(surface.v_min + 0.1 * dv,
                                   surface.v_max - 0.1 * dv))
            for comp in surface.components:
                jet = eval_ast(comp, {"u": Jet2.seed_u(u0, 3),
                                      "v": Jet2.seed_v(v0, 3)})
                if not isinstance(jet, Jet2):
                    continue

                def scalar(u, v):
                    return eval_ast(comp, {"u": u, "v": v})

                # third-order stencil roundoff grows like eps |f| / h^3
                # with |f| taken over the stencil, so the absolute floor
                # scales with the component size plus its local variation
                span = (abs(scalar(u0, v0))
                        + 0.05 * (abs(partial(jet, 1, 0))
                                  + abs(partial(jet, 0, 1))))
                floor = 1e-9 + 1e-7 * span
                for i in range(4):
                    for j in range(4 - i):
                        if i + j == 0 or i + j > 3:
                            continue
                        ref = _fd_partial(scalar, u0, v0, i, j)
                        assert partial(jet, i, j) == pytest.approx(
                            ref, rel=1e-6, abs=floor)


class TestCompose:
    def test_monomial_surface_curve(self):
        # X(u,v) = (u, v, uv) along u = t, v = t^2 gives (t, t^2, t^3)
        X = (Jet2.seed_u(1.0, 3), Jet2.seed_v(1.0, 3),
             Jet2.seed_u(1.0, 3) * Jet2.seed_v(1.0, 3))
        u = Jet1.seed(1.0, 3)
        alpha = compose_curve_in_surface(X, u, u * u)
        assert alpha[0].coeffs == (1.0, 1.0, 0.0, 0.0)
        assert alpha[1].coeffs == (1.0, 2.0, 2.0, 0.0)
        assert alpha[2].coeffs == (1.0, 3.0, 6.0, 6.0)

    def test_constant_v_reduces_to_u_partials(self):
        surface = CATALOG["helicoid"]
        u0, v0 = 0.8, 0.4
        bindings = {"u": Jet2.seed_u(u0, 3), "v": Jet2.seed_v(v0, 3)}
        X = tuple(eval_ast(c, bindings) for c in surface.components)
        alpha = compose_curve_in_surface(X, Jet1.seed(u0, 3),
                                         Jet1.constant(v0, 3))
        for comp, jet in zip(X, alpha):
            for k in range(4):
                assert jet.coeffs[k] == pytest.approx(partial(comp, k, 0),
                                                      rel=1e-14, abs=1e-14)

    def test_spherical_helix_first_derivative(self):
        surface = CATALOG["sphere"]
        bindings = {"u": Jet2.seed_u(0.0, 3), "v": Jet2.seed_v(0.0, 3)}
        X = tuple(eval_ast(c, bindings) for c in surface.components)
        t = Jet1.seed(0.0, 3)
        alpha = compose_curve_in_surface(X, 8.0 * t, t)
        assert [a.coeffs[1] for a in alpha] == [0.0, 8.0, 1.0]

    def test_order_mismatch(self):
        X = (Jet2.seed_u(0.0, 2), Jet2.seed_v(0.0, 2),
             Jet2.constant(0.0, 2))
        with pytest.raises(OrderMismatch):
            compose_curve_in_surface(X, Jet1.seed(0.0, 3), Jet1.seed(0.0, 3),
                                     order=3)

    def test_agrees_with_textual_substitution(self):
        # substitute u(t), v(t) into the surface components and jet-evaluate
        # the resulting curve directly
        u_expr, v_expr = "1 + 2*t", "t^2 - t"
        surface_exprs = ["u^2 - v", "u*v + 3", "u^3 + v^2*u"]
        t0 = 0.7
        u0 = eval_ast(parse_expression(u_expr, {"t"}), {"t": t0})
        v0 = eval_ast(parse_expression(v_expr, {"t"}), {"t": t0})
        X = tuple(eval_ast(parse_expression(s, {"u", "v"}),
                           {"u": Jet2.seed_u(u0, 3), "v": Jet2.seed_v(v0, 3)})
                  for s in surface_exprs)
        seed = Jet1.seed(t0, 3)
        u_jet = eval_ast(parse_expression(u_expr, {"t"}), {"t": seed})
        v_jet = eval_ast(parse_expression(v_expr, {"t"}), {"t": seed})
        composed = compose_curve_in_surface(X, u_jet, v_jet)

        for s, comp in zip(surface_exprs, composed):
            substituted = s.replace("u", f"({u_expr})").replace(
                "v", f"({v_expr})")
            direct = eval_ast(parse_expression(substituted, {"t"}),
                              {"t": seed})
            for a, b in zip(comp.coeffs, direct.coeffs):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


class TestComposeSympyOracle:
    """compose_curve_in_surface at orders 1..3 against sympy's derivatives
    of X(u(t), v(t)) for every catalog surface."""

    U_OF_T = "0.3 + 0.5*t + 0.2*sin(t)"
    V_OF_T = "0.6 - 0.4*t + 0.1*cos(2*t)"
    T0 = 0.4

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_surface(self, name):
        sp = pytest.importorskip("sympy")
        t, u, v = sp.symbols("t u v")
        names = {"t": t, "u": u, "v": v, "pi": sp.pi, "e": sp.E}
        path = {u: sp.sympify(self.U_OF_T, locals=names),
                v: sp.sympify(self.V_OF_T, locals=names)}
        surface = CATALOG[name]
        curve = [sp.sympify(pretty(c).replace("^", "**"), locals=names)
                 .subs(path) for c in surface.components]
        t0 = sp.Float(self.T0, 30)
        want = [[float(sp.diff(a, t, k).subs(t, t0).evalf(30))
                 for k in range(4)] for a in curve]

        for order in (1, 2, 3):
            seed = Jet1.seed(self.T0, order)
            u_jet = eval_ast(parse_expression(self.U_OF_T, {"t"}), {"t": seed})
            v_jet = eval_ast(parse_expression(self.V_OF_T, {"t"}), {"t": seed})
            X = surface_jets(surface, u_jet.value, v_jet.value, order)
            got = compose_curve_in_surface(X, u_jet, v_jet, order)
            for jet, ref in zip(got, want):
                assert jet.order == order
                for k in range(order + 1):
                    assert jet.coeffs[k] == pytest.approx(
                        ref[k], rel=1e-12, abs=1e-12)


class TestOrderCap:
    def test_bivariate_order_four_unsupported(self):
        with pytest.raises(UnsupportedOrder):
            Jet2.seed_u(0.0, 4)
        with pytest.raises(UnsupportedOrder):
            surface_jets(CATALOG["sphere"], 0.0, 0.0, 4)


@st.composite
def _int_polys(draw):
    return draw(st.lists(st.integers(-9, 9), min_size=1, max_size=7))


class TestPolynomialExactness:
    @given(_int_polys(), _int_polys(), st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_product_derivatives_exact_within_ulps(self, p, q, t0):
        order = jets.MAX_ORDER_1

        def poly_jet(coeffs):
            acc = Jet1.constant(0.0, order)
            t = Jet1.seed(float(t0), order)
            for k, c in enumerate(coeffs):
                acc = acc + float(c) * t.pow_int(k) if k else acc + float(c)
            return acc

        def poly_derivs(coeffs):
            # exact integer derivative evaluation
            out = []
            for d in range(order + 1):
                val = 0
                for k, c in enumerate(coeffs):
                    if k >= d:
                        val += c * math.perm(k, d) * t0 ** (k - d)
                out.append(float(val))
            return out

        prod_coeffs = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                prod_coeffs[i + j] += a * b
        got = (poly_jet(p) * poly_jet(q)).coeffs
        want = poly_derivs(prod_coeffs)
        for g, w in zip(got, want):
            assert abs(g - w) <= 4 * math.ulp(max(abs(w), 1.0))


class TestDet3:
    def test_upper_triangular_jets(self):
        t = Jet1.seed(1.0, 3)
        a = (t, Jet1.constant(0.0, 3), Jet1.constant(0.0, 3))
        b = (t * t, 2.0 * t, Jet1.constant(0.0, 3))
        c = (t * t * t, t, 3.0 * t)
        det = det3(a, b, c)
        # det = t * 2t * 3t = 6 t^3
        assert det.coeffs == (6.0, 18.0, 36.0, 36.0)


# ---------------------------------------------------------------------------
# random expressions against sympy.diff

_FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log",
              "sqrt", "abs")
# arguments that keep each function inside its domain and away from poles
_SAFE_ARG = {"tan": "1/(1.5 + ({0})^2)", "log": "1 + ({0})^2",
             "sqrt": "0.5 + ({0})^2", "exp": "0.5*({0})",
             "sinh": "0.5*({0})", "cosh": "0.5*({0})"}


_KINDS = _FUNCTIONS + ("+-*", "/", "^int", "^-int", "^float")


def _random_source(rng, leaves, depth, kind=None):
    """A random expression over ``leaves`` whose outermost operation is
    ``kind`` (one of _KINDS; random if None): one of the ten builtin
    functions, + - *, /, or ^ with an integer or a non-integer exponent."""
    if depth == 0 or (kind is None and rng.random() < 0.15):
        if rng.random() < 0.7:
            return rng.choice(leaves)
        return f"{rng.randint(3, 17) / 10}"
    inner = _random_source(rng, leaves, depth - 1)
    other = _random_source(rng, leaves, depth - 1)
    kind = kind or rng.choice(_KINDS)
    if kind in _FUNCTIONS:
        return f"{kind}({_SAFE_ARG.get(kind, '{0}').format(inner)})"
    if kind == "+-*":
        return f"({inner}) {rng.choice('+-*')} ({other})"
    if kind == "/":
        return f"({inner})/(1.5 + ({other})^2)"
    if kind == "^int":
        return f"({inner})^{rng.choice((2, 3))}"
    if kind == "^-int":
        return f"({inner})^{rng.choice((-1, -2))}"
    return f"(1.2 + ({inner})^2)^{rng.choice((0.5, 1.7, -0.3, -1.5))}"


def _random_jet_sources(seed, leaves, depth, bindings):
    """One source per kind of _KINDS, each applying that kind outermost and
    having a jet at ``bindings`` that exists and is not constant (so the
    outermost operation acts on a jet)."""
    import random

    rng = random.Random(seed)
    sources = []
    for kind in _KINDS:
        while True:
            source = _random_source(rng, leaves, depth, kind)
            try:
                jet = eval_ast(parse_expression(source, set(bindings)),
                               bindings)
            except DomainError:         # abs of an exact zero
                continue
            if hasattr(jet, "coeffs") and not jet.is_constant():
                sources.append(source)
                break
    return sources


def _jet2_sources():
    # mixed leaves, so that the mixed partials of the inner terms are live
    return _random_jet_sources(
        1, ["u", "v", "(u*v)", "(u - v)"], 2,
        {"u": Jet2.seed_u(0.31, 1), "v": Jet2.seed_v(-0.47, 1)})


def _jet1_sources():
    return _random_jet_sources(9, ["t"], 2, {"t": Jet1.seed(0.37, 1)})


class TestRandomExpressionSympyOracle:
    """Jet2 partials and Jet1 derivatives at orders 1-3 of seeded random
    expressions against sympy.diff at 30 digits.

    A derivative may differ from sympy's by RTOL times its own size plus
    the largest derivative of its jet, because its rounding grows with the
    terms that cancel in it.  Over seeds 1-10 of each kind the worst is
    7.8e-15 of that sum: the third u-partial of (log(1 + (uv)^2))^-1 at
    (0.31, -0.47), which is -3.8e4, from Jet2 seed 1 below.  Every Jet1
    derivative stays below 9e-16, and 18 of the 20 seeds below 1e-15."""

    RTOL = 1e-11

    @staticmethod
    def _sympy(sp, source, symbols, point):
        names = dict(symbols)
        # away from zero, abs is the identity or the negation
        names["abs"] = lambda f: f if f.evalf(30, subs=point) > 0 else -f
        return sp.sympify(source.replace("^", "**"), locals=names,
                          rational=True)

    def _check(self, got, want):
        scale = max(abs(w) for w in want)
        for g, w in zip(got, want):
            assert abs(g - w) <= self.RTOL * (abs(w) + scale), (got, want)

    def test_jet2_partials(self):
        sp = pytest.importorskip("sympy")
        u, v = sp.symbols("u v", real=True)
        point = {u: sp.Rational(31, 100), v: sp.Rational(-47, 100)}
        for source in _jet2_sources():
            expr = self._sympy(sp, source, {"u": u, "v": v}, point)
            ast = parse_expression(source, {"u", "v"})
            want = {(i, d - i): float(sp.diff(expr, u, i, v, d - i)
                                      .evalf(30, subs=point))
                    for d in range(4) for i in range(d, -1, -1)}
            for order in (1, 2, 3):
                jet = eval_ast(ast, {"u": Jet2.seed_u(0.31, order),
                                     "v": Jet2.seed_v(-0.47, order)})
                ijs = [ij for ij in want if sum(ij) <= order]
                self._check([partial(jet, *ij) for ij in ijs],
                            [want[ij] for ij in ijs])

    def test_jet1_derivatives(self):
        sp = pytest.importorskip("sympy")
        t = sp.symbols("t", real=True)
        point = {t: sp.Rational(37, 100)}
        for source in _jet1_sources():
            expr = self._sympy(sp, source, {"t": t}, point)
            ast = parse_expression(source, {"t"})
            want = []
            for _ in range(4):
                want.append(float(expr.evalf(30, subs=point)))
                expr = sp.diff(expr, t)
            for order in range(1, 4):
                jet = eval_ast(ast, {"t": Jet1.seed(0.37, order)})
                self._check(jet.coeffs, want[:order + 1])


class TestTapeFolds:
    """Each rewrite of the recording tape against the float operation it
    stands for.  Operands are literals, run-time values (the seed's value
    u), or run-time zero terms (v * 0.0); each value is a signed zero, a
    finite number, an infinity or nan.  The result r is used as is, and
    only through 0.0 + r, r * 0.0 + 1.0 and 2.0 + r, where a zero term
    folds away and is never written out."""

    VALUES = (0.0, -0.0, 2.5, -3.0, 1e308, math.inf, -math.inf, math.nan)
    USES = (lambda r: (r, -r, r), lambda r: (0.0 + r, r * 0.0 + 1.0, 2.0 + r))

    def test_folds_are_exact(self):
        ops = (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b)
        kinds = [("literal", x) for x in self.VALUES] + [("u", None),
                                                         ("zero", None)]
        for op in ops:
            for (a_kind, a_lit), (b_kind, b_lit) in itertools.product(
                    kinds, repeat=2):
                for uses in self.USES:
                    def operand(kind, literal, u, v):
                        return {"literal": literal, "u": u,
                                "zero": v * 0.0}[kind]

                    def evaluate(u, v):
                        r = op(operand(a_kind, a_lit, u.value, v.value),
                               operand(b_kind, b_lit, u.value, v.value))
                        return [Jet2._make(1, uses(r))]

                    try:
                        kernel = tape._record(evaluate, 1, Jet2)()
                    except tape.NotReplayable:      # inf or nan in the code
                        continue
                    for u, v in itertools.product(self.VALUES, repeat=2):
                        r = op(operand(a_kind, a_lit, u, v),
                               operand(b_kind, b_lit, u, v))
                        got = kernel(u, v)
                        if got is None:             # a guard saw inf or nan
                            assert not all(map(math.isfinite, (u, v, r)))
                            continue
                        assert _bits(got[0]) == _bits(uses(r)), (
                            a_kind, a_lit, b_kind, b_lit, u, v)


class TestRecordedKernelOracle:
    """tape's recording on the seeded random expressions of the sympy
    oracle, bit for bit against eval_ast over Jet2 seeds (a nan equal to
    any nan), at points that include signed zeros.  A recording fails only
    on abs, which branches on the value; the kernel returns None only
    where a coefficient is not finite."""

    @staticmethod
    def _outcome(f, *args):
        try:
            rows = f(*args)
        except (DomainError, OverflowError, ValueError):
            return DomainError
        return [_bits(row) for row in rows]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_bit_identical_to_eval_ast(self, seed):
        sources = _random_jet_sources(
            seed, ["u", "v", "(u*v)", "(u - v)"], 2,
            {"u": Jet2.seed_u(0.31, 1), "v": Jet2.seed_v(-0.47, 1)})
        rng = random.Random(seed)
        points = [(0.31, -0.47), (0.0, -0.47), (-0.0, 0.2), (0.5, 0.0),
                  (0.7, -0.0), (0.0, -0.0), (-0.0, -0.0)]
        points += [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                   for _ in range(40)]
        recorded = 0
        for source in sources:
            ast = parse_expression(source, {"u", "v"})

            def evaluate(u, v):
                return [u.lift(eval_ast(ast, {"u": u, "v": v}))]

            for order in (1, 2, 3):
                try:
                    kernel = tape._record(evaluate, order, Jet2)()
                except tape.NotReplayable:
                    assert "abs(" in source
                    continue
                recorded += 1
                for u, v in points:
                    seeds = Jet2.seed_u(u, order), Jet2.seed_v(v, order)
                    want = self._outcome(
                        lambda: [jet.coeffs for jet in evaluate(*seeds)])
                    assert self._outcome(kernel, u, v) == want, (
                        source, order, u, v)
        assert recorded >= 2 * len(sources)


def _arclen_item_paths(rng, count):
    """(u, v) sources in the grammar of the benchmark's arclen items:
    "(c0) + (c1)*t + (c2)*t^2" and "(c0) + (c1)*sin((f)*t) + (c2)*t"."""
    def num():
        return f"({rng.uniform(-3.0, 3.0):.4f})"

    def poly():
        return f"{num()} + {num()}*t + {num()}*t^2"

    def trig():
        return f"{num()} + {num()}*sin(({rng.uniform(1.0, 2.5):.4f})*t) + " \
               f"{num()}*t"

    return [(poly(), poly()) for _ in range(count)] + \
        [(trig(), trig()) for _ in range(count)] + \
        [(poly(), trig()) for _ in range(count)]


class TestRecordedCurveKernel:
    """A parameter path's recorded kernel (expr.bound_kernel at Jet1, order
    3) against eval_ast over Jet1.seed(t, 3), bit for bit
    (a NaN equal to any NaN), at 520 values of t per parameter path, among
    them +-0.0: the paths of arclen-compare's items, the README's 8*t;t,
    the elementary functions whose _phi may fail, and quotients and a
    negative power, which divide by the reciprocal.  Where the kernel hands
    back with None, eval_ast gives a coefficient that is not finite; where
    it raises, eval_ast raises."""

    PATHS = [("8*t", "t"), ("exp(t)", "log(t)"), ("sqrt(t)", "t^0.5"),
             ("exp(-t^2)*cos(3*t)", "log(1+t^2) - sqrt(2+sin(t))"),
             ("t^3 - 2*t^2", "tan(t) + cosh(t)*tanh(t)"),
             ("0.5", "-t"), ("exp(1000*t)", "sinh(700*t)"),
             ("t/(1+t^2)", "t"), ("t", "t/2"), ("t^-2", "t")]

    @staticmethod
    def _outcome(f, t):
        try:
            rows = f(t)
        except (DomainError, OverflowError, ValueError):
            return DomainError
        return None if rows is None else [_bits(row) for row in rows]

    @pytest.mark.parametrize(
        "u_src, v_src", PATHS + _arclen_item_paths(random.Random(19), 4))
    def test_bit_identical_to_eval_ast(self, u_src, v_src):
        trees = [parse_expression(src, {"t"}) for src in (u_src, v_src)]
        kernel = recorded(trees, Jet1, 3)
        assert kernel is not None

        def interpreted(t):
            seed = Jet1.seed(t, 3)
            return [seed.lift(eval_ast(tree, {"t": seed})).coeffs
                    for tree in trees]

        rng = random.Random(zlib.crc32((u_src + v_src).encode()))
        ts = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 0.75, 2.0]
        ts += [rng.uniform(-3.0, 3.0) for _ in range(500)]
        ts += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 3)
               for _ in range(12)]
        handed_back = 0
        for t in ts:
            got = self._outcome(kernel, t)
            if got is None:
                # a guard fired: eval_ast's coefficients are not all finite
                assert not all(map(math.isfinite, sum(interpreted(t), ()))), (
                    u_src, v_src, t)
                handed_back += 1
            else:
                assert got == self._outcome(interpreted, t), (u_src, v_src, t)
        assert handed_back <= 10

    @pytest.mark.parametrize("u_src, v_src", [
        ("abs(t)", "t"), ("t^t", "t"), ("1e308*10*t", "t")])
    def test_refused_paths(self, u_src, v_src):
        # abs, a t-dependent exponent and a literal past the float range
        # stay with eval_ast
        trees = [parse_expression(src, {"t"}) for src in (u_src, v_src)]
        assert recorded(trees, Jet1, 3) is None


_T = parse_expression("t", {"t"})


class TestCurveShapeCache:
    """A path's shape is recorded once: its constants (maximal
    variable-free subtrees) are kernel inputs, and every path of the
    shape takes its kernel from the one cached factory, with its own
    constants, bit for bit eval_ast's, signed zeros included."""

    # (u, v) templates: arclen-compare's two item families, the README's
    # 8*t;t, and constants under ^ and / (the exponent and the divisor
    # stay in the shape)
    SHAPES = {
        "poly": ("({}) + ({})*t + ({})*t^2", "({}) + ({})*t + ({})*t^2"),
        "trig": ("({}) + ({})*sin(({})*t) + ({})*t",
                 "({}) + ({})*sin(({})*t) + ({})*t"),
        "readme": ("({})*t", "t"),
        "power-quotient": ("({})^3*t + t^-2", "({})/(1 + t^2) - t/3"),
    }
    # a product of -1 and 0 is -0.0, as is 0 times -1
    CONSTANTS = ("0", "-0", "-1*0", "0*-1", "1", "-1", "8", "0.3", "-2.5",
                 "1e-300", "-7e10", "pi", "exp(-1)", "2^-3")
    TS = (0.0, -0.0, 1.0, -1.0, 1e-300, 0.75, 2.0, -0.4)

    @staticmethod
    def _paths(template, rng, count):
        u, v = template
        for _ in range(count):
            picks = [rng.choice(TestCurveShapeCache.CONSTANTS)
                     for _ in range(u.count("{}") + v.count("{}"))]
            k = u.count("{}")
            yield u.format(*picks[:k]), v.format(*picks[k:])

    @staticmethod
    def _outcome(f, t):
        try:
            rows = f(t)
        except (DomainError, OverflowError, ValueError):
            return DomainError
        return None if rows is None else [_bits(row) for row in rows]

    @pytest.fixture
    def compiled(self, monkeypatch):
        """The shapes compiled during the test, one entry per compile."""
        calls = []
        original = tape._compile

        def spy(trees, order, kind, count):
            calls.append(tuple(map(pretty, trees)))
            return original(trees, order, kind, count)

        monkeypatch.setattr(tape, "_compile", spy)
        return calls

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_one_compile_per_shape(self, compiled, shape):
        rng = random.Random(shape)
        for u_src, v_src in self._paths(self.SHAPES[shape], rng, 40):
            trees = [parse_expression(src, {"t"}) for src in (u_src, v_src)]
            kernel = recorded(trees, Jet1, 3)
            assert kernel is not None

            def interpreted(t):
                seed = Jet1.seed(t, 3)
                return [seed.lift(eval_ast(tree, {"t": seed})).coeffs
                        for tree in trees]

            for t in self.TS:
                got = self._outcome(kernel, t)
                if got is None:
                    assert not all(map(math.isfinite,
                                       sum(interpreted(t), ()))), (u_src, t)
                else:
                    assert got == self._outcome(interpreted, t), (
                        u_src, v_src, t)
        assert len(compiled) == 1
        assert len(expr._KERNELS) == 1

    def test_shapes_differ_in_exponents_and_divisors(self, compiled):
        for u_src in ("t^2", "t^3", "t^2", "t/3", "t/4", "t/(1+2)"):
            trees = [parse_expression(u_src, {"t"}), _T]
            assert recorded(trees, Jet1, 3) is not None
        # t/(1+2) is t/3: the divisor's value is in the shape
        assert compiled == [("t^2.0", "t"), ("t^3.0", "t"),
                            ("t/3.0", "t"), ("t/4.0", "t")]

    @pytest.mark.parametrize("u_src", ["1e308*10*t", "(1e308*10)^2 + t",
                                       "log(-1)*t", "t + 1/0",
                                       "sqrt(-1)*sin(t)"])
    def test_constants_that_fail_stay_refused(self, compiled, u_src):
        # a constant past the float range or one that eval_ast refuses:
        # no kernel, and nothing compiled or cached for it
        trees = [parse_expression(u_src, {"t"}), _T]
        assert recorded(trees, Jet1, 3) is None
        assert compiled == [] and expr._KERNELS == {}

    def test_cache_keeps_at_most_max_shapes(self, compiled):
        def record(k):
            trees = [parse_expression(f"t/{k}", {"t"}), _T]
            assert recorded(trees, Jet1, 3) is not None

        for k in range(1, expr.MAX_SHAPES + 11):
            record(k)
            assert len(expr._KERNELS) <= expr.MAX_SHAPES
        assert len(expr._KERNELS) == expr.MAX_SHAPES
        assert len(compiled) == expr.MAX_SHAPES + 10
        # the oldest ten went first
        record(expr.MAX_SHAPES + 10)
        record(11)
        assert len(compiled) == expr.MAX_SHAPES + 10
        record(10)
        assert len(compiled) == expr.MAX_SHAPES + 11

    def test_a_hit_builds_no_tree(self, compiled, monkeypatch):
        # a hit needs only the shape's key and its constants' values
        built = []
        original = tape._tree

        def spy(key, count):
            built.append(key)
            return original(key, count)

        monkeypatch.setattr(tape, "_tree", spy)
        seed = Jet1.seed(0.25, 3)
        for k, c in enumerate(("2", "-0.5", "exp(1)")):
            trees = [parse_expression(f"({c})*sin(t) + t/3", {"t"}), _T]
            assert recorded(trees, Jet1, 3)(0.25) == tuple(
                seed.lift(eval_ast(tree, {"t": seed})).coeffs
                for tree in trees)
            if k == 0:
                on_miss = len(built)
        assert len(compiled) == 1
        assert on_miss > 0 and len(built) == on_miss

    def test_a_refused_shape_is_cached(self, compiled):
        for c in ("2", "3"):
            trees = [parse_expression(f"abs({c}*t)", {"t"}), _T]
            assert recorded(trees, Jet1, 3) is None
        assert len(compiled) == 1
        assert list(expr._KERNELS.values()) == [None]


# ---------------------------------------------------------------------------
# straight-line kernels against the routes they replaced

def _table_product(table, a, b):
    """The product as a loop over its _MUL1/_MUL2 table, summing each
    coefficient's terms in order from 0.0: the reference the unrolled
    products must match bit for bit."""
    out = []
    for terms in table:
        acc = 0.0
        for w, i, j in terms:
            acc += w * a[i] * b[j]
        out.append(acc)
    return tuple(out)


_SPECIAL = (0.0, -0.0, 1e200, -1e200, 1e-200, -1e-200,
            math.inf, -math.inf, math.nan)


def _operand(rng, size):
    """``size`` coefficients: three in ten special values, the rest finite
    numbers of either sign over ten decades."""
    return tuple(rng.choice(_SPECIAL) if rng.random() < 0.3
                 else rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-5, 5)
                 for _ in range(size))


def _bits(coeffs):
    """Each coefficient's IEEE bits, or "nan" for a NaN: CPython's float
    + and * give a NaN of either sign from two NaN operands depending on
    whether the instruction is specialized yet, so a NaN's bits are not a
    property of the code that made it."""
    return ["nan" if c != c else struct.pack("<d", c) for c in coeffs]


class TestUnrolledProducts:
    KINDS = ([("Jet1", n) for n in range(1, jets.MAX_ORDER_1 + 1)]
             + [("Jet2", n) for n in range(1, jets.MAX_ORDER_2 + 1)])

    @pytest.mark.parametrize("kind,order", KINDS)
    def test_bit_identical_to_the_table_loop(self, kind, order):
        if kind == "Jet1":
            table, make = jets._MUL1[order], Jet1
        else:
            table, make = jets._MUL2[order], lambda c: Jet2(order, c)
        size = len(table)
        rng = random.Random(zlib.crc32(f"{kind}{order}".encode()))
        pairs = [((-0.0,) * size, (1.0,) * size),
                 ((0.0,) * size, (-1.0,) * size),
                 ((math.inf,) * size, (0.0,) * size)]
        pairs += [(_operand(rng, size), _operand(rng, size))
                  for _ in range(3000)]
        for a, b in pairs:
            got = (make(a) * make(b)).coeffs
            assert type(got) is tuple and len(got) == size
            assert _bits(got) == _bits(_table_product(table, a, b)), (a, b)


class TestJet1FunctionRoutes:
    @pytest.mark.parametrize("func", ["sin", "cos", "tan", "sinh", "cosh",
                                      "tanh", "exp", "log", "sqrt"])
    def test_lower_orders_are_prefixes_of_the_order_three_rule(self, func):
        # orders 1 and 2 are bit-identical prefixes of the order-3 rule
        coeffs = (0.4, 0.8, -0.5, 1.3)
        full = getattr(Jet1(coeffs), func)().coeffs
        for order in (1, 2):
            low = getattr(Jet1(coeffs[:order + 1]), func)().coeffs
            assert low == full[:order + 1]


_IDENTITY_COEFFS = (0.4, 0.8, -0.3, -0.5, 0.2, 0.9, 1.3, -0.7, 0.6, 0.1)


class TestChainRuleIdentities:
    """Each function's chain rule against another route to the same jet,
    on both kinds at every order, so that a wrong phi', phi'' or phi''' in
    the _PHI table shows without sympy."""

    @pytest.mark.parametrize("make", [
        lambda n: Jet1(_IDENTITY_COEFFS[:n + 1]),
        lambda n: Jet2(n, _IDENTITY_COEFFS[:(n + 1) * (n + 2) // 2])])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("identity", [
        lambda f: (f.tan(), f.sin() / f.cos(), f.sin(), f.cos()),
        lambda f: (f.tanh(), f.sinh() / f.cosh(), f.sinh(), f.cosh()),
        lambda f: (f.log().exp(), f, f.log()),
        lambda f: (f.sqrt() * f.sqrt(), f, f.sqrt())],
        ids=["tan_is_sin_over_cos", "tanh_is_sinh_over_cosh",
             "exp_inverts_log", "sqrt_squared"])
    def test_identity_within_ulps(self, make, order, identity):
        lhs, rhs, *parts = identity(make(order))
        assert lhs.order == rhs.order == order
        # rounding grows with the largest coefficient either route forms
        scale = max(abs(c) for jet in (lhs, rhs, *parts) for c in jet.coeffs)
        tol = 16 * math.ulp(scale)
        pairs = zip(lhs.coeffs, rhs.coeffs)
        assert all(abs(a - b) <= tol for a, b in pairs), (lhs, rhs)


# ---------------------------------------------------------------------------
# error behaviour and plain-number operands

class TestJetErrors:
    @pytest.mark.parametrize("make", [
        lambda x: Jet1.seed(x, 1), lambda x: Jet2.seed_u(x, 3),
        lambda x: Jet1.seed(x, 3)])
    @pytest.mark.parametrize("func", ["log", "sqrt"])
    @pytest.mark.parametrize("x", [0.0, -1.5])
    def test_log_sqrt_of_nonpositive(self, make, func, x):
        with pytest.raises(DomainError):
            getattr(make(x), func)()

    @pytest.mark.parametrize("make", [
        lambda x: Jet1.seed(x, 1), lambda x: Jet2.seed_u(x, 3),
        lambda x: Jet1.seed(x, 3)])
    def test_division_by_zero_value_and_abs_at_zero(self, make):
        zero, one = make(0.0), make(1.0)
        for call in (lambda: one / zero, lambda: 1.0 / zero,
                     lambda: one / 0.0, lambda: zero.pow_int(-2),
                     lambda: zero.abs(), lambda: abs(zero)):
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("make", [
        lambda x: Jet1.seed(x, 1), lambda x: Jet2.seed_u(x, 3),
        lambda x: Jet1.seed(x, 3)])
    def test_tan_at_a_pole(self, make, monkeypatch):
        # no double has cos(x) == 0, so stand in a math whose cos is 0
        import types

        from affinemetrics import expr, jets, tape
        fake = types.SimpleNamespace(**vars(math))
        fake.cos = lambda x: 0.0
        monkeypatch.setattr(jets, "math", fake)
        with pytest.raises(DomainError):
            make(math.pi / 2).tan()

    @pytest.mark.parametrize("make", [
        lambda x: Jet1.seed(x, 1), lambda x: Jet2.seed_u(x, 3),
        lambda x: Jet1.seed(x, 3)])
    @pytest.mark.parametrize("func", ["exp", "sinh", "cosh"])
    def test_overflow_is_a_domain_error(self, make, func):
        with pytest.raises(DomainError):
            getattr(make(1000.0), func)()
        with pytest.raises(DomainError):
            make(float("inf")).sin()

    @pytest.mark.parametrize("make", [
        lambda x: Jet1.seed(x, 1), lambda x: Jet2.seed_u(x, 3),
        lambda x: Jet1.seed(x, 3)])
    def test_tanh_of_a_large_argument_is_finite(self, make):
        jet = make(1000.0).tanh()
        assert jet.value == 1.0
        assert all(c == 0.0 for c in jet.coeffs[1:])

    def test_mixed_orders(self):
        pairs = [(Jet1.seed(0.5, 3), Jet1.seed(0.5, 2)),
                 (Jet2.seed_u(0.5, 3), Jet2.seed_v(0.5, 2))]
        for a, b in pairs:
            for op in (lambda x, y: x + y, lambda x, y: x - y,
                       lambda x, y: x * y, lambda x, y: x / y):
                with pytest.raises(OrderMismatch):
                    op(a, b)
                with pytest.raises(OrderMismatch):
                    op(b, a)

    def test_jet1_and_jet2_do_not_mix(self):
        with pytest.raises(TypeError):
            Jet1.seed(0.5, 3) * Jet2.seed_u(0.5, 3)
        with pytest.raises(TypeError):
            Jet2.seed_u(0.5, 3) + Jet1.seed(0.5, 3)

    def test_public_constructors_validate(self):
        with pytest.raises(UnsupportedOrder):
            Jet1([1.0])
        with pytest.raises(UnsupportedOrder):
            Jet1([0.0] * 8)
        with pytest.raises(UnsupportedOrder):
            Jet1([0.0] * 5)
        with pytest.raises(UnsupportedOrder):
            Jet1.constant(1.0, 4)
        with pytest.raises(UnsupportedOrder):
            Jet2(3, [1.0, 2.0])
        with pytest.raises(UnsupportedOrder):
            Jet2(4, [0.0] * 15)
        assert Jet1([1, 2]).coeffs == (1.0, 2.0)
        assert type(Jet2(1, [1, 2, 3]).coeffs[2]) is float


class TestScalarOperands:
    """int, float and numpy.float64 on either side of + - * / agree with
    the same operation on a constant jet."""

    JETS = [Jet1((0.7, -1.2, 0.4, 2.5)),
            Jet2(2, (0.7, -1.2, 0.4, 2.5, -0.3, 1.1))]

    @staticmethod
    def _constant(jet, x):
        if isinstance(jet, Jet1):
            return Jet1.constant(x, jet.order)
        return Jet2.constant(x, jet.order)

    @pytest.mark.parametrize("jet", JETS)
    @pytest.mark.parametrize("scalar", [3, -2.5, np.float64(1.75)])
    def test_both_sides(self, jet, scalar):
        const = self._constant(jet, float(scalar))
        ops = [lambda x, y: x + y, lambda x, y: x - y,
               lambda x, y: x * y, lambda x, y: x / y]
        for op in ops:
            for got, want in ((op(jet, scalar), op(jet, const)),
                              (op(scalar, jet), op(const, jet))):
                assert type(got) is type(jet)
                assert all(type(c) is float for c in got.coeffs)
                assert got.coeffs == pytest.approx(want.coeffs, rel=1e-15,
                                                   abs=1e-15)
