import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinemetrics.errors import DomainError, OrderMismatch, UnsupportedOrder
from affinemetrics.expr import eval_ast, parse_expression, pretty
from affinemetrics.jets import Jet1, Jet2, compose_curve_in_surface, det3
from affinemetrics.numerics import finite_diff
from affinemetrics.surfgeo import CATALOG, surface_jets


class TestJet1Basics:
    def test_sin_of_seed(self):
        assert Jet1.seed(0.0, 3).sin().coeffs == (0.0, 1.0, 0.0, -1.0)

    def test_cube_of_seed(self):
        assert Jet1.seed(2.0, 3).pow_int(3).coeffs == (8.0, 12.0, 12.0, 6.0)

    def test_exp_of_seed(self):
        e = math.e
        assert Jet1.seed(1.0, 4).exp().coeffs == (e, e, e, e, e)

    def test_orders_capped_at_six(self):
        with pytest.raises(UnsupportedOrder):
            Jet1.seed(0.0, 7)
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

    def test_tan_matches_sin_over_cos_identity(self):
        j = Jet1.seed(0.7, 5)
        lhs = j.tan()
        rhs = j.sin() / j.cos()
        assert lhs.coeffs == rhs.coeffs

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
        assert p.partial(1, 0) == 2.0
        assert p.partial(0, 1) == 1.0
        assert p.partial(2, 0) == 0.0
        assert p.partial(1, 1) == 1.0
        assert p.partial(0, 2) == 0.0

    def test_cos_of_u_seed(self):
        c = Jet2.seed_u(0.0, 2).cos()
        assert c.value == 1.0
        assert c.partial(1, 0) == 0.0
        assert c.partial(2, 0) == -1.0
        assert c.partial(0, 1) == 0.0
        assert c.partial(1, 1) == 0.0
        assert c.partial(0, 2) == 0.0

    def test_orders_capped_at_four(self):
        with pytest.raises(UnsupportedOrder):
            Jet2.seed_u(0.0, 5)

    def test_partial_beyond_order(self):
        with pytest.raises(OrderMismatch):
            Jet2.seed_u(0.0, 2).partial(3, 0)

    def test_reciprocal_round_trip(self):
        j = Jet2.seed_u(0.5, 3) + Jet2.seed_v(0.25, 3) * 2.0 + 1.5
        one = j * (1.0 / j)
        assert one.value == pytest.approx(1.0, rel=1e-15)
        for (i, k) in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            assert one.partial(i, k) == pytest.approx(0.0, abs=1e-13)


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
                assert jet.partial(i, j) == pytest.approx(ref, rel=1e-6,
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
                        + 0.05 * (abs(jet.partial(1, 0))
                                  + abs(jet.partial(0, 1))))
                floor = 1e-9 + 1e-7 * span
                for i in range(4):
                    for j in range(4 - i):
                        if i + j == 0 or i + j > 3:
                            continue
                        ref = _fd_partial(scalar, u0, v0, i, j)
                        assert jet.partial(i, j) == pytest.approx(
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
                assert jet.coeffs[k] == pytest.approx(comp.partial(k, 0),
                                                      rel=1e-14, abs=1e-14)

    def test_spherical_helix_first_derivative(self):
        surface = CATALOG["sphere"]
        bindings = {"u": Jet2.seed_u(0.0, 3), "v": Jet2.seed_v(0.0, 3)}
        X = tuple(eval_ast(c, bindings) for c in surface.components)
        t = Jet1.seed(0.0, 3)
        alpha = compose_curve_in_surface(X, 8.0 * t, t)
        assert [a.coeffs[1] for a in alpha] == [0.0, 8.0, 1.0]

    def test_order_mismatch(self):
        X = (Jet2.seed_u(0.0, 3), Jet2.seed_v(0.0, 3),
             Jet2.constant(0.0, 3))
        with pytest.raises(OrderMismatch):
            compose_curve_in_surface(X, Jet1.seed(0.0, 4), Jet1.seed(0.0, 4),
                                     order=4)

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
        order = 6

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
