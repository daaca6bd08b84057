import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jet_route import partial

from affinemetrics.errors import (
    DomainError,
    ExprSyntaxError,
    InvalidCharacter,
    UnexpectedEnd,
    UnknownIdentifier,
)
from affinemetrics.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    Neg,
    Var,
    eval_ast,
    parse,
    parse_expression,
    pretty,
    tokenize,
)
from affinemetrics.jets import Jet1, Jet2


class TestTokenize:
    def test_power_expression(self):
        toks = tokenize("u^2")
        assert [(t.kind, t.text) for t in toks] == [
            ("identifier", "u"), ("operator", "^"), ("number", "2")]
        assert [t.position for t in toks] == [0, 1, 2]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_invalid_character_position(self):
        with pytest.raises(InvalidCharacter) as err:
            tokenize("2*@x")
        assert err.value.position == 2

    def test_number_forms(self):
        for text, value in [("42", 42.0), ("1.5", 1.5), (".5", 0.5),
                            ("2.", 2.0), ("1e3", 1000.0), ("2.5E-2", 0.025),
                            ("3e+2", 300.0)]:
            (tok,) = tokenize(text)
            assert tok.kind == "number"
            assert float(tok.text) == value

    def test_positions_cover_source(self):
        src = "cos(u) * 2.5e-1 + v"
        toks = tokenize(src)
        assert all(src[t.position:t.position + len(t.text)] == t.text
                   for t in toks)
        positions = [t.position for t in toks]
        assert positions == sorted(positions)


class TestParse:
    def test_product_of_calls(self):
        ast = parse_expression("cos(u)*cos(v)", {"u", "v"})
        assert ast == BinOp("*", Call("cos", Var("u")), Call("cos", Var("v")))

    def test_unary_minus_binds_looser_than_power(self):
        ast = parse_expression("-u^2", {"u"})
        assert ast == Neg(BinOp("^", Var("u"), Const(2.0)))

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as err:
            parse_expression("u + w", {"u", "v"})
        assert err.value.name == "w"

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier):
            parse_expression("foo(u)", {"u"})

    def test_power_right_associative(self):
        assert eval_ast(parse_expression("2^3^2", set()), {}) == 512.0

    def test_left_associative_subtraction(self):
        assert eval_ast(parse_expression("8-4-2", set()), {}) == 2.0

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("2u", {"u"})

    def test_unexpected_end(self):
        with pytest.raises(UnexpectedEnd):
            parse_expression("cos(", {"u"})

    def test_functions_take_one_argument(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("sin(u, v)", {"u", "v"})

    def test_nesting_bound_reports_its_position(self):
        depth = MAX_DEPTH + 50
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("(" * depth + "u" + ")" * depth, {"u"})
        assert exc.value.position == MAX_DEPTH

    @pytest.mark.parametrize("source", [
        "-" * 300 + "u",
        "sin(" * 300 + "u" + ")" * 300,
        "^".join(["u"] * 300),
        "+".join(["u"] * 300),
        # chains inside nested parentheses: shallow parse, tall tree
        "(" * 30 + "u" + "+u" * 10 + (")" + "+u" * 10) * 30,
    ], ids=["unary", "calls", "power", "sum", "nested-chains"])
    def test_deep_trees_are_refused(self, source):
        with pytest.raises(ExprSyntaxError, match="nested deeper"):
            parse_expression(source, {"u"})

    def test_hundred_deep_expressions_parse(self):
        assert parse_expression("(" * 100 + "u" + ")" * 100, {"u"}) == Var("u")
        ast = parse_expression("sin(" * 100 + "u" + ")" * 100, {"u"})
        x = 0.5
        for _ in range(100):
            x = math.sin(x)
        assert eval_ast(ast, {"u": 0.5}) == x
        ast = parse_expression("+".join(["u"] * 100), {"u"})
        assert eval_ast(ast, {"u": 0.5}) == 50.0

    def test_reserved_constants(self):
        ast = parse_expression("pi", set())
        assert ast == Const(math.pi, name="pi")
        assert eval_ast(parse_expression("e", set()), {}) == math.e

    def test_constants_not_shadowed_by_vars(self):
        # pi stays a constant even when a variable could be bound
        assert eval_ast(parse_expression("pi", {"u"}), {"u": 9.0}) == math.pi

    @pytest.mark.parametrize("source, position", [
        ("1e999", 0), ("u + 2.5e400*v", 4), ("1.8e308", 0)])
    def test_non_finite_number_is_refused_at_its_token(self, source,
                                                       position):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression(source, {"u", "v"})
        assert exc.value.position == position
        assert "not finite as a double" in str(exc.value)

    def test_overflowing_arithmetic_on_literals_still_evaluates(self):
        # 1e308 and 10 are finite literals; their product is inf, as the
        # float arithmetic gives it
        ast = parse_expression("1e308*10*u", {"u"})
        assert eval_ast(ast, {"u": 0.5}) == math.inf
        assert parse_expression("1e-400", set()) == Const(0.0)


class TestEval:
    def test_product_at_origin(self):
        ast = parse_expression("cos(u)*cos(v)", {"u", "v"})
        assert eval_ast(ast, {"u": 0.0, "v": 0.0}) == 1.0

    def test_sixth_root_value(self):
        ast = parse_expression("(6*pi^4 + t^2*pi^6)^(1/6)", {"t"})
        got = eval_ast(ast, {"t": 0.0})
        assert got == pytest.approx(2.8915128290977505, rel=1e-14)

    def test_log_domain_error(self):
        ast = parse_expression("log(t)", {"t"})
        with pytest.raises(DomainError):
            eval_ast(ast, {"t": 0.0})

    def test_sqrt_domain_error(self):
        with pytest.raises(DomainError):
            eval_ast(parse_expression("sqrt(t)", {"t"}), {"t": -1.0})

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_ast(parse_expression("1/t", {"t"}), {"t": 0.0})

    def test_integer_power_negative_base(self):
        ast = parse_expression("t^3", {"t"})
        assert eval_ast(ast, {"t": -2.0}) == -8.0

    def test_large_integer_power_of_jet(self):
        # square-and-multiply: u^n and its u-partials against n u^(n-1) etc.
        n, u0 = 20000, 1.0001
        jet = eval_ast(parse_expression(f"u^{n}", {"u", "v"}),
                       {"u": Jet2.seed_u(u0, 3), "v": Jet2.seed_v(0.0, 3)})
        want = (u0 ** n, n * u0 ** (n - 1), n * (n - 1) * u0 ** (n - 2),
                n * (n - 1) * (n - 2) * u0 ** (n - 3))
        for k, w in enumerate(want):
            assert partial(jet, k, 0) == pytest.approx(w, rel=1e-10)

    def test_fractional_power_negative_base_fails(self):
        ast = parse_expression("t^(1/2)", {"t"})
        with pytest.raises(DomainError):
            eval_ast(ast, {"t": -4.0})

    @pytest.mark.parametrize("source,x", [("exp(t)", 1000.0),
                                          ("sinh(t)", -800.0),
                                          ("cosh(t)", 800.0),
                                          ("sin(t)", math.inf),
                                          ("10^(t + 0.5)", 400.0)])
    def test_float_overflow_is_a_domain_error(self, source, x):
        with pytest.raises(DomainError):
            eval_ast(parse_expression(source, {"t"}), {"t": x})

    def test_all_functions_evaluate(self):
        for name in ("sin", "cos", "tan", "sinh", "cosh", "tanh",
                     "exp", "sqrt", "abs"):
            got = eval_ast(parse_expression(f"{name}(t)", {"t"}), {"t": 0.5})
            ref = abs(0.5) if name == "abs" else getattr(math, name)(0.5)
            assert got == ref
        assert eval_ast(parse_expression("log(t)", {"t"}), {"t": 0.5}) \
            == math.log(0.5)


# random ASTs for the round-trip property; constants are nonnegative because
# a parsed "-1.5" is structurally Neg(Const(1.5))
_const = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def _ast_strategy():
    leaves = st.one_of(
        st.builds(Const, _const),
        st.sampled_from([Var("u"), Var("v")]),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from(list("+-*/^")), children,
                      children),
            st.builds(Call, st.sampled_from(["sin", "cos", "exp", "sqrt",
                                             "log", "tanh", "abs"]),
                      children),
        ),
        max_leaves=25,
    )


class TestRoundTrip:
    @given(_ast_strategy())
    @settings(max_examples=200, deadline=None)
    def test_pretty_reparses_identically(self, ast):
        assert parse_expression(pretty(ast), {"u", "v"}) == ast

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_precedence_property(self, a, b, c):
        ast = parse_expression("a+b*c", {"a", "b", "c"})
        assert eval_ast(ast, {"a": a, "b": b, "c": c}) == a + (b * c)


class TestScalarJetAgreement:
    EXPRS = [
        ("cos(u)*cos(v) + u^3", (0.3, -0.7)),
        ("exp(u) / (2 + sin(v))", (0.5, 1.1)),
        ("sqrt(u^2 + v^2 + 1) - tanh(u*v)", (-0.4, 0.8)),
        ("(u^2 + 2)^(1/6) + log(v + 3)", (1.2, 0.2)),
    ]

    @pytest.mark.parametrize("source,point", EXPRS)
    def test_jet2_value_slot_matches_scalar(self, source, point):
        ast = parse_expression(source, {"u", "v"})
        u, v = point
        scalar = eval_ast(ast, {"u": u, "v": v})
        jet = eval_ast(ast, {"u": Jet2.seed_u(u, 2), "v": Jet2.seed_v(v, 2)})
        assert jet.value == pytest.approx(scalar, rel=1e-15)

    @pytest.mark.parametrize("source,point", EXPRS)
    def test_jet1_value_slot_matches_scalar(self, source, point):
        ast = parse_expression(source.replace("v", "(2*u)"), {"u"})
        u = point[0]
        scalar = eval_ast(ast, {"u": u})
        jet = eval_ast(ast, {"u": Jet1.seed(u, 3)})
        assert jet.value == pytest.approx(scalar, rel=1e-15)
