"""The identity suites' sample construction and evaluation counts.

Random curves are built as expression trees; the written forms they
replace are kept here as references, and the trees must evaluate
bit-identically to the parsed strings.  The golden lines pin the
check-identities output to what the string-built samples printed.
"""

import sys

import numpy as np
import pytest

from affinemetrics import expr, surfgeo
from affinemetrics import identities as idn
from affinemetrics.cli import main
from affinemetrics.expr import (
    BinOp,
    Call,
    Const,
    Neg,
    eval_ast,
    parse_expression,
)
from affinemetrics.jets import Jet1


def poly_trig_string(rng):
    """The written form the curve components were once parsed from."""
    coeffs = rng.uniform(-2.0, 2.0, size=5).tolist()
    poly = " + ".join(f"({c!r})*t^{k}" if k else f"({c!r})"
                      for k, c in enumerate(coeffs))
    amp_s, amp_c = rng.uniform(-2.0, 2.0, size=2).tolist()
    freq_s, freq_c = rng.uniform(0.5, 2.5, size=2).tolist()
    return (f"{poly} + ({amp_s!r})*sin(({freq_s!r})*t)"
            f" + ({amp_c!r})*cos(({freq_c!r})*t)")


def quadratic_string(c0, c1, c2):
    """The written form of the condition suite's parameter curves."""
    return f"({c0!r}) + ({c1!r})*t + ({c2!r})*t^2"


def fold_negated_constants(ast):
    """The parsed tree with Neg(Const(c)) read as Const(-c)."""
    if isinstance(ast, Neg) and isinstance(ast.child, Const):
        return Const(-ast.child.value)
    if isinstance(ast, BinOp):
        return BinOp(ast.op, fold_negated_constants(ast.left),
                     fold_negated_constants(ast.right))
    if isinstance(ast, Call):
        return Call(ast.func, fold_negated_constants(ast.arg))
    return ast


def assert_same_values(built, parsed):
    for t in (-1.4, -0.3, 0.0, 0.7, 1.2):
        assert eval_ast(built, {"t": t}) == eval_ast(parsed, {"t": t})
        seed = Jet1.seed(t, 3)
        assert (eval_ast(built, {"t": seed}).coeffs
                == eval_ast(parsed, {"t": seed}).coeffs)


class TestBuiltTrees:
    @pytest.mark.parametrize("seed", [0, 1, 7, 41, 2012])
    def test_poly_trig_component_matches_parsed_string(self, seed):
        built_rng = np.random.default_rng(seed)
        string_rng = np.random.default_rng(seed)
        for _ in range(6):
            built = idn._poly_trig_component(built_rng)
            parsed = parse_expression(poly_trig_string(string_rng), {"t"})
            assert built == fold_negated_constants(parsed)
            assert_same_values(built, parsed)
        # the same draws in the same order
        assert built_rng.random() == string_rng.random()

    @pytest.mark.parametrize("seed", [0, 3, 7, 41])
    def test_quadratic_matches_parsed_string(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            c0 = float(rng.uniform(-12.0, 12.0))
            c1, c2 = rng.uniform(-1.0, 1.0, size=2).tolist()
            built = idn._quadratic(c0, c1, c2)
            parsed = parse_expression(quadratic_string(c0, c1, c2), {"t"})
            assert built == fold_negated_constants(parsed)
            assert_same_values(built, parsed)


# stdout of check-identities --samples 20 --seed 7 while the samples were
# still written out and parsed
GOLDEN = {
    "sphere": """\
identity integrand-det-vs-euclidean-route: max_dev=2.033e-16 tol=1.0e-08 samples=20 PASS
identity lmn-determinant-vs-dot-route: max_dev=1.110e-16 tol=1.0e-10 samples=20 PASS
identity form-det-vs-euclidean-route: max_dev=2.220e-16 tol=1.0e-09 samples=20 PASS
identity equiaffine-invariance: max_dev=1.554e-15 tol=1.0e-08 samples=4 PASS
identity reparam-fourth-power-law: max_dev=8.030e-15 tol=1.0e-09 samples=20 PASS
identity condition-det-vs-euclidean-route: max_dev=1.305e-15 tol=1.0e-08 samples=20 PASS
identity reference-forms-sphere: max_dev=2.220e-16 tol=1.0e-09 samples=20 PASS
""",
    "helicoid": """\
identity integrand-det-vs-euclidean-route: max_dev=2.033e-16 tol=1.0e-08 samples=20 PASS
identity lmn-determinant-vs-dot-route: max_dev=1.636e-16 tol=1.0e-10 samples=20 PASS
identity form-det-vs-euclidean-route: max_dev=1.381e-15 tol=1.0e-09 samples=20 PASS
identity equiaffine-invariance: max_dev=2.300e-13 tol=1.0e-08 samples=4 PASS
identity reparam-fourth-power-law: max_dev=1.078e-14 tol=1.0e-09 samples=20 PASS
identity condition-det-vs-euclidean-route: max_dev=9.209e-16 tol=1.0e-08 samples=20 PASS
identity reference-forms-helicoid: max_dev=8.882e-16 tol=1.0e-09 samples=20 PASS
""",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_check_identities_output_is_unchanged(capsys, name):
    assert main(["check-identities", "--surface", name, "--samples", "20",
                 "--seed", "7"]) == 0
    assert capsys.readouterr().out == GOLDEN[name]


def record_calls(monkeypatch, module, name):
    """Arguments of every call of ``module.name``, seen under each binding
    of it in the package's modules."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if (key.startswith("affinemetrics")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, recording)
    return calls


class TestEvaluationCounts:
    def test_catalog_check_identities_parses_nothing(self, capsys,
                                                     monkeypatch):
        parses = record_calls(monkeypatch, expr, "parse_expression")
        assert main(["check-identities", "--surface", "sphere",
                     "--samples", "8", "--seed", "3"]) == 0
        assert parses == []

    @pytest.mark.parametrize("suite", [idn.lmn_route_suite,
                                       idn.form_routes_suite,
                                       idn.reparam_law_suite])
    @pytest.mark.parametrize("name", ["sphere", "helicoid", "plane"])
    def test_one_order_two_evaluation_per_drawn_point(self, monkeypatch,
                                                      suite, name):
        jet_calls = record_calls(monkeypatch, surfgeo, "surface_jets")
        draws = record_calls(monkeypatch, idn, "random_points")
        report = suite(surfgeo.CATALOG[name], np.random.default_rng(5), 6)
        # the plane's points are all rejected, the others' all accepted
        assert report.samples == (0 if name == "plane" else 6)
        assert len(draws) == (300 if name == "plane" else 6)
        assert [args[3] for args in jet_calls] == [2] * len(draws)

    @pytest.mark.parametrize("name", ["sphere", "helicoid", "paraboloid"])
    def test_one_order_three_evaluation_per_condition_sample(self,
                                                             monkeypatch,
                                                             name):
        jet_calls = record_calls(monkeypatch, surfgeo, "surface_jets")
        report = idn.condition_routes_suite(surfgeo.CATALOG[name],
                                            np.random.default_rng(5), 12)
        order3 = [args[1:3] for args in jet_calls if args[3] == 3]
        # residual, Euclidean route and speed all read one node
        assert report.samples > 0
        assert len(order3) == report.samples
        assert len(set(order3)) == len(order3)


def evaluated_again(monkeypatch, argv):
    """The surface_jets calls of one CLI run that ask for a point at an
    order it already has: at or below an order evaluated there before."""
    calls = record_calls(monkeypatch, surfgeo, "surface_jets")
    assert main(argv) == 0
    held = {}
    again = 0
    for surface, u, v, order in (args[:4] for args in calls):
        # the recorded arguments keep each surface alive, so ids stay unique
        key = (id(surface), u, v)
        again += held.get(key, 0) >= order
        held[key] = max(held.get(key, 0), order)
    return again


@pytest.mark.parametrize("argv", [
    ["check-identities", "--surface", "helicoid", "--samples", "8"],
    ["arclen-compare", "--surface", "sphere", "--curve", "8*t;t",
     "--t-range", "0:1", "--samples", "50"],
    ["surface-info", "--surface", "sphere", "--at", "0,0"],
], ids=["check-identities", "arclen-compare", "surface-info"])
def test_no_point_is_evaluated_twice_at_one_order(capsys, monkeypatch, argv):
    assert evaluated_again(monkeypatch, argv) == 0
