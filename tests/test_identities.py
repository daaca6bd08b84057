"""The identity suites' sample construction and evaluation counts.

Random curves are drawn as coefficients.  The integrand suite reads their
jets off a straight-line kernel, which must give, bit for bit, what the
curves' expression trees give under eval_ast; the trees, which the
reference_routes helper builds, must equal the parsed written forms,
which are kept here as references.  The condition suite's parameter
paths are coefficients too, with the helper's quadratic tree as the
reference of their kernel.  Every draw is a scaled rng.random draw, which must equal numpy's
rng.uniform bit for bit.  The golden lines pin the check-identities
output to what the string-built samples printed.
"""

import math
import sys

import jet_route
import numpy as np
import pytest
import reference_routes as ref

from affinemetrics import expr, surfgeo
from affinemetrics import identities as idn
from affinemetrics.cli import main
from affinemetrics.commensurate import ParamCurve
from affinemetrics.curvegeo import (
    _columns,
    _frenet_invariants,
    frenet_from_jets,
)
from affinemetrics.errors import AffineMetricsError
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
            built = ref.poly_trig_component(built_rng)
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
            built = ref.quadratic(c0, c1, c2)
            parsed = parse_expression(quadratic_string(c0, c1, c2), {"t"})
            assert built == fold_negated_constants(parsed)
            assert_same_values(built, parsed)


def coefficient_reprs(jets):
    """Every jet coefficient as its repr, so a signed zero counts."""
    return [[repr(c) for c in jet.coeffs] for jet in jets]


def tree_route_draw(rng, max_tries=50):
    """The curve draw made from expression trees: three components, then
    t, with the jets from eval_ast; a curve with torsion below -1e-3 is
    built again with the z component's seven non-frequency coefficients
    negated, and its jets evaluated again."""
    for _ in range(max_tries):
        coeffs = [ref.draw_component(rng) for _ in range(3)]
        curve = ref.CurveDef(tuple(map(ref.component_tree, coeffs)),
                             -1.5, 1.5)
        t = float(rng.uniform(-1.0, 1.0))
        jets = ref.curve_jets(curve, t, 3)
        try:
            fr = frenet_from_jets(jets, t)
        except AffineMetricsError:
            continue
        if fr.tau is not None and fr.tau < -1e-3:
            z = coeffs[2]
            coeffs[2] = (*[-c for c in z[:7]], *z[7:])
            curve = ref.CurveDef(tuple(map(ref.component_tree, coeffs)),
                                 -1.5, 1.5)
            jets = ref.curve_jets(curve, t, 3)
            fr = frenet_from_jets(jets, t)
        if (fr.tau is not None and fr.tau > 1e-3
                and 1e-3 < fr.kappa < 1e3 and 1e-2 < fr.speed < 1e2):
            return curve, t, jets
    raise RuntimeError("could not draw a well-conditioned curve")


class TestCurveKernel:
    @pytest.mark.parametrize("seed", [0, 1, 7, 41, 2012])
    def test_kernel_jets_equal_tree_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            components = tuple(ref.draw_component(rng) for _ in range(3))
            trees = [ref.component_tree(c) for c in components]
            drawn = float(rng.uniform(-1.0, 1.0))
            for t in (drawn, -drawn, 0.0, -1.4, 1.3):
                seed_jet = {"t": Jet1.seed(t, 3)}
                assert (coefficient_reprs(idn._poly_trig_jets(components, t))
                        == coefficient_reprs(eval_ast(tree, seed_jet)
                                             for tree in trees))

    @pytest.mark.parametrize("seed", [0, 3, 7, 41, 2012])
    def test_random_curve_matches_the_tree_route(self, seed):
        kernel_rng = np.random.default_rng(seed)
        curve_rng = np.random.default_rng(seed)
        tree_rng = np.random.default_rng(seed)
        for _ in range(8):
            components, t, jets, _ = idn._draw_curve(kernel_rng)
            curve, t_curve = ref.random_nondegenerate_curve(curve_rng)
            tree_curve, t_tree, tree_jets = tree_route_draw(tree_rng)
            assert t == t_curve == t_tree
            assert curve == tree_curve
            assert curve.components == tuple(map(ref.component_tree,
                                                 components))
            assert (coefficient_reprs(ref.curve_jets(curve, t, 3))
                    == coefficient_reprs(jets)
                    == coefficient_reprs(tree_jets))
        # all three routes draw the same numbers in the same order
        assert (kernel_rng.random() == curve_rng.random()
                == tree_rng.random())

    @pytest.mark.parametrize("seed", [0, 1, 7, 41, 2012])
    def test_reflection_is_the_kernel_of_the_reflected_coefficients(self,
                                                                     seed):
        # negation commutes with every float operation of the kernel and
        # of the Frenet invariants: the reflected jets are the kernel's
        # jets of the reflected coefficients, repr for repr, tau changes
        # sign exactly and speed and kappa keep their bits
        rng = np.random.default_rng(seed)
        negative = 0
        for _ in range(300):
            components = tuple(ref.draw_component(rng) for _ in range(3))
            t = float(rng.uniform(-1.0, 1.0))
            jets = idn._poly_trig_jets(components, t)
            mirrored, mirrored_jets = idn._reflected(components, jets)
            assert mirrored[:2] == components[:2]
            assert mirrored[2][7:] == components[2][7:]
            assert (coefficient_reprs(mirrored_jets)
                    == coefficient_reprs(idn._poly_trig_jets(mirrored, t)))
            try:
                speed, kappa, tau = _frenet_invariants(*_columns(jets), t)
            except AffineMetricsError:
                continue
            got = _frenet_invariants(*_columns(mirrored_jets), t)
            assert float_reprs(got[:2]) == float_reprs((speed, kappa))
            if tau is None:
                assert got[2] is None
            else:
                assert repr(got[2]) == repr(-tau)
                negative += tau < 0.0
        assert 100 < negative < 200

    def test_every_drawn_curve_has_positive_torsion(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            components, t, jets, (speed, kappa, tau) = idn._draw_curve(rng)
            assert (_frenet_invariants(*_columns(jets), t)
                    == (speed, kappa, tau))
            assert tau > 1e-3


def float_reprs(values):
    """Each float as its repr, so that a signed zero counts."""
    return [repr(float(x)) for x in values]


def suite_bounds():
    """Every (low, high) pair the suites draw uniform numbers from: each
    catalog domain less its 0.02 margin, and the constant ranges."""
    pairs = [(-2.0, 2.0), (0.5, 2.5), (-1.0, 1.0)]
    for s in surfgeo.CATALOG.values():
        du, dv = s.u_max - s.u_min, s.v_max - s.v_min
        pairs.append((s.u_min + 0.02 * du, s.u_max - 0.02 * du))
        pairs.append((s.v_min + 0.02 * dv, s.v_max - 0.02 * dv))
    return pairs


class RandomOnly:
    """A generator with random and normal but no uniform method."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.random = rng.random
        self.normal = rng.normal


class TestUniformDraws:
    def test_uniform_equals_numpys_uniform(self):
        pairs = suite_bounds()
        for seed in range(200):
            ours = np.random.default_rng(seed)
            numpys = np.random.default_rng(seed)
            for count in (1, 4, 9):
                for low, high in pairs:
                    assert (float_reprs(idn._uniform(ours, low, high, count))
                            == float_reprs(numpys.uniform(low, high,
                                                          size=count)))
                    # the same draws taken, so the streams stay in step
                    assert ours.random() == numpys.random()

    @pytest.mark.parametrize("low, high", [(-1.7e308, 1.7e308),
                                           (0.0, math.inf),
                                           (-math.inf, 0.0),
                                           (0.0, math.nan)])
    def test_a_span_past_the_float_range_raises(self, low, high):
        with pytest.raises(OverflowError):
            np.random.default_rng(0).uniform(low, high, size=2)
        with pytest.raises(OverflowError):
            idn._uniform(np.random.default_rng(0), low, high, 2)

    @pytest.mark.parametrize("name", sorted(surfgeo.CATALOG))
    def test_random_points_are_numpys_two_uniform_draws(self, name):
        s = surfgeo.CATALOG[name]
        du, dv = s.u_max - s.u_min, s.v_max - s.v_min
        for seed in range(20):
            ours = np.random.default_rng(seed)
            numpys = np.random.default_rng(seed)
            for count in (1, 2, 25):
                # consecutive numbers pair as (u, v)
                want = [(numpys.uniform(s.u_min + 0.02 * du,
                                        s.u_max - 0.02 * du),
                         numpys.uniform(s.v_min + 0.02 * dv,
                                        s.v_max - 0.02 * dv))
                        for _ in range(count)]
                got = idn.random_points(s, ours, count)
                assert ([float_reprs(p) for p in got]
                        == [float_reprs(p) for p in want])
            assert ours.random() == numpys.random()

    def test_invertible_2x2_is_numpys_uniform_draw(self):
        for seed in range(50):
            ours = np.random.default_rng(seed)
            numpys = np.random.default_rng(seed)
            while True:
                m = numpys.uniform(-2.0, 2.0, size=(2, 2))
                if abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) > 0.4:
                    break
            got = idn.random_invertible_2x2(ours)
            assert got.shape == (2, 2)
            assert float_reprs(got.ravel()) == float_reprs(m.ravel())
            assert ours.random() == numpys.random()

    @pytest.mark.parametrize("name", ["sphere", "helicoid"])
    def test_no_suite_calls_uniform(self, name):
        surface = surfgeo.CATALOG[name]
        runs = [
            lambda rng: idn.integrand_routes_suite(rng, 10),
            lambda rng: idn.lmn_route_suite(surface, rng, 10),
            lambda rng: idn.form_routes_suite(surface, rng, 10),
            lambda rng: idn.equiaffine_invariance_suite(surface, rng, 8),
            lambda rng: idn.reparam_law_suite(surface, rng, 10),
            lambda rng: idn.condition_routes_suite(surface, rng, 10),
            lambda rng: idn.reference_form_suite(surface, name, rng, 10),
            lambda rng: ref.random_nondegenerate_curve(rng),
        ]
        for run in runs:
            # a uniform call would raise AttributeError
            assert run(RandomOnly(9)) == run(np.random.default_rng(9))


class CountingGenerator:
    """numpy's generator, with the size of every random call recorded."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


# a surface whose candidates are rejected where u < 0: sqrt raises there
HALF_SQRT = surfgeo.SurfaceDef.from_strings("u;v;sqrt(u)+v^2",
                                            ((-1.0, 1.0), (-1.0, 1.0)))


class TestBatchedDraws:
    @pytest.mark.parametrize("surface", [
        surfgeo.CATALOG["sphere"], surfgeo.CATALOG["helicoid"], HALF_SQRT,
        surfgeo.CATALOG["plane"]], ids=["sphere", "helicoid", "half-sqrt",
                                        "plane"])
    @pytest.mark.parametrize("count", [1, 4, 20])
    def test_points_are_those_of_one_draw_at_a_time(self, surface, count):
        # the same points, by repr, and the same generator state after
        for seed in (0, 5, 11):
            ours = np.random.default_rng(seed)
            single = np.random.default_rng(seed)
            got = idn._regular_nondegenerate_points(surface, ours, count)
            want = ref.one_point_at_a_time(surface, single, count)
            assert [repr(p) for p in got] == [repr(p) for p in want]
            if surface.name == "plane":
                assert got == []
            else:
                assert len(got) == count
            assert (ours.bit_generator.state
                    == single.bit_generator.state)

    def test_a_round_draws_only_the_missing_points(self):
        # about half the candidates are rejected, so the rounds shrink,
        # and there are far fewer generator calls than candidates
        rng = CountingGenerator(2)
        points = idn._regular_nondegenerate_points(HALF_SQRT, rng, 20)
        assert len(points) == 20
        assert rng.sizes[0] == 40
        assert all(a >= b for a, b in zip(rng.sizes, rng.sizes[1:]))
        assert 2 * len(rng.sizes) < sum(rng.sizes) // 2

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_integrand_suite_draws_once_per_sample(self, seed):
        rng = CountingGenerator(seed)
        report = idn.integrand_routes_suite(rng, 20)
        assert report.samples == 20 and report.passed
        assert rng.sizes == [28] * 20

    def test_integrand_suite_redraws_rarely(self):
        # only |tau| <= 1e-3 and the curvature and speed bounds redraw:
        # 17 of 5,017 tries at seed 0, where discarding the negative
        # torsions took about two tries per sample
        rng = CountingGenerator(0)
        assert idn.integrand_routes_suite(rng, 5000).passed
        assert set(rng.sizes) == {28}
        assert len(rng.sizes) <= 5050


class TestQuadraticKernel:
    def test_kernel_jet_equals_tree_evaluation(self):
        rng = np.random.default_rng(11)
        seed_jet = {"t": Jet1.seed(0.0, 3)}
        for _ in range(500):
            coeffs = [float(rng.uniform(-12.0, 12.0)),
                      *rng.uniform(-1.0, 1.0, size=2).tolist()]
            # each coefficient is +0.0 a quarter of the time, -0.0 another
            for k, pick in enumerate(rng.integers(0, 4, size=3).tolist()):
                if pick < 2:
                    coeffs[k] = (0.0, -0.0)[pick]
            kernel = idn._quadratic_path(*coeffs)
            tree = eval_ast(ref.quadratic(*coeffs), seed_jet)
            assert tree.order == 3
            assert (coefficient_reprs([Jet1(kernel)])
                    == coefficient_reprs([tree]))

    @pytest.mark.parametrize("name", ["sphere", "helicoid", "hyperboloid"])
    def test_condition_suite_builds_no_tree(self, monkeypatch, name):
        paths = []
        original = ParamCurve.param_jets

        def recording(self, *args):
            paths.append(args)
            return original(self, *args)

        monkeypatch.setattr(ParamCurve, "param_jets", recording)
        report = idn.condition_routes_suite(surfgeo.CATALOG[name],
                                            np.random.default_rng(6), 12)
        assert report.samples > 0
        assert paths == []


def condition_suite_by_trees(surface, rng, samples, tolerance=1e-8):
    """condition_routes_suite as it was written over expression trees, the
    Jet node of a ParamCurve and np.linalg.norm: the reference route."""
    worst = 0.0
    count = 0
    points = idn._regular_nondegenerate_points(surface, rng, samples)
    for p in points:
        u, v = p.u, p.v
        c1u, c2u, c1v, c2v = rng.uniform(-1.0, 1.0, size=4).tolist()
        if math.hypot(c1u, c1v) < 0.3:
            continue
        pc = ParamCurve(surface, ref.quadratic(u, c1u, c2u),
                        ref.quadratic(v, c1v, c2v), -0.1, 0.1)
        try:
            node = jet_route.curve_node(pc, 0.0)
            residual = jet_route.residual(node)
            check = jet_route.condition_check(node)
        except AffineMetricsError:
            continue
        if check.degenerate:
            continue
        speed = float(np.linalg.norm([comp.coeffs[1] for comp in node[3]]))
        other = speed ** 6 * (check.lhs - check.rhs)
        worst = idn._worse(worst, abs(residual - other)
                           / max(abs(residual), abs(other), 1.0))
        count += 1
    return idn.IdentityReport("condition-det-vs-euclidean-route", worst,
                              tolerance, count, len(points))


@pytest.mark.parametrize("name", ["sphere", "helicoid", "paraboloid",
                                  "hyperbolic-paraboloid", "hyperboloid"])
def test_condition_suite_matches_the_tree_route(monkeypatch, name):
    # the suite reads one float node per sample and builds no Jet node
    surface = surfgeo.CATALOG[name]
    for seed in (0, 5, 7):
        ours = np.random.default_rng(seed)
        trees = np.random.default_rng(seed)
        with monkeypatch.context() as patch:
            jet_route.refuse_jet_route(patch)
            got = idn.condition_routes_suite(surface, ours, 30)
        want = condition_suite_by_trees(surface, trees, 30)
        assert got == want
        assert repr(got.max_deviation) == repr(want.max_deviation)
        assert ours.random() == trees.random()


# stdout of check-identities --samples 20 --seed 7 while the samples were
# still written out and parsed, except the integrand line, which the
# reflection of negative-torsion curves changed
GOLDEN = {
    "sphere": """\
identity integrand-det-vs-euclidean-route: max_dev=1.959e-16 tol=1.0e-08 samples=20 PASS
identity lmn-determinant-vs-dot-route: max_dev=1.110e-16 tol=1.0e-10 samples=20 PASS
identity form-det-vs-euclidean-route: max_dev=2.220e-16 tol=1.0e-09 samples=20 PASS
identity equiaffine-invariance: max_dev=1.554e-15 tol=1.0e-08 samples=4 PASS
identity reparam-fourth-power-law: max_dev=8.030e-15 tol=1.0e-09 samples=20 PASS
identity condition-det-vs-euclidean-route: max_dev=1.305e-15 tol=1.0e-08 samples=20 PASS
identity reference-forms-sphere: max_dev=4.441e-16 tol=1.0e-09 samples=20 PASS
""",
    "helicoid": """\
identity integrand-det-vs-euclidean-route: max_dev=1.959e-16 tol=1.0e-08 samples=20 PASS
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


PERTURBED_SPHERE = ["--surface-expr",
                    "cos(u)*cos(v);sin(u)*cos(v);1.01*sin(v)",
                    "--domain", "-3:3,-1.4:1.4", "--reference", "sphere"]


@pytest.mark.parametrize("samples", [20, 200])
@pytest.mark.parametrize("source", [
    *(["--surface", name] for name in ("sphere", "helicoid", "paraboloid",
                                       "hyperbolic-paraboloid",
                                       "hyperboloid")),
    PERTURBED_SPHERE], ids=lambda source: source[1].split(";")[0])
def test_reports_are_the_same_with_recording_off_and_on(capsys, monkeypatch,
                                                        source, samples):
    # every suite's report, by repr: with eval_ast alone, then with every
    # shape recorded at its first evaluation, the moved surfaces' and the
    # reparametrized walks' included
    reports = []
    line = idn.IdentityReport.line

    def spy(report):
        reports.append(repr(report))
        return line(report)

    monkeypatch.setattr(idn.IdentityReport, "line", spy)
    runs = {2 ** 62: [], 1: []}
    for record_after, outcomes in runs.items():
        monkeypatch.setattr(expr, "RECORD_AFTER", record_after)
        for seed in (0, 1, 2, 7):
            reports.clear()
            code = main(["check-identities", *source,
                         f"--samples={samples}", f"--seed={seed}"])
            outcomes.append((code, reports[:]))
    assert runs[2 ** 62] == runs[1]
    assert [code for code, _ in runs[1]] == [
        1 if source is PERTURBED_SPHERE else 0] * 4
    if source[0] == "--surface":
        kernels = surfgeo.CATALOG[source[1]]._kernels
        assert callable(kernels["reparam"]) and callable(kernels[2])


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

    def test_integrand_suite_builds_and_walks_no_tree(self, monkeypatch):
        walks = record_calls(monkeypatch, expr, "eval_ast")
        report = idn.integrand_routes_suite(np.random.default_rng(4), 20)
        assert report.samples == 20 and report.passed
        assert walks == []

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
        assert report.points == report.samples
        drawn = sum(args[2] for args in draws)
        assert drawn == (300 if name == "plane" else 6)
        assert [args[3] for args in jet_calls] == [2] * drawn

    @pytest.mark.parametrize("suite", [
        idn.lmn_route_suite, idn.reparam_law_suite,
        lambda surface, rng, samples: idn.reference_form_suite(
            surface, "hyperboloid", rng, samples)],
        ids=["lmn", "reparam", "reference"])
    def test_lmn_once_per_drawn_point(self, monkeypatch, suite):
        # the suites read l, m, n off the point, as the form's filter
        # computed them; only the reparametrized surface's lhs of the
        # fourth-power law takes its own
        lmn_calls = record_calls(monkeypatch, surfgeo, "_lmn")
        draws = record_calls(monkeypatch, idn, "random_points")
        report = suite(surfgeo.CATALOG["hyperboloid"],
                       np.random.default_rng(5), 6)
        assert report.samples == 6 and report.passed
        own = report.samples if suite is idn.reparam_law_suite else 0
        assert len(lmn_calls) == sum(args[2] for args in draws) + own

    @pytest.mark.parametrize("name", ["sphere", "helicoid", "hyperboloid"])
    def test_point_lmn_is_the_jets_lmn(self, name):
        surface = surfgeo.CATALOG[name]
        points = idn._regular_nondegenerate_points(
            surface, np.random.default_rng(8), 10)
        assert len(points) == 10
        for p in points:
            want = surfgeo.lmn_from_jets(
                surfgeo.surface_jets(surface, p.u, p.v, 2))
            assert float_reprs(p.lmn) == float_reprs(want.coefficients())

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


def test_a_nan_deviation_never_passes():
    # max() keeps its first argument against a nan: max(0.0, nan) is 0.0
    assert math.isnan(idn._worse(0.0, math.nan))
    assert math.isnan(idn._worse(math.nan, 1.0))
    assert math.isnan(idn._worse(0.5, 0.1, math.nan, 2.0))
    assert idn._worse(0.5, 0.1, 0.7, 0.2) == 0.7
    report = idn.IdentityReport("x", idn._worse(0.0, math.nan), 1e-8, 1)
    assert not report.passed
    assert report.line().endswith("FAIL")
