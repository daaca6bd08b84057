import contextlib
import io
import json
import math
import pickle
import random
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest
from jet_route import partial
from reference_routes import (check_reparam_covariance, normal_curvature,
                              recorded)

from affinemetrics import identities as idn
from affinemetrics import cli, expr, surfgeo, tape
from affinemetrics.errors import (
    AffineMetricsError,
    DegenerateSurfacePoint,
    DomainExit,
    SingularJacobian,
    UnsupportedOrder,
)
from affinemetrics.expr import BinOp, Call, Const, Neg, Var, eval_ast, pretty
from affinemetrics.identities import (
    equiaffine_invariance_suite,
    reparam_law_suite,
    lmn_route_suite,
    form_routes_suite,
    random_invertible_2x2,
    random_points,
)
from affinemetrics.surfgeo import (
    CATALOG,
    QuadForm,
    SurfaceDef,
    affine_first_fundamental,
    fundamental_forms_euclid,
    gauss_curvature,
    lmn_from_jets,
    surface_jets,
)
from affinemetrics.jets import Jet2

SPHERE = CATALOG["sphere"]
HELICOID = CATALOG["helicoid"]
PARABOLOID = CATALOG["paraboloid"]
PLANE = CATALOG["plane"]
HYP_PAR = CATALOG["hyperbolic-paraboloid"]
HYPERBOLOID = CATALOG["hyperboloid"]


def _lmn(surface, u, v):
    return lmn_from_jets(surface_jets(surface, u, v, 2))


def _classify(surface, u, v):
    """surface-info's class of the point: its "classification", or
    "degenerate" where it exits 3 with DegenerateSurfacePoint.  A surface
    outside the catalog is passed as its printed components."""
    if CATALOG.get(surface.name) is surface:
        source = ["--surface", surface.name]
    else:
        source = ["--surface-expr",
                  ";".join(pretty(c) for c in surface.components),
                  "--domain", f"{surface.u_min!r}:{surface.u_max!r},"
                              f"{surface.v_min!r}:{surface.v_max!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["surface-info", *source, "--at", f"{u!r},{v!r}"])
    if code == 3 and "DegenerateSurfacePoint" in err.getvalue():
        return "degenerate"
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())["classification"]


def _record(surface, order):
    """The jet kernel (u, v) -> three coefficient tuples of ``surface`` at
    ``order``, or None."""
    return recorded(surface.components, Jet2, order)


def _swap_uv(ast):
    if isinstance(ast, Var):
        return Var({"u": "v", "v": "u"}[ast.name])
    if isinstance(ast, Const):
        return ast
    if isinstance(ast, Neg):
        return Neg(_swap_uv(ast.child))
    if isinstance(ast, BinOp):
        return BinOp(ast.op, _swap_uv(ast.left), _swap_uv(ast.right))
    if isinstance(ast, Call):
        return Call(ast.func, _swap_uv(ast.arg))
    raise TypeError(ast)


def _swapped(surface):
    return SurfaceDef(tuple(_swap_uv(c) for c in surface.components),
                      surface.v_min, surface.v_max,
                      surface.u_min, surface.u_max, surface.name)


class TestSurfaceJets:
    def test_helicoid_partials(self):
        jets = surface_jets(HELICOID, 1.0, 0.0, 2)

        def vec(i, j):
            return [partial(jet, i, j) for jet in jets]

        assert vec(1, 0) == [1.0, 0.0, 0.0]
        assert vec(0, 1) == [0.0, 1.0, 1.0]
        assert vec(2, 0) == [0.0, 0.0, 0.0]
        assert vec(1, 1) == [0.0, 1.0, 0.0]
        assert vec(0, 2) == [-1.0, 0.0, 0.0]

    def test_plane_second_partials_vanish(self):
        jets = surface_jets(PLANE, 0.3, -0.2, 2)
        for jet in jets:
            for ij in ((2, 0), (1, 1), (0, 2)):
                assert partial(jet, *ij) == 0.0

    def test_out_of_domain(self):
        with pytest.raises(DomainExit):
            surface_jets(PLANE, 5.0, 0.0, 2)

    def test_order_capped(self):
        with pytest.raises(UnsupportedOrder):
            surface_jets(PLANE, 0.0, 0.0, 5)


class TestEuclideanForms:
    def test_sphere_forms(self):
        # with the X_u x X_v normal the sphere's second form is the
        # negative of its first form (the worked example uses the inward
        # normal, which flips e, f, g)
        for (u, v) in [(0.0, 0.0), (0.5, -0.7), (2.0, 1.2)]:
            first, second, _ = fundamental_forms_euclid(SPHERE, u, v)
            assert first.a == pytest.approx(math.cos(v) ** 2, rel=1e-14)
            assert first.b == pytest.approx(0.0, abs=1e-15)
            assert first.c == pytest.approx(1.0, rel=1e-14)
            assert second.a == pytest.approx(-first.a, rel=1e-13)
            assert second.b == pytest.approx(0.0, abs=1e-15)
            assert second.c == pytest.approx(-first.c, rel=1e-13)

    def test_helicoid_second_form(self):
        for (u, v) in [(1.0, 0.0), (0.5, 2.0), (-2.0, 1.0)]:
            _, second, _ = fundamental_forms_euclid(HELICOID, u, v)
            assert second.a == pytest.approx(0.0, abs=1e-14)
            assert second.b == pytest.approx(-1.0 / math.sqrt(u * u + 1.0),
                                             rel=1e-13)
            assert second.c == pytest.approx(0.0, abs=1e-14)

    def test_plane_second_form_zero(self):
        _, second, _ = fundamental_forms_euclid(PLANE, 0.1, 0.2)
        assert (second.a, second.b, second.c) == (0.0, 0.0, 0.0)

    def test_normal_is_unit(self):
        _, _, normal = fundamental_forms_euclid(PARABOLOID, 0.5, 1.0)
        assert np.linalg.norm(normal) == pytest.approx(1.0, abs=1e-14)


class TestLmn:
    def test_helicoid(self):
        for (u, v) in [(1.0, 0.0), (-0.5, 3.0), (2.0, -1.0)]:
            lmn = _lmn(HELICOID, u, v)
            assert (lmn.a, lmn.c) == (0.0, 0.0)
            assert lmn.b == pytest.approx(-1.0, rel=1e-14)

    def test_hyperbolic_paraboloid(self):
        lmn = _lmn(HYP_PAR, 0.7, -0.3)
        assert (lmn.a, lmn.b, lmn.c) == (0.0, 1.0, 0.0)

    def test_plane(self):
        lmn = _lmn(PLANE, 0.1, 0.9)
        assert (lmn.a, lmn.b, lmn.c) == (0.0, 0.0, 0.0)

    def test_sphere_closed_form(self):
        for (u, v) in [(0.0, 0.0), (1.2, 0.8), (-2.0, -1.1)]:
            lmn = _lmn(SPHERE, u, v)
            assert lmn.a == pytest.approx(-math.cos(v) ** 3, rel=1e-13)
            assert lmn.b == pytest.approx(0.0, abs=1e-14)
            assert lmn.c == pytest.approx(-math.cos(v), rel=1e-13)

    def test_hyperboloid_closed_form(self):
        for (u, v) in [(0.3, 0.5), (-1.0, 2.0)]:
            lmn = _lmn(HYPERBOLOID, u, v)
            assert lmn.a == pytest.approx(-(v * v + 1.0), rel=1e-13)
            assert lmn.b == pytest.approx(-1.0, rel=1e-13)
            assert lmn.c == pytest.approx(0.0, abs=1e-13)
            assert lmn.det == pytest.approx(-1.0, rel=1e-12)


class TestGaussCurvature:
    def test_sphere(self):
        for (u, v) in [(0.0, 0.0), (1.0, 0.5), (-2.0, -1.0)]:
            assert gauss_curvature(SPHERE, u, v) == pytest.approx(1.0,
                                                                  rel=1e-12)

    def test_helicoid_profile(self):
        for u in np.linspace(-3.9, 3.9, 50):
            got = gauss_curvature(HELICOID, float(u), 0.7)
            assert got == pytest.approx(-1.0 / (u * u + 1.0) ** 2, abs=1e-10)

    def test_plane(self):
        assert gauss_curvature(PLANE, 0.0, 0.0) == 0.0


class TestAffineForm:
    def test_sphere_positive_representative(self):
        for (u, v) in [(0.0, 0.0), (0.5, 1.0), (3.0, -1.2)]:
            form = affine_first_fundamental(SPHERE, u, v)
            assert form.flipped
            assert form.a == pytest.approx(math.cos(v) ** 2, abs=1e-12)
            assert form.b == pytest.approx(0.0, abs=1e-14)
            assert form.c == pytest.approx(1.0, rel=1e-12)
            assert form.det > 0.0 and form.a + form.c > 0.0

    def test_helicoid_indefinite_as_is(self):
        form = affine_first_fundamental(HELICOID, 1.0, 0.3)
        assert not form.flipped
        assert (form.a, form.c) == (0.0, 0.0)
        assert form.b == pytest.approx(-1.0, rel=1e-14)
        assert form.det < 0.0

    def test_paraboloid_flipped(self):
        form = affine_first_fundamental(PARABOLOID, 0.4, 1.2)
        assert form.flipped
        assert form.a == pytest.approx(math.sqrt(2.0) * 1.2 ** 2, rel=1e-12)
        assert form.b == pytest.approx(0.0, abs=1e-13)
        assert form.c == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_plane_degenerate(self):
        with pytest.raises(DegenerateSurfacePoint):
            affine_first_fundamental(PLANE, 0.0, 0.0)


class TestApplyAndNormalCurvature:
    def test_sphere_equator_direction(self):
        form = affine_first_fundamental(SPHERE, 0.3, 0.0)
        assert form.apply(1.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_helicoid_ruling_direction(self):
        form = affine_first_fundamental(HELICOID, 1.0, 0.0)
        assert form.apply(1.0, 0.0) == 0.0

    def test_zero_direction(self):
        form = QuadForm(1.0, 2.0, 3.0)
        assert form.apply(0.0, 0.0) == 0.0

    def test_sphere_normal_curvature_sign(self):
        # -1 with the cross-product normal (the worked example's +1 uses
        # the inward normal); the magnitude is direction independent
        for (du, dv) in [(1.0, 0.0), (0.3, 0.7), (-1.0, 0.5)]:
            got = normal_curvature(SPHERE, 0.5, 0.2, du, dv)
            assert got == pytest.approx(-1.0, rel=1e-12)

    def test_helicoid_ruling_normal_curvature(self):
        assert normal_curvature(HELICOID, 1.0, 0.0, 1.0, 0.0) == 0.0

    def test_plane_normal_curvature(self):
        assert normal_curvature(PLANE, 0.0, 0.0, 0.3, 0.4) == 0.0

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            normal_curvature(SPHERE, 0.0, 0.0, 0.0, 0.0)


class TestClassification:
    def test_catalog_kinds(self):
        assert _classify(SPHERE, 0.0, 0.0) == "elliptic"
        assert _classify(PARABOLOID, 0.5, 1.0) == "elliptic"
        assert _classify(HELICOID, 1.0, 0.0) == "hyperbolic"
        assert _classify(HYP_PAR, 0.0, 0.0) == "hyperbolic"
        assert _classify(PLANE, 0.0, 0.0) == "degenerate"

    def test_margin_reported(self):
        # the plane's ln - m^2 and its terms are both 0, and 0 is zero
        # against 0
        partials = surfgeo._partials(surface_jets(PLANE, 0.0, 0.0, 2))
        with pytest.raises(DegenerateSurfacePoint,
                           match=r"= 0\.0 is zero against its terms 0\.0$"):
            surfgeo.form_from_partials(*partials)
        assert _classify(PLANE, 0.0, 0.0) == "degenerate"

    def test_invariant_under_parameter_swap(self):
        for surface, (u, v) in [(SPHERE, (0.4, 0.2)),
                                (HELICOID, (1.0, 0.5)),
                                (HYP_PAR, (0.3, -0.7))]:
            swapped = _swapped(surface)
            assert _classify(surface, u, v) == _classify(swapped, v, u)

    def test_invariant_under_equiaffine_maps(self):
        from affinemetrics.identities import random_sl3, transformed_surface
        rng = np.random.default_rng(3)
        for surface, (u, v) in [(SPHERE, (0.4, 0.2)),
                                (HELICOID, (1.0, 0.5))]:
            moved = transformed_surface(surface, random_sl3(rng),
                                        rng.uniform(-1, 1, 3))
            assert _classify(surface, u, v) == _classify(moved, u, v)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_grid_keeps_its_class_under_stretches_and_scales(self, name):
        # no Euclidean scale decides a class: two stretching diagonal
        # SL(3) maps and the uniform scales 1e-6 and 1e6 keep each point's
        from affinemetrics.identities import transformed_surface
        surface = CATALOG[name]
        moved = [transformed_surface(surface, np.diag(d), (0.0, 0.0, 0.0))
                 for d in ((1e5, 1e-5, 1.0), (1.0, 1e-5, 1e5),
                           (1e-6, 1e-6, 1e-6), (1e6, 1e6, 1e6))]
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                u = surface.u_min + (surface.u_max - surface.u_min) * i / 4
                v = surface.v_min + (surface.v_max - surface.v_min) * j / 4
                want = _classify(surface, u, v)
                assert [_classify(m, u, v) for m in moved] == [want] * 4, (
                    u, v)


class TestReparamCovariance:
    def test_identity_jacobian_exact(self):
        lhs, rhs = check_reparam_covariance(PARABOLOID, 0.5, 1.0,
                                            np.eye(2))
        assert lhs == rhs

    def test_swap_on_helicoid(self):
        lhs, rhs = check_reparam_covariance(HELICOID, 1.0, 0.5,
                                            [[0.0, 1.0], [1.0, 0.0]])
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_random_jacobians_on_paraboloid(self):
        rng = np.random.default_rng(12)
        for (u, v) in random_points(PARABOLOID, rng, 25):
            jac = random_invertible_2x2(rng)
            lhs, rhs = check_reparam_covariance(PARABOLOID, u, v, jac)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_singular_jacobian(self):
        with pytest.raises(SingularJacobian):
            check_reparam_covariance(PARABOLOID, 0.5, 1.0,
                                     [[1.0, 2.0], [2.0, 4.0]])


class TestIdentitySuites:
    @pytest.mark.parametrize("name", ["sphere", "helicoid", "paraboloid",
                                      "hyperbolic-paraboloid", "hyperboloid"])
    def test_form_routes(self, name):
        report = form_routes_suite(CATALOG[name],
                              np.random.default_rng(21), 40)
        assert report.passed, report.line()

    @pytest.mark.parametrize("name", ["sphere", "helicoid", "paraboloid"])
    def test_lmn_routes(self, name):
        report = lmn_route_suite(CATALOG[name],
                                 np.random.default_rng(22), 40)
        assert report.passed, report.line()

    @pytest.mark.parametrize("name", ["sphere", "helicoid"])
    def test_equiaffine_invariance(self, name):
        report = equiaffine_invariance_suite(CATALOG[name],
                                             np.random.default_rng(23), 20)
        assert report.passed, report.line()

    @pytest.mark.parametrize("name", ["sphere", "paraboloid", "helicoid"])
    def test_reparam_law(self, name):
        report = reparam_law_suite(CATALOG[name],
                              np.random.default_rng(24), 40)
        assert report.passed, report.line()

    def test_reparam_law_hyperboloid_moderate_band(self):
        # at |v| ~ 13 the l n - m^2 cancellation already eats the 1e-9
        # relative budget in float64; check the law where it is resolvable
        import dataclasses
        surface = dataclasses.replace(CATALOG["hyperboloid"],
                                      v_min=-2.0, v_max=2.0)
        report = reparam_law_suite(surface, np.random.default_rng(24), 40)
        assert report.passed, report.line()


def _interpreted(surface, u, v, order):
    """The coefficients of surface_jets's eval_ast route."""
    seed = Jet2.seed_u(u, order)
    bindings = {"u": seed, "v": Jet2.seed_v(v, order)}
    return tuple(seed.lift(eval_ast(comp, bindings)).coeffs
                 for comp in surface.components)


def _bits(rows):
    """Coefficient rows by IEEE bits: -0.0 is not 0.0, every nan is one."""
    return tuple(tuple(x.hex() for x in row) for row in rows)


def _outcome(f, *args):
    try:
        return _bits(f(*args))
    except AffineMetricsError as exc:
        return type(exc), str(exc)


class TestRecordedKernel:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_kernels_are_bit_identical(self, name):
        surface = CATALOG[name]
        rng = random.Random(name)
        for order in (1, 2, 3):
            kernel = _record(surface, order)
            assert kernel is not None
            for k in range(500):
                u = rng.uniform(surface.u_min, surface.u_max)
                v = rng.uniform(surface.v_min, surface.v_max)
                if k % 4 == 1:
                    u = rng.choice((0.0, -0.0))
                elif k % 4 == 2:
                    v = rng.choice((0.0, -0.0))
                elif k % 4 == 3:
                    u, v = rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0))
                got = kernel(u, v)
                # finite points pass the kernel's guard: no fallback here
                assert got is not None
                assert _bits(got) == _bits(
                    _interpreted(surface, u, v, order)), (u, v, order)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_non_finite_points_give_what_eval_ast_gives(self, name,
                                                        monkeypatch):
        monkeypatch.setattr(expr, "RECORD_AFTER", 1)
        surface = replace(CATALOG[name])
        for order in (1, 2, 3):
            for u, v in [(math.inf, 0.5), (0.5, -math.inf), (math.nan, 0.1),
                         (0.2, math.nan), (1e300, -1e300), (1e200, 0.3)]:
                assert _outcome(
                    lambda *a: [j.coeffs for j in surface_jets(*a)],
                    surface, u, v, order, False) == _outcome(
                    _interpreted, surface, u, v, order)
            assert callable(surface._kernels[order])

    def test_kernel_waits_for_record_after_evaluations(self, monkeypatch):
        # the count is kept per shape: the sphere and an inline copy of it,
        # two surfaces of one shape, take turns towards RECORD_AFTER
        recorded = []
        original = tape.factory
        monkeypatch.setattr(tape, "factory", lambda keys, kind, order, n: (
            recorded.append((kind, order)), original(keys, kind, order, n))[1])
        surface = replace(SPHERE)
        inline = SurfaceDef.from_strings(
            "cos(u)*cos(v); sin(u)*cos(v); sin(v)", ((-3, 3), (-1.4, 1.4)))
        want = _bits(_interpreted(surface, 0.1, 0.2, 3))
        for k in range(expr.RECORD_AFTER - 1):
            got = surface_jets((surface, inline)[k % 2], 0.1, 0.2, 3)
            assert _bits(j.coeffs for j in got) == want
        surface_jets(surface, 0.1, 0.2, 2)          # an order of its own
        assert recorded == []
        assert 3 not in surface._kernels and 3 not in inline._kernels
        key = surface._kernels["shape"][0]
        assert key == inline._kernels["shape"][0]
        assert expr._KERNELS == {(key, Jet2, 3): expr.RECORD_AFTER - 1,
                                 (key, Jet2, 2): 1}
        # the shape's RECORD_AFTER-th evaluation records it; the other
        # surface binds the recorded kernel at its next evaluation
        for s in (inline, surface, surface):
            got = surface_jets(s, 0.1, 0.2, 3)
            assert _bits(j.coeffs for j in got) == want
        assert recorded == [(Jet2, 3)]
        assert callable(expr._KERNELS[(key, Jet2, 3)])
        assert expr._KERNELS[(key, Jet2, 2)] == 1
        assert callable(surface._kernels[3]) and callable(inline._kernels[3])
        # a moved, copied or unpickled surface binds its kernels afresh, at
        # its first evaluation once its shape has been recorded
        assert replace(surface)._kernels == {}
        assert deepcopy(surface)._kernels == {}
        copy = pickle.loads(pickle.dumps(surface))
        assert copy == surface and copy._kernels == {}
        assert _bits(j.coeffs for j in surface_jets(copy, 0.1, 0.2, 3)) == \
            want
        assert callable(copy._kernels[3]) and recorded == [(Jet2, 3)]

    def test_count_table_keeps_at_most_max_shapes(self):
        # 200 distinct shapes, u + v^k, each evaluated twice
        for k in range(200):
            surface = SurfaceDef.from_strings(
                f"u; v; u + v^{k}", ((-1.0, 1.0), (-1.0, 1.0)))
            for _ in range(2):
                surface_jets(surface, 0.5, 0.5, 2)
            assert len(expr._KERNELS) <= expr.MAX_SHAPES
        assert len(expr._KERNELS) == expr.MAX_SHAPES
        # the oldest went first: the last MAX_SHAPES shapes are kept
        kept = sorted(key[0][2][2][2][0] for key in expr._KERNELS)
        assert kept == sorted(float(k).hex() for k in
                              range(200 - expr.MAX_SHAPES, 200))
        assert set(expr._KERNELS.values()) == {2}

    @pytest.mark.parametrize("exprs", [
        "u;v;abs(u)", "u;v;u^v", "u;v;v^(u*0 + 2)", "u;abs(v - 3);u*v"])
    def test_branching_trees_stay_interpreted(self, exprs):
        surface = SurfaceDef.from_strings(exprs, ((-1.0, 1.0), (-1.0, 1.0)))
        assert all(_record(surface, order) is None
                   for order in (1, 2, 3))

    @pytest.mark.parametrize("exprs", [
        "u;v;1e308*10*u",
        # inf times a zero term is nan, not a zero term
        "u;v;u*0*(1e308*10)*(v*0)"])
    def test_overflowing_constant_stays_interpreted(self, exprs):
        # inf reaches the kernel, whose source cannot spell it: the
        # surface stays with eval_ast, and gives what it gives
        surface = SurfaceDef.from_strings(exprs, ((-1.0, 1.0), (-1.0, 1.0)))
        assert _record(surface, 2) is None
        assert _bits(j.coeffs for j in surface_jets(surface, 0.5, 0.5, 2)) \
            == _bits(_interpreted(surface, 0.5, 0.5, 2))


class TestSurfaceShapeCache:
    """tape records a surface's shape once per order: the
    surfaces of one shape, differing only in their constants, take their
    kernels from one cached factory, bit for bit eval_ast's, signed zeros
    included."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """The order of each compile during the test."""
        calls = []
        original = tape._compile

        def spy(trees, order, kind, count):
            calls.append(order)
            return original(trees, order, kind, count)

        monkeypatch.setattr(tape, "_compile", spy)
        return calls

    @staticmethod
    def _points(surface, rng, count=30):
        points = [(rng.uniform(surface.u_min, surface.u_max),
                   rng.uniform(surface.v_min, surface.v_max))
                  for _ in range(count)]
        return points + [(0.0, -0.0), (-0.0, 0.3), (0.4, 0.0)]

    def _check(self, surfaces, compiled, orders=(1, 2, 3)):
        """Every surface's kernels against eval_ast; one compile per
        order for all of them."""
        rng = random.Random(len(surfaces))
        for surface in surfaces:
            for order in orders:
                kernel = _record(surface, order)
                assert kernel is not None
                for u, v in self._points(surface, rng):
                    assert _bits(kernel(u, v)) == _bits(
                        _interpreted(surface, u, v, order)), (u, v, order)
        assert sorted(compiled) == sorted(orders)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_transformed_catalog_surfaces(self, compiled, name):
        # random SL(3) maps and shifts, some entries +-0.0, whose products
        # with a component give -0.0
        rng = np.random.default_rng(sorted(CATALOG).index(name))
        surfaces = []
        for k in range(8):
            A = idn.random_sl3(rng)
            b = rng.uniform(-1.0, 1.0, 3)
            if k % 2:
                A[k % 3, (k + 1) % 3] = (0.0, -0.0)[k % 4 // 2]
                b[k % 3] = (-0.0, 0.0)[k % 4 // 2]
            surfaces.append(idn.transformed_surface(CATALOG[name], A, b))
        self._check(surfaces, compiled)

    def test_perturbed_spheres(self, compiled):
        surfaces = [SurfaceDef.from_strings(
            f"cos(u)*cos(v);sin(u)*cos(v);({c})*sin(v)", ((-3, 3), (-1.4, 1.4)))
            for c in ("1.01", "0.99", "-1", "0", "-0", "-1*0", "1e-300",
                      "2^0.5")]
        self._check(surfaces, compiled)

    def test_plane_constant_components(self, compiled):
        surfaces = [SurfaceDef.from_strings(f"u; v; {c}", ((-1, 1), (-1, 1)))
                    for c in ("0", "-0", "0*-1", "3.5", "-pi", "exp(2)")]
        assert _bits(_record(surfaces[1], 2)(
            0.5, 0.5))[2][0] == (-0.0).hex()
        self._check(surfaces, compiled)

    @pytest.mark.parametrize("exprs", ["u;v;log(-1)*u", "u;v;1e308*10*u",
                                       "u;1/0;v", "u;v;sqrt(u)*(-1e308*10)"])
    def test_constants_that_fail_stay_interpreted(self, compiled, exprs):
        surface = SurfaceDef.from_strings(exprs, ((-1.0, 1.0), (-1.0, 1.0)))
        assert _record(surface, 2) is None
        assert compiled == []


def _reparam_interpreted(surface, u, v, jacobian):
    """The order-2 coefficients of _reparam_discriminant's eval_ast route,
    reading the Jacobian as a numpy array."""
    jac = np.asarray(jacobian, dtype=float)
    s = Jet2.seed_u(0.0, 2)
    w = Jet2.seed_v(0.0, 2)
    bindings = {"u": s * jac[0, 0] + w * jac[0, 1] + float(u),
                "v": s * jac[1, 0] + w * jac[1, 1] + float(v)}
    return tuple(s.lift(eval_ast(comp, bindings)).coeffs
                 for comp in surface.components)


def _reparam_surfaces():
    """The catalog, moved catalog surfaces with +-0.0 entries, the README's
    perturbed sphere, a quotient and exp surface, and a -0.0 term."""
    rng = np.random.default_rng(31)
    surfaces = [CATALOG[name] for name in sorted(CATALOG)]
    for k, name in enumerate(("sphere", "helicoid", "paraboloid",
                              "hyperbolic-paraboloid", "hyperboloid")):
        A = idn.random_sl3(rng)
        b = rng.uniform(-1.0, 1.0, 3)
        A[k % 3, (k + 1) % 3] = (0.0, -0.0)[k % 2]
        b[k % 3] = (-0.0, 0.0)[k % 2]
        surfaces.append(idn.transformed_surface(CATALOG[name], A, b))
    surfaces += [SurfaceDef.from_strings(exprs, domain) for exprs, domain in (
        ("cos(u)*cos(v);sin(u)*cos(v);1.01*sin(v)", ((-3, 3), (-1.4, 1.4))),
        ("u/(1 + v^2); exp(u*v)/3; v - u^2/2", ((-1, 1), (-1, 1))),
        ("u;v;-0*u + u^2", ((-1, 1), (-1, 1))))]
    return surfaces


def _jacobian(rng, k):
    """A random Jacobian, every third with a +-0.0 entry or two."""
    jac = [[rng.uniform(-2.0, 2.0) for _ in range(2)] for _ in range(2)]
    if k % 3 == 1:
        jac[k % 2][(k // 2) % 2] = rng.choice((0.0, -0.0))
    elif k % 3 == 2:
        jac[0][k % 2] = rng.choice((0.0, -0.0))
        jac[1][1 - k % 2] = rng.choice((0.0, -0.0))
    return jac


def _record_reparam(surface):
    """The kernel (u, v, j00, j01, j10, j11) -> order-2 coefficients of
    ``surface`` in new parameters, or None."""
    return recorded(surface.components, "reparam", 2)


class TestReparamKernel:
    """The recorded reparametrized walk (tape's "reparam" kind) against
    eval_ast over the same linear bindings, bit for bit."""

    def test_kernel_is_bit_identical(self):
        rng = random.Random(5)
        matched = 0
        for surface in _reparam_surfaces():
            kernel = _record_reparam(surface)
            assert kernel is not None
            for k in range(650):
                u = rng.uniform(surface.u_min, surface.u_max)
                v = rng.uniform(surface.v_min, surface.v_max)
                if k % 5 == 1:
                    u = rng.choice((0.0, -0.0))
                elif k % 5 == 2:
                    v = rng.choice((0.0, -0.0))
                jac = _jacobian(rng, k)
                got = kernel(u, v, *jac[0], *jac[1])
                assert got is not None
                assert _bits(got) == _bits(
                    _reparam_interpreted(surface, u, v, jac)), (u, v, jac)
                matched += len(got)
        assert matched == 14 * 650 * 3

    @pytest.mark.parametrize("record_after", [2 ** 62, 1])
    def test_discriminant_and_errors_match_eval_ast(self, monkeypatch,
                                                    record_after):
        # with the kernel bound from the first walk, and without it
        monkeypatch.setattr(expr, "RECORD_AFTER", record_after)
        rng = random.Random(6)
        for surface in _reparam_surfaces():
            surface = replace(surface)
            for k in range(20):
                u = rng.uniform(surface.u_min, surface.u_max)
                v = rng.uniform(surface.v_min, surface.v_max)
                jac = _jacobian(rng, k)
                disc, jdet = surfgeo._reparam_discriminant(
                    surface, u, v, np.array(jac))
                jets = tuple(Jet2._make(2, row) for row in
                             _reparam_interpreted(surface, u, v, jac))
                assert disc.hex() == surfgeo.lmn_from_jets(jets).det.hex()
                assert jdet == jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
            bound = surface._kernels.get("reparam")
            assert callable(bound) == (record_after == 1)
            for jac in ([[1.0, 2.0], [2.0, 4.0]], [[0.0, -0.0], [0.0, 1.0]],
                        [[-0.0, 1.0], [0.0, -0.0]]):
                with pytest.raises(SingularJacobian) as err:
                    surfgeo._reparam_discriminant(surface, 0.5, 0.5, jac)
                jdet = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
                assert str(err.value) == (
                    f"jacobian determinant {jdet!r} is singular")
            # a small Jacobian is not a singular one: 1e-7 I is regular
            # and obeys the fourth-power law
            disc, jdet = surfgeo._reparam_discriminant(
                surface, 0.5, 0.5, [[1e-7, 0.0], [0.0, 1e-7]])
            want = surfgeo.lmn_from_jets(
                surface_jets(surface, 0.5, 0.5, 2)).det * jdet ** 4
            assert jdet == 1e-7 * 1e-7
            assert disc == pytest.approx(want, rel=1e-9, abs=0.0)
            for jac in ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1.0, 2.0],
                        np.ones((2, 2, 1)), np.eye(3), 3.0):
                with pytest.raises(ValueError, match="jacobian must be 2x2"):
                    surfgeo._reparam_discriminant(surface, 0.5, 0.5, jac)

    @pytest.mark.parametrize("exprs", ["u;v;abs(u)^3", "u;v;u^v"])
    def test_branching_trees_stay_interpreted(self, monkeypatch, exprs):
        monkeypatch.setattr(expr, "RECORD_AFTER", 1)
        surface = SurfaceDef.from_strings(exprs, ((0.1, 1.0), (0.1, 1.0)))
        assert _record_reparam(surface) is None
        jac = [[0.5, -1.0], [1.5, 0.25]]
        disc, _ = surfgeo._reparam_discriminant(surface, 0.5, 0.7, jac)
        jets = tuple(Jet2._make(2, row) for row in
                     _reparam_interpreted(surface, 0.5, 0.7, jac))
        assert disc.hex() == surfgeo.lmn_from_jets(jets).det.hex()
        assert surface._kernels["reparam"] is None
