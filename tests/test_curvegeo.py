import math

import numpy as np
import pytest
from reference_routes import (
    CurveDef,
    curve_jets,
    draw_component,
    random_nondegenerate_curve,
)

from affinemetrics import identities as idn
from affinemetrics.curvegeo import (
    _columns,
    _frenet_invariants,
    affine_arclength,
    affine_integrand,
    affine_integrand_via_euclidean,
    euclidean_frenet,
    frenet_from_jets,
)
from affinemetrics.errors import (
    AffineMetricsError,
    DegenerateCurve,
    DomainExit,
    EuclideanDegenerate,
    NegativeOrientation,
    NonpositiveTorsion,
    UnsupportedOrder,
    ZeroSpeed,
)
from affinemetrics.identities import (
    integrand_routes_suite,
    random_sl3,
    transformed_surface,
)
from affinemetrics.jets import (
    ZERO_RTOL,
    cross3,
    cross3_is_zero,
    cross3_terms,
    det3,
    det3_terms,
)

SIXTH_ROOT_12 = 1.5130857494229016          # 12^(1/6)
SPIRAL_AFFINE_LENGTH = 3.0894412799902687   # int_0^1 (6 pi^4 + s^2 pi^6)^(1/6),
                                            # 10^6-panel Simpson oracle

TWISTED_CUBIC = CurveDef.from_strings("t; t^2; t^3", -2.0, 2.0)
HELIX = CurveDef.from_strings("cos(t); sin(t); t", -10.0, 10.0)
CIRCLE = CurveDef.from_strings("cos(t); sin(t); 0", -10.0, 10.0)


class TestCurveJets:
    def test_monomial_curve(self):
        jets = curve_jets(TWISTED_CUBIC, 1.0, 3)
        assert [j.coeffs for j in jets] == [
            (1.0, 1.0, 0.0, 0.0), (1.0, 2.0, 2.0, 0.0), (1.0, 3.0, 6.0, 6.0)]

    def test_circle_derivatives(self):
        jets = curve_jets(CIRCLE, 0.0, 2)
        assert [j.coeffs[1] for j in jets] == [0.0, 1.0, 0.0]
        assert [j.coeffs[2] for j in jets] == [-1.0, 0.0, 0.0]

    def test_order_seven_rejected(self):
        with pytest.raises(UnsupportedOrder):
            curve_jets(TWISTED_CUBIC, 0.0, 7)
        with pytest.raises(UnsupportedOrder):
            curve_jets(TWISTED_CUBIC, 0.0, 4)

    def test_domain_exit(self):
        with pytest.raises(DomainExit):
            curve_jets(TWISTED_CUBIC, 5.0, 3)


class TestAffineIntegrand:
    def test_twisted_cubic_constant_integrand(self):
        for t in (-1.0, 0.0, 0.5, 1.7):
            assert affine_integrand(TWISTED_CUBIC, t) == pytest.approx(
                SIXTH_ROOT_12, rel=1e-14)

    def test_planar_circle_degenerate(self):
        with pytest.raises(DegenerateCurve):
            affine_integrand(CIRCLE, 0.3)

    def test_spherical_helix_formula(self):
        curve = CurveDef.from_strings(
            "cos(8*t)*cos(t); sin(8*t)*cos(t); sin(t)", 0.0, 1.0)
        assert affine_integrand(curve, 0.0) == pytest.approx(
            34320.0 ** (1.0 / 6.0), rel=1e-12)
        for t in np.linspace(0.05, 1.0, 10):
            expected = (48.0 * math.cos(t)
                        * (43.0 + 672.0 * math.cos(t) ** 2)) ** (1.0 / 6.0)
            assert affine_integrand(curve, float(t)) == pytest.approx(
                expected, rel=1e-9)

    def test_negative_orientation_carries_determinant(self):
        mirrored = CurveDef.from_strings("-t; t^2; t^3", -2.0, 2.0)
        with pytest.raises(NegativeOrientation) as err:
            affine_integrand(mirrored, 0.5)
        assert err.value.det == pytest.approx(-12.0, rel=1e-12)
        assert affine_integrand(mirrored, 0.5, mirror=True) == pytest.approx(
            SIXTH_ROOT_12, rel=1e-14)


class TestAffineArclength:
    def test_twisted_cubic_unit_interval(self):
        res = affine_arclength(TWISTED_CUBIC, 0.0, 1.0)
        assert res.value == pytest.approx(SIXTH_ROOT_12, rel=1e-10)
        assert not res.degenerate

    def test_helical_spiral_against_simpson_oracle(self):
        spiral = CurveDef.from_strings(
            "t*cos(pi*t); t*sin(pi*t); pi*t", 0.0, 2.0)
        res = affine_arclength(spiral, 0.0, 1.0, rel_tol=1e-12, abs_tol=1e-14)
        assert res.value == pytest.approx(SPIRAL_AFFINE_LENGTH, abs=1e-9)

    def test_empty_interval(self):
        assert affine_arclength(TWISTED_CUBIC, 0.3, 0.3).value == 0.0

    def test_degenerate_curve_flagged_zero(self):
        ruling = CurveDef.from_strings("t; 2*t; 0.5", 0.0, 2.0)
        res = affine_arclength(ruling, 0.0, 1.0)
        assert res.value == pytest.approx(0.0, abs=1e-15)
        assert res.degenerate


class TestEuclideanFrenet:
    def test_circle_radius_two(self):
        circle2 = CurveDef.from_strings("2*cos(t); 2*sin(t); 0", -7.0, 7.0)
        fr = euclidean_frenet(circle2, 0.4)
        assert fr.kappa == pytest.approx(0.5, rel=1e-12)
        assert fr.tau is None          # flagged, not raised
        assert fr.speed == pytest.approx(2.0, rel=1e-14)

    def test_helix_invariants(self):
        fr = euclidean_frenet(HELIX, 0.3)
        assert fr.kappa == pytest.approx(0.5, rel=1e-12)
        assert fr.tau == pytest.approx(0.5, rel=1e-12)
        assert fr.speed == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_straight_line_degenerate(self):
        line = CurveDef.from_strings("2*t; 0; 0", -1.0, 1.0)
        with pytest.raises(EuclideanDegenerate):
            euclidean_frenet(line, 0.0)

    def test_frame_orthonormal_right_handed(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            curve, t = random_nondegenerate_curve(rng)
            fr = euclidean_frenet(curve, t)
            frame = np.column_stack([fr.e1, fr.e2, fr.e3])
            assert np.abs(frame.T @ frame - np.eye(3)).max() < 1e-12
            assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-12)


def frenet_by_linalg_norm(jets, t):
    """frenet_from_jets as written with np.linalg.norm before its split:
    (e1, e2, e3, speed, kappa, tau), the reference of the split route."""
    d1, d2, d3 = _columns(jets)
    det, terms = det3(d1, d2, d3), cross3_terms(d1, d2)
    tau_terms = det3_terms(terms, d3)
    d1, d2 = np.array(d1), np.array(d2)
    v = float(np.linalg.norm(d1))
    if v <= 1e-300:
        raise ZeroSpeed(f"|a'(t)| = 0 at t = {t!r}")
    cross = np.array(cross3(d1, d2))
    cross_norm = float(np.linalg.norm(cross))
    if cross3_is_zero(cross, terms) or not cross_norm:
        raise EuclideanDegenerate("frame undefined")
    kappa = cross_norm / v ** 3
    tau = det / cross_norm ** 2 if abs(det) > ZERO_RTOL * tau_terms else None
    e1 = d1 / v
    e2_raw = d2 - float(np.dot(d2, e1)) * e1
    e2 = e2_raw / np.linalg.norm(e2_raw)
    e3 = np.array(cross3(e1, e2))
    return e1, e2, e3, v, kappa, tau


def frenet_reprs(e1, e2, e3, speed, kappa, tau):
    return ([repr(x) for x in (*e1.tolist(), *e2.tolist(), *e3.tolist())],
            repr(speed), repr(kappa), repr(tau))


class TestSplitFrenet:
    """frenet_from_jets reads its norms as sqrt(x.dot(x)) and its
    invariants off _frenet_invariants: both bit for bit the
    np.linalg.norm route."""

    def assert_same(self, jets, t):
        try:
            want = frenet_by_linalg_norm(jets, t)
        except AffineMetricsError as exc:
            with pytest.raises(type(exc)):
                frenet_from_jets(jets, t)
            with pytest.raises(type(exc)):
                _frenet_invariants(*_columns(jets), t)
            return False
        fr = frenet_from_jets(jets, t)
        got = (fr.e1, fr.e2, fr.e3, fr.speed, fr.kappa, fr.tau)
        assert frenet_reprs(*got) == frenet_reprs(*want)
        assert ([repr(x) for x in _frenet_invariants(*_columns(jets), t)]
                == [repr(x) for x in want[3:]])
        return True

    def test_helix(self):
        for t in (-9.5, -1.0, -0.0, 0.0, 0.3, 2.2, 7.0):
            assert self.assert_same(HELIX.curve_jets(t, 3), t)

    def test_integrand_suite_draws(self):
        # every try of the integrand suite's draw, the rejected ones too
        rng = np.random.default_rng(17)
        accepted = 0
        for _ in range(1000):
            components = tuple(draw_component(rng) for _ in range(3))
            t = float(rng.uniform(-1.0, 1.0))
            accepted += self.assert_same(idn._poly_trig_jets(components, t),
                                         t)
        assert accepted > 900

    def test_degenerate_jets_raise_alike(self):
        line = CurveDef.from_strings("2*t; 0; 0", -1.0, 1.0)
        still = CurveDef.from_strings("1; 2; 3", -1.0, 1.0)
        assert not self.assert_same(line.curve_jets(0.5, 3), 0.5)
        assert not self.assert_same(still.curve_jets(0.5, 3), 0.5)
        # a planar curve: tau is None on both routes
        assert self.assert_same(CIRCLE.curve_jets(0.5, 3), 0.5)


class TestEuclideanRoute:
    def test_helix_integrand_is_one(self):
        assert affine_integrand_via_euclidean(HELIX, 0.7) == pytest.approx(
            1.0, rel=1e-13)
        assert affine_integrand(HELIX, 0.7) == pytest.approx(1.0, rel=1e-13)

    def test_matches_determinant_route(self):
        assert affine_integrand_via_euclidean(TWISTED_CUBIC, 0.0) \
            == pytest.approx(affine_integrand(TWISTED_CUBIC, 0.0), rel=1e-12)

    def test_planar_curve_nonpositive_torsion(self):
        with pytest.raises(NonpositiveTorsion):
            affine_integrand_via_euclidean(CIRCLE, 0.2)

    def test_integrand_routes_random_suite(self):
        report = integrand_routes_suite(np.random.default_rng(101), 100,
                              tolerance=1e-9)
        assert report.passed, report.line()


class TestInvarianceProperties:
    def test_equiaffine_invariance_of_integrand_and_arclength(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            A = random_sl3(rng)
            b = rng.uniform(-1.0, 1.0, size=3)
            moved = transformed_surface(TWISTED_CUBIC, A, b)
            assert affine_integrand(moved, 0.6) == pytest.approx(
                affine_integrand(TWISTED_CUBIC, 0.6), rel=1e-9)
            got = affine_arclength(moved, 0.0, 1.0).value
            want = affine_arclength(TWISTED_CUBIC, 0.0, 1.0).value
            assert got == pytest.approx(want, rel=1e-9)

    def test_euclidean_invariance_under_rotations(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            b = rng.uniform(-1.0, 1.0, size=3)
            moved = transformed_surface(HELIX, q, b)
            fr0 = euclidean_frenet(HELIX, 0.3)
            fr1 = euclidean_frenet(moved, 0.3)
            assert fr1.kappa == pytest.approx(fr0.kappa, rel=1e-10)
            assert fr1.tau == pytest.approx(fr0.tau, rel=1e-10)
            assert fr1.speed == pytest.approx(fr0.speed, rel=1e-10)

    def test_reparametrization_covariance(self):
        # phi(t) = t/2 + t^2/10 is monotone on [0, 1]
        reparam = CurveDef.from_strings(
            "(t/2 + t^2/10); (t/2 + t^2/10)^2; (t/2 + t^2/10)^3", 0.0, 1.0)
        lhs = affine_arclength(reparam, 0.0, 1.0,
                               rel_tol=1e-12, abs_tol=1e-13).value
        rhs = affine_arclength(TWISTED_CUBIC, 0.0, 0.6,
                               rel_tol=1e-12, abs_tol=1e-13).value
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_scaling_law(self):
        lam = 1.7
        scaled = CurveDef.from_strings(
            f"{lam}*t; {lam}*t^2; {lam}*t^3", -2.0, 2.0)
        assert affine_integrand(scaled, 0.4) == pytest.approx(
            math.sqrt(lam) * affine_integrand(TWISTED_CUBIC, 0.4), rel=1e-10)
