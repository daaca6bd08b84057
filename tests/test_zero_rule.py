"""One rule decides every "is this zero?": |value| <= jets.ZERO_RTOL times
the magnitudes of the products the value was summed from.

A diagonal SL(3) map multiplies each product of a 3x3 determinant by
a1 a2 a3 = 1, and a uniform scale moves a value and its products alike,
so stretched and scaled surfaces behave as the catalog's do.  What is zero
stays zero.
"""

import json
import math

import numpy as np
import pytest

from affinemetrics.cli import main
from affinemetrics.commensurate import (
    BREAKDOWN_SEEDS,
    CommensurateIVP,
    integrate_commensurate,
)
from affinemetrics.identities import transformed_surface
from affinemetrics.surfgeo import CATALOG

STRETCHED_HELICOID = ["--surface-expr", "1e5*u*cos(v);1e-5*u*sin(v);v",
                      "--domain", "-12:12,-13:13"]
SPHERE_DOMAIN = (f"{CATALOG['sphere'].u_min!r}:{CATALOG['sphere'].u_max!r},"
                 f"{CATALOG['sphere'].v_min!r}:{CATALOG['sphere'].v_max!r}")
TINY_SPHERE = ["--surface-expr",
               "1e-6*cos(u)*cos(v);1e-6*sin(u)*cos(v);1e-6*sin(v)",
               "--domain", SPHERE_DOMAIN]
NONLINEAR_PLANE = "u^2 + v;v^2 - u;0.1*(u^2 + v) + 0.7*(v^2 - u)"
UNIT_BOX = ["--domain", "-1:1,-1:1"]


def _run(capsys, argv):
    """(exit code, stdout, stderr) of one in-process command."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _rows(capsys, source, curve="1.5 + 0.2*t;0.3*t + 0.1*t^2"):
    code, out, err = _run(capsys, ["arclen-compare", *source, "--curve", curve,
                                   "--t-range", "0:1", "--samples", "11",
                                   "--format", "json"])
    assert code == 0, err
    payload = json.loads(out)
    return [dict(zip(payload["columns"], row)) for row in payload["rows"]]


@pytest.mark.parametrize("name, stretch", [
    ("helicoid", (1e5, 1e-5, 1.0)),
    ("hyperbolic-paraboloid", (1.0, 1e-5, 1e5)),
])
def test_stretched_start_solves_as_the_catalogs(name, stretch):
    # the helicoid's start was DegenerateSurfacePoint and the hyperbolic
    # paraboloid's a StepFailure at t = 1.0017 against Euclidean scales
    start = BREAKDOWN_SEEDS[name][0]
    surface = CATALOG[name]
    traces = [integrate_commensurate(CommensurateIVP(
        s, start["u0"], start["v0"], start["theta0"],
        omega0=start["omega0"], t_span=(0.0, 2.0)))
        for s in (surface, transformed_surface(
            surface, np.diag(stretch), (0.0, 0.0, 0.0)))]
    assert [t.termination for t in traces] == ["completed"] * 2
    assert len(traces[0].nodes) == len(traces[1].nodes) == 257


def test_stretched_arclen_matches_the_catalogs(capsys):
    # both sides were degenerate, s_alpha 0, under diag(1e5, 1e-5, 1)
    want = _rows(capsys, ["--surface", "helicoid"])
    got = _rows(capsys, STRETCHED_HELICOID)
    for key in ("s_alpha", "s_sigma", "integrand_alpha", "integrand_sigma"):
        assert [r[key] for r in got] == pytest.approx(
            [r[key] for r in want], rel=1e-12, abs=0.0)
    for key in ("alpha_degenerate", "sigma_degenerate"):
        assert [r[key] for r in got] == [r[key] for r in want]
    assert not any(r["alpha_degenerate"] for r in got)


class TestScaledSphere:
    """The sphere of radius 1e-6: det[a', a'', a'''] scales as lambda^3 and
    the affine form as lambda^(3/2), so s_alpha scales as lambda^(1/2) and
    s_sigma as lambda^(3/4)."""

    LAMBDA = 1e-6

    def test_surface_info_is_elliptic(self, capsys):
        code, out, err = _run(capsys, ["surface-info", *TINY_SPHERE,
                                       "--at", "0.3,0.2"])
        assert code == 0, err
        assert json.loads(out)["classification"] == "elliptic"

    def test_arclen_rows_scale(self, capsys):
        want = _rows(capsys, ["--surface", "sphere"], "8*t;t")
        got = _rows(capsys, TINY_SPHERE, "8*t;t")
        for key, power in (("s_alpha", 0.5), ("s_sigma", 0.75)):
            factor = self.LAMBDA ** power
            assert [r[key] for r in got] == pytest.approx(
                [r[key] * factor for r in want], rel=1e-12, abs=0.0)
        assert got[-1]["s_alpha"] == pytest.approx(5.2359293e-3, rel=1e-7)
        assert got[-1]["s_sigma"] == pytest.approx(2.1528504e-4, rel=1e-7)


def test_near_irregular_point_has_a_finite_curvature(capsys):
    # X_u x X_v = (0, 0, 1e-9) is nonzero, while EG - F^2 rounds to 0.0:
    # K reads |X_u x X_v|^2 and is -1e18, not a ZeroDivisionError
    code, out, err = _run(capsys, ["surface-info", "--surface-expr",
                                   "u + v;1e-9*v;u*v", *UNIT_BOX,
                                   "--at", "0,0"])
    assert code == 0, err
    K = json.loads(out)["K"]
    assert math.isfinite(K) and K == pytest.approx(-1e18, rel=1e-12)
    assert "Traceback" not in err


class TestWhatIsZeroStaysZero:
    @pytest.mark.parametrize("argv", [
        ["surface-info", "--surface", "plane", "--at", "0,0"],
        ["arclen-compare", "--surface", "plane", "--curve", "t;t",
         "--t-range", "0:1"],
        ["commensurate-solve", "--surface", "plane", "--at", "0,0",
         "--theta0", "0.3"],
        ["check-identities", "--surface", "plane", "--samples", "5"],
    ], ids=["surface-info", "arclen-compare", "commensurate-solve",
            "check-identities"])
    def test_plane_exits_3(self, capsys, argv):
        assert _run(capsys, argv)[0] == 3

    @pytest.mark.parametrize("exprs, at", [
        # a plane under a non-linear chart: ln - m^2 is -0.0
        (NONLINEAR_PLANE, "0.3,0.2"),
        # and scaled by 1e-6: -1.85e-68 against terms of 6.3e-52
        (";".join(f"1e-6*({c})" for c in NONLINEAR_PLANE.split(";")),
         "0.3,0.2"),
        # a parabolic point: ln - m^2 and its terms are both 0
        ("u;v;u^3+v^2", "0,0.1"),
    ], ids=["nonlinear-plane", "nonlinear-plane-scaled", "parabolic"])
    def test_degenerate_point_exits_3(self, capsys, exprs, at):
        code, _, err = _run(capsys, ["surface-info", "--surface-expr", exprs,
                                     *UNIT_BOX, "--at", at])
        assert code == 3
        assert "DegenerateSurfacePoint" in err
