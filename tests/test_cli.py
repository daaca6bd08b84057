import csv
import json
import math
import time

import numpy as np
import pytest

from affinemetrics.cli import main
from affinemetrics.surfgeo import CATALOG

SQRT_2PI = 2.5066282746310002


def run(args):
    return main(list(args))


class TestSurfaceInfo:
    def test_sphere_json(self, capsys):
        assert run(["surface-info", "--surface", "sphere", "--at", "0,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "affinemetrics/1"
        assert payload["K"] == pytest.approx(1.0, rel=1e-12)
        assert payload["iaff_a"] == pytest.approx(1.0, rel=1e-12)
        assert payload["iaff_b"] == 0.0
        assert payload["iaff_c"] == pytest.approx(1.0, rel=1e-12)
        assert payload["classification"] == "elliptic"

    def test_helicoid_csv(self, capsys):
        assert run(["surface-info", "--surface", "helicoid", "--at", "1,0",
                    "--format", "csv"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 1
        row = rows[0]
        assert float(row["K"]) == pytest.approx(-0.25, rel=1e-12)
        assert (float(row["iaff_a"]), float(row["iaff_b"]),
                float(row["iaff_c"])) == (0.0, -1.0, 0.0)
        assert row["classification"] == "hyperbolic"

    def test_plane_degenerate_exit_code(self, capsys):
        assert run(["surface-info", "--surface", "plane", "--at", "0,0"]) == 3
        assert "Degenerate" in capsys.readouterr().err

    def test_inline_surface(self, capsys):
        assert run(["surface-info",
                    "--surface-expr", "u*cos(v);u*sin(v);v",
                    "--domain", "-2:2,-3.14:3.14", "--at", "1,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["K"] == pytest.approx(-0.25, rel=1e-12)

    def test_parse_error_exit_code(self, capsys):
        assert run(["surface-info", "--surface-expr", "u*;v;0",
                    "--domain", "-1:1,-1:1", "--at", "0,0"]) == 2

    def test_huge_integer_power_ends_quickly(self, capsys):
        start = time.perf_counter()
        code = run(["surface-info", "--surface-expr", "u^2147483647;v;u*v",
                    "--at", "0.5,0.5"])
        assert time.perf_counter() - start < 5.0
        assert 0 <= code <= 5
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_surface_exit_code(self, capsys):
        assert run(["surface-info", "--surface", "torus", "--at", "0,0"]) == 2

    def test_negative_coordinates_accepted(self, capsys):
        assert run(["surface-info", "--surface", "sphere",
                    "--at", "-1,0.5"]) == 0


    def test_one_surface_jet_evaluation(self, capsys, monkeypatch):
        from affinemetrics import cli, surfgeo

        orders = []
        original = surfgeo.surface_jets

        def counting(surface, u, v, order, check_domain=True):
            orders.append(order)
            return original(surface, u, v, order, check_domain)

        for module in (cli, surfgeo):
            monkeypatch.setattr(module, "surface_jets", counting)
        assert run(["surface-info", "--surface", "sphere",
                    "--at", "0.3,0.2"]) == 0
        assert orders == [2]

    @pytest.mark.parametrize("name,at", [("sphere", (0.3, 0.2)),
                                         ("helicoid", (1.0, 0.4)),
                                         ("hyperboloid", (0.5, -0.7))])
    def test_fields_match_the_per_point_functions(self, capsys, name, at):
        from affinemetrics import surfgeo

        surface = CATALOG[name]
        assert run(["surface-info", "--surface", name,
                    "--at", f"{at[0]!r},{at[1]!r}"]) == 0
        payload = json.loads(capsys.readouterr().out)
        first, second, _ = surfgeo.fundamental_forms_euclid(surface, *at)
        lmn = surfgeo.affine_lmn(surface, *at)
        form = surfgeo.affine_first_fundamental(surface, *at)
        want = {"E": first.a, "F": first.b, "G": first.c,
                "e": second.a, "f": second.b, "g": second.c,
                "l": lmn.a, "m": lmn.b, "n": lmn.c,
                "K": surfgeo.gauss_curvature(surface, *at),
                "iaff_a": form.a, "iaff_b": form.b, "iaff_c": form.c,
                "iaff_flipped": form.flipped,
                "classification": surfgeo.classify_point(surface, *at).kind}
        assert {k: payload[k] for k in want} == want


class TestExitContract:
    """Hostile inputs end in the documented exit codes, with one error
    line and no traceback."""

    @pytest.mark.parametrize("args", [
        ["surface-info", "--surface-expr", "exp(1000*u);v;u*v",
         "--domain", "-1:1,-1:1", "--at", "0.9,0.1"],
        ["arclen-compare", "--surface-expr", "u;v;exp(800*u)",
         "--domain", "-1:1,-1:1", "--curve", "t;0.2*t", "--t-range", "0:1"],
        ["surface-info", "--surface-expr", "exp(1000);v;u*v",
         "--at", "0.5,0.5"],
        ["surface-info", "--surface-expr", "10^400.5*u;v;u*v",
         "--at", "0.5,0.5"],
    ])
    def test_overflow_is_a_numerical_failure(self, capsys, args):
        assert run(args) == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "DomainError" in errors[0]

    @pytest.mark.parametrize("flag,value", [
        ("--t-max", "-1"), ("--t-max", "0"), ("--t-max", "nan"),
        ("--t-max", "inf"), ("--rel-tol", "0"), ("--rel-tol", "-1e-8"),
        ("--abs-tol", "0"), ("--abs-tol", "abc")])
    def test_bad_solver_flag_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(["commensurate-solve", "--surface", "sphere",
                 "--at", "0.1,0.1", "--theta0", "0.3", f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-1e-10"])
    def test_bad_quadrature_tolerance_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(["arclen-compare", "--surface", "sphere", "--curve",
                 "t;0.2*t", "--t-range", "0:1", f"--tol={value}"])
        assert exc.value.code == 2
        assert "argument --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("commensurate-solve", "--max-steps", "0"),
        ("commensurate-solve", "--max-steps", "-5"),
        ("commensurate-solve", "--max-steps", "1.5"),
        ("commensurate-solve", "--eps-asym", "-1"),
        ("commensurate-solve", "--eps-asym", "0"),
        ("commensurate-solve", "--eps-den", "-1"),
        ("commensurate-solve", "--eps-den", "nan"),
        ("arclen-compare", "--samples", "0"),
        ("check-identities", "--samples", "0"),
        ("check-identities", "--samples", "-3"),
    ])
    def test_bad_count_or_threshold_is_a_usage_error(self, capsys, command,
                                                     flag, value):
        args = {"commensurate-solve": ["--at", "0.1,0.1", "--theta0", "0.3"],
                "arclen-compare": ["--curve", "t;0.2*t", "--t-range", "0:1"],
                "check-identities": []}[command]
        with pytest.raises(SystemExit) as exc:
            run([command, "--surface", "sphere", *args, f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,flag,value", [
        ("check-identities", "--seed", "-1"),
        ("commensurate-solve", "--theta0", "nan"),
        ("commensurate-solve", "--at", "nan,0"),
        ("commensurate-solve", "--omega0", "inf"),
        ("surface-info", "--at", "nan,0"),
        ("arclen-compare", "--t-range", "0:nan"),
    ])
    def test_negative_seed_or_non_finite_value_is_a_usage_error(
            self, capsys, command, flag, value):
        args = {"commensurate-solve": ["--at", "0.1,0.1", "--theta0", "0.3"],
                "arclen-compare": ["--curve", "t;0.2*t", "--t-range", "0:1"],
                "surface-info": ["--at", "0.3,0.2"],
                "check-identities": ["--samples", "2"]}[command]
        with pytest.raises(SystemExit) as exc:
            run([command, "--surface", "sphere", *args, f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["surface-info", "arclen-compare",
                                         "check-identities"])
    @pytest.mark.parametrize("domain", ["nan:1,-1:1", "-1:1,-inf:1",
                                        "-1:inf,-1:1", "-1:1,-1:1e999"])
    def test_non_finite_domain_bound_is_a_config_error(self, capsys, command,
                                                       domain):
        args = {"surface-info": ["--at", "0.5,0.5"],
                "arclen-compare": ["--curve", "t;0.2*t", "--t-range", "0:1"],
                "check-identities": ["--samples", "2"]}[command]
        assert run([command, "--surface-expr", "u;v;u*v", "--domain", domain,
                    *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad domain {domain!r}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("sweep", ["-1e308:1e308:1e-300", "0:1e10:1e-5",
                                       "0:1:0.0001"])
    def test_oversized_sweep_is_a_usage_error(self, capsys, monkeypatch,
                                              sweep):
        from affinemetrics import cli

        def bounded_range(n):
            # a sweep past the bound must be refused before its seeds are
            # listed, so no list this long is ever built here
            assert n <= cli.MAX_SWEEP_SEEDS + 1
            return range(n)

        monkeypatch.setattr(cli, "range", bounded_range, raising=False)
        with pytest.raises(SystemExit) as exc:
            run(["commensurate-solve", "--surface", "sphere", "--at",
                 "0.1,0.1", "--theta0", "0.3", "--omega0", sweep])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"more than {cli.MAX_SWEEP_SEEDS} seeds" in err
        assert "Traceback" not in err

    def test_sweep_at_the_bound_is_accepted(self):
        from affinemetrics import cli
        step = 1.0 / (cli.MAX_SWEEP_SEEDS - 1)
        seeds = cli._parse_sweep(f"0:1:{step!r}")
        assert len(seeds) == cli.MAX_SWEEP_SEEDS
        assert seeds[0] == 0.0 and seeds[-1] == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_derivatives_raise_no_warning(self, capsys):
        # the degeneracy scale of det[a', a'', a'''] overflowed in numpy's
        # norm here; with warnings as errors that ended in a traceback
        assert run(["arclen-compare", "--surface-expr", "u;v;exp(800*u)",
                    "--domain", "-1:1,-1:1", "--curve", "t;0.2*t",
                    "--t-range", "0:1"]) == 5
        assert capsys.readouterr().err == (
            "error: DomainError: exp(799.9999992): math range error\n")

    @pytest.mark.parametrize("expr", ["(" * 3000 + "u" + ")" * 3000,
                                      "-" * 3000 + "u",
                                      "+".join(["u"] * 3000)],
                             ids=["parentheses", "unary-minus", "sum"])
    def test_deep_expression_is_a_parse_error(self, capsys, expr):
        assert run(["surface-info", "--surface-expr", f"{expr};v;u*v",
                    "--at", "0.5,0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: expression nested deeper than")
        assert "Traceback" not in err

    def test_hundred_deep_expression_parses(self, capsys):
        expr = "(" * 100 + "u" + ")" * 100
        assert run(["surface-info", "--surface-expr", f"{expr};v;u*v",
                    "--at", "0.5,0.5", "--format", "csv"]) == 0
        deep = capsys.readouterr().out
        assert run(["surface-info", "--surface-expr", "u;v;u*v",
                    "--at", "0.5,0.5", "--format", "csv"]) == 0
        assert deep == capsys.readouterr().out

    @pytest.mark.parametrize("exprs", ["u;v", "u;v;u*v;1", "u*v"])
    def test_wrong_component_count_is_a_config_error(self, capsys, exprs):
        assert run(["surface-info", "--surface-expr", exprs,
                    "--at", "0,0"]) == 2
        assert capsys.readouterr().err == (
            f"error: bad --surface-expr {exprs!r}, expected 'x;y;z'\n")

    def test_unknown_reference_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["check-identities", "--surface", "sphere",
                 "--reference", "foo"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "argument --reference: invalid choice: 'foo'" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_stage_past_the_float_range_is_a_rejected_step(self, capsys):
        # the first trial step is 1e298 long: its stages overflow to an
        # infinite theta, which the stepper must reject, not raise on
        assert run(["commensurate-solve", "--surface", "sphere",
                    "--at", "0.1,0.1", "--theta0", "0.3", "--t-max", "1e300",
                    "--max-steps", "50"]) == 0
        assert "StepFailure at t=0," in capsys.readouterr().err

    @pytest.mark.parametrize("domain", ["1:-1,-1:1", "-1:1,0:0",
                                        "-1:1,1:-1"])
    def test_non_increasing_domain_is_a_config_error(self, capsys, domain):
        assert run(["surface-info", "--surface-expr", "u;v;u*v",
                    "--domain", domain, "--at", "0,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad domain {domain!r}")
        assert "Traceback" not in err


class TestArclenCompare:
    def test_spherical_helix_row_values(self, capsys):
        assert run(["arclen-compare", "--surface", "sphere",
                    "--curve", "8*t;t", "--t-range", "0:1",
                    "--samples", "5"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 5
        first = rows[0]
        assert float(first["integrand_sigma"]) == pytest.approx(
            math.sqrt(65.0), rel=1e-12)
        assert float(first["integrand_alpha"]) == pytest.approx(
            34320.0 ** (1.0 / 6.0), rel=1e-12)

    def test_helical_spiral_sigma_length(self, capsys):
        assert run(["arclen-compare", "--surface", "helicoid",
                    "--curve", "t;pi*t", "--t-range", "0:1",
                    "--samples", "3"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert float(rows[-1]["s_sigma"]) == pytest.approx(SQRT_2PI, abs=1e-9)

    def test_great_circle_degenerate_alpha(self, capsys):
        assert run(["arclen-compare", "--surface", "sphere",
                    "--curve", "t;0", "--t-range", "0:1",
                    "--samples", "3"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert all(row["alpha_degenerate"] == "true" for row in rows)
        assert all(float(row["s_alpha"]) == 0.0 for row in rows)
        assert float(rows[-1]["s_sigma"]) == pytest.approx(1.0, rel=1e-9)

    def test_json_format_round_trips(self, capsys):
        assert run(["arclen-compare", "--surface", "sphere",
                    "--curve", "8*t;t", "--t-range", "0:1",
                    "--samples", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "affinemetrics/1"
        assert len(payload["rows"]) == 3

    def test_deterministic_output(self, capsys):
        args = ["arclen-compare", "--surface", "sphere", "--curve", "8*t;t",
                "--t-range", "0:1", "--samples", "4"]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first


#: (surface, curve, extra flags): the README curve, a curve in the negative
#: cone of the hyperbolic paraboloid's form, and a curve of negative
#: det[a', a'', a'''] measured with --auto-orient
SHARED_NODE_CURVES = [
    ("sphere", "8*t;t", []),
    ("hyperbolic-paraboloid", "-0.3 - 1.1*t;0.3*t + 0.3*t^2", []),
    ("sphere",
     "0.06 + 0.13*sin(1.8*t) - 0.12*t;-0.07 - 0.34*sin(1.07*t) - 0.14*t",
     ["--auto-orient"]),
]


def _standalone_sums(surface, curve, mirror, samples, tol=1e-10):
    """Running sums and quadrature totals of stand-alone affine_arclength
    and induced_arclength calls over the CLI's segments."""
    from affinemetrics import ParamCurve, affine_arclength, induced_arclength

    pc = ParamCurve.from_strings(CATALOG[surface], *curve.split(";"),
                                 0.0, 1.0)
    ts = [float(t) for t in np.linspace(0.0, 1.0, samples)]
    sums = [(0.0, 0.0)]
    totals = {"alpha": [0.0, 0], "sigma": [0.0, 0]}
    for prev, t in zip(ts, ts[1:]):
        alpha = affine_arclength(pc, prev, t, rel_tol=tol, abs_tol=tol * 1e-2,
                                 mirror=mirror)
        sigma = induced_arclength(pc, prev, t, rel_tol=tol,
                                  abs_tol=tol * 1e-2)
        sums.append((sums[-1][0] + alpha.value, sums[-1][1] + sigma.value))
        for side, seg in (("alpha", alpha), ("sigma", sigma)):
            totals[side][0] += seg.error_estimate
            totals[side][1] += seg.evaluations
    return sums, totals


class TestArclenSharedNodes:
    """arclen-compare evaluates each quadrature node once for both arc
    lengths; its sums must be those of the stand-alone functions."""

    @pytest.mark.parametrize("surface,curve,flags", SHARED_NODE_CURVES)
    def test_rows_are_running_sums_of_standalone_calls(self, capsys, surface,
                                                       curve, flags):
        samples = 50 if curve == "8*t;t" else 8
        assert run(["arclen-compare", "--surface", surface, "--curve", curve,
                    "--t-range", "0:1", f"--samples={samples}",
                    *flags]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        sums, _ = _standalone_sums(surface, curve, bool(flags), samples)
        assert [(float(r["s_alpha"]), float(r["s_sigma"]))
                for r in rows] == sums

    @pytest.mark.parametrize("surface,curve,flags", SHARED_NODE_CURVES[1:])
    def test_json_reports_quadrature_totals(self, capsys, surface, curve,
                                            flags):
        assert run(["arclen-compare", "--surface", surface, "--curve", curve,
                    "--t-range", "0:1", "--samples=8", "--format=json",
                    *flags]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "affinemetrics/1"
        assert payload["columns"][:3] == ["t", "s_alpha", "s_sigma"]
        _, totals = _standalone_sums(surface, curve, bool(flags), 8)
        assert payload["quadrature"] == {
            side: {"error_estimate": err, "evaluations": evals}
            for side, (err, evals) in totals.items()}

    def test_degenerate_alpha_reports_no_alpha_evaluations(self, capsys):
        assert run(["arclen-compare", "--surface", "sphere", "--curve",
                    "t;0", "--t-range", "0:1", "--samples=3",
                    "--format=json"]) == 0
        quad = json.loads(capsys.readouterr().out)["quadrature"]
        assert quad["alpha"] == {"error_estimate": 0.0, "evaluations": 0}
        assert quad["sigma"]["evaluations"] >= 2 * 15

    def _surface_jet_orders(self, monkeypatch, args):
        from affinemetrics import commensurate, surfgeo

        orders = []
        original = surfgeo.surface_jets

        def counting(surface, u, v, order, check_domain=True):
            orders.append(order)
            return original(surface, u, v, order, check_domain)

        for module in (commensurate, surfgeo):
            monkeypatch.setattr(module, "surface_jets", counting)
        assert run(args) == 0
        return orders

    @pytest.mark.parametrize("surface,curve,flags", SHARED_NODE_CURVES)
    def test_no_order_two_evaluations(self, capsys, monkeypatch, surface,
                                      curve, flags):
        orders = self._surface_jet_orders(monkeypatch, [
            "arclen-compare", "--surface", surface, "--curve", curve,
            "--t-range", "0:1", "--samples=8", *flags])
        assert orders and set(orders) == {3}

    def test_degenerate_alpha_evaluates_order_two(self, capsys, monkeypatch):
        orders = self._surface_jet_orders(monkeypatch, [
            "arclen-compare", "--surface", "sphere", "--curve", "t;0",
            "--t-range", "0:1", "--samples=3"])
        # the five equiaffine classification probes, then the induced side
        # alone: one order-2 evaluation per node and per sample row
        assert orders[:5] == [3] * 5
        assert set(orders[5:]) == {2}
        assert len(orders) - 5 == 2 * 15 + 3


class TestCommensurateSolve:
    def test_paraboloid_residual_bound(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run(["commensurate-solve", "--surface", "paraboloid",
                    "--at", "0.5,0.5", "--theta0", "0.3", "--omega0", "0",
                    "--t-max", "1.0", "--output", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) > 10
        assert max(abs(float(r["residual"])) for r in rows) <= 1e-6

    def test_asymptotic_start_exit_code(self, capsys):
        assert run(["commensurate-solve", "--surface",
                    "hyperbolic-paraboloid", "--at", "0,0",
                    "--theta0", "0", "--t-max", "1"]) == 4

    def test_family_sweep_writes_five_files(self, tmp_path, capsys,
                                            monkeypatch):
        out = tmp_path / "fam.csv"
        assert run(["commensurate-solve", "--surface", "sphere",
                    "--at", "0,0", "--theta0", "0",
                    "--omega0", "-1:1:0.5", "--t-max", "0.2",
                    "--output", str(out)]) == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [f"fam_{k:02d}.csv" for k in range(5)]

    def test_sweep_requires_output(self, capsys):
        assert run(["commensurate-solve", "--surface", "sphere",
                    "--at", "0,0", "--theta0", "0",
                    "--omega0", "-1:1:0.5", "--t-max", "0.2"]) == 2

    def test_json_trace_envelope(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert run(["commensurate-solve", "--surface", "sphere",
                    "--at", "0,0", "--theta0", "0.1", "--t-max", "0.2",
                    "--format", "json", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "affinemetrics/1"
        assert payload["event"]["termination"] == "completed"
        assert payload["node_count"] == len(payload["nodes"])
        assert payload["tolerances"]["eps_asym"] == 1e-4
        assert payload["ivp"]["u0"] == 0.0


class TestCheckIdentities:
    def test_sphere_passes(self, capsys):
        assert run(["check-identities", "--surface", "sphere",
                    "--samples", "25", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_helicoid_passes_indefinite_form(self, capsys):
        assert run(["check-identities", "--surface", "helicoid",
                    "--samples", "25", "--seed", "7"]) == 0

    def test_perturbed_sphere_fails_with_named_identity(self, capsys):
        assert run(["check-identities",
                    "--surface-expr",
                    "cos(u)*cos(v);sin(u)*cos(v);1.01*sin(v)",
                    "--domain", "-3:3,-1.4:1.4",
                    "--reference", "sphere",
                    "--samples", "15", "--seed", "7"]) == 1
        captured = capsys.readouterr()
        assert "reference-forms-sphere" in captured.err
