import ast
import csv
import inspect
import itertools
import json
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import jet_route
import numpy as np
import pytest
from reference_routes import recharted

from affinemetrics import cli, expr, surfgeo, tape
from affinemetrics import errors as package_errors
from affinemetrics.cli import main
from affinemetrics.errors import StepFailure
from affinemetrics.expr import pretty
from affinemetrics.jets import Jet1, Jet2
from affinemetrics.numerics import find_root_bracketed, ode_solve
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

    def test_non_finite_literal_is_a_parse_error(self, capsys):
        assert run(["surface-info", "--surface-expr", "u;v;1e999*u*v",
                    "--domain", "-1:1,-1:1", "--at", "0.5,0.5"]) == 2
        assert capsys.readouterr().err == (
            "error: number '1e999' is not finite as a double "
            "(at position 0)\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_values_are_a_numerical_failure(self, capsys, fmt):
        # JSON has no Infinity or NaN; the other commands end this surface
        # in NonFiniteValue too
        assert run(["surface-info", "--surface-expr", "u;v;1e308*10*u",
                    "--domain", "-1:1,-1:1", "--at", "0.5,0.5",
                    "--format", fmt]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: NonFiniteValue: E, F, G, e, f, g, l, m, n, K, iaff_a, "
            "iaff_b, iaff_c not finite at (u, v) = (0.5, 0.5)\n")

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
        # the handler imports surface_jets from surfgeo when it runs
        from affinemetrics import surfgeo

        orders = []
        original = surfgeo.surface_jets

        def counting(surface, u, v, order, check_domain=True):
            orders.append(order)
            return original(surface, u, v, order, check_domain)

        monkeypatch.setattr(surfgeo, "surface_jets", counting)
        assert run(["surface-info", "--surface", "sphere",
                    "--at", "0.3,0.2"]) == 0
        assert orders == [2]

    @pytest.mark.parametrize("name,at", [("sphere", (0.3, 0.2)),
                                         ("helicoid", (1.0, 0.4)),
                                         ("hyperboloid", (0.5, -0.7))])
    def test_fields_match_the_per_point_functions(self, capsys, name, at):
        from affinemetrics import surfgeo, tape

        surface = CATALOG[name]
        assert run(["surface-info", "--surface", name,
                    "--at", f"{at[0]!r},{at[1]!r}"]) == 0
        payload = json.loads(capsys.readouterr().out)
        first, second, _ = surfgeo.fundamental_forms_euclid(surface, *at)
        jets = surfgeo.surface_jets(surface, *at, 2)
        lmn = surfgeo.lmn_from_jets(jets)
        form = surfgeo.affine_first_fundamental(surface, *at)
        want_k = surfgeo.gauss_curvature(surface, *at)
        want = {"E": first.a, "F": first.b, "G": first.c,
                "e": second.a, "f": second.b, "g": second.c,
                "l": lmn.a, "m": lmn.b, "n": lmn.c,
                "K": want_k,
                "iaff_a": form.a, "iaff_b": form.b, "iaff_c": form.c,
                "iaff_flipped": form.flipped,
                # ln - m^2 = K (EG - F^2)^2: the class is the sign of K
                "classification": ("elliptic" if want_k > 0.0
                                   else "hyperbolic")}
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
        ("--rel-tol", "1e-300"), ("--abs-tol", "0"), ("--abs-tol", "abc")])
    def test_bad_solver_flag_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(["commensurate-solve", "--surface", "sphere",
                 "--at", "0.1,0.1", "--theta0", "0.3", f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-1e-10", "1e-15", "1e-300",
                                       "2.2e-14"])
    def test_bad_quadrature_tolerance_is_a_usage_error(self, capsys, value):
        # below 100 machine epsilons, as --rel-tol: 1e-15 and 1e-300 used
        # to run both sides into GK15 and end QuadratureFailure after 1.6 s
        with pytest.raises(SystemExit) as exc:
            run(["arclen-compare", "--surface", "sphere", "--curve",
                 "t;0.2*t", "--t-range", "0:1", f"--tol={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tol" in err and "Traceback" not in err

    @pytest.mark.parametrize("curve", ["t;t", "8*t;t"])
    def test_quadrature_tolerance_at_the_floor_is_accepted(self, capsys,
                                                           curve):
        assert run(["arclen-compare", "--surface", "sphere", "--curve", curve,
                    "--t-range", "0:1", f"--tol={cli.MIN_REL_TOL!r}",
                    "--samples", "3"]) == 0

    @pytest.mark.parametrize("t_range", ["-1e308:1e308", "-1.7e308:1.7e308"])
    def test_overflowing_t_range_width_is_a_usage_error(self, capsys,
                                                        t_range):
        # finite ends whose width overflows ended DomainExit at (nan, nan)
        with pytest.raises(SystemExit) as exc:
            run(["arclen-compare", "--surface", "sphere", "--curve",
                 "t;0.2*t", "--t-range", t_range])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --t-range: bad range {t_range!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("t_range", ["0:5e-324", "5e-324:0",
                                         "5e-324:1e-323", "-5e-324:0"])
    def test_underflowing_half_width_is_a_usage_error(self, capsys,
                                                      t_range):
        # a width of one subnormal ulp halves to 0, by which the Chebyshev
        # fit divides: it ended in ZeroDivisionError, exit 1
        with pytest.raises(SystemExit) as exc:
            run(["arclen-compare", "--surface", "sphere", "--curve",
                 "8*t;t", "--t-range", t_range, "--samples", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --t-range: bad range {t_range!r}" in err
        assert "underflows" in err and "Traceback" not in err

    @pytest.mark.parametrize("t_range", ["0:1e-323", "1e-323:0"])
    def test_two_subnormal_ulps_wide_runs(self, capsys, t_range):
        # the narrowest range whose half width does not underflow
        assert run(["arclen-compare", "--surface", "sphere", "--curve",
                    "8*t;t", "--t-range", t_range, "--samples", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3

    @pytest.mark.parametrize("command", ["surface-info", "arclen-compare",
                                         "commensurate-solve", "sweep"])
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unwritable_output_is_a_config_error(self, capsys, tmp_path,
                                                 command, target):
        # an OSError of the write ended in a traceback and exit 1, which
        # is reserved for identity failures
        argv = {"surface-info": ["surface-info", "--surface", "sphere",
                                 "--at", "0.3,0.2"],
                "arclen-compare": ["arclen-compare", "--surface", "sphere",
                                   "--curve", "t;t", "--t-range", "0:1",
                                   "--samples", "3"],
                "commensurate-solve": [*SOLVE, "--t-max", "0.1"],
                "sweep": [*SOLVE, "--t-max", "0.1",
                          "--omega0", "0:1:0.5"]}[command]
        suffix = "_00" if command == "sweep" else ""
        if target == "missing":
            path, written = tmp_path / "missing" / "x.csv", \
                tmp_path / "missing" / f"x{suffix}.csv"
            reason = "No such file or directory"
        else:
            # the file to write, the first seed's for a sweep, is a
            # directory
            path, written = tmp_path / "out.csv", \
                tmp_path / f"out{suffix}.csv"
            written.mkdir()
            reason = "Is a directory"
        assert run([*argv, "--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"error: cannot write {str(written)!r}: {reason}")
        assert "Traceback" not in err
        # no temp file is left behind
        assert [p.name for p in tmp_path.iterdir()] == (
            [] if target == "missing" else [written.name])
        if target == "directory":
            assert list(written.iterdir()) == []

    @pytest.mark.parametrize("command,flag,value", [
        ("commensurate-solve", "--max-steps", "0"),
        ("commensurate-solve", "--max-steps", "-5"),
        ("commensurate-solve", "--max-steps", "1.5"),
        ("commensurate-solve", "--eps-asym", "-1"),
        ("commensurate-solve", "--eps-asym", "0"),
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

    def test_removed_eps_den_is_a_usage_error(self, capsys):
        # the theta'' coefficient vanishes only on the asymptotic cone,
        # where --eps-asym stops the solve, so it has no threshold of its own
        with pytest.raises(SystemExit) as exc:
            run(["commensurate-solve", "--surface", "sphere",
                 "--at", "0.1,0.1", "--theta0", "0.3", "--eps-den=1e-10"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "unrecognized arguments: --eps-den=1e-10" in err
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

    @pytest.mark.parametrize("command, domain, args", [
        ("surface-info", "garbage", ["--at", "1,1"]),
        ("arclen-compare", "nan:1,0:1",
         ["--curve", "t;0.2*t", "--t-range", "0:1"]),
        ("commensurate-solve", "0:1,0:1",
         ["--at", "0.1,0.1", "--theta0", "0.3"]),
        ("check-identities", "-1:1,-1:1", ["--samples", "2"])])
    def test_domain_with_a_catalog_surface_is_a_config_error(
            self, capsys, command, domain, args):
        # --domain was parsed only for --surface-expr: with a catalog
        # surface it was ignored, malformed or not, and the command ran on
        # the catalog's own box
        assert run([command, "--surface", "sphere", "--domain", domain,
                    *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --domain applies to --surface-expr "
                              "only")
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

    @pytest.mark.parametrize("command", ["arclen-compare",
                                         "check-identities"])
    @pytest.mark.parametrize("samples", ["100001", "100000000"])
    def test_oversized_sample_count_is_a_usage_error(self, capsys, command,
                                                     samples):
        # refused while parsing, before any row or sample is evaluated
        args = {"arclen-compare": ["--curve", "8*t;t", "--t-range", "0:1"],
                "check-identities": []}[command]
        with pytest.raises(SystemExit) as exc:
            run([command, "--surface", "sphere", *args,
                 f"--samples={samples}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "argument --samples: must be an integer <= 100000" in err
        assert "Traceback" not in err

    def test_sample_count_at_the_bound_is_accepted(self):
        from affinemetrics import cli
        args = cli.build_parser().parse_args([
            "arclen-compare", "--surface", "sphere", "--curve=8*t;t",
            "--t-range=0:1", f"--samples={cli.MAX_SAMPLES}"])
        assert args.samples == cli.MAX_SAMPLES == 100_000

    def test_sweep_at_the_bound_is_accepted(self):
        from affinemetrics import cli
        step = 1.0 / (cli.MAX_SWEEP_SEEDS - 1)
        seeds = cli._parse_sweep(f"0:1:{step!r}")
        assert len(seeds) == cli.MAX_SWEEP_SEEDS
        assert seeds[0] == 0.0 and seeds[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("sweep, count", [
        ("0:1:0.4", 3), ("-1:1:0.75", 3), ("0:0.25:0.1", 3),
        ("0:1:0.1", 11), ("0:0.3:0.1", 4), ("2:2:1", 1),
        ("-0.125:0.375:0.25", 3), ("0:0.5:0.25", 3), ("0.125:0.625:0.25", 3),
    ])
    def test_sweep_stops_at_its_bound(self, sweep, count):
        # the count was rounded to the nearest whole number of steps, so
        # 0:1:0.4 ended at 1.2; a quotient a rounding error short of a
        # whole number (0.3 / 0.1 = 2.9999999999999996) still reaches it
        from affinemetrics import cli
        start, stop, step = map(float, sweep.split(":"))
        seeds = cli._parse_sweep(sweep)
        assert seeds == [start + k * step for k in range(count)]
        assert seeds[-1] == pytest.approx(stop) or seeds[-1] < stop

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_derivatives_raise_no_warning(self, capsys):
        # the degeneracy scale of det[a', a'', a'''] overflowed in numpy's
        # norm here; with warnings as errors that ended in a traceback
        assert run(["arclen-compare", "--surface-expr", "u;v;exp(800*u)",
                    "--domain", "-1:1,-1:1", "--curve", "t;0.2*t",
                    "--t-range", "0:1"]) == 5
        assert capsys.readouterr().err == (
            "error: DomainError: exp(769.5518130045147): math range error\n")

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

    def test_reference_choices_are_the_reference_forms(self):
        from affinemetrics import cli, identities

        assert list(cli.REFERENCE_NAMES) == sorted(identities.REFERENCE_FORMS)

    @pytest.mark.filterwarnings("error")
    def test_stage_past_the_float_range_is_a_rejected_step(self, capsys):
        # y' = 1 overflows to inf once y passes 0.5, at t = 0.5: every
        # trial step across it has a stage past the float range, which the
        # stepper must reject, not raise on, until the step underflows
        values = []

        def overflowing(t, y):
            value = 1.0 + max(y[0] - 0.5, 0.0) * 1e300 * 1e300
            values.append(value)
            return (value,)

        with pytest.raises(StepFailure) as exc:
            ode_solve(overflowing, [0.0], (0.0, 1.0))
        assert math.inf in values
        trace = exc.value.trace
        assert trace.ts[-1] == pytest.approx(0.5, abs=1e-12)
        assert all(math.isfinite(y[0]) for y in trace.ys)
        # a span of 1e300 ends at the step budget, exit 0
        assert run(["commensurate-solve", "--surface", "sphere",
                    "--at", "0.1,0.1", "--theta0", "0.3", "--t-max", "1e300",
                    "--max-steps", "50"]) == 0
        assert "StepFailure at t=" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", ["1:-1,-1:1", "-1:1,0:0",
                                        "-1:1,1:-1"])
    def test_non_increasing_domain_is_a_config_error(self, capsys, domain):
        assert run(["surface-info", "--surface-expr", "u;v;u*v",
                    "--domain", domain, "--at", "0,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad domain {domain!r}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["surface-info", "arclen-compare",
                                         "check-identities"])
    @pytest.mark.parametrize("domain", ["-1e308:1e308,-1:1",
                                        "-1:1,-1.7e308:1.7e308"])
    def test_overflowing_domain_width_is_a_config_error(self, capsys, command,
                                                        domain):
        # each bound is finite and they increase, but b - a is inf, which
        # numpy's uniform sampler refused with an OverflowError traceback
        args = {"surface-info": ["--at", "0.5,0.5"],
                "arclen-compare": ["--curve", "t;0.2*t", "--t-range", "0:1"],
                "check-identities": ["--samples", "2"]}[command]
        assert run([command, "--surface-expr", "u;v;u*v", "--domain", domain,
                    *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad domain {domain!r}")
        assert "Traceback" not in err


    def test_overflowing_curve_derivatives_are_a_numerical_failure(
            self, capsys):
        # sin(1e200 t^2) is finite but its third derivative is not; the
        # Taylor recurrence for sin ended in fsum's ValueError traceback
        assert run(["arclen-compare", "--surface", "sphere", "--curve",
                    "sin(1e200*t^2);t", "--t-range", "0:1",
                    "--samples", "3"]) == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "NonFiniteValue" in errors[0]


def _raised_errors():
    """Every AffineMetricsError subclass that a raise statement of the
    package names."""
    raised = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(package_errors, getattr(exc, "id", ""), None)
            if isinstance(cls, type) and issubclass(
                    cls, package_errors.AffineMetricsError):
                raised.add(cls)
    return raised


# the errors the package raises that cli.main does not map to an exit code,
# each with the reason no command meets it
INTERNAL_ERRORS = {
    package_errors.OrderMismatch:
        "jets of two orders meet only in the jets' own arithmetic; a "
        "command builds jets of one order",
    package_errors.UnsupportedOrder:
        "the commands ask for jet orders 1 to 3 only",
    package_errors.SingularDenominator:
        "the solver's right-hand side catches it, and the "
        "AsymptoticProximity events stop a trace before it",
    package_errors.SingularJacobian:
        "random_invertible_2x2 keeps |det| > 0.4",
}


class TestExitCodeMap:
    """The exception classes of cli.main's exit-code map are the ones the
    package raises."""

    def test_every_mapped_error_is_raised(self):
        raised = _raised_errors()
        mapped = (package_errors.ExprError, package_errors.InvalidIVP,
                  *cli._DEGENERATE_ERRORS, *cli._NUMERICAL_ERRORS)
        assert [cls for cls in mapped if cls not in raised] == []
        assert INTERNAL_ERRORS.keys() <= raised

    def test_every_raised_error_has_an_exit_code(self, capsys, monkeypatch):
        # each class the package raises, raised where surface-info
        # evaluates its surface
        for cls in sorted(_raised_errors(), key=lambda cls: cls.__name__):
            def raising(*args, **kwargs):
                raise cls.__new__(cls, "injected")

            monkeypatch.setattr(surfgeo, "surface_jets", raising)
            argv = ["surface-info", "--surface", "sphere", "--at", "0,0"]
            if cls in INTERNAL_ERRORS:
                with pytest.raises(cls):
                    run(argv)
                continue
            assert run(argv) in (2, 3, 4, 5), cls
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "injected" in err, cls


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

#: (surface, curve, t-range) whose two integrands both take the GK15 loop:
#: form(a') = 6 t^2 and det[a', a'', a'''] touch zero at t = 0, a node of
#: the first grid on -0.5:0.5 (degenerate there) and between nodes on
#: -0.4:0.6 (a kink whose tail never decays)
FALLBACK_CURVES = [
    ("hyperbolic-paraboloid", "t;t^3", "-0.5:0.5"),
    ("hyperbolic-paraboloid", "t;t^3", "-0.4:0.6"),
]


def _standalone_sums(surface, curve, mirror, samples, tol=1e-10, t0=0.0,
                     t1=1.0, wrap=lambda pc: pc):
    """Running sums of stand-alone affine_arclength and induced_arclength
    calls over the segments between the CLI's samples, on the curve
    ``wrap`` makes of the ParamCurve."""
    from affinemetrics import ParamCurve, affine_arclength, induced_arclength

    pc = wrap(ParamCurve.from_strings(CATALOG[surface], *curve.split(";"),
                                      t0, t1))
    ts = [float(t) for t in np.linspace(t0, t1, samples)]
    sums = [(0.0, 0.0)]
    for prev, t in zip(ts, ts[1:]):
        alpha = affine_arclength(pc, prev, t, rel_tol=tol, abs_tol=tol * 1e-2,
                                 mirror=mirror)
        sigma = induced_arclength(pc, prev, t, rel_tol=tol,
                                  abs_tol=tol * 1e-2)
        sums.append((sums[-1][0] + alpha.value, sums[-1][1] + sigma.value))
    return sums


def _sums(rows):
    return [(float(r["s_alpha"]), float(r["s_sigma"])) for r in rows]


def _surface_jet_orders(monkeypatch, args, points=None):
    """The order of every surface_jets call of one arclen-compare run; the
    (u, v) of each call go to ``points`` when it is given."""
    from affinemetrics import commensurate, surfgeo

    orders = []
    original = surfgeo.surface_jets

    def counting(surface, u, v, order, check_domain=True):
        orders.append(order)
        if points is not None:
            points.append((u, v))
        return original(surface, u, v, order, check_domain)

    for module in (commensurate, surfgeo):
        monkeypatch.setattr(module, "surface_jets", counting)
    assert run(args) == 0
    return orders


class TestArclenSharedNodes:
    """arclen-compare reads both arc lengths off one Chebyshev interpolant
    per integrand, sampled at nodes that are evaluated once for both; its
    sums must be those of the stand-alone functions."""

    @pytest.mark.parametrize("surface,curve,flags", SHARED_NODE_CURVES)
    def test_rows_are_running_sums_of_standalone_calls(self, capsys, surface,
                                                       curve, flags):
        samples = 50 if curve == "8*t;t" else 8
        assert run(["arclen-compare", "--surface", surface, "--curve", curve,
                    "--t-range", "0:1", f"--samples={samples}",
                    *flags]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        sums = _standalone_sums(surface, curve, bool(flags), samples,
                                tol=1e-13)
        assert _sums(rows) == [pytest.approx(pair, rel=1e-12)
                               for pair in sums]

    @pytest.mark.parametrize("surface,curve,flags", SHARED_NODE_CURVES[1:])
    def test_json_reports_quadrature_totals(self, capsys, monkeypatch,
                                            surface, curve, flags):
        orders = _surface_jet_orders(monkeypatch, [
            "arclen-compare", "--surface", surface, "--curve", curve,
            "--t-range", "0:1", "--samples=8", "--format=json", *flags])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "affinemetrics/1"
        assert payload["columns"][:3] == ["t", "s_alpha", "s_sigma"]
        quad = payload["quadrature"]
        for side in ("alpha", "sigma"):
            assert quad[side]["path"] == "chebyshev"
            assert quad[side]["points"] in (9, 17, 33, 65, 129, 257)
            assert quad[side]["evaluations"] == quad[side]["points"]
            assert 0.0 <= quad[side]["error_estimate"] <= 1e-9
        # the finer side's grid, and the six sample rows that fall between
        # its nodes (t = 0 and 1 are nodes); both sign branches are read
        # off the first grid's nodes
        grid = max(quad[side]["points"] for side in quad)
        assert len(orders) == grid + 6

    def test_degenerate_alpha_reports_no_alpha_evaluations(self, capsys):
        assert run(["arclen-compare", "--surface", "sphere", "--curve",
                    "t;0", "--t-range", "0:1", "--samples=3",
                    "--format=json"]) == 0
        quad = json.loads(capsys.readouterr().out)["quadrature"]
        assert quad["alpha"] == {"path": "chebyshev", "points": 0,
                                 "error_estimate": 0.0, "evaluations": 0}
        assert quad["sigma"]["path"] == "chebyshev"
        assert quad["sigma"]["evaluations"] == quad["sigma"]["points"] >= 9

    @pytest.mark.parametrize("surface,curve,flags", SHARED_NODE_CURVES)
    def test_each_node_evaluated_once(self, capsys, monkeypatch, surface,
                                      curve, flags):
        points = []
        orders = _surface_jet_orders(monkeypatch, [
            "arclen-compare", "--surface", surface, "--curve", curve,
            "--t-range", "0:1", "--samples=8", "--format=json", *flags],
            points)
        quad = json.loads(capsys.readouterr().out)["quadrature"]
        # no point is evaluated twice: the sign branches are read off the
        # first grid's nodes, and both sides read one order-3 node at each
        # node of the finer side's grid and at each of the six sample rows
        # between them
        assert len(set(points)) == len(points)
        grid = max(quad[side]["points"] for side in quad)
        assert orders == [3] * (grid + 6)

    def test_degenerate_alpha_evaluates_order_three(self, capsys,
                                                    monkeypatch):
        orders = _surface_jet_orders(monkeypatch, [
            "arclen-compare", "--surface", "sphere", "--curve", "t;0",
            "--t-range", "0:1", "--samples=3", "--format=json"])
        quad = json.loads(capsys.readouterr().out)["quadrature"]
        # the first grid's nine nodes, which find the determinant
        # degenerate at each, then the induced side alone: it reads those
        # nine and evaluates each node of its finer grids, if any, once;
        # the sample rows at t = 0, 0.5 and 1 are nodes of every grid and
        # evaluate nothing more
        assert orders == [3] * quad["sigma"]["points"]

    @pytest.mark.parametrize("surface,curve,t_range", FALLBACK_CURVES)
    def test_fallback_sums_are_the_standalone_sums(self, capsys, monkeypatch,
                                                   surface, curve, t_range):
        # the GK15 quadratures read float nodes, and their sums are the
        # stand-alone functions' on those nodes and on the Jet route's
        with monkeypatch.context() as patch:
            jet_route.refuse_jet_route(patch)
            assert run(["arclen-compare", "--surface", surface, "--curve",
                        curve, "--t-range", t_range, "--samples=8",
                        "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for side in ("alpha", "sigma"):
            assert payload["quadrature"][side]["path"] == "gk15"
        t0, t1 = (float(x) for x in t_range.split(":"))
        rows = [tuple(row[1:3]) for row in payload["rows"]]
        assert rows == _standalone_sums(surface, curve, False, 8, t0=t0,
                                        t1=t1)
        assert rows == _standalone_sums(surface, curve, False, 8, t0=t0,
                                        t1=t1, wrap=jet_route.JetRouteCurve)

    def test_feature_between_grid_nodes_takes_gk15(self, capsys):
        # v = 1e-3 exp(-1e6 (t - 0.1)^2) vanishes to the last bit at every
        # node of the first grid, which then reads a constant integrand; the
        # sample row at t = 5/49 sees the bump, so the induced side measures
        # it segment by segment (the equiaffine side is degenerate)
        from affinemetrics import ParamCurve, induced_arclength

        curve = "t;1e-3*exp(-1e6*(t-0.1)^2)"
        assert run(["arclen-compare", "--surface", "sphere", "--curve",
                    curve, "--t-range", "0:1", "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quadrature"]["sigma"]["path"] == "gk15"
        pc = ParamCurve.from_strings(CATALOG["sphere"], *curve.split(";"),
                                     0.0, 1.0)
        ts = [float(t) for t in np.linspace(0.0, 1.0, 50)]
        sums = [0.0]
        for prev, t in zip(ts, ts[1:]):
            sums.append(sums[-1] + induced_arclength(
                pc, prev, t, rel_tol=1e-10, abs_tol=1e-12).value)
        assert [row[2] for row in payload["rows"]] == sums
        assert sums[-1] > 1.0005

    def test_readme_example_evaluation_budget(self, capsys, monkeypatch):
        orders = _surface_jet_orders(monkeypatch, [
            "arclen-compare", "--surface", "sphere", "--curve", "8*t;t",
            "--t-range", "0:1", "--samples=50"])
        assert len(orders) <= 100

    def test_reversed_range_negates_the_sums(self, capsys):
        args = ["arclen-compare", "--surface", "sphere", "--curve", "8*t;t",
                "--samples=50"]
        assert run([*args, "--t-range", "0:1"]) == 0
        forward = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert run([*args, "--t-range", "1:0"]) == 0
        reverse = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        s_alpha, s_sigma = _sums(reverse)[-1]
        assert s_alpha == pytest.approx(-5.2359293, abs=1e-7)
        assert s_sigma == pytest.approx(-6.8079108, abs=1e-7)
        assert s_alpha == pytest.approx(-_sums(forward)[-1][0], rel=1e-12)
        assert s_sigma == pytest.approx(-_sums(forward)[-1][1], rel=1e-12)

    def test_reversed_range_starts_at_positive_zero(self, capsys):
        # the Chebyshev sums of a reversed range scale by (b - a) / 2 < 0,
        # which made the first row's zeros -0.0 and printed them as -0
        assert run(["arclen-compare", "--surface", "sphere", "--curve",
                    "8*t;t", "--t-range", "1:0", "--samples", "3"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[1][:3] == ["1", "0", "0"]
        assert run(["arclen-compare", "--surface", "sphere", "--curve",
                    "8*t;t", "--t-range", "1:0", "--samples", "3",
                    "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {q["path"] for q in payload["quadrature"].values()} == {
            "chebyshev"}
        first = payload["rows"][0]
        assert [math.copysign(1.0, x) for x in first[1:3]] == [1.0, 1.0]
        assert all(row[1] < 0.0 and row[2] < 0.0
                   for row in payload["rows"][1:])

    def test_zero_width_range_gives_zero_sums(self, capsys):
        assert run(["arclen-compare", "--surface", "sphere", "--curve",
                    "8*t;t", "--t-range", "1:1", "--samples=4",
                    "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [tuple(row[:3]) for row in payload["rows"]] \
            == [(1.0, 0.0, 0.0)] * 4
        assert all(row[3] > 0.0 and row[4] > 0.0 for row in payload["rows"])
        assert {side: q["points"] for side, q
                in payload["quadrature"].items()} == {"alpha": 0, "sigma": 0}

    def test_one_sample(self, capsys):
        assert run(["arclen-compare", "--surface", "sphere", "--curve",
                    "8*t;t", "--t-range", "0:1", "--samples=1"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 1
        assert float(rows[0]["t"]) == 0.0
        assert _sums(rows) == [(0.0, 0.0)]
        assert float(rows[0]["integrand_sigma"]) == pytest.approx(
            math.sqrt(65.0), rel=1e-12)

    def test_sign_change_raises_the_standalone_error(self, capsys):
        # form(a') = 1 - 2 t^2 changes sign inside the range: the induced
        # side takes the GK15 loop, whose first failing node names the form
        # value, as the stand-alone loop over the same segments does
        from affinemetrics import ParamCurve, affine_arclength, \
            induced_arclength
        from affinemetrics.errors import NegativeForm

        assert run(["arclen-compare", "--surface", "hyperbolic-paraboloid",
                    "--curve", "t;t^2", "--t-range", "-0.5:0.5",
                    "--samples=8"]) == 3
        pc = ParamCurve.from_strings(CATALOG["hyperbolic-paraboloid"], "t",
                                     "t^2", -0.5, 0.5)
        ts = [float(t) for t in np.linspace(-0.5, 0.5, 8)]
        with pytest.raises(NegativeForm) as standalone:
            for prev, t in zip(ts, ts[1:]):
                affine_arclength(pc, prev, t)
                induced_arclength(pc, prev, t)
        assert capsys.readouterr().err.splitlines() == [
            f"error: NegativeForm: {standalone.value}"]

    @pytest.mark.parametrize("curve", ["t;t^2/2", "-t;-t^2/2", "t;-t^2/2",
                                       "-t;t^2/2"])
    def test_cone_crossing_exits_degenerate_either_way(self, capsys, curve):
        # form(a') changes sign at the sample t = 0: the sign branch read
        # off the first grid holds on every GK15 segment, so each direction
        # of travel raises NegativeForm
        assert run(["arclen-compare", "--surface", "hyperbolic-paraboloid",
                    "--curve", curve, "--t-range", "-1:1",
                    "--samples=3"]) == 3
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: NegativeForm")

    def test_cone_crossing_names_the_decided_branch(self, capsys):
        # the first grid decides the negative branch, so the positive form
        # value met on it is named as off that branch, not as negative
        assert run(["arclen-compare", "--surface", "hyperbolic-paraboloid",
                    "--curve", "t;t^2/2", "--t-range", "-1:1",
                    "--samples", "3"]) == 3
        assert capsys.readouterr().err == (
            "error: NegativeForm: form value 1.949107912342759 has the "
            "wrong sign for the decided negative branch\n")

    def test_asymptotic_sample_flags_its_row(self, capsys):
        # form(a') = 6 t^2 vanishes at the sample t = 0, where no GK15 node
        # lands; the row itself flags the induced side from there on
        assert run(["arclen-compare", "--surface", "hyperbolic-paraboloid",
                    "--curve", "t;t^3", "--t-range", "-0.5:0.5",
                    "--samples=3", "--format=json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows[1][4] == 0.0
        assert [row[6] for row in rows] == [False, True, True]

    def test_orientation_change_still_exits_degenerate(self, capsys):
        assert run(["arclen-compare", "--surface", "sphere", "--curve",
                    "t;t^3", "--t-range", "-1:1"]) == 3
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: NegativeOrientation")


class TestChartChange:
    """Neither arc length depends on the chart: a curve on the sphere
    re-expressed in two other charts, through --surface-expr and the mapped
    --curve, has the catalog chart's rows.  The parameter t is the same in
    every chart, so the integrands agree as well as the sums."""

    # the new chart's (u, v) -> the catalog's, and the inverse map of a
    # curve's (u(t), v(t)) into the new chart
    CHARTS = {
        "linear": ("1.3*u + 0.4*v + 0.1", "-0.2*u + 0.9*v - 0.2",
                   lambda a, b: (f"(0.9*(({a}) - 0.1) - 0.4*(({b}) + 0.2))"
                                 f"/1.25",
                                 f"(0.2*(({a}) - 0.1) + 1.3*(({b}) + 0.2))"
                                 f"/1.25")),
        "shear": ("u + 0.2*v^2", "v",
                  lambda a, b: (f"({a}) - 0.2*({b})^2", b)),
    }
    # the README's curve and two drawn at random (one is mirrored)
    CURVES = [("8*t", "t"),
              ("0.6100 + 1.2318*t + 0.0307*t^2",
               "-0.1285 + -0.4461*t + -0.0700*t^2"),
              ("-0.2011 + 1.7458*t + 0.1123*sin(0.4803*t)",
               "-0.1559 + 0.2414*t + 0.1046*t^2")]
    #: measured: at most 6.8e-16 of a column's largest value
    REL = 1e-13

    @staticmethod
    def _rows(capsys, source, curve):
        assert run(["arclen-compare", *source, "--curve", curve,
                    "--t-range", "0:1", "--samples", "50", "--auto-orient",
                    "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["rows"]

    @pytest.mark.parametrize("chart", sorted(CHARTS))
    @pytest.mark.parametrize("curve", range(len(CURVES)))
    def test_arc_lengths_do_not_depend_on_the_chart(self, capsys, chart,
                                                    curve):
        u_of, v_of, mapped = self.CHARTS[chart]
        u, v = self.CURVES[curve]
        want = self._rows(capsys, ["--surface", "sphere"], f"{u};{v}")
        surface = recharted(CATALOG["sphere"], u_of, v_of,
                            ((-50.0, 50.0), (-50.0, 50.0)))
        source = ["--surface-expr",
                  ";".join(pretty(c) for c in surface.components),
                  "--domain", "-50:50,-50:50"]
        got = self._rows(capsys, source, ";".join(mapped(u, v)))
        assert len(got) == len(want) == 50
        for column in (1, 2, 3, 4):     # s_alpha, s_sigma, the integrands
            scale = max(abs(row[column]) for row in want)
            for g, w in zip(got, want):
                assert abs(g[column] - w[column]) <= self.REL * scale, (
                    column, g[0])
        assert [row[5:] for row in got] == [row[5:] for row in want]
        if curve == 0:
            assert want[-1][1:3] == [5.235929329570402, 6.80791076471987]


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

    def test_sweep_writes_no_seed_past_its_bound(self, tmp_path, capsys):
        assert run([*SOLVE, "--omega0", "0:1:0.4", "--t-max", "0.1",
                    "--output", str(tmp_path / "fam.csv")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"fam_{k:02d}.csv" for k in range(3)]
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "seed omega0=0", "seed omega0=0.4", "seed omega0=0.8"]

    def test_sweep_writes_each_file_when_its_seed_is_solved(
            self, tmp_path, capsys, monkeypatch):
        from affinemetrics import commensurate

        out = tmp_path / "fam.csv"
        solved = []
        original = commensurate.integrate_commensurate

        def solve(ivp):
            # the files on disk when this seed's solve starts
            solved.append((ivp.omega0,
                           sorted(p.name for p in tmp_path.iterdir())))
            return original(ivp)

        monkeypatch.setattr(commensurate, "integrate_commensurate", solve)
        assert run([*SOLVE, "--omega0", "-1:1:1", "--t-max", "0.2",
                    "--output", str(out)]) == 0
        names = [f"fam_{k:02d}.csv" for k in range(3)]
        assert solved == [(-1.0, []), (0.0, names[:1]), (1.0, names[:2])]
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "seed omega0=-1", "seed omega0=0", "seed omega0=1"]
        assert [line.rsplit(" -> ", 1)[1] for line in lines] == [
            str(tmp_path / name) for name in names]

    def test_unwritable_sweep_stops_after_one_solve(self, tmp_path, capsys,
                                                    monkeypatch):
        from affinemetrics import commensurate

        solved = []
        original = commensurate.integrate_commensurate
        monkeypatch.setattr(commensurate, "integrate_commensurate",
                            lambda ivp: (solved.append(ivp.omega0),
                                         original(ivp))[1])
        path = tmp_path / "missing" / "x.csv"
        assert run([*SOLVE, "--omega0", "0:1:0.1", "--t-max", "3",
                    "--output", str(path)]) == 2
        assert solved == [0.0]
        written = str(tmp_path / "missing" / "x_00.csv")
        assert capsys.readouterr().err == (
            f"error: cannot write {written!r}: No such file or directory\n")

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
        assert payload["tolerances"] == {"rel_tol": 1e-10, "abs_tol": 1e-12,
                                         "eps_asym": 1e-4}
        assert payload["ivp"]["u0"] == 0.0

    def test_json_reports_solver_counts(self, capsys):
        # HNW's starting step: three accepted steps of six new stages
        # each, after f at t = 0 and the starting step's one Euler probe
        # (a first step of t_max / 100 took 4 steps and 25 calls)
        assert run(["commensurate-solve", "--surface", "sphere",
                    "--at", "0.1,0.1", "--theta0", "0.3", "--omega0", "0.5",
                    "--t-max", "0.03", "--format", "json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        solver = payload["solver"]
        assert list(solver) == ["steps_accepted", "steps_rejected",
                                "rhs_calls", "stiff_steps", "event_evals"]
        assert solver["steps_accepted"] == payload["node_count"] - 1 <= 3
        assert solver["steps_rejected"] == 0
        assert solver["rhs_calls"] <= 20
        assert solver["stiff_steps"] == 0
        # no event crossed, so no event function was called to locate one
        assert solver["event_evals"] == 0
        assert captured.err == (
            "seed omega0=0.5: completed at t=0.03, 4 nodes, max residual "
            f"{payload['max_residual']:.3e} -> stdout\n")

    def test_json_reports_event_location_calls(self, capsys):
        # the stop at AsymptoticProximity is placed by Brent's method on
        # the step's continuous extension, in at most max_iter calls
        assert run(["commensurate-solve", "--surface", "helicoid",
                    "--at", "0.5,0.3", "--theta0", "1.62", "--omega0", "-1.7",
                    "--t-max", "0.1", "--format", "json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["event"]["termination"] == "AsymptoticProximity"
        assert "AsymptoticProximity at t=0.054332," in captured.err
        max_iter = inspect.signature(
            find_root_bracketed).parameters["max_iter"].default
        assert 1 <= payload["solver"]["event_evals"] <= max_iter

    def test_last_step_lands_on_t_max(self, capsys):
        # t + (t_max - t) rounded one ulp short of 0.0309, and the sliver
        # step left over was reported as a step-size underflow
        assert run(["commensurate-solve", "--surface", "sphere",
                    "--at", "0.1,0.1", "--theta0", "0.3", "--omega0", "0.5",
                    "--t-max", "0.0309", "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert "completed at t=0.0309," in captured.err
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert float(rows[-1]["t"]) == 0.0309

    def test_readme_documents_exactly_the_options(self):
        # the README's option table lists every flag of the command and no
        # other, so a removed flag cannot linger in the docs
        import argparse

        from affinemetrics.cli import build_parser

        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().splitlines()
        start = lines.index("`commensurate-solve` takes these options:")
        rows = itertools.takewhile(
            lambda line: line.startswith("|") or not line,
            lines[start + 1:])
        documented = [row.split("|")[1].strip().strip("`") for row in rows
                      if row.startswith("| `")]
        subparsers, = (action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
        options = [flag for action
                   in subparsers.choices["commensurate-solve"]._actions
                   for flag in action.option_strings
                   if flag not in ("-h", "--help")]
        assert sorted(documented) == sorted(options)
        assert len(documented) == len(set(documented))


class TestOutputFileMode:
    """Output files get the permission bits open() would give them: a new
    file 0o666 less the umask, a replaced file its own bits.  The temp file
    renamed into place was left 0o600."""

    INFO = ["surface-info", "--surface", "sphere", "--at", "0.1,0.2",
            "--format", "json"]

    @pytest.fixture
    def umask(self):
        """Sets the process umask for one test and restores it after."""
        saved = os.umask(0o022)
        yield os.umask
        os.umask(saved)

    @pytest.mark.parametrize("mask", [0o022, 0o002, 0o077], ids=oct)
    def test_new_file_gets_the_umask_mode(self, tmp_path, capsys, umask,
                                          mask):
        umask(mask)
        out = tmp_path / "out.json"
        assert run([*self.INFO, "--output", str(out)]) == 0
        assert out.stat().st_mode & 0o777 == 0o666 & ~mask
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.parametrize("mode", [0o644, 0o640, 0o600, 0o664], ids=oct)
    def test_replaced_file_keeps_its_mode(self, tmp_path, capsys, umask,
                                          mode):
        umask(0o077)
        out = tmp_path / "out.json"
        out.write_text("old\n")
        out.chmod(mode)
        assert run([*self.INFO, "--output", str(out)]) == 0
        assert out.stat().st_mode & 0o777 == mode
        assert out.read_text().startswith("{")

    def test_sweep_files_get_the_umask_mode(self, tmp_path, capsys, umask):
        umask(0o022)
        assert run([*SOLVE, "--omega0", "0:1:0.5", "--t-max", "0.1",
                    "--output", str(tmp_path / "fam.csv")]) == 0
        assert sorted((p.name, p.stat().st_mode & 0o777)
                      for p in tmp_path.iterdir()) == [
            (f"fam_{k:02d}.csv", 0o644) for k in range(3)]


class TestCheckIdentities:
    def test_non_finite_surface_is_a_numerical_failure(self, capsys):
        # its deviations were nan or 0, and max() dropped each nan: six
        # PASS lines and exit 0
        assert run(["check-identities", "--surface-expr", "u;v;1e308*10*u*v",
                    "--domain", "-1:1,-1:1", "--samples", "3"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: NonFiniteValue: surface jets not finite at (u, v) = ")

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

    def test_suite_rejecting_every_draw_is_not_degenerate(self, capsys):
        # seed 19 draws one point whose random direction the condition
        # suite's own filter rejects; the surface is not to blame
        assert run(["check-identities", "--surface", "sphere",
                    "--samples", "1", "--seed", "19"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 7 and all(line.endswith("PASS")
                                       for line in lines)
        assert ("identity condition-det-vs-euclidean-route: max_dev=0.000e+00 "
                "tol=1.0e-08 samples=0 PASS") in lines
        assert captured.err.splitlines() == [
            "note: condition-det-vs-euclidean-route checked no sample: its "
            "own filter rejected every draw (usable points: 1)"]

    def test_surface_without_usable_points_is_degenerate(self, capsys):
        # the plane has no nondegenerate point: every suite that samples
        # it checks nothing, which must not read as a pass
        assert run(["check-identities", "--surface", "plane",
                    "--samples", "2"]) == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 6 and lines[0].endswith("samples=2 PASS")
        assert all("samples=0" in line for line in lines[1:])
        errors = captured.err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: no sample checked")
        for line in lines[1:]:
            assert line.split()[1].rstrip(":") in errors[0]
        assert "integrand-det-vs-euclidean-route" not in errors[0]


@pytest.fixture
def fresh_parser():
    """The cli module with main's parser dropped before and after."""
    from affinemetrics import cli

    cli._parser.cache_clear()
    yield cli
    cli._parser.cache_clear()


MIRROR_CURVE = SHARED_NODE_CURVES[2][1]
SOLVE = ["commensurate-solve", "--surface", "sphere", "--at", "0.1,0.1",
         "--theta0", "0.3"]

#: (first argv, second argv): the second call must not see the first
CARRY_OVER_PAIRS = {
    "csv-then-default-json": (
        ["surface-info", "--surface", "sphere", "--at", "0.3,0.2",
         "--format", "csv", "--output", "point.csv"],
        ["surface-info", "--surface", "sphere", "--at", "0.3,0.2"]),
    "auto-orient-then-without": (
        ["arclen-compare", "--surface", "sphere", "--curve", MIRROR_CURVE,
         "--t-range", "0:1", "--samples", "3", "--auto-orient"],
        ["arclen-compare", "--surface", "sphere", "--curve", MIRROR_CURVE,
         "--t-range", "0:1", "--samples", "3"]),
    "usage-error-then-valid": (
        [*SOLVE, "--t-max=0"],
        [*SOLVE, "--t-max", "0.2"]),
    "refused-sweep-then-single": (
        [*SOLVE, "--omega0", "-1:1:0.5", "--t-max", "0.2"],
        [*SOLVE, "--t-max", "0.2", "--output", "one.csv"]),
}


SPHERE_EXPR = "cos(u)*cos(v);sin(u)*cos(v);sin(v)"


class TestRecordedKernels:
    @pytest.fixture
    def recorded(self, monkeypatch):
        """(order, whether a kernel came of it) per recording of a
        surface's jets."""
        calls = []
        factory = tape.factory

        def spy(keys, kind, order, count):
            make = factory(keys, kind, order, count)
            if kind is Jet2:
                calls.append((order, make is not None))
            return make

        monkeypatch.setattr(tape, "factory", spy)
        return calls

    # kernel None: the shape walk refuses the tree (an exponent that
    # depends on a variable, a constant that eval_ast refuses), so
    # nothing is recorded
    @pytest.mark.parametrize("exprs, at, code, kernel", [
        ("u;v;abs(u)^3+v^2", "0.5,0.5", 0, False),
        ("u;v;u^v", "0.5,0.5", 0, None),
        ("u;v;u*v/0", "0.5,0.5", 5, False),
        ("u;v;exp(1000)", "0.5,0.5", 5, None),
        ("u;v;(u*v)^-3", "0.5,0", 5, True),
        # ^0 drops the jet of log((uv)^2), whose partials feed no zero
        # term, but eval_ast evaluated it: so does the kernel, which keeps
        # every _phi call
        ("u;v;u*v + log((u*v)^2)^0", "0,0.5", 5, True),
    ])
    def test_fallbacks_keep_eval_asts_outcome(self, capsys, monkeypatch,
                                              recorded, exprs, at, code,
                                              kernel):
        argv = ["surface-info", "--surface-expr", exprs, "--at", at]
        # eval_ast alone, as before kernels were recorded
        monkeypatch.setattr(expr, "RECORD_AFTER", 2 ** 62)
        expected = run(argv), capsys.readouterr()
        assert expected[0] == code
        assert recorded == []
        # recorded at the first evaluation: the kernel that the (u*v)^-3
        # recording gives raises at v = 0, and eval_ast reports it
        monkeypatch.setattr(expr, "RECORD_AFTER", 1)
        assert (run(argv), capsys.readouterr()) == expected
        assert recorded == ([] if kernel is None else [(2, kernel)])

    def test_one_shot_surface_info_records_nothing(self, capsys, recorded):
        assert run(["surface-info", "--surface-expr", SPHERE_EXPR,
                    "--at", "0.1,0.2"]) == 0
        assert recorded == []

    @pytest.mark.parametrize("name", ["sphere", "helicoid", "paraboloid",
                                      "hyperbolic-paraboloid",
                                      "hyperboloid"])
    def test_one_shot_check_identities_records_only_its_surface(
            self, capsys, monkeypatch, name):
        # recording costs more than a few evaluations save: the moved
        # surfaces (4 points) and reparametrized walks (20) of one
        # --samples 20 run stay with eval_ast
        calls = []
        factory = tape.factory

        def spy(keys, kind, order, count):
            calls.append((keys, kind))
            return factory(keys, kind, order, count)

        monkeypatch.setattr(tape, "factory", spy)
        assert run(["check-identities", "--surface", name,
                    "--samples", "20"]) == 0
        own = surfgeo.CATALOG[name]._kernels["shape"][0]
        assert calls and set(calls) == {(own, Jet2)}

    def test_sphere_solve_records_one_order_three_kernel(self, capsys,
                                                         recorded):
        assert run(["commensurate-solve", "--surface-expr", SPHERE_EXPR,
                    "--domain", "-12.5:12.5,-1.45:1.45", "--at", "0.1,0.1",
                    "--theta0", "0.3", "--omega0", "0.5",
                    "--t-max", "3"]) == 0
        assert recorded == [(3, True)]


class TestRecordedCurveKernels:
    @pytest.fixture
    def recorded(self, monkeypatch):
        """Per recording of a parameter path, whether a kernel came of
        it."""
        calls = []
        factory = tape.factory

        def spy(keys, kind, order, count):
            make = factory(keys, kind, order, count)
            if kind is Jet1:
                calls.append(make is not None)
            return make

        monkeypatch.setattr(tape, "factory", spy)
        return calls

    @pytest.mark.parametrize("surface, curve, t_range, code, kernel", [
        ("sphere", "2*t;t/(1+t^2)", "0.1:1", 0, True),
        ("hyperboloid", "t/(1+t^2);0.3*t^2", "0.1:1", 0, True),
        ("hyperboloid", "t;abs(t-0.45)*t", "0:1", 5, False),
        ("sphere", "abs(t-0.45);t", "0:1", 3, False),
        ("helicoid", "t^t;t^2", "0:1", 5, None),
        ("paraboloid", "1+t^t;1+t", "0.1:1", 3, None),
        ("paraboloid", "1+log(t);1+t", "-0.5:1", 5, True),
        ("paraboloid", "1+log(t);1+t", "0:1", 5, True),
        # exp(1000 t) overflows past t = 0.7098: eval_ast's DomainError,
        # or a NaN integrand where the jet it feeds is dropped
        ("sphere", "t+exp(1000*t)*0.0;t^2", "0.1:1", 5, True),
        ("hyperboloid", "t;0.5+0.1*sin(exp(1000*t))", "0.1:1", 5, True),
    ])
    def test_fallbacks_keep_eval_asts_outcome(self, capsys, monkeypatch,
                                              recorded, surface, curve,
                                              t_range, code, kernel):
        # a path that cannot be recorded (abs, a t-dependent exponent)
        # stays with eval_ast; a recorded one whose _phi fails
        # (log at t <= 0, exp past the float range) hands those t back
        argv = ["arclen-compare", "--surface", surface, "--curve", curve,
                "--t-range", t_range, "--samples", "11", "--auto-orient",
                "--format", "json"]
        # eval_ast alone, as before curves were recorded
        monkeypatch.setattr(expr, "RECORD_AFTER", 2 ** 62)
        expected = run(argv), capsys.readouterr()
        assert expected[0] == code
        assert recorded == []
        # the path recorded at its first sample; kernel None: the shape
        # walk refuses it (a t-dependent exponent), so nothing is recorded
        monkeypatch.setattr(expr, "RECORD_AFTER", 1)
        assert (run(argv), capsys.readouterr()) == expected
        assert recorded == ([] if kernel is None else [kernel])

    def test_one_node_records_nothing(self, recorded):
        # one order-3 node of a fresh curve records nothing: a path is
        # recorded at the RECORD_AFTER-th node of its shape, a surface's
        # shape at its RECORD_AFTER-th evaluation
        from affinemetrics.commensurate import ParamCurve

        pc = ParamCurve.from_strings(CATALOG["sphere"], "0.3 + 0.2*t",
                                     "0.1 - 0.5*t + t^2", -0.1, 0.1)
        pc.sample(0.0)
        assert recorded == []
        # a path of the same shape takes its turn, and the RECORD_AFTER-th
        # node records the shape once; the first curve then binds it
        other = ParamCurve.from_strings(CATALOG["sphere"], "0.2 + 0.3*t",
                                        "0.4 - 0.1*t + t^2", -0.1, 0.1)
        for k in range(expr.RECORD_AFTER - 2):
            other.sample(k * 1e-3)
        assert recorded == [] and 3 not in other._kernels
        other.sample(0.05)
        assert recorded == [True] and callable(other._kernels[3])
        path = pc.sample(0.07)[:2]
        assert callable(pc._kernels[3]) and recorded == [True]
        assert [list(map(float.hex, p)) for p in path] == [
            list(map(float.hex, jet.coeffs)) for jet in pc.param_jets(0.07, 3)]

    @pytest.mark.parametrize("surface, u, v, samples", [
        ("sphere", "8*t", "t", 50),
        # a benchmark item whose induced side needs 17 points and the
        # equiaffine side 9: eight nodes serve the induced side alone
        ("hyperbolic-paraboloid", "(-0.3258) + (-1.1168)*t + (0.0233)*t^2",
         "(-0.0180) + (0.3164)*t + (0.3152)*t^2", 8),
    ], ids=["readme", "form-only-nodes"])
    def test_chebyshev_path_runs_on_floats(self, monkeypatch, recorded,
                                           surface, u, v, samples):
        # one curve kernel, no Jet1 built, no jet composed and no
        # affine_integrand on the Chebyshev path, and the rows that
        # eval_ast's route gives; the path is recorded at its first node,
        # as in a process that has evaluated its shape RECORD_AFTER times
        monkeypatch.setattr(expr, "RECORD_AFTER", 1)
        from affinemetrics.commensurate import (
            ParamCurve,
            running_arclengths,
        )
        from affinemetrics.curvegeo import affine_integrand

        pc = ParamCurve.from_strings(CATALOG[surface], u, v, 0.0, 1.0)
        ts = np.linspace(0.0, 1.0, samples)
        builds = []

        def counting(name, method):
            # a Jet1 built, not a recording jet of tape's
            def counted(self_or_cls, *args, **kwargs):
                if self_or_cls is Jet1 or type(self_or_cls) is Jet1:
                    builds.append(name)
                return method(self_or_cls, *args, **kwargs)
            return counted

        with monkeypatch.context() as patch:
            patch.setattr(Jet1, "__init__", counting("init", Jet1.__init__))
            patch.setattr(Jet1, "_like", counting("like", Jet1._like))
            patch.setattr(Jet1, "_make", classmethod(
                counting("make", Jet1._make.__func__)))
            jet_route.refuse_jet_route(patch, affine_integrand)
            rows = running_arclengths(pc, ts)
        assert builds == []
        assert recorded == [True]
        assert {side["path"] for side in rows.quadrature.values()} == {
            "chebyshev"}
        assert rows.quadrature["alpha"]["points"] <= rows.quadrature[
            "sigma"]["points"]
        # eval_ast alone: a copy of the curve and an empty kernel table
        # whose counts never reach RECORD_AFTER
        monkeypatch.setattr(expr, "_KERNELS", {})
        monkeypatch.setattr(expr, "RECORD_AFTER", 2 ** 62)
        assert running_arclengths(replace(pc), ts) == rows

    def test_fallback_failure_runs_on_floats(self, capsys, monkeypatch,
                                             recorded):
        # det[a', a'', a'''] of this curve changes sign: the first grid
        # mirrors it, the Chebyshev fit fails where the sign turns, and
        # the GK15 fallback stops there.  The run records its path once,
        # builds no Jet node, and fails as it does on the Jet route's nodes
        from affinemetrics.commensurate import NodeTable

        argv = ["arclen-compare", "--surface", "sphere", "--curve",
                "8*t;0.3*sin(9*t)", "--t-range", "0:1", "--samples", "1000",
                "--auto-orient"]
        with monkeypatch.context() as patch:
            jet_route.refuse_jet_route(patch)
            got = run(argv), capsys.readouterr()
        assert got[0] == 3
        assert got[1].err.startswith(
            "error: NegativeOrientation: negative curve orientation: det = ")
        assert recorded == [True]
        monkeypatch.setattr(NodeTable, "sample", lambda self, t: (
            jet_route.as_float_node(jet_route.curve_node(self.curve, t))))
        assert (run(argv), capsys.readouterr()) == got


class TestCachedParser:
    """main builds its parser once per process and carries nothing from
    one call to the next."""

    def test_main_builds_the_parser_once(self, capsys, monkeypatch,
                                         fresh_parser):
        import argparse

        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        per_call = []
        for argv in (["surface-info", "--surface", "sphere", "--at", "0,0"],
                     ["check-identities", "--surface", "sphere",
                      "--samples", "2"],
                     ["arclen-compare", "--surface", "sphere", "--curve",
                      "8*t;t", "--t-range", "0:1", "--samples", "2"]):
            before = len(built)
            assert run(argv) == 0
            per_call.append(len(built) - before)
        assert per_call[0] > 0
        assert per_call[1:] == [0, 0]

    @staticmethod
    def _outcomes(cli, capsys, argvs, fresh):
        """(exit code, stdout, stderr, files in the working directory)
        after each call, building a new parser before each one if
        ``fresh``."""
        results = []
        for argv in argvs:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            files = {path.name: path.read_bytes()
                     for path in sorted(Path.cwd().iterdir())}
            results.append((code, out, err, files))
        return results

    @pytest.mark.parametrize("pair", list(CARRY_OVER_PAIRS))
    def test_no_state_carries_over(self, capsys, monkeypatch, tmp_path,
                                   fresh_parser, pair):
        argvs = CARRY_OVER_PAIRS[pair]
        seen = {}
        for mode in ("fresh", "cached"):
            (tmp_path / mode).mkdir()
            monkeypatch.chdir(tmp_path / mode)
            seen[mode] = self._outcomes(fresh_parser, capsys, argvs,
                                        fresh=mode == "fresh")
        assert seen["cached"] == seen["fresh"]
        # the first call of each pair differs from the second in what the
        # second must not inherit
        assert seen["cached"][0] != seen["cached"][1]

    def test_build_parser_is_a_factory(self, fresh_parser):
        cli = fresh_parser
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()


def test_import_loads_neither_numpy_polynomial_nor_scipy():
    # each would add milliseconds to every command's start-up
    import subprocess
    import sys

    import affinemetrics

    # the caller's environment, so that PYTHONDONTWRITEBYTECODE holds here
    # too and the checkout keeps no bytecode cache a later start would read
    src = str(Path(affinemetrics.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in (env.get("PYTHONPATH"),) if p])
    code = ("import sys, affinemetrics.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "[]"
