"""Command-line interface.

Subcommands:

  surface-info        invariants of one surface point
  arclen-compare      the two arc lengths along a parameter-plane curve
  commensurate-solve  integrate the curve condition from initial data
  check-identities    randomized structural-identity checks

Exit codes: 0 success, 1 identity failure, 2 parse/config error,
3 geometric degeneracy, 4 invalid initial data, 5 numerical failure.

Output is CSV (RFC-4180-style, header row, 17 significant digits) or JSON
with a top-level ``"schema": "affinemetrics/1"``.  Files are written
atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import identities as idn
from .commensurate import (
    CommensurateIVP,
    NodeTable,
    ParamCurve,
    induced_arclength,
    induced_arclength_integrand,
    integrate_commensurate,
    run_family,
)
from .curvegeo import affine_arclength, affine_integrand
from .errors import (
    AffineMetricsError,
    DegenerateCurve,
    DegenerateSurfacePoint,
    DomainError,
    DomainExit,
    EuclideanDegenerate,
    ExprError,
    InvalidIVP,
    IrregularPoint,
    MaxSteps,
    NegativeForm,
    NegativeOrientation,
    NoBracket,
    NonFiniteValue,
    NonpositiveTorsion,
    QuadratureFailure,
    StepFailure,
    ZeroDirection,
    ZeroSpeed,
)
from .surfgeo import (
    CATALOG,
    SurfaceDef,
    classify_from_jets,
    form_from_jets,
    forms_from_jets,
    gauss_from_forms,
    lmn_from_jets,
    surface_jets,
)

SCHEMA = "affinemetrics/1"

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_INVALID_IVP = 4
EXIT_NUMERICAL = 5

#: most seeds one --omega0 'a:b:step' sweep may ask for
MAX_SWEEP_SEEDS = 10_000

_DEGENERATE_ERRORS = (DegenerateCurve, DegenerateSurfacePoint, DomainExit,
                      EuclideanDegenerate, IrregularPoint, NegativeForm,
                      NegativeOrientation, NonpositiveTorsion, ZeroDirection,
                      ZeroSpeed)
_NUMERICAL_ERRORS = (DomainError, MaxSteps, NoBracket, NonFiniteValue,
                     QuadratureFailure, StepFailure)


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _write_atomic(path, text)


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    return buf.getvalue()


def _json_text(payload):
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


# ---------------------------------------------------------------------------
# shared argument handling

def _parse_domain(text):
    try:
        u_part, v_part = text.split(",")
        u0, u1 = (_finite_float(x) for x in u_part.split(":"))
        v0, v1 = (_finite_float(x) for x in v_part.split(":"))
        if not (u0 < u1 and v0 < v1):
            raise ValueError
    except (ValueError, argparse.ArgumentTypeError):
        raise ExprError(f"bad domain {text!r}, expected 'a:b,c:d' with "
                        "finite numbers, a < b and c < d") from None
    return (u0, u1), (v0, v1)


def _split_exprs(text, flag, expected):
    """The ';'-separated expressions of ``flag``, as many as ``expected``
    ('x;y;z' or 'u_expr;v_expr') names."""
    parts = [part.strip() for part in text.split(";")]
    if len(parts) != expected.count(";") + 1:
        raise ExprError(f"bad {flag} {text!r}, expected {expected!r}")
    return parts


def _surface_from_args(args):
    if args.surface_expr is not None:
        if args.surface is not None:
            raise ExprError("give either --surface or --surface-expr, not both")
        domain = _parse_domain(args.domain) if args.domain else ((-1.0, 1.0),
                                                                 (-1.0, 1.0))
        exprs = _split_exprs(args.surface_expr, "--surface-expr", "x;y;z")
        return SurfaceDef.from_strings(exprs, domain)
    if args.surface is None:
        raise ExprError("a surface is required (--surface or --surface-expr)")
    try:
        return CATALOG[args.surface]
    except KeyError:
        raise ExprError(
            f"unknown surface {args.surface!r}; catalog: "
            f"{', '.join(sorted(CATALOG))}") from None


def _finite_float(text):
    """argparse type of a finite number; pairs and sweeps use it too."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}")
    return value


def _parse_pair(sep):
    """argparse type of 'a<sep>b': a point (',') or a range (':')."""
    def pair(text):
        parts = text.split(sep)
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"bad value {text!r}, expected 'a{sep}b'")
        return tuple(_finite_float(x) for x in parts)
    return pair


def _positive_float(text):
    """argparse type of a flag that must be a finite number > 0."""
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return value


def _int_at_least(minimum):
    """argparse type of a flag that must be an integer >= ``minimum``."""
    def integer(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {minimum}, got {text!r}")
        return value
    return integer


def _parse_sweep(text):
    """argparse type of a float, or 'start:stop:step' meaning an inclusive
    sweep."""
    parts = [_finite_float(x) for x in text.split(":")]
    if len(parts) == 1:
        return parts
    if len(parts) != 3 or parts[2] <= 0.0 or parts[1] < parts[0]:
        raise argparse.ArgumentTypeError(
            f"bad sweep {text!r}, expected 'x' or 'a:b:step' with step > 0 "
            "and b >= a")
    start, stop, step = parts
    span = (stop - start) / step            # inf past the float range
    count = math.floor(span + 0.5) + 1 if math.isfinite(span) else math.inf
    if count > MAX_SWEEP_SEEDS:
        raise argparse.ArgumentTypeError(
            f"sweep {text!r} asks for more than {MAX_SWEEP_SEEDS} seeds")
    return [start + k * step for k in range(count)]


# ---------------------------------------------------------------------------
# surface-info

def _cmd_surface_info(args):
    surface = _surface_from_args(args)
    u, v = args.at
    jets = surface_jets(surface, u, v, 2)
    first, second, _ = forms_from_jets(jets, u, v)
    lmn = lmn_from_jets(jets)
    K = gauss_from_forms(first, second)
    form = form_from_jets(jets)                 # raises on degeneracy
    cls = classify_from_jets(jets)
    fields = [
        ("u", u), ("v", v),
        ("E", first.a), ("F", first.b), ("G", first.c),
        ("e", second.a), ("f", second.b), ("g", second.c),
        ("l", lmn.a), ("m", lmn.b), ("n", lmn.c),
        ("K", K),
        ("iaff_a", form.a), ("iaff_b", form.b), ("iaff_c", form.c),
        ("iaff_flipped", form.flipped),
        ("classification", cls.kind),
    ]
    if args.format == "csv":
        text = _csv_text([k for k, _ in fields], [[x for _, x in fields]])
    else:
        payload = {"schema": SCHEMA, "command": "surface-info",
                   "surface": surface.name or "inline"}
        payload.update({k: x for k, x in fields})
        text = _json_text(payload)
    _emit(text, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# arclen-compare

def _tally(totals, seg):
    """Add one segment's quadrature statistics to [error, evaluations]."""
    totals[0] += seg.error_estimate
    totals[1] += seg.evaluations


def _cmd_arclen_compare(args):
    surface = _surface_from_args(args)
    u_expr, v_expr = _split_exprs(args.curve, "--curve", "u_expr;v_expr")
    t0, t1 = args.t_range
    pc = ParamCurve.from_strings(surface, u_expr, v_expr, t0, t1)
    ts = np.linspace(t0, t1, args.samples)

    # classify the equiaffine side once: degenerate everywhere, mirrored,
    # or plain
    mirror = False
    alpha_degenerate = False
    probe_failures = 0
    for t in np.linspace(t0 + 1e-9 * (t1 - t0), t1 - 1e-9 * (t1 - t0), 5):
        try:
            affine_integrand(pc, float(t), mirror=mirror)
            break
        except NegativeOrientation:
            if args.auto_orient and not mirror:
                mirror = True
                continue
            raise
        except DegenerateCurve:
            probe_failures += 1
    if probe_failures == 5:
        alpha_degenerate = True

    # one table of node evaluations per segment, shared by both
    # quadratures and by the sample row at the segment's end
    nodes = NodeTable(pc)
    quad = {"alpha": [0.0, 0], "sigma": [0.0, 0]}
    sigma_orientation = None
    rows = []
    s_alpha = 0.0
    s_sigma = 0.0
    sigma_flagged = False
    for i, t in enumerate(ts):
        t = float(t)
        nodes.clear()
        if i > 0:
            prev = float(ts[i - 1])
            if not alpha_degenerate:
                seg = affine_arclength(nodes, prev, t, rel_tol=args.tol,
                                       abs_tol=args.tol * 1e-2,
                                       mirror=mirror)
                s_alpha += seg.value
                _tally(quad["alpha"], seg)
            seg = induced_arclength(nodes, prev, t, rel_tol=args.tol,
                                    abs_tol=args.tol * 1e-2,
                                    orientation=sigma_orientation)
            s_sigma += seg.value
            _tally(quad["sigma"], seg)
            sigma_flagged = sigma_flagged or seg.degenerate
        try:
            ia = 0.0 if alpha_degenerate else affine_integrand(nodes, t,
                                                               mirror=mirror)
        except (DegenerateCurve, NegativeOrientation):
            ia = 0.0
        try:
            js = induced_arclength_integrand(nodes, t)
        except NegativeForm as exc:
            js = math.sqrt(abs(exc.value))
            if sigma_orientation is None:
                sigma_orientation = -1.0
        except (DegenerateSurfacePoint, AffineMetricsError):
            js = 0.0
            sigma_flagged = True
        rows.append([t, s_alpha, s_sigma, ia, js,
                     alpha_degenerate, sigma_flagged])

    header = ["t", "s_alpha", "s_sigma", "integrand_alpha",
              "integrand_sigma", "alpha_degenerate", "sigma_degenerate"]
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": "arclen-compare",
                   "surface": surface.name or "inline",
                   "curve": {"u": u_expr, "v": v_expr},
                   "t_range": [t0, t1], "tolerance": args.tol,
                   "columns": header,
                   "rows": rows,
                   "quadrature": {
                       side: {"error_estimate": err, "evaluations": evals}
                       for side, (err, evals) in quad.items()}}
        text = _json_text(payload)
    else:
        text = _csv_text(header, rows)
    _emit(text, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# commensurate-solve

def _trace_rows(trace):
    return [[n.t, n.u, n.v, n.theta, n.theta_prime, n.x, n.y, n.z, n.residual]
            for n in trace.nodes]


_TRACE_HEADER = ["t", "u", "v", "theta", "theta_prime", "x", "y", "z",
                 "residual"]


def _trace_text(trace, fmt):
    if fmt == "csv":
        return _csv_text(_TRACE_HEADER, _trace_rows(trace))
    ivp = trace.ivp
    payload = {
        "schema": SCHEMA,
        "command": "commensurate-solve",
        "ivp": {
            "surface": trace.surface.name or "inline",
            "u0": ivp.u0, "v0": ivp.v0,
            "theta0": ivp.theta0, "omega0": ivp.omega0,
            "t_span": list(ivp.t_span),
        },
        "tolerances": {
            "rel_tol": ivp.rel_tol, "abs_tol": ivp.abs_tol,
            "eps_asym": ivp.eps_asym, "eps_den": ivp.eps_den,
        },
        "event": {"termination": trace.termination, "t_stop": trace.t_stop},
        "max_residual": trace.max_residual,
        "node_count": len(trace.nodes),
        "columns": _TRACE_HEADER,
        "nodes": _trace_rows(trace),
    }
    return _json_text(payload)


def _sweep_path(base, index):
    stem, ext = os.path.splitext(base)
    return f"{stem}_{index:02d}{ext}"


def _cmd_commensurate_solve(args):
    surface = _surface_from_args(args)
    u0, v0 = args.at
    omegas = args.omega0
    ivp = CommensurateIVP(
        surface, u0, v0, args.theta0, omega0=omegas[0],
        t_span=(0.0, args.t_max), rel_tol=args.rel_tol, abs_tol=args.abs_tol,
        max_steps=args.max_steps, eps_asym=args.eps_asym,
        eps_den=args.eps_den)

    if len(omegas) > 1 and (args.output is None or args.output == "-"):
        raise ExprError("a sweep needs --output (one file per seed)")

    traces = run_family(ivp, omegas)

    for k, trace in enumerate(traces):
        path = args.output
        if len(traces) > 1:
            path = _sweep_path(args.output, k)
        _emit(_trace_text(trace, args.format), path)
        where = path if path and path != "-" else "stdout"
        print(f"seed omega0={omegas[k]:g}: {trace.termination} at "
              f"t={trace.t_stop:.6g}, {len(trace.nodes)} nodes, "
              f"max residual {trace.max_residual:.3e} -> {where}",
              file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check-identities

def _cmd_check_identities(args):
    surface = _surface_from_args(args)
    reference = args.reference
    if reference is None and args.surface in idn.REFERENCE_FORMS:
        reference = args.surface
    samples = args.samples
    reports = [
        idn.integrand_routes_suite(np.random.default_rng(args.seed), samples),
        idn.lmn_route_suite(surface, np.random.default_rng(args.seed + 1),
                            samples),
        idn.form_routes_suite(surface, np.random.default_rng(args.seed + 2),
                         samples),
        idn.equiaffine_invariance_suite(
            surface, np.random.default_rng(args.seed + 3),
            max(4, samples // 4)),
        idn.reparam_law_suite(surface, np.random.default_rng(args.seed + 4),
                         samples),
        idn.condition_routes_suite(surface,
                                   np.random.default_rng(args.seed + 5),
                                   samples),
    ]
    if reference is not None:
        reports.append(idn.reference_form_suite(
            surface, reference, np.random.default_rng(args.seed + 6),
            samples))
    failed = [r for r in reports if not r.passed]
    for report in reports:
        print(report.line())
    if failed:
        print(f"FAILED: {', '.join(r.name for r in failed)}", file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly

def _add_surface_args(sub):
    sub.add_argument("--surface", help="catalog surface name")
    sub.add_argument("--surface-expr",
                     help="inline surface 'x;y;z' in variables u, v")
    sub.add_argument("--domain",
                     help="parameter box 'umin:umax,vmin:vmax' for inline "
                          "surfaces")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affinemetrics",
        description="Euclidean and equiaffine invariants of curves and "
                    "surfaces, and commensurate-curve generation.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("surface-info",
                        help="invariants of one surface point")
    _add_surface_args(p)
    p.add_argument("--at", type=_parse_pair(","), required=True,
                   help="evaluation point 'u,v'")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", help="output path (default stdout)")
    p.set_defaults(handler=_cmd_surface_info)

    p = subs.add_parser("arclen-compare",
                        help="equiaffine vs induced arc length along a curve")
    _add_surface_args(p)
    p.add_argument("--curve", required=True,
                   help="parameter curve 'u_expr;v_expr' in variable t")
    p.add_argument("--t-range", type=_parse_pair(":"), required=True,
                   help="parameter range 'a:b'")
    p.add_argument("--samples", type=_int_at_least(1), default=50)
    p.add_argument("--tol", type=_positive_float, default=1e-10,
                   help="quadrature relative tolerance")
    p.add_argument("--auto-orient", action="store_true",
                   help="mirror the curve when its determinant is negative")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output path (default stdout)")
    p.set_defaults(handler=_cmd_arclen_compare)

    p = subs.add_parser("commensurate-solve",
                        help="integrate the curve condition from initial data")
    _add_surface_args(p)
    p.add_argument("--at", type=_parse_pair(","), required=True,
                   help="initial point 'u0,v0'")
    p.add_argument("--theta0", type=_finite_float, required=True,
                   help="initial direction angle (radians)")
    p.add_argument("--omega0", type=_parse_sweep, default="0.0",
                   help="initial theta' seed, or sweep 'a:b:step'")
    p.add_argument("--t-max", type=_positive_float, default=1.0)
    p.add_argument("--rel-tol", type=_positive_float, default=1e-10)
    p.add_argument("--abs-tol", type=_positive_float, default=1e-12)
    p.add_argument("--eps-asym", type=_positive_float, default=1e-4)
    p.add_argument("--eps-den", type=_positive_float, default=1e-10)
    p.add_argument("--max-steps", type=_int_at_least(1), default=100_000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output path; sweeps write one file per "
                                    "seed with _NN suffixes")
    p.set_defaults(handler=_cmd_commensurate_solve)

    p = subs.add_parser("check-identities",
                        help="randomized structural identity checks")
    _add_surface_args(p)
    p.add_argument("--samples", type=_int_at_least(1), default=200)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--reference", choices=sorted(idn.REFERENCE_FORMS),
                   help="check closed forms of this catalog name against "
                        "the supplied expressions")
    p.set_defaults(handler=_cmd_check_identities)

    return parser


# options whose values may begin with '-' (sweeps, points, domains); merge
# them into --opt=value form so argparse does not mistake them for flags
_MERGE_VALUE_OPTS = {"--at", "--domain", "--omega0", "--t-range", "--curve",
                     "--surface-expr"}


def _preprocess_argv(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _MERGE_VALUE_OPTS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_preprocess_argv(list(argv)))
    try:
        return args.handler(args)
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidIVP as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_IVP
    except _DEGENERATE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
