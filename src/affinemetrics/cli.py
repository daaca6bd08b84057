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

This module loads only the standard library and ``errors``, which main
needs to map exceptions to exit codes.  Each handler imports the modules
it computes with when it runs, numpy only where it builds arrays or
multiplies matrices (arclen-compare's sample grid and the DCT-I product of
its Chebyshev fits, check-identities' generators): --help and a usage
error load no computation module, and each command loads only what it
runs, which keeps a fresh process's start short.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile

from .errors import (
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
    ZeroSpeed,
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
#: most rows one arclen-compare run, or samples per suite one
#: check-identities run, may ask for (--samples)
MAX_SAMPLES = 100_000
#: smallest commensurate-solve --rel-tol and arclen-compare --tol, 100
#: machine epsilons (scipy's solve_ivp floor; QUADPACK refuses a relative
#: tolerance below 50): an error test cannot ask for less than the rounding
#: of the values it tests
MIN_REL_TOL = 100 * sys.float_info.epsilon
#: the catalog names whose closed forms check-identities --reference can
#: check, sorted: identities.REFERENCE_FORMS' keys, spelled here so that
#: building the parser does not load identities
REFERENCE_NAMES = ("helicoid", "hyperbolic-paraboloid", "hyperboloid",
                   "paraboloid", "sphere")

_DEGENERATE_ERRORS = (DegenerateCurve, DegenerateSurfacePoint, DomainExit,
                      EuclideanDegenerate, IrregularPoint, NegativeForm,
                      NegativeOrientation, NonpositiveTorsion, ZeroSpeed)
_NUMERICAL_ERRORS = (DomainError, MaxSteps, NoBracket, NonFiniteValue,
                     QuadratureFailure, StepFailure)


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_atomic(path, text):
    """Write ``text`` to ``path`` by a temp file beside it and a rename, in
    the replaced file's mode or open()'s (0o666 less the umask); a path that
    cannot be written (a missing directory, a directory) is a config error."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        try:
            mode = os.stat(path).st_mode & 0o777
        except FileNotFoundError:
            os.umask(umask := os.umask(0))
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as handle:
            os.fchmod(fd, mode)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ExprError(f"cannot write {path!r}: "
                            f"{exc.strerror or exc}") from None
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
        # the widths must be finite too: the samplers draw from them
        if not (u0 < u1 and v0 < v1 and math.isfinite(u1 - u0)
                and math.isfinite(v1 - v0)):
            raise ValueError
    except (ValueError, argparse.ArgumentTypeError):
        raise ExprError(f"bad domain {text!r}, expected 'a:b,c:d' with "
                        "finite numbers, a < b, c < d and finite widths "
                        "b - a and d - c") from None
    return (u0, u1), (v0, v1)


def _split_exprs(text, flag, expected):
    """The ';'-separated expressions of ``flag``, as many as ``expected``
    ('x;y;z' or 'u_expr;v_expr') names."""
    parts = [part.strip() for part in text.split(";")]
    if len(parts) != expected.count(";") + 1:
        raise ExprError(f"bad {flag} {text!r}, expected {expected!r}")
    return parts


def _surface_from_args(args):
    from .surfgeo import CATALOG, SurfaceDef

    if args.surface_expr is not None:
        if args.surface is not None:
            raise ExprError("give either --surface or --surface-expr, not both")
        domain = _parse_domain(args.domain) if args.domain else ((-1.0, 1.0),
                                                                 (-1.0, 1.0))
        exprs = _split_exprs(args.surface_expr, "--surface-expr", "x;y;z")
        return SurfaceDef.from_strings(exprs, domain)
    if args.surface is None:
        raise ExprError("a surface is required (--surface or --surface-expr)")
    if args.domain is not None:
        raise ExprError("--domain applies to --surface-expr only; a catalog "
                        "--surface has its own domain")
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


def _t_range(text):
    """argparse type of --t-range 'a:b': finite ends whose width b - a is
    finite too, since the sample grid and the quadratures divide it, and
    whose half width 0.5*(b - a), by which the Chebyshev interpolant
    divides, is not zero unless a = b (it underflows for b - a = +-5e-324,
    the smallest subnormal)."""
    t0, t1 = _parse_pair(":")(text)
    if not math.isfinite(t1 - t0):
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}: the width b - a is not finite")
    if 0.5 * (t1 - t0) == 0.0 and t0 != t1:
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}: the half width (b - a)/2 underflows to 0")
    return t0, t1


def _positive_float(text):
    """argparse type of a flag that must be a finite number > 0."""
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return value


def _rel_tol(text):
    """argparse type of a relative tolerance (--rel-tol, --tol): a finite
    number >= MIN_REL_TOL."""
    value = _positive_float(text)
    if value < MIN_REL_TOL:
        raise argparse.ArgumentTypeError(
            f"must be >= {MIN_REL_TOL!r} (100 machine epsilons), got {text!r}")
    return value


def _int_in_range(minimum, maximum=None):
    """argparse type of a flag that must be an integer >= ``minimum`` and,
    if ``maximum`` is given, <= ``maximum``."""
    def integer(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {minimum}, got {text!r}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(
                f"must be an integer <= {maximum}, got {text!r}")
        return value
    return integer


def _parse_sweep(text):
    """argparse type of a float, or 'start:stop:step': the seeds start + k
    step up to stop, a step count 1e-9 short of whole counting as whole."""
    parts = [_finite_float(x) for x in text.split(":")]
    if len(parts) == 1:
        return parts
    if len(parts) != 3 or parts[2] <= 0.0 or parts[1] < parts[0]:
        raise argparse.ArgumentTypeError(
            f"bad sweep {text!r}, expected 'x' or 'a:b:step' with step > 0 "
            "and b >= a")
    start, stop, step = parts
    span = (stop - start) / step * (1.0 + 1e-9)     # inf past the floats
    count = math.floor(span) + 1 if math.isfinite(span) else math.inf
    if count > MAX_SWEEP_SEEDS:
        raise argparse.ArgumentTypeError(
            f"sweep {text!r} asks for more than {MAX_SWEEP_SEEDS} seeds")
    return [start + k * step for k in range(count)]


# ---------------------------------------------------------------------------
# surface-info

def _cmd_surface_info(args):
    from .surfgeo import (
        _partials,
        form_from_partials,
        forms_from_partials,
        surface_jets,
    )

    surface = _surface_from_args(args)
    u, v = args.at
    partials = _partials(surface_jets(surface, u, v, 2))
    # the Euclidean forms first: an irregular point is IrregularPoint
    first, second, _, K = forms_from_partials(*partials, u, v)
    # raises DegenerateSurfacePoint, so the sign of ln - m^2 is the class
    a, b, c, disc, flipped, (l, m, n) = form_from_partials(*partials)
    fields = [
        ("u", u), ("v", v),
        ("E", first.a), ("F", first.b), ("G", first.c),
        ("e", second.a), ("f", second.b), ("g", second.c),
        ("l", l), ("m", m), ("n", n),
        ("K", K),
        ("iaff_a", a), ("iaff_b", b), ("iaff_c", c),
        ("iaff_flipped", flipped),
        ("classification", "elliptic" if disc > 0.0 else "hyperbolic"),
    ]
    # JSON has no inf or nan, and no other command prints them either
    bad = [k for k, x in fields
           if isinstance(x, float) and not math.isfinite(x)]
    if bad:
        raise NonFiniteValue(f"{', '.join(bad)} not finite at (u, v) = "
                             f"({u!r}, {v!r})")
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

def _cmd_arclen_compare(args):
    import numpy as np

    from .commensurate import ParamCurve, running_arclengths

    surface = _surface_from_args(args)
    u_expr, v_expr = _split_exprs(args.curve, "--curve", "u_expr;v_expr")
    t0, t1 = args.t_range
    pc = ParamCurve.from_strings(surface, u_expr, v_expr, t0, t1)
    ts = np.linspace(t0, t1, args.samples)
    res = running_arclengths(pc, ts, tol=args.tol,
                             auto_orient=args.auto_orient)
    rows = [[float(t), *row, res.alpha_degenerate, flagged]
            for t, *row, flagged in zip(ts, res.s_alpha, res.s_sigma,
                                        res.integrand_alpha,
                                        res.integrand_sigma,
                                        res.sigma_degenerate)]

    header = ["t", "s_alpha", "s_sigma", "integrand_alpha",
              "integrand_sigma", "alpha_degenerate", "sigma_degenerate"]
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": "arclen-compare",
                   "surface": surface.name or "inline",
                   "curve": {"u": u_expr, "v": v_expr},
                   "t_range": [t0, t1], "tolerance": args.tol,
                   "columns": header,
                   "rows": rows,
                   "quadrature": res.quadrature}
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
    res = trace.ode_result
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
            "eps_asym": ivp.eps_asym,
        },
        "event": {"termination": trace.termination, "t_stop": trace.t_stop},
        "solver": {
            "steps_accepted": res.steps_accepted,
            "steps_rejected": res.steps_rejected,
            "rhs_calls": res.n_rhs, "stiff_steps": res.stiff_steps,
            "event_evals": res.event_evals,
        },
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
    from .commensurate import CommensurateIVP, run_family

    surface = _surface_from_args(args)
    u0, v0 = args.at
    omegas = args.omega0
    ivp = CommensurateIVP(
        surface, u0, v0, args.theta0, omega0=omegas[0],
        t_span=(0.0, args.t_max), rel_tol=args.rel_tol, abs_tol=args.abs_tol,
        max_steps=args.max_steps, eps_asym=args.eps_asym)

    if len(omegas) > 1 and (args.output is None or args.output == "-"):
        raise ExprError("a sweep needs --output (one file per seed)")

    # one seed at a time, each file written as soon as its seed is solved
    for k, omega in enumerate(omegas):
        trace, = run_family(ivp, [omega])
        path = args.output
        if len(omegas) > 1:
            path = _sweep_path(args.output, k)
        _emit(_trace_text(trace, args.format), path)
        where = path if path and path != "-" else "stdout"
        print(f"seed omega0={omega:g}: {trace.termination} at "
              f"t={trace.t_stop:.6g}, {len(trace.nodes)} nodes, "
              f"max residual {trace.max_residual:.3e} -> {where}",
              file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check-identities

def _cmd_check_identities(args):
    import numpy as np

    from . import identities as idn

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
    # every suite but the first samples the surface; one that found no
    # usable regular nondegenerate point checked nothing, so its PASS is
    # vacuous.  One whose own filter rejected every point it found says
    # so, and does not blame the surface.
    unchecked = [r for r in reports if r.points == 0]
    rejected = [r for r in reports if r.samples == 0 and r.points]
    for report in reports:
        print(report.line())
    for r in rejected:
        print(f"note: {r.name} checked no sample: its own filter rejected "
              f"every draw (usable points: {r.points})", file=sys.stderr)
    if failed:
        print(f"FAILED: {', '.join(r.name for r in failed)}", file=sys.stderr)
    if unchecked:
        print("error: no sample checked, for want of a usable regular "
              f"nondegenerate point: {', '.join(r.name for r in unchecked)}",
              file=sys.stderr)
    if failed:
        return EXIT_IDENTITY
    if unchecked:
        return EXIT_DEGENERATE
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
    p.add_argument("--t-range", type=_t_range, required=True,
                   help="parameter range 'a:b'")
    p.add_argument("--samples", type=_int_in_range(1, MAX_SAMPLES),
                   default=50)
    p.add_argument("--tol", type=_rel_tol, default=1e-10,
                   help="quadrature relative tolerance")
    p.add_argument("--auto-orient", action="store_true",
                   help="mirror the curve when its determinant is negative "
                        "at the first nondegenerate node of the first grid")
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
    p.add_argument("--rel-tol", type=_rel_tol, default=1e-10)
    p.add_argument("--abs-tol", type=_positive_float, default=1e-12)
    p.add_argument("--eps-asym", type=_positive_float, default=1e-4)
    p.add_argument("--max-steps", type=_int_in_range(1), default=100_000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output path; sweeps write one file per "
                                    "seed with _NN suffixes")
    p.set_defaults(handler=_cmd_commensurate_solve)

    p = subs.add_parser("check-identities",
                        help="randomized structural identity checks")
    _add_surface_args(p)
    p.add_argument("--samples", type=_int_in_range(1, MAX_SAMPLES),
                   default=200)
    p.add_argument("--seed", type=_int_in_range(0), default=0)
    p.add_argument("--reference", choices=REFERENCE_NAMES,
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


# main's parser: built by the first call and kept for the process, since
# each call's state lives in the Namespace that parse_args returns
_parser = functools.cache(build_parser)


def main(argv=None):
    """Run one command and return its exit code; a usage error raises
    SystemExit(2).

    May be called repeatedly in one process.  The parser is built once,
    by the first call, and the handlers and argparse type converters are
    bound at that build: to stub one out, patch the module it calls, not
    ``cli._cmd_*``.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_preprocess_argv(list(argv)))
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
