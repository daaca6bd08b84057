"""Seeded CLI items, their reference values and the output checks.

Each workload is a fixed list of item slots: surfaces, spans, sample
counts and output formats do not depend on the seed.  Each slot's start
point, direction, curve or evaluation point is a fixed template moved a
little by the seed (see _Draw), so one pass does nearly the same work for
every seed.  Generation rejects inputs the program would refuse (an
asymptotic IVP start, a curve leaving the domain) and computes every
reference value, all outside the timed pass.

Output files are named relative to the pass directory the worker runs in.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from affinemetrics.commensurate import (
    CommensurateIVP,
    ParamCurve,
    induced_arclength,
    integrate_commensurate,
)
from affinemetrics.curvegeo import (
    affine_arclength,
    affine_integrand_via_euclidean,
    euclidean_frenet,
)
from affinemetrics.errors import AffineMetricsError
from affinemetrics.expr import pretty
from affinemetrics.jets import det3
from affinemetrics.numerics import find_root_bracketed
from affinemetrics.surfgeo import (
    CATALOG,
    affine_first_fundamental,
    fundamental_forms_euclid,
    gauss_curvature,
)
from affinemetrics.identities import REFERENCE_FORMS

WORKLOADS = ("solve", "arclen", "pointwise")

#: the seed whose references were computed from the seed code and stored
DEFAULT_SEED = 0
STORED_REFERENCES = Path(__file__).with_name("reference_seed0.json")
#: the fixed stream the item templates are drawn from
TEMPLATE_SEED = 2012
#: share of each drawn coordinate's range by which the seed moves a template
JITTER = 0.02

#: every tolerance the output checks use
TOLERANCES = {
    # reference solve for commensurate-solve items
    "solve_reference": {"method": "dopri5", "rel_tol": 1e-12,
                        "abs_tol": 1e-14},
    # |t_stop - t_ref| <= t_stop_rel * max(1, t_ref); the seed code is
    # within 3.2e-5, and a stop at 7.343 against the converged 7.4214 (the
    # cubic-Hermite event error) is off by 0.079 and fails
    "t_stop_rel": 5e-4,
    # final (u, v, theta) against the reference state moved to the item's
    # t_stop along (cos theta, sin theta, theta'); the seed code is within
    # 2e-9
    "state_abs": 1e-6,
    # reference arc lengths over the whole range, at a tighter --tol; the
    # seed code's s_alpha, s_sigma and integrands agree to 1e-15
    "arclen_reference_tol": 1e-13,
    "arclength_rel": 1e-9,
    # integrand columns against the Frenet route and |K|^(-1/4) II
    "integrand_rel": 1e-10,
    # surface-info fields against identities.REFERENCE_FORMS
    "surface_info_rel": 1e-9,
}

SUITE_NAMES = ("integrand-det-vs-euclidean-route",
               "lmn-determinant-vs-dot-route",
               "form-det-vs-euclidean-route",
               "equiaffine-invariance",
               "reparam-fourth-power-law",
               "condition-det-vs-euclidean-route")

TRACE_HEADER = ["t", "u", "v", "theta", "theta_prime", "x", "y", "z",
                "residual"]
ARCLEN_HEADER = ["t", "s_alpha", "s_sigma", "integrand_alpha",
                 "integrand_sigma", "alpha_degenerate", "sigma_degenerate"]

# start boxes well inside each catalog domain
_START_BOX = {
    "sphere": ((-2.0, 2.0), (-0.8, 0.8)),
    "paraboloid": ((-2.5, 2.5), (0.6, 2.0)),
    "hyperbolic-paraboloid": ((-2.0, 2.0), (-2.0, 2.0)),
    "hyperboloid": ((-3.0, 3.0), (-1.5, 1.5)),
    "helicoid": ((1.2, 2.0), (-3.0, 3.0)),
}
_INDEFINITE = ("hyperbolic-paraboloid", "hyperboloid", "helicoid")


def _num(x, digits=6):
    """A decimal string and the float the program will parse from it."""
    text = f"{x:.{digits}f}"
    return text, float(text)


def digest(items):
    blob = json.dumps([item["argv"] for item in items]).encode()
    return hashlib.sha256(blob).hexdigest()


def generate(workload, seed):
    """The item list of ``workload`` for ``seed``, with references."""
    items = build_items(workload, seed)
    attach_references(workload, seed, items)
    return items


def build_items(workload, seed):
    """The item list of ``workload`` for ``seed``, without references."""
    draw = _Draw(workload, seed)
    return {"solve": _solve_items, "arclen": _arclen_items,
            "pointwise": _pointwise_items}[workload](draw)


def attach_references(workload, seed, items):
    """Reference values of each item: stored ones for the default seed's
    full item list, computed ones otherwise."""
    stored = _stored(workload, seed, items)
    for k, item in enumerate(items):
        item["ref"] = stored[k] if stored is not None else reference(item)


def reference(item):
    """The item's reference values, computed with the current code."""
    if item["kind"] == "solve":
        return [_solve_reference(item["spec"], w)
                for w in item["spec"]["omegas"]]
    if item["kind"] == "arclen":
        return _arclen_reference(item["spec"])
    return None


class _Draw:
    """Seeded parameters of one workload's items.

    Each item slot takes a template point z in [0, 1)^k from a fixed
    stream, the same for every seed, and the seed moves it by at most
    JITTER in each coordinate.  ``accept(z)`` maps a point to the item's
    inputs, or to None when the program would refuse them; the template
    and the moved point must both pass.  Fixed templates keep the work of
    one pass nearly equal between seeds (with free draws single solve
    items took up to seven times longer under one seed than another),
    while every seed still gives its own inputs.
    """

    def __init__(self, workload, seed):
        index = WORKLOADS.index(workload)
        self.templates = np.random.default_rng([TEMPLATE_SEED, index])
        self.moves = np.random.default_rng([seed, index])

    def __call__(self, size, accept, what):
        for _ in range(400):
            template = self.templates.random(size)
            if accept(template) is not None:
                break
        else:
            raise RuntimeError(f"no valid template for {what}")
        for _ in range(400):
            z = template + self.moves.uniform(-JITTER, JITTER, size)
            got = accept(np.clip(z, 0.0, 1.0))
            if got is not None:
                return got
        raise RuntimeError(f"no valid input near the template of {what}")


def _stored(workload, seed, items):
    if seed != DEFAULT_SEED or workload == "pointwise":
        return None
    if not STORED_REFERENCES.is_file():
        return None
    table = json.loads(STORED_REFERENCES.read_text()).get(workload)
    if table is None or table["digest"] != digest(items):
        return None
    return table["refs"]


# ---------------------------------------------------------------------------
# solve: commensurate-solve at the default method and tolerances

# (surface, start class, t_max, number of omega0 seeds, format)
#   free: a direction at least 0.3 rad from every asymptotic one; the
#         trace runs to t_max
#   asym: on the helicoid, a direction 0.04-0.06 rad above the asymptotic
#         direction pi/2, turning into it; the trace crosses the threshold
#         and stops at AsymptoticProximity.  Elsewhere the tangent only
#         creeps toward an asymptotic direction, and starts close enough
#         to stop within a short span make the ODE stiff (15-27 s per
#         solve at the default method).
def _solve_slots():
    spans = {"sphere": (0.03, 0.03, 0.03, 0.05, 0.1),
             "paraboloid": (0.03, 0.03, 0.03, 0.05, 0.1),
             "hyperbolic-paraboloid": (0.03, 0.03, 0.03, 0.05, 0.1),
             "hyperboloid": (0.03, 0.03, 0.03),
             "helicoid": (0.03, 0.03, 0.03)}
    slots = []
    for name, t_maxes in spans.items():
        slots += [(name, "free", t_max, 1) for t_max in t_maxes]
        if name != "helicoid":
            slots.append((name, "free", 0.02, 3))
    slots += [("helicoid", "asym", 0.1, 1)] * 2
    # every fourth item writes JSON
    return tuple(slot + (("csv", "csv", "csv", "json")[k % 4],)
                 for k, slot in enumerate(slots))


_SOLVE_SLOTS = _solve_slots()


def _asymptotic_angles(surface, u, v):
    """Directions in [0, pi) on which the affine form vanishes."""
    if surface.name not in _INDEFINITE:
        return []
    form = affine_first_fundamental(surface, u, v)

    def q(a):
        return form.apply(math.cos(a), math.sin(a))

    grid = np.linspace(0.0, math.pi, 181)
    values = [q(float(a)) for a in grid]
    roots = []
    for a0, a1, q0, q1 in zip(grid, grid[1:], values, values[1:]):
        if q0 == 0.0:
            roots.append(float(a0))
        elif q0 * q1 < 0.0:
            roots.append(find_root_bracketed(q, float(a0), float(a1)))
    return roots


def _angle_gap(a, b):
    """Distance between two direction lines (angles mod pi)."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


def _probe_solve(surface, u0, v0, theta0, omega0, t_max):
    """Cheap classification of one start: (termination, t_stop), or None
    when the program would refuse it."""
    ivp = CommensurateIVP(surface, u0, v0, theta0, omega0,
                          t_span=(0.0, t_max), rel_tol=1e-7, abs_tol=1e-9,
                          method="dopri5")
    try:
        trace = integrate_commensurate(ivp)
    except AffineMetricsError:
        return None
    return trace.termination, trace.t_stop


def _solve_accept(slot, z):
    name, start, t_max, count, _ = slot
    surface = CATALOG[name]
    (u_lo, u_hi), (v_lo, v_hi) = _START_BOX[name]
    u_text, u0 = _num(u_lo + z[0] * (u_hi - u_lo))
    v_text, v0 = _num(v_lo + z[1] * (v_hi - v_lo))
    asym = _asymptotic_angles(surface, u0, v0)
    if start == "free":
        theta = math.pi * (2.0 * z[2] - 1.0)
        if any(_angle_gap(theta, a) < 0.3 for a in asym):
            return None
        omega_first = 1.5 * z[3] - 1.0
    else:
        theta = max(asym) + 0.04 + 0.02 * z[2]
        omega_first = -1.5 - 0.5 * z[3]
    theta_text, theta0 = _num(theta)
    if count == 1:
        omega_text, omega0 = _num(omega_first)
        omegas = [omega0]
    else:
        # multiples of 1/8 so the program's sweep values are exact
        first = round(omega_first * 8.0) / 8.0
        omegas = [first + 0.25 * k for k in range(count)]
        omega_text = f"{first:g}:{omegas[-1]:g}:0.25"
    for omega0 in omegas:
        probe = _probe_solve(surface, u0, v0, theta0, omega0, t_max)
        if probe is None:
            return None
        termination, t_stop = probe
        if start == "free" and termination != "completed":
            return None
        if start == "asym" and not (termination == "AsymptoticProximity"
                                    and 0.1 * t_max < t_stop < 0.6 * t_max):
            return None
    spec = {"surface": name, "u0": u0, "v0": v0, "theta0": theta0,
            "omegas": omegas, "t_max": t_max}
    texts = {"at": f"{u_text},{v_text}", "theta0": theta_text,
             "omega0": omega_text}
    return spec, texts


def _solve_items(draw):
    items = []
    for index, slot in enumerate(_SOLVE_SLOTS):
        name, _, t_max, count, fmt = slot
        spec, texts = draw(4, lambda z: _solve_accept(slot, z),
                           f"solve item {index}")
        output = f"s{index:02d}.{fmt}"
        files = ([output] if count == 1 else
                 [f"s{index:02d}_{k:02d}.{fmt}" for k in range(count)])
        spec.update(format=fmt, files=files)
        argv = ["commensurate-solve", "--surface", name,
                f"--at={texts['at']}", f"--theta0={texts['theta0']}",
                f"--omega0={texts['omega0']}", f"--t-max={t_max:g}",
                f"--format={fmt}", f"--output={output}"]
        items.append({"kind": "solve", "argv": argv, "exit": 0,
                      "spec": spec})
    return items


def _solve_reference(spec, omega0):
    ivp = CommensurateIVP(CATALOG[spec["surface"]], spec["u0"], spec["v0"],
                          spec["theta0"], omega0,
                          t_span=(0.0, spec["t_max"]),
                          **TOLERANCES["solve_reference"])
    trace = integrate_commensurate(ivp)
    last = trace.nodes[-1]
    return {"termination": trace.termination, "t_stop": trace.t_stop,
            "u": last.u, "v": last.v, "theta": last.theta,
            "omega": last.theta_prime}


def check_solve_trace(got, ref):
    """Errors between one parsed trace summary and its reference.

    ``got`` holds termination, t_stop and the final u, v, theta.  The
    reference state is moved to the item's t_stop along the ODE's own
    velocity (cos theta, sin theta, theta'), so a small stop-time shift
    is judged by the t_stop bound alone.
    """
    errors = []
    if got["termination"] != ref["termination"]:
        errors.append(f"termination {got['termination']} != "
                      f"{ref['termination']}")
        return errors
    dt = got["t_stop"] - ref["t_stop"]
    if abs(dt) > TOLERANCES["t_stop_rel"] * max(1.0, abs(ref["t_stop"])):
        errors.append(f"t_stop {got['t_stop']!r} != {ref['t_stop']!r}")
        return errors
    moved = (ref["u"] + dt * math.cos(ref["theta"]),
             ref["v"] + dt * math.sin(ref["theta"]),
             ref["theta"] + dt * ref["omega"])
    for key, want in zip(("u", "v", "theta"), moved):
        if not abs(got[key] - want) <= TOLERANCES["state_abs"]:
            errors.append(f"final {key} {got[key]!r} != {want!r}")
    return errors


_SUMMARY_PREFIX = "seed omega0="


def _parse_trace_file(path, fmt):
    text = Path(path).read_text()
    if fmt == "json":
        payload = json.loads(text)
        if payload.get("schema") != "affinemetrics/1":
            raise ValueError("schema is not affinemetrics/1")
        if payload["columns"] != TRACE_HEADER:
            raise ValueError("unexpected trace columns")
        rows = payload["nodes"]
        if payload["node_count"] != len(rows):
            raise ValueError("node_count does not match the nodes")
        event = payload["event"]
        termination, t_stop = event["termination"], float(event["t_stop"])
    else:
        reader = csv.reader(io.StringIO(text))
        if next(reader) != TRACE_HEADER:
            raise ValueError("unexpected trace header")
        rows = [[float(x) for x in row] for row in reader]
        termination, t_stop = None, None
    if not rows or any(len(row) != len(TRACE_HEADER) for row in rows):
        raise ValueError("empty or ragged trace")
    last = [float(x) for x in rows[-1]]
    if t_stop is None:
        t_stop = last[0]
    elif t_stop != last[0]:
        raise ValueError("event t_stop is not the last node")
    return {"termination": termination, "t_stop": t_stop, "u": last[1],
            "v": last[2], "theta": last[3]}


def _check_solve(item, run, pass_dir):
    spec = item["spec"]
    summaries = [line for line in run["stderr"].splitlines()
                 if line.startswith(_SUMMARY_PREFIX)]
    if len(summaries) != len(spec["files"]):
        return [f"{len(summaries)} summary lines for "
                f"{len(spec['files'])} traces"]
    errors = []
    for name, ref, line in zip(spec["files"], item["ref"], summaries):
        got = _parse_trace_file(Path(pass_dir) / name, spec["format"])
        # the stderr summary names the termination for CSV traces
        said = line.split(": ", 1)[1].split(" at ", 1)[0]
        if got["termination"] is None:
            got["termination"] = said
        elif got["termination"] != said:
            errors.append(f"{name}: summary says {said}")
        errors.extend(f"{name}: {e}" for e in check_solve_trace(got, ref))
    return errors


# ---------------------------------------------------------------------------
# arclen: arclen-compare along low-degree polynomial and trig curves

# (surface, curve family, format, flag)
#   flag "plain": det[a', a'', a'''] > 0 along the curve
#   flag "mirror": det < 0 along the curve, run with --auto-orient
#   flag "negative": on an indefinite surface, form(a') < 0 along it
def _arclen_slots():
    flags = {("sphere", 3): "mirror", ("hyperbolic-paraboloid", 3): "negative"}
    slots = []
    for name in _START_BOX:
        for k in range(7 if name == "helicoid" else 8):
            slots.append((name, ("poly", "trig")[k % 2],
                          flags.get((name, k), "plain")))
    # the README item comes first; after it every fourth item writes JSON
    return tuple(slot[:2] + (("csv", "csv", "csv", "json")[k % 4], slot[2])
                 for k, slot in enumerate(slots, start=1))


_ARCLEN_SLOTS = _arclen_slots()
_ARCLEN_SAMPLES = 8

#: the README example: u(t) = 8t, v(t) = t on the sphere, 50 samples
_README_ARCLEN = {"surface": "sphere", "u_expr": "8*t", "v_expr": "t",
                  "t0": 0.0, "t1": 1.0, "samples": 50, "format": "csv",
                  "mirror": False}


def _curve_exprs(name, family, z):
    """u(t), v(t) on [0, 1] inside the start box of ``name``, from eight
    coordinates in [0, 1]."""
    exprs = []
    for (lo, hi), (z0, z1, z2, z3) in zip(_START_BOX[name], (z[:4], z[4:])):
        width = hi - lo
        c0 = _num(lo + (0.3 + 0.4 * z0) * width, 4)[0]
        c1 = _num((0.6 * z1 - 0.3) * width, 4)[0]
        c2 = _num((0.3 * z2 - 0.15) * width, 4)[0]
        if family == "poly":
            exprs.append(f"({c0}) + ({c1})*t + ({c2})*t^2")
        else:
            freq = _num(1.0 + 1.5 * z3, 4)[0]
            exprs.append(f"({c0}) + ({c1})*sin(({freq})*t) + ({c2})*t")
    return exprs


def _curve_signs(pc, grid):
    """(det sign, form sign) along the curve, or None where either comes
    close to zero or the curve leaves its surface's domain."""
    det_sign = form_sign = None
    for t in grid:
        try:
            jets = pc.curve_jets(float(t), 3)
            u, v = pc.param_jets(float(t), 1)
            form = affine_first_fundamental(pc.surface, u.value, v.value)
        except AffineMetricsError:
            return None
        d1, d2, d3 = ([comp.coeffs[k] for comp in jets] for k in (1, 2, 3))
        scale = (np.linalg.norm(d1) * np.linalg.norm(d2)
                 * np.linalg.norm(d3))
        det = float(det3(d1, d2, d3))
        du, dv = u.coeffs[1], v.coeffs[1]
        q = form.apply(du, dv)
        q_scale = ((abs(form.a) + 2 * abs(form.b) + abs(form.c))
                   * (du * du + dv * dv))
        if abs(det) < 1e-3 * scale or abs(q) < 1e-3 * q_scale:
            return None
        signs = (math.copysign(1.0, det), math.copysign(1.0, q))
        if det_sign is None:
            det_sign, form_sign = signs
        elif (det_sign, form_sign) != signs:
            return None
    return det_sign, form_sign


def _in_domain(pc, grid, margin=0.01):
    s = pc.surface
    du, dv = margin * (s.u_max - s.u_min), margin * (s.v_max - s.v_min)
    for t in grid:
        u, v = pc.param_jets(float(t), 1)
        if not (s.u_min + du <= u.value <= s.u_max - du
                and s.v_min + dv <= v.value <= s.v_max - dv):
            return False
    return True


def _arclen_accept(name, family, flag, z):
    u_expr, v_expr = _curve_exprs(name, family, z)
    pc = ParamCurve.from_strings(CATALOG[name], u_expr, v_expr, 0.0, 1.0)
    grid = np.linspace(0.0, 1.0, 21)
    if not _in_domain(pc, grid):
        return None
    signs = _curve_signs(pc, grid)
    if signs is None:
        return None
    want = {"plain": (1.0, None), "mirror": (-1.0, None),
            "negative": (1.0, -1.0)}[flag]
    if signs[0] != want[0] or want[1] not in (None, signs[1]):
        return None
    return u_expr, v_expr


def _arclen_argv(spec, output, auto_orient):
    argv = ["arclen-compare", "--surface", spec["surface"],
            f"--curve={spec['u_expr']};{spec['v_expr']}",
            f"--t-range={spec['t0']:g}:{spec['t1']:g}",
            f"--samples={spec['samples']}", f"--format={spec['format']}",
            f"--output={output}"]
    if auto_orient:
        argv.append("--auto-orient")
    return argv


def _arclen_items(draw):
    items = []
    spec = dict(_README_ARCLEN, file="a00.csv")
    items.append({"kind": "arclen", "exit": 0, "spec": spec,
                  "argv": _arclen_argv(spec, spec["file"], False)})
    for index, (name, family, fmt, flag) in enumerate(_ARCLEN_SLOTS,
                                                      start=1):
        u_expr, v_expr = draw(
            8, lambda z: _arclen_accept(name, family, flag, z),
            f"arclen item {index}")
        output = f"a{index:02d}.{fmt}"
        spec = {"surface": name, "u_expr": u_expr, "v_expr": v_expr,
                "t0": 0.0, "t1": 1.0, "samples": _ARCLEN_SAMPLES,
                "format": fmt, "mirror": flag == "mirror", "file": output}
        items.append({"kind": "arclen", "exit": 0, "spec": spec,
                      "argv": _arclen_argv(spec, output, flag == "mirror")})
    return items


def _alpha_route(pc, t, mirror):
    """The equiaffine integrand through curvature and torsion."""
    if not mirror:
        return affine_integrand_via_euclidean(pc, t)
    fr = euclidean_frenet(pc, t)
    return (fr.kappa ** 2 * -fr.tau) ** (1.0 / 6.0) * fr.speed


def _sigma_route(pc, t):
    """sqrt(|K|^(-1/4) |II(u', v')|), the induced integrand through the
    Euclidean second fundamental form."""
    u, v = pc.param_jets(t, 1)
    _, second, _ = fundamental_forms_euclid(pc.surface, u.value, v.value)
    K = gauss_curvature(pc.surface, u.value, v.value)
    ii = second.apply(u.coeffs[1], v.coeffs[1])
    return math.sqrt(abs(K) ** -0.25 * abs(ii))


def _arclen_reference(spec):
    pc = ParamCurve.from_strings(CATALOG[spec["surface"]], spec["u_expr"],
                                 spec["v_expr"], spec["t0"], spec["t1"])
    tol = TOLERANCES["arclen_reference_tol"]
    s_alpha = affine_arclength(pc, spec["t0"], spec["t1"], rel_tol=tol,
                               abs_tol=tol * 1e-2, mirror=spec["mirror"])
    s_sigma = induced_arclength(pc, spec["t0"], spec["t1"], rel_tol=tol,
                                abs_tol=tol * 1e-2)
    ts = np.linspace(spec["t0"], spec["t1"], spec["samples"])
    return {"s_alpha": s_alpha.value, "s_sigma": s_sigma.value,
            "alpha": [_alpha_route(pc, float(t), spec["mirror"]) for t in ts],
            "sigma": [_sigma_route(pc, float(t)) for t in ts]}


def _rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _check_arclen(item, run, pass_dir):
    spec, ref = item["spec"], item["ref"]
    text = (Path(pass_dir) / spec["file"]).read_text()
    if spec["format"] == "json":
        payload = json.loads(text)
        if payload.get("schema") != "affinemetrics/1":
            return ["schema is not affinemetrics/1"]
        header, rows = payload["columns"], payload["rows"]
    else:
        table = list(csv.reader(io.StringIO(text)))
        header, rows = table[0], table[1:]
    if header != ARCLEN_HEADER:
        return ["unexpected columns"]
    if len(rows) != spec["samples"]:
        return [f"{len(rows)} rows for {spec['samples']} samples"]
    errors = []
    ts = np.linspace(spec["t0"], spec["t1"], spec["samples"])
    for k, row in enumerate(rows):
        t, _, _, ia, js = (float(x) for x in row[:5])
        if str(row[5]).lower() != "false" or str(row[6]).lower() != "false":
            errors.append(f"row {k}: flagged degenerate")
        if t != float(ts[k]):
            errors.append(f"row {k}: t {t!r} != {float(ts[k])!r}")
        if not _rel_err(ia, ref["alpha"][k]) <= TOLERANCES["integrand_rel"]:
            errors.append(f"row {k}: integrand_alpha {ia!r} != "
                          f"{ref['alpha'][k]!r}")
        if not _rel_err(js, ref["sigma"][k]) <= TOLERANCES["integrand_rel"]:
            errors.append(f"row {k}: integrand_sigma {js!r} != "
                          f"{ref['sigma'][k]!r}")
    s_alpha, s_sigma = float(rows[-1][1]), float(rows[-1][2])
    for key, got in (("s_alpha", s_alpha), ("s_sigma", s_sigma)):
        if not _rel_err(got, ref[key]) <= TOLERANCES["arclength_rel"]:
            errors.append(f"{key} {got!r} != {ref[key]!r}")
    return errors


# ---------------------------------------------------------------------------
# pointwise: check-identities and surface-info

_IDENTITY_SURFACES = ("sphere", "helicoid", "paraboloid",
                      "hyperbolic-paraboloid", "hyperboloid")
_IDENTITY_SAMPLES = 20
#: the README forced-failure example; exit 1 naming reference-forms-sphere
_PERTURBED_SPHERE = ["--surface-expr=cos(u)*cos(v);sin(u)*cos(v);"
                     "1.01*sin(v)", "--domain=-3:3,-1.4:1.4",
                     "--reference=sphere"]
_SURFACE_INFO_ITEMS = 24
_EXPECTED_CLASS = {"sphere": "elliptic", "paraboloid": "elliptic",
                   "hyperbolic-paraboloid": "hyperbolic",
                   "hyperboloid": "hyperbolic", "helicoid": "hyperbolic"}
_INFO_FIELDS = ("u", "v", "E", "F", "G", "e", "f", "g", "l", "m", "n", "K",
                "iaff_a", "iaff_b", "iaff_c", "iaff_flipped",
                "classification")


def _catalog_inline(name):
    """The --surface-expr and --domain arguments equal to a catalog
    surface, so each such item parses its expressions afresh."""
    s = CATALOG[name]
    exprs = ";".join(pretty(comp) for comp in s.components)
    return [f"--surface-expr={exprs}",
            f"--domain={s.u_min!r}:{s.u_max!r},{s.v_min!r}:{s.v_max!r}"]


def _point_accept(name, z):
    surface = CATALOG[name]
    (u_lo, u_hi), (v_lo, v_hi) = _START_BOX[name]
    u_text, u = _num(u_lo + z[0] * (u_hi - u_lo))
    v_text, v = _num(v_lo + z[1] * (v_hi - v_lo))
    try:
        affine_first_fundamental(surface, u, v)
        fundamental_forms_euclid(surface, u, v)
    except AffineMetricsError:
        return None
    return f"{u_text},{v_text}", u, v


def _pointwise_items(draw):
    items = []
    # The suites' own --seed comes from the template stream, the same for
    # every workload seed: the cost of one check-identities item moves by
    # about 15% with it, which would swamp a comparison between runs.
    # Three items per surface put the tail at a middle identity item.
    for name in _IDENTITY_SURFACES * 3:
        seed = int(draw.templates.integers(0, 2 ** 31))
        items.append({"kind": "identities", "exit": 0,
                      "argv": ["check-identities", "--surface", name,
                               f"--samples={_IDENTITY_SAMPLES}",
                               f"--seed={seed}"],
                      "spec": {"expect": {**{n: "PASS" for n in SUITE_NAMES},
                                          f"reference-forms-{name}": "PASS"}}})
    seed = int(draw.templates.integers(0, 2 ** 31))
    items.append({"kind": "identities", "exit": 1,
                  "argv": ["check-identities", *_PERTURBED_SPHERE,
                           f"--samples={_IDENTITY_SAMPLES}", f"--seed={seed}"],
                  "spec": {"expect": {**{n: "PASS" for n in SUITE_NAMES},
                                      "reference-forms-sphere": "FAIL"}}})
    for k in range(_SURFACE_INFO_ITEMS):
        name = _IDENTITY_SURFACES[k % len(_IDENTITY_SURFACES)]
        at, u, v = draw(2, lambda z: _point_accept(name, z),
                        f"surface-info item {k}")
        fmt = ("json", "csv")[k % 2]
        # a third write to stdout, the rest to files
        output = "-" if k % 3 == 0 else f"p{k:02d}.{fmt}"
        source = (["--surface", name] if k % 4 < 2 else _catalog_inline(name))
        argv = ["surface-info", *source, f"--at={at}", f"--format={fmt}"]
        if output != "-":
            argv.append(f"--output={output}")
        items.append({"kind": "surface-info", "exit": 0, "argv": argv,
                      "spec": {"surface": name, "u": u, "v": v,
                               "format": fmt, "file": output}})
    return items


def _check_identities(item, run, pass_dir):
    expect = item["spec"]["expect"]
    seen = {}
    for line in run["stdout"].splitlines():
        if line.startswith("identity "):
            name = line[len("identity "):].split(":", 1)[0]
            seen[name] = line.rsplit(" ", 1)[1]
    errors = [f"{name}: {seen.get(name)} != {status}"
              for name, status in expect.items() if seen.get(name) != status]
    if set(seen) != set(expect):
        errors.append(f"suites {sorted(seen)} != {sorted(expect)}")
    return errors


def _check_surface_info(item, run, pass_dir):
    spec = item["spec"]
    text = (run["stdout"] if spec["file"] == "-"
            else (Path(pass_dir) / spec["file"]).read_text())
    if spec["format"] == "json":
        payload = json.loads(text)
        if payload.get("schema") != "affinemetrics/1":
            return ["schema is not affinemetrics/1"]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != 1:
            return [f"{len(rows)} CSV rows"]
        payload = rows[0]
    missing = [f for f in _INFO_FIELDS if f not in payload]
    if missing:
        return [f"missing fields {missing}"]
    errors = []
    u, v = spec["u"], spec["v"]
    if float(payload["u"]) != u or float(payload["v"]) != v:
        errors.append("point echo differs")
    name = spec["surface"]
    if payload["classification"] != _EXPECTED_CLASS[name]:
        errors.append(f"classification {payload['classification']}")
    forms = REFERENCE_FORMS[name]
    checks = []
    if "iaff" in forms:
        checks.append((("iaff_a", "iaff_b", "iaff_c"), forms["iaff"](u, v)))
    if "lmn" in forms:
        checks.append((("l", "m", "n"), forms["lmn"](u, v)))
    if "gauss" in forms:
        checks.append((("K",), (forms["gauss"](u, v),)))
    tol = TOLERANCES["surface_info_rel"]
    for keys, want in checks:
        scale = max(max(abs(x) for x in want), 1.0)
        for key, w in zip(keys, want):
            if not abs(float(payload[key]) - w) <= tol * scale:
                errors.append(f"{key} {payload[key]!r} != {w!r}")
    return errors


_CHECKERS = {"solve": _check_solve, "arclen": _check_arclen,
             "identities": _check_identities,
             "surface-info": _check_surface_info}


def check_item(item, run, pass_dir):
    """Errors for one item's run in one pass: exit code, traceback, output
    files that do not parse, and values off their references."""
    if run.get("traceback"):
        return ["traceback: " + run["traceback"].strip().splitlines()[-1]]
    if run["code"] != item["exit"]:
        return [f"exit code {run['code']} != {item['exit']}"]
    try:
        return _CHECKERS[item["kind"]](item, run, pass_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
