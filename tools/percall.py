"""Best-of per-call times of named layers in two checkouts.

Each layer is one function of the package called on fixed inputs: a few
dozen states, points or parameter values drawn from a seeded generator
inside a catalog surface's domain, cycled to CALLS calls.  A run gives
each checkout one fresh ``spawn`` process, which imports the package
from the checkout's ``src`` with bytecode off, calls every layer once
over its inputs (so that the kernels are recorded, as in a warm
command), then times each layer as the fastest of REPEATS loops over
its calls.  RUNS runs alternate which checkout goes first, and each
layer keeps its fastest time over the runs.  Prints one line per layer:
microseconds per call in this checkout and in the parent, and their
ratio; a layer that a checkout lacks prints ``-``.  A call that raises
the package's own error counts as a call:

    python tools/percall.py --root ../parent

``--root`` names the parent checkout; the change is the checkout holding
this script.  Nothing under either checkout is written.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import random
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True          # leave the checkout as it is

HERE = Path(__file__).resolve().parents[1]
CATALOG_NAMES = ("sphere", "helicoid", "paraboloid", "hyperbolic-paraboloid",
                 "hyperboloid", "plane")
#: inputs per layer, cycled to the number of calls
STATES = 64
#: calls per timed loop, timed loops per process, alternating runs
CALLS, REPEATS, RUNS = 2000, 7, 4


def _states(surface, rng):
    """(u, v, theta, omega, theta'') inside the surface's domain."""
    return [(rng.uniform(surface.u_min, surface.u_max),
             rng.uniform(surface.v_min, surface.v_max),
             rng.uniform(-math.pi, math.pi), rng.uniform(-2.0, 2.0),
             rng.uniform(-2.0, 2.0)) for _ in range(STATES)]


def _condition_parts(name):
    def build(pkg, rng):
        surface = pkg.surfgeo.CATALOG[name]
        return pkg.commensurate._condition_parts, [
            (surface, *state[:4]) for state in _states(surface, rng)]
    return build


def _residual(pkg, rng):
    surface = pkg.surfgeo.CATALOG["sphere"]
    return pkg.commensurate.commensurate_residual, [
        (surface, state) for state in _states(surface, rng)]


def _curve_method(name):
    def build(pkg, rng):
        curve = pkg.commensurate.ParamCurve.from_strings(
            pkg.surfgeo.CATALOG["sphere"], "8*t", "0.3*sin(9*t) + t", 0.0,
            1.0)
        return getattr(curve, name), [(rng.random(),) for _ in range(STATES)]
    return build


def _form_from_partials(pkg, rng):
    surfgeo = pkg.surfgeo
    surface = surfgeo.CATALOG["sphere"]
    return surfgeo.form_from_partials, [
        surfgeo._partials(surfgeo.surface_jets(surface, u, v, 2))
        for u, v, *_ in _states(surface, rng)]


def _regular_point(pkg, rng):
    surface = pkg.surfgeo.CATALOG["sphere"]
    return pkg.identities._regular_point, [
        (surface, u, v) for u, v, *_ in _states(surface, rng)]


#: layer name -> build(package modules, rng) -> (function, argument tuples)
LAYERS = {
    **{f"_condition_parts[{name}]": _condition_parts(name)
       for name in CATALOG_NAMES},
    "commensurate_residual[sphere]": _residual,
    "ParamCurve.sample[sphere]": _curve_method("sample"),
    "ParamCurve.form_direction[sphere]": _curve_method("form_direction"),
    "form_from_partials[sphere]": _form_from_partials,
    "identities._regular_point[sphere]": _regular_point,
}


def _loop(func, calls, error):
    """Seconds for ``func`` over every argument tuple of ``calls``."""
    start = time.perf_counter()
    for args in calls:
        try:
            func(*args)
        except error:
            pass
    return time.perf_counter() - start


def measure(src, names, calls, repeats):
    """{layer: best microseconds per call, or None where the package under
    ``src`` lacks a name it calls}; called in a fresh process."""
    sys.path.insert(0, src)
    sys.dont_write_bytecode = True
    import importlib
    import types

    pkg = types.SimpleNamespace(**{
        module: importlib.import_module(f"affinemetrics.{module}")
        for module in ("commensurate", "identities", "surfgeo")})
    error = importlib.import_module("affinemetrics.errors").AffineMetricsError
    out = {}
    for name in names:
        try:
            func, inputs = LAYERS[name](pkg, random.Random(name))
        except AttributeError:
            out[name] = None
            continue
        batch = [inputs[k % len(inputs)] for k in range(calls)]
        _loop(func, inputs, error)              # records the kernels
        out[name] = 1e6 * min(_loop(func, batch, error)
                              for _ in range(repeats)) / calls
    return out


def compare(change, parent, names, calls, repeats, runs):
    """{layer: (change µs, parent µs)}, each the fastest over ``runs``
    runs, each checkout (a root holding ``src``) in a fresh process per
    run; odd runs time the change first, even runs the parent."""
    fresh = multiprocessing.get_context("spawn")
    best = {name: {"change": None, "parent": None} for name in names}
    for run in range(runs):
        order = ("change", "parent") if run % 2 == 0 else ("parent", "change")
        for side in order:
            root = change if side == "change" else parent
            with fresh.Pool(1) as pool:
                times = pool.apply(measure, (str(Path(root) / "src"), names,
                                             calls, repeats))
            for name, us in times.items():
                if us is not None:
                    held = best[name][side]
                    best[name][side] = us if held is None else min(held, us)
    return {name: (sides["change"], sides["parent"])
            for name, sides in best.items()}


def table(readings):
    """One line per layer: µs per call in each checkout and the ratio,
    ``-`` for a layer a checkout lacks."""
    width = max(len(name) for name in readings) + 2
    lines = [f"{'layer':<{width}}{'change us':>11}{'parent us':>11}"
             f"{'ratio':>8}"]
    for name, (change, parent) in readings.items():
        cells = [f"{us:.2f}" if us is not None else "-"
                 for us in (change, parent)]
        ratio = (f"{change / parent:.3f}"
                 if change is not None and parent is not None else "-")
        lines.append(f"{name:<{width}}{cells[0]:>11}{cells[1]:>11}"
                     f"{ratio:>8}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, required=True,
                        help="the parent checkout")
    args = parser.parse_args(argv)
    print(f"{CALLS} calls x {REPEATS} loops per process, {RUNS} runs, "
          f"parent {args.root}", flush=True)
    print(table(compare(HERE, args.root.resolve(), list(LAYERS), CALLS,
                        REPEATS, RUNS)))


if __name__ == "__main__":
    main()
