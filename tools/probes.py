"""Named probe commands: edge cases of the four commands, one fresh process
each.

Each probe is one ``affinemetrics`` command line that no benchmark item
runs: frames stretched by a diagonal SL(3) map, surfaces scaled by 1e-6, a
near-irregular point, degenerate surfaces under every command, a parabolic
line, a curve whose induced side takes the GK15 fallback, a reversed
range, a range one subnormal wide, an unwritable sweep and a slow creep
toward a pole.  Each runs as
``python -m affinemetrics`` in a fresh process, in a fresh temporary
directory, with the ``src`` of ``--root`` on its path (default: the
checkout holding this script); nothing under the root is written.
Prints one row per probe: its exit code, the node count where the
command reports one, its wall seconds and its last stderr line.

    python tools/probes.py
    python tools/probes.py --root ../other-checkout
    python tools/probes.py plane-surface-info near-irregular-info

The ``tan-creep`` probe, the slowest, comes last.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STRETCHED_HELICOID = ["--surface-expr", "1e5*u*cos(v);1e-5*u*sin(v);v",
                      "--domain", "-12:12,-13:13"]
NONLINEAR_PLANE = "u^2 + v;v^2 - u;0.1*(u^2 + v) + 0.7*(v^2 - u)"
TINY_NONLINEAR_PLANE = ("1e-6*(u^2 + v);1e-6*(v^2 - u);"
                        "1e-6*(0.1*(u^2 + v) + 0.7*(v^2 - u))")
UNIT_BOX = ["--domain", "-1:1,-1:1"]

#: name -> argv of ``affinemetrics``, in the order they run
PROBES = {
    "stretched-helicoid-start": [
        "commensurate-solve", *STRETCHED_HELICOID, "--at", "1,0",
        "--theta0", "0.3", "--omega0", "-5", "--t-max", "2"],
    "stretched-hyperbolic-paraboloid-start": [
        "commensurate-solve", "--surface-expr", "u;1e-5*v;1e5*u*v",
        "--domain", "-12:12,-12:12", "--at", "0,0", "--theta0", "0.3",
        "--omega0", "-5", "--t-max", "2"],
    "stretched-helicoid-arclen": [
        "arclen-compare", *STRETCHED_HELICOID,
        "--curve", "1.5 + 0.2*t;0.3*t + 0.1*t^2", "--t-range", "0:1"],
    "tiny-sphere-info": [
        "surface-info", "--surface-expr",
        "1e-6*cos(u)*cos(v);1e-6*sin(u)*cos(v);1e-6*sin(v)",
        "--domain", "-3:3,-1.4:1.4", "--at", "0.3,0.2"],
    "tiny-paraboloid-info": [
        "surface-info", "--surface-expr", "u;v;1e-6*(u^2 + v^2)",
        *UNIT_BOX, "--at", "0.3,0.2"],
    "near-irregular-info": [
        "surface-info", "--surface-expr", "u + v;1e-9*v;u*v", *UNIT_BOX,
        "--at", "0,0"],
    "plane-surface-info": ["surface-info", "--surface", "plane",
                           "--at", "0,0"],
    "plane-arclen": ["arclen-compare", "--surface", "plane",
                     "--curve", "t;t", "--t-range", "0:1"],
    "plane-solve": ["commensurate-solve", "--surface", "plane",
                    "--at", "0,0", "--theta0", "0.3"],
    "plane-identities": ["check-identities", "--surface", "plane",
                         "--samples", "5"],
    "nonlinear-plane-info": ["surface-info", "--surface-expr",
                             NONLINEAR_PLANE, *UNIT_BOX, "--at", "0.3,0.2"],
    "tiny-nonlinear-plane-info": ["surface-info", "--surface-expr",
                                  TINY_NONLINEAR_PLANE, *UNIT_BOX,
                                  "--at", "0.3,0.2"],
    "parabolic-point-info": ["surface-info", "--surface-expr", "u;v;u^3+v^2",
                             *UNIT_BOX, "--at", "0,0.1"],
    "parabolic-line": [
        "commensurate-solve", "--surface-expr", "u;v;u^3+v^2", *UNIT_BOX,
        "--at", "0.3,0.1", "--theta0", "3.1", "--omega0", "0",
        "--t-max", "1"],
    "gk15-fallback": ["arclen-compare", "--surface", "sphere",
                      "--curve", "t;1e-3*exp(-1e6*(t-0.1)^2)",
                      "--t-range", "0:1"],
    "reversed-range": ["arclen-compare", "--surface", "sphere",
                       "--curve", "t;t", "--t-range", "1:0",
                       "--samples", "3"],
    "subnormal-range": ["arclen-compare", "--surface", "sphere",
                        "--curve", "8*t;t", "--t-range", "0:5e-324",
                        "--samples", "3"],
    "unwritable-sweep": [
        "commensurate-solve", "--surface", "sphere", "--at", "0.1,0.1",
        "--theta0", "0.3", "--omega0", "0:1:0.1", "--t-max", "3",
        "--output", os.path.join("missing", "x.csv")],
    "tan-creep": [
        "commensurate-solve", "--surface-expr", "u;v;tan(u)*v^2",
        "--domain", "-3:3,-1:1", "--at", "1.5,0.5", "--theta0", "0.3",
        "--omega0", "0", "--t-max", "1"],
}

#: seconds after which a probe is stopped and reported as a timeout
TIMEOUT = 300.0

_NODES = re.compile(r"(\d+) nodes")


def run_probe(root, name):
    """(exit code or "timeout", node count or None, seconds, last stderr
    line) of the probe ``name`` against the checkout ``root``."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as directory:
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "affinemetrics", *PROBES[name]],
                cwd=directory, env=env, capture_output=True, text=True,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            stderr = exc.stderr or ""
            if isinstance(stderr, bytes):
                stderr = stderr.decode(errors="replace")
            code = "timeout"
        else:
            code, stderr = proc.returncode, proc.stderr
        seconds = time.perf_counter() - start
    lines = stderr.strip().splitlines()
    last = lines[-1] if lines else ""
    nodes = _NODES.search(last)
    return code, int(nodes.group(1)) if nodes else None, seconds, last


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="probes to run (default: all): "
                        + ", ".join(PROBES))
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in PROBES]
    if unknown:
        parser.error(f"unknown probes: {', '.join(unknown)}")
    root = args.root.resolve()
    print("| probe | exit | nodes | s | last stderr line |")
    print("|---|---|---|---|---|")
    for name in args.names or PROBES:
        code, nodes, seconds, last = run_probe(root, name)
        nodes = "" if nodes is None else nodes
        print(f"| {name} | {code} | {nodes} | {seconds:.2f} | {last} |",
              flush=True)


if __name__ == "__main__":
    main()
