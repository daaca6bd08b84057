"""Smoke test of tools/probes.py: three fast probes, each in a fresh
process against this checkout."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _probes():
    spec = importlib.util.spec_from_file_location(
        "probes", ROOT / "tools" / "probes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_probes(capsys):
    probes = _probes()
    probes.main(["--root", str(ROOT), "plane-surface-info",
                 "stretched-helicoid-start", "subnormal-range"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| probe | exit | nodes | s | last stderr line |"
    plane, start, subnormal = (line.split(" | ") for line in lines[2:])
    assert plane[:3] == ["| plane-surface-info", "3", ""]
    assert plane[4].startswith("error: DegenerateSurfacePoint: ln - m^2 = ")
    # a solve reports its node count on its last stderr line
    assert start[:3] == ["| stretched-helicoid-start", "0", "257"]
    assert "completed at t=2, 257 nodes" in start[4]
    # a range one subnormal wide is a usage error, not a traceback
    assert subnormal[:3] == ["| subnormal-range", "2", ""]
    assert subnormal[4].endswith("the half width (b - a)/2 underflows to 0 |")
