"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q

A tiny pass of each workload must emit every metric BENCHMARK.json names,
with its unit, and a corrupted output must count as failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7


@pytest.fixture(autouse=True)
def _results_elsewhere(monkeypatch, tmp_path):
    # keep test runs out of the results baseline.py collects
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def _tiny(workload, count=3):
    """The first items, the last (for solve a stop at AsymptoticProximity)
    and every item expected to exit non-zero, with references."""
    items = workloads.build_items(workload, SEED)
    picked = items[:count] + items[-1:]
    picked += [item for item in items[count:-1] if item["exit"] != 0]
    workloads.attach_references(workload, SEED, picked)
    return picked


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_benchmark_json_names_the_harness_metrics():
    assert _units(BENCHMARK["end_to_end"]) == run.END_TO_END_UNITS
    assert _units(BENCHMARK["per_layer"]) == spans.metric_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_pass_emits_every_metric(workload, trace):
    record = run.run_workload(workload, SEED, 0.1, trace, _tiny(workload))
    assert record["failed"] == 0, record["failures"]
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in record["metrics"].items()} == \
        _units(wanted)
    for metric in record["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())


def test_times_are_scaled_to_nominal_host_speed():
    # the host runs twice as slow as nominal around the first two items,
    # at nominal speed around the last two; one probe is an outlier
    slow, fast = 2 * probe.NOMINAL_S, probe.NOMINAL_S
    probes = [slow, slow, 9 * slow, fast, fast]
    runs = [{"ms": 10.0, "cpu_ms": 8.0, "probe_s": s} for s in probes]
    [scaled] = run.at_nominal_speed([{"runs": runs}])
    assert scaled["ms"] == [5.0, 5.0, 5.0, 10.0, 10.0]
    assert scaled["cpu_ms"] == [4.0, 4.0, 4.0, 8.0, 8.0]


def test_perturbed_t_stop_counts_as_failed():
    items = _tiny("solve", count=1)[:1]
    run.TMP.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.TMP)
    try:
        result = run.run_worker(items, workdir, 0.1, 0)
        assert run.check_passes(workloads, items, result)[:2] == (1, 0)
        trace = Path(result["passes"][0]["dir"]) / items[0]["spec"]["files"][0]
        lines = trace.read_text().splitlines()
        row = lines[-1].split(",")
        row[0] = repr(float(row[0]) + 0.01)
        trace.write_text("\r\n".join(lines[:-1] + [",".join(row)]) + "\r\n")
        attempted, failed, messages = run.check_passes(workloads, items,
                                                       result)
    finally:
        shutil.rmtree(workdir)
    assert (attempted, failed) == (1, 1)
    assert "t_stop" in messages[0]


def test_hermite_event_error_fails_the_stop_time_gate():
    # the second hyperboloid breakdown seed: converged stop 7.4214, the
    # cubic-Hermite DOPRI5 event location stops at 7.343
    ref = {"termination": "AsymptoticProximity", "t_stop": 7.4214,
           "u": 0.3, "v": -1.2, "theta": 2.0, "omega": 0.5}
    same = {k: ref[k] for k in ("termination", "t_stop", "u", "v", "theta")}
    assert workloads.check_solve_trace(same, ref) == []
    early = dict(same, t_stop=7.343)
    assert any("t_stop" in e for e in workloads.check_solve_trace(early, ref))


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
