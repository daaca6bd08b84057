"""Benchmark of the affinemetrics CLI.

    python3 perfbench/run.py --workload solve|arclen|pointwise \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/affinemetrics``).
It builds the workload's CLI items from the seed, computes their reference
values, runs the items in a fresh single-threaded worker process, checks
every output, prints every metric with its unit and, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer ones (see spans.py).  The full result, with the seed, the item
digest, the tolerances and the times as the clock read them, goes to
``.perfbench_out/``.

Times are reported at the nominal host speed of probe.py: each item's
time (and each set-up time) is divided by how much slower than nominal the
host ran around it, as the probe timed right before it shows.  On a shared
host the raw times of the same code drift by up to 1.8 times from one
minute to the next; the probe drifts with them, the program's own changes
do not move it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"

SETUP_RUNS = 11
WORKER_TIMEOUT_S = 150
SETUP_PROBES = 5
SETUP_CODE = ("import time; t = time.perf_counter(); "
              "import affinemetrics.cli as c; c.build_parser(); "
              "t = time.perf_counter() - t; "
              "import statistics, probe; probe.probe(); "
              f"print(t, statistics.median(probe.probe() "
              f"for _ in range({SETUP_PROBES})))")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "item_ms_p50": "ms", "item_ms_tail": "ms",
                    "peak_rss_mb": "MB"}


def _env():
    """Environment of the program's processes: the source tree on the
    path, one thread for numpy's libraries, no sweep thread pool."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
    env.pop("AFFINEMETRICS_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup():
    """Median time to import the CLI and build its parser in a fresh
    interpreter, raw and at nominal host speed (each start is scaled by
    the probes it times right after); one untimed start first fills the
    bytecode cache."""
    raw, nominal = [], []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(),
                              capture_output=True, text=True, timeout=60,
                              check=True)
        if k:
            seconds, probe_s = map(float, done.stdout.split())
            raw.append(seconds)
            nominal.append(seconds * probe.NOMINAL_S / probe_s)
    return statistics.median(raw), statistics.median(nominal)


def tail_rank(n):
    """Rank among n sorted latencies of the highest percentile with at
    least ten items beyond it, and that percentile; the maximum when there
    are ten items or fewer."""
    if n <= 10:
        return n - 1, 100.0
    return n - 11, 100.0 * (n - 10) / n


def run_worker(items, workdir, seconds, trace, spans_path=None):
    items_path = Path(workdir) / "items.json"
    result_path = Path(workdir) / "result.json"
    items_path.write_text(json.dumps([item["argv"] for item in items]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--items",
           str(items_path), "--workdir", str(workdir), "--seconds",
           str(seconds), "--trace", str(trace), "--result", str(result_path)]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    subprocess.run(cmd, env=_env(), check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text())


def check_passes(workloads, items, result):
    """(attempted, failed, first failure messages) over every pass."""
    attempted = failed = 0
    messages = []
    for p in result["passes"]:
        for index, (item, run) in enumerate(zip(items, p["runs"])):
            attempted += 1
            errors = workloads.check_item(item, run, p["dir"])
            if errors:
                failed += 1
                if len(messages) < 20:
                    messages.append(f"{os.path.basename(p['dir'])} item "
                                    f"{index}: {'; '.join(errors[:3])}")
    return attempted, failed, messages


def at_nominal_speed(passes):
    """Each pass's item wall and CPU times in ms, divided by the host's
    slowdown around each item (probe.local_speed)."""
    out = []
    for p in passes:
        runs = p["runs"]
        speed = probe.local_speed([r["probe_s"] for r in runs])
        out.append({"ms": [r["ms"] / k for r, k in zip(runs, speed)],
                    "cpu_ms": [r["cpu_ms"] / k for r, k in zip(runs, speed)]})
    return out


def end_to_end(passes, setup_s, peak_rss_mb):
    """The end-to-end metrics of one run: the median over passes of each
    pass's wall time, CPU time, median item latency and tail latency,
    from item times in ms (raw or at nominal speed)."""
    rank = tail_rank(len(passes[0]["ms"]))[0]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(p["ms"]) / 1e3 for p in passes),
        "cpu_s": statistics.median(sum(p["cpu_ms"]) / 1e3 for p in passes),
        "item_ms_p50": statistics.median(statistics.median(p["ms"])
                                         for p in passes),
        "item_ms_tail": statistics.median(sorted(p["ms"])[rank]
                                          for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }


def run_workload(workload, seed, seconds, trace, items=None):
    """Generate, run and check one workload; returns the full record."""
    import spans
    import workloads

    if items is None:
        items = workloads.generate(workload, seed)
    OUT.mkdir(exist_ok=True)
    TMP.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = tempfile.mkdtemp(prefix=tag + "-", dir=TMP)
    try:
        spans_path = OUT / f"spans-{workload}-seed{seed}.json.gz"
        result = run_worker(items, workdir, seconds, trace,
                            spans_path if trace else None)
        attempted, failed, messages = check_passes(workloads, items, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "items": len(items),
              "digest": workloads.digest(items),
              "passes": len(result["passes"]), "attempted": attempted,
              "failed": failed, "failures": messages,
              "tolerances": workloads.TOLERANCES,
              "tail_percentile": tail_rank(len(items))[1]}
    record["pass_wall_s"] = [p["wall_s"] for p in result["passes"]]
    record["pass_item_ms"] = [[r["ms"] for r in p["runs"]]
                              for p in result["passes"]]
    record["pass_probe_s"] = [[r["probe_s"] for r in p["runs"]]
                              for p in result["passes"]]
    nominal = at_nominal_speed(result["passes"])
    if trace:
        untraced, traced = (sum(p["ms"]) / 1e3 for p in nominal)
        units = spans.metric_units()
        values = spans.layer_metrics(
            result["traced"]["stats"], result["traced"]["counts"],
            traced, untraced, failed / attempted)
        record["us_per_call_roadmap"] = spans.ROADMAP_US
    else:
        units = END_TO_END_UNITS
        raw_setup_s, setup_s = measure_setup()
        raw = [{"ms": [r["ms"] for r in p["runs"]],
                "cpu_ms": [r["cpu_ms"] for r in p["runs"]]}
               for p in result["passes"]]
        record["raw_metrics"] = end_to_end(raw, raw_setup_s,
                                           result["peak_rss_mb"])
        values = end_to_end(nominal, setup_s, result["peak_rss_mb"])
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return record


def _report(record):
    probe_s = statistics.median(sum(record["pass_probe_s"], []))
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['items']} items x {record['passes']} passes, digest "
          f"{record['digest'][:12]}, tail = p{record['tail_percentile']:.1f} "
          f"of {record['items']} items; times at nominal host speed "
          f"(probe median {probe_s:.3g} s, nominal {probe.NOMINAL_S:g} s)")
    for name, metric in record["metrics"].items():
        note = ""
        kernel = name.removesuffix(".us_per_call")
        if kernel != name:
            roadmap = record["us_per_call_roadmap"][kernel]
            note = f"  (ROADMAP: {roadmap:g} us)"
        if name in record.get("raw_metrics", {}):
            note = f"  (raw {record['raw_metrics'][name]:.6g})"
        print(f"  {name:52s} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"  attempted {record['attempted']}, failed {record['failed']}")
    for message in record["failures"]:
        print(f"  FAIL {message}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "arclen", "pointwise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "affinemetrics" / "cli.py").is_file():
        print(f"error: no affinemetrics sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
