"""Timed passes over one workload's items, in a fresh process.

Calls ``affinemetrics.cli.main(argv)`` in-process once per item, one item
after the other (a closed loop with one client).  Right before each item
the host speed probe (probe.py) is timed, so run.py can take the host's
speed out of the item's time.  Each pass runs in its own directory, so
every pass's output files stay for the checks.

    python3 worker.py --items ITEMS.json --workdir DIR --seconds S \
        --trace 0|1 --result RESULT.json [--spans SPANS.json.gz]

Without tracing, passes repeat while the next one fits in S seconds (at
least one runs).  With tracing, one pass without spans is followed by one
traced pass, so the trace overhead is measured on the same items.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import resource
import statistics
import time
import traceback

import probe

MAX_PASSES = 50


def _run_item(main, argv):
    out, err = io.StringIO(), io.StringIO()
    tb = None
    probe_s = probe.probe()
    start, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        tb = traceback.format_exc()
    ms = (time.perf_counter() - start) * 1e3
    cpu_ms = (time.process_time() - cpu0) * 1e3
    return {"code": code, "ms": ms, "cpu_ms": cpu_ms, "probe_s": probe_s,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(), "traceback": tb}


def _run_pass(main, items, directory, recorder=None):
    os.makedirs(directory)
    here = os.getcwd()
    os.chdir(directory)
    runs = []
    try:
        start = time.perf_counter()
        for index, argv in enumerate(items):
            if recorder is not None:
                recorder.item = index
            runs.append(_run_item(main, argv))
        elapsed = time.perf_counter() - start
    finally:
        os.chdir(here)
    if recorder is not None:
        for run in runs:
            recorder.count_output(run["stdout"] + run["stderr"])
    # the program's time: the items' own, without the probes between them
    return {"dir": directory, "elapsed_s": elapsed,
            "wall_s": sum(run["ms"] for run in runs) / 1e3,
            "cpu_s": sum(run["cpu_ms"] for run in runs) / 1e3, "runs": runs}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--items", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    from affinemetrics import cli

    with open(args.items) as handle:
        items = json.load(handle)
    result = {"passes": []}
    if args.trace:
        import spans

        result["passes"].append(
            _run_pass(cli.main, items, os.path.join(args.workdir, "p00")))
        recorder = spans.Recorder()
        recorder.install()
        traced = _run_pass(cli.main, items,
                           os.path.join(args.workdir, "t00"), recorder)
        result["passes"].append(traced)
        result["traced"] = {"stats": recorder.stats,
                            "counts": dict(recorder.counts)}
        if args.spans:
            with gzip.open(args.spans, "wt") as handle:
                json.dump({"fields": ["id", "parent", "item", "name",
                                      "start", "end"],
                           "spans": recorder.spans}, handle)
    else:
        start = time.perf_counter()
        while len(result["passes"]) < MAX_PASSES:
            k = len(result["passes"])
            result["passes"].append(_run_pass(
                cli.main, items, os.path.join(args.workdir, f"p{k:02d}")))
            typical = statistics.median(p["elapsed_s"]
                                        for p in result["passes"])
            if time.perf_counter() - start + typical > args.seconds:
                break
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(args.result, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
