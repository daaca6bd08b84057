"""Record the baseline of the code in this checkout.

    python3 perfbench/baseline.py

Computes the default seed's reference values for the solve and arclen
items and stores them in perfbench/reference_seed0.json, so runs with that
seed check outputs against this code's references.  Then reads every
``.perfbench_out/<workload>-seed<n>-trace<0|1>.json`` that run.py wrote
and writes perfbench/baseline.json: per workload, the median and quartiles
of each end-to-end metric over the untraced runs and the per-layer metrics
of the traced runs (medians when there are several), together with the
output check tolerances and the map from layer metrics to the end-to-end
metrics they should move.  Run it on the code the baseline describes; a
later change is compared against the file it wrote.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"

# which end-to-end metric each layer metric should move, on which workload,
# and where the prediction is no change
LAYER_MAP = [
    {"layer": ["numerics.ode.*", "numerics.ode_solve.self_s",
               "commensurate.geom_evals_per_step",
               "commensurate.solve_theta_dd.*",
               "commensurate.commensurate_residual.*"],
     "moves": ["wall_s", "item_ms_tail"], "on": ["solve"],
     "unchanged_on": ["arclen", "pointwise"]},
    {"layer": ["surfgeo.surface_jets.o3.us_per_call",
               "jets.compose_curve_in_surface.us_per_call",
               "jets.Jet2.__mul__.*", "jets.Jet2.func.*",
               "expr.eval_ast.self_s"],
     "moves": ["wall_s", "item_ms_p50"], "on": ["solve", "arclen"],
     "unchanged_on": ["pointwise (mostly)"]},
    {"layer": ["numerics.quad.*", "curvegeo.affine_integrand.calls",
               "commensurate.induced_arclength.*"],
     "moves": ["wall_s"], "on": ["arclen"], "unchanged_on": ["solve"]},
    {"layer": ["expr.parse_expression.*", "identities.*",
               "curvegeo.euclidean_frenet.*"],
     "moves": ["wall_s", "setup_s (parsing)"], "on": ["pointwise"],
     "unchanged_on": ["solve"]},
    {"layer": ["cli.main.self_s", "cli.bytes_written"],
     "moves": ["item_ms_p50"], "on": ["solve (long traces)"],
     "unchanged_on": ["pointwise"]},
    {"layer": ["anything that caches"], "moves": ["peak_rss_mb"],
     "on": ["solve", "arclen", "pointwise"], "unchanged_on": []},
]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def collect():
    import workloads

    runs = {}
    for path in sorted(OUT.glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["trace"]), []).append(
            record)
    summary = {}
    for workload in workloads.WORKLOADS:
        plain = runs.get((workload, 0), [])
        traced = runs.get((workload, 1), [])
        entry = {"untraced_runs": len(plain),
                 "seeds": sorted(r["seed"] for r in plain),
                 "failed": sum(r["failed"] for r in plain + traced),
                 "attempted": sum(r["attempted"] for r in plain + traced),
                 "end_to_end": {}, "traced_runs": len(traced),
                 "per_layer": {}}
        for name in (plain[0]["metrics"] if plain else {}):
            values = [r["metrics"][name]["value"] for r in plain]
            q1, median, q3 = _quartiles(values)
            entry["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3,
                "unit": plain[0]["metrics"][name]["unit"]}
        for name in (traced[0]["metrics"] if traced else {}):
            entry["per_layer"][name] = {
                "value": statistics.median(r["metrics"][name]["value"]
                                           for r in traced),
                "unit": traced[0]["metrics"][name]["unit"]}
        if plain:
            entry["tail_percentile"] = plain[0]["tail_percentile"]
            entry["items"] = plain[0]["items"]
        summary[workload] = entry
    import probe

    return {"machine": {"python": platform.python_version(),
                        "cpus": os.cpu_count(),
                        "processor": platform.machine()},
            # end-to-end times are at the host speed where one probe takes
            # this long (probe.py)
            "probe_nominal_s": probe.NOMINAL_S,
            "workloads": summary,
            "tolerances": workloads.TOLERANCES,
            "layer_to_end_to_end": LAYER_MAP}


def store_references():
    import workloads

    table = {}
    for workload in ("solve", "arclen"):
        items = workloads.build_items(workload, workloads.DEFAULT_SEED)
        table[workload] = {"digest": workloads.digest(items),
                           "refs": [workloads.reference(i) for i in items]}
    workloads.STORED_REFERENCES.write_text(json.dumps(table) + "\n")


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    store_references()
    (HERE / "baseline.json").write_text(json.dumps(collect(), indent=1) + "\n")
