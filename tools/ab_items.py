"""Per-item A/B timing of two checkouts on the benchmark's items.

Builds the items of one workload of ``perfbench/workloads.py`` for each
seed (without their reference values), then times them in each checkout.
A run gives each checkout one fresh ``spawn`` process, which runs every
item through ``affinemetrics.cli.main`` ``--rounds`` times, each round in
a fresh temporary directory (``item_runner.passes``), and keeps each
item's fastest time; the sum of those minima is the checkout's reading,
and this checkout's reading over the parent's is the run's ratio.  Runs
alternate which checkout goes first.  Prints each run's two sums and its
ratio, then the median ratio and the spread of the ratios, lowest to
highest:

    python tools/ab_items.py --root ../parent --workload arclen --seeds 40
    python tools/ab_items.py --root ../parent --workload solve \\
        --seeds 40 41 --rounds 8 --runs 4

``--root`` names the parent checkout; the change is the checkout holding
this script, whose ``perfbench`` and ``src`` build the items.  Nothing
under either checkout is written.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True          # leave the checkout as it is
import item_runner  # noqa: E402  (a sibling: after the line above)

HERE = Path(__file__).resolve().parents[1]


def item_minima(src, items, rounds):
    """Each item's fastest wall seconds over ``rounds`` passes over
    ``items``, with the package under ``src``; called in a fresh process,
    which nothing has evaluated in."""
    best = [math.inf] * len(items)
    for k, _, run in item_runner.passes(src, items, rounds):
        best[k] = min(best[k], run.seconds)
    return best


def compare(change, parent, items, rounds, runs):
    """[(change seconds, parent seconds)] of ``runs`` runs: per-item
    minima over ``rounds`` passes, summed, each checkout (a root holding
    ``src``) in a fresh process per run; odd runs time the change first,
    even runs the parent.  Prints one line per run."""
    fresh = multiprocessing.get_context("spawn")
    readings = []
    for run in range(runs):
        order = ("change", "parent") if run % 2 == 0 else ("parent", "change")
        sums = {}
        for side in order:
            root = change if side == "change" else parent
            with fresh.Pool(1) as pool:
                sums[side] = sum(pool.apply(
                    item_minima, (str(Path(root) / "src"), items, rounds)))
        readings.append((sums["change"], sums["parent"]))
        print(f"run {run + 1} ({order[0]} first): change "
              f"{sums['change'] * 1e3:.2f} ms, parent "
              f"{sums['parent'] * 1e3:.2f} ms, ratio "
              f"{sums['change'] / sums['parent']:.4f}", flush=True)
    return readings


def summary(readings):
    """The median ratio and the spread of the ratios, as one line."""
    ratios = sorted(c / p for c, p in readings)
    median = statistics.median(ratios)
    return (f"ratio median {median:.4f}, spread {ratios[0]:.4f} to "
            f"{ratios[-1]:.4f} ({(ratios[-1] - ratios[0]) / median:.1%} "
            f"of the median)")


def build_items(workload, seeds):
    """The argv of every item of ``workload`` for each seed, in order,
    built by this checkout's perfbench and package."""
    sys.path[:0] = [str(HERE / "src"), str(HERE / "perfbench")]
    import workloads

    return [item["argv"] for seed in seeds
            for item in workloads.build_items(workload, seed)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, required=True,
                        help="the parent checkout")
    parser.add_argument("--workload", required=True,
                        choices=("solve", "arclen", "pointwise"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[40])
    parser.add_argument("--rounds", type=int, default=8,
                        help="passes per process (default 8)")
    parser.add_argument("--runs", type=int, default=4,
                        help="alternating runs (default 4)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.runs < 1:
        parser.error("--rounds and --runs must be at least 1")
    items = build_items(args.workload, args.seeds)
    print(f"{args.workload}, seeds {' '.join(map(str, args.seeds))}: "
          f"{len(items)} items, {args.rounds} rounds per process, parent "
          f"{args.root}", flush=True)
    print(summary(compare(HERE, args.root.resolve(), items, args.rounds,
                          args.runs)))


if __name__ == "__main__":
    main()
