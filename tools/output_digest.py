"""Digest of everything the benchmark's items print and write.

Builds the items of each workload of ``perfbench/workloads.py`` for each
seed (without their reference values), then runs one seed's items of one
workload at a time through ``affinemetrics.cli.main`` in a fresh
process, as the benchmark's worker does: two passes, each in a fresh
directory (``item_runner.passes``), so the second runs on the kernels
the first recorded.  Each item adds to its workload's digest: its argv,
its exit code (or the type and message of the exception it raised), its
stdout and stderr, and the name and bytes of every file it left, which
are removed before the next item runs.

Prints one SHA-256 digest per workload, with the number of item runs
whose exit code is not the one the item expects, and one digest over all
workloads.  Two checkouts print the same digests when every command's
output is byte-identical between them:

    python tools/output_digest.py --seeds 0 40 41
    python tools/output_digest.py --seeds 0 40 41 --root ../other-checkout

``--root`` names the checkout whose ``src`` and ``perfbench`` are loaded
(default: the one holding this script); nothing under it is written.
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import sys
from pathlib import Path

sys.dont_write_bytecode = True          # leave the checkout as it is
import item_runner  # noqa: E402  (a sibling: after the line above)

#: passes over one seed's items in one process
PASSES = 2


def _left_files(directory):
    """[(name, bytes)] of the files in ``directory``, which it removes."""
    files = []
    for path in sorted(Path(directory).iterdir()):
        files.append((path.name, path.read_bytes()))
        path.unlink()
    return files


def _update(digest, *parts):
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)


def seed_digest(src, items):
    """(the SHA-256 of PASSES passes over ``items``, each an (argv, exit
    code), and the runs whose exit code is not the item's), with the
    package under ``src``; called in a fresh process, which nothing has
    evaluated in."""
    digest = hashlib.sha256()
    unexpected = 0
    for k, directory, run in item_runner.passes(
            src, [argv for argv, _ in items], PASSES):
        argv, code = items[k]
        unexpected += run.outcome != repr(code)
        _update(digest, repr(argv), run.outcome, run.out, run.err)
        for name, data in _left_files(directory):
            _update(digest, name, data)
    return digest.hexdigest(), unexpected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    fresh = multiprocessing.get_context("spawn")
    overall = hashlib.sha256()
    for workload in workloads.WORKLOADS:
        digest = hashlib.sha256()
        count = unexpected = 0
        for seed in args.seeds:
            items = [(item["argv"], item["exit"])
                     for item in workloads.build_items(workload, seed)]
            with fresh.Pool(1) as pool:
                hexdigest, missed = pool.apply(
                    seed_digest, (str(root / "src"), items))
            _update(digest, seed, hexdigest)
            count += len(items)
            unexpected += missed
        _update(overall, workload, digest.hexdigest())
        print(f"{workload:<10} {digest.hexdigest()}  ({count} items, "
              f"{unexpected} unexpected exit codes)")
    print(f"{'overall':<10} {overall.hexdigest()}")


if __name__ == "__main__":
    main()
