"""Smoke test of tools/output_digest.py: seed_digest over two items, each
call in a fresh spawned process, as the tool makes it."""

import multiprocessing
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SPHERE = ["surface-info", "--surface", "sphere", "--at", "0.3,0.2"]
PLANE = ["surface-info", "--surface", "plane", "--at", "0,0"]
ITEMS = [(SPHERE, 0), (PLANE, 3)]


def test_digest_repeats_and_tells_runs_apart(monkeypatch):
    # on the path, so that the spawned processes import it by name
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import output_digest

    # one process per call: seed_digest wants one nothing has evaluated in
    fresh = multiprocessing.get_context("spawn")
    with fresh.Pool(1, maxtasksperchild=1) as pool:
        digests = [pool.apply(output_digest.seed_digest,
                              (str(ROOT / "src"), items))
                   for items in (ITEMS, ITEMS,
                                 [(SPHERE[:-1] + ["0.3,0.25"], 0),
                                  (PLANE, 3)],
                                 [(SPHERE, 1), (PLANE, 3)])]
    same, again, moved, miscounted = digests
    assert same == again and same[1] == 0
    assert moved[0] != same[0] and moved[1] == 0
    # the exit code an item expects is not part of the digest; a wrong one
    # is an unexpected run in each of the passes
    assert miscounted == (same[0], output_digest.PASSES)
