"""Smoke test of tools/ab_items.py: two items, this checkout against
itself, each side in a fresh process."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ITEMS = [
    ["surface-info", "--surface", "sphere", "--at", "0.3,0.2"],
    ["arclen-compare", "--surface", "sphere", "--curve", "8*t;t",
     "--t-range", "0:1", "--samples", "3"],
]


def test_two_items_alternate(monkeypatch, capsys):
    # on the path, so that the spawned processes import it by name
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import ab_items

    readings = ab_items.compare(ROOT, ROOT, ITEMS, rounds=2, runs=2)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "run 1 (change first)", "run 2 (parent first)"]
    assert len(readings) == 2
    assert all(0.0 < s < 10.0 for pair in readings for s in pair)
    assert ab_items.summary(readings).startswith("ratio median ")
