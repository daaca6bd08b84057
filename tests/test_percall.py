"""Smoke test of tools/percall.py: two layers, this checkout against
itself, each side in a fresh process."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LAYERS = ["_condition_parts[sphere]", "commensurate_residual[sphere]"]


def test_two_layers_per_checkout(monkeypatch):
    # on the path, so that the spawned processes import it by name
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import percall

    readings = percall.compare(ROOT, ROOT, LAYERS, calls=64, repeats=2,
                               runs=1)
    assert list(readings) == LAYERS
    assert all(0.0 < us < 1e4 for pair in readings.values() for us in pair)
    lines = percall.table(readings).splitlines()
    assert [line.split()[0] for line in lines] == ["layer", *LAYERS]


def test_a_missing_layer_prints_a_dash(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import percall

    line = percall.table({"gone": (None, 2.5)}).splitlines()[1]
    assert line.split() == ["gone", "-", "2.50", "-"]
