"""The command in a fresh process, as ``python -m affinemetrics`` runs it.

A fresh process loads only the package modules its command runs: the
parser, --help and a usage error none but the package root, cli and
errors.  surface-info and commensurate-solve compute on floats and
tuples, so a fresh process running them must not load numpy: its import
is most of a cold start.  arclen-compare and check-identities import it
where they build arrays, and must print in a fresh process what they
print in-process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import affinemetrics
from affinemetrics.cli import main

SRC = str(Path(affinemetrics.__file__).resolve().parent.parent)


def _python(argv, cwd):
    """Run ``python argv`` in a new interpreter that imports this
    checkout's package; stdout and stderr are decoded without newline
    translation, so CSV's CRLF rows stay as written."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in (env.get("PYTHONPATH"),) if p])
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=60)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def _fresh(args, cwd, importtime=False):
    """``python -m affinemetrics args``, under ``-X importtime`` if asked."""
    flags = ["-X", "importtime"] if importtime else []
    return _python([*flags, "-m", "affinemetrics", *args], cwd)


def _in_process(args, capsys):
    code = main(list(args))
    return code, capsys.readouterr().out


def _imported(err):
    """The modules that ``-X importtime`` output ``err`` lists."""
    return {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
            if line.startswith("import time:")} - {"imported package"}


def _package_modules(err):
    return sorted(m for m in _imported(err)
                  if m.split(".")[0] == "affinemetrics")


# what the parser needs of the package: main maps errors to exit codes
PARSER_MODULES = ["affinemetrics", "affinemetrics.cli", "affinemetrics.errors"]


def test_import_and_parser_leave_numpy_unloaded(tmp_path):
    code = ("import sys, affinemetrics, affinemetrics.cli as c; "
            "c.build_parser(); print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy')); print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'affinemetrics'))")
    assert _python(["-c", code], tmp_path)[:2] == (
        0, f"[]\n{PARSER_MODULES}\n")


def test_import_and_parser_record_no_kernel(tmp_path):
    # a kernel is recorded after expr.RECORD_AFTER evaluations of one
    # shape; importing the CLI and building its parser evaluates none,
    # leaves the recorder's module unloaded, and the kernel table empty
    code = ("import sys, affinemetrics.cli as c; c.build_parser(); "
            "from affinemetrics.surfgeo import CATALOG; "
            "print([s._kernels for s in CATALOG.values()], "
            "'affinemetrics.tape' in sys.modules); "
            "from affinemetrics import expr; print(expr._KERNELS)")
    assert _python(["-c", code], tmp_path)[:2] == (
        0, "[{}, {}, {}, {}, {}, {}] False\n{}\n")


def test_help_exits_zero(tmp_path):
    code, out, err = _fresh(["--help"], tmp_path, importtime=True)
    assert code == 0
    assert out.startswith("usage: affinemetrics")
    assert _package_modules(err) == PARSER_MODULES


def test_usage_error_loads_only_the_parser(tmp_path):
    code, _, err = _fresh(["surface-info", "--surface", "sphere"], tmp_path,
                          importtime=True)
    assert code == 2
    assert "the following arguments are required: --at" in err
    assert _package_modules(err) == PARSER_MODULES


SOLVE = ["commensurate-solve", "--surface", "sphere", "--at", "0.1,0.1",
         "--theta0", "0.3", "--t-max", "0.2"]

NUMPY_FREE = {
    "surface-info-csv": ["surface-info", "--surface", "helicoid",
                         "--at", "1,0", "--format", "csv"],
    "surface-info-json": ["surface-info", "--surface", "sphere",
                          "--at", "0.1,0.2", "--format", "json"],
    "solve-csv": SOLVE,
    "solve-json-sweep": SOLVE + ["--omega0", "-0.5:0.5:0.5", "--format",
                                 "json", "--output", "fam.json"],
    "solve-asymptotic-stop": ["commensurate-solve", "--surface", "helicoid",
                              "--at", "0.5,0.3", "--theta0", "1.62",
                              "--omega0", "-1.7", "--t-max", "0.1",
                              "--format", "json"],
}

# package modules that each numpy-free command leaves unloaded: the one
# point of surface-info needs neither a curve, an ODE nor a recording
UNLOADED = {
    "surface-info": {"commensurate", "curvegeo", "numerics", "identities",
                     "tape"},
    "commensurate-solve": {"identities"},
}


@pytest.mark.parametrize("name", sorted(NUMPY_FREE))
def test_numpy_stays_unloaded(name, tmp_path, capsys):
    args = NUMPY_FREE[name]
    code, out, err = _fresh(args, tmp_path, importtime=True)
    assert code == 0, err
    loaded = _imported(err)
    assert loaded, "no -X importtime output"
    assert [m for m in loaded if "numpy" in m] == []
    assert {f"affinemetrics.{m}" for m in UNLOADED[args[0]]} & loaded == set()
    if name == "solve-json-sweep":
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fam_00.json", "fam_01.json", "fam_02.json"]
    else:
        assert (0, out) == _in_process(args, capsys)


@pytest.mark.parametrize("args", [
    ["arclen-compare", "--surface", "sphere", "--curve", "8*t;t",
     "--t-range", "0:1", "--samples", "5"],
    ["check-identities", "--surface", "helicoid", "--samples", "5",
     "--seed", "3"],
], ids=["arclen-compare", "check-identities"])
def test_numpy_commands_match_in_process(args, tmp_path, capsys):
    code, out, err = _fresh(args, tmp_path)
    assert code == 0, err
    assert (0, out) == _in_process(args, capsys)
