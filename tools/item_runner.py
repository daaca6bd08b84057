"""Runs benchmark items in process, as the benchmark's worker does.

``passes`` imports ``affinemetrics.cli.main`` from a checkout's ``src``
with bytecode off, so the checkout is left as it is, then runs every item
once per pass, each pass in a fresh temporary directory that is the
working directory while it runs.  Call it in a fresh ``spawn`` process,
which nothing has evaluated in: the first pass then pays the cold start
that a fresh command does, and later passes run on what it recorded.
``tools/ab_items.py`` times items this way and ``tools/output_digest.py``
digests what they print and write.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import time
from typing import NamedTuple


class Run(NamedTuple):
    """One in-process run of an item: its exit code, or the type and
    message of the exception it raised, as a repr; its stdout and stderr;
    and its wall seconds, whatever its outcome."""
    outcome: str
    out: str
    err: str
    seconds: float


def run_item(main, argv):
    """The Run of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = main(list(argv))
    except SystemExit as exc:
        outcome = exc.code
    except Exception as exc:        # a traceback's paths name the checkout
        outcome = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Run(repr(outcome), out.getvalue(), err.getvalue(), seconds)


def passes(src, items, count):
    """Yields (k, directory, Run) for the k-th argv of ``items`` in each of
    ``count`` passes, with the package under ``src``; ``directory`` is the
    pass's working directory, which holds what the items wrote so far."""
    sys.path.insert(0, src)
    sys.dont_write_bytecode = True          # leave the checkout as it is
    from affinemetrics.cli import main

    here = os.getcwd()
    for _ in range(count):
        with tempfile.TemporaryDirectory() as directory:
            os.chdir(directory)
            try:
                for k, argv in enumerate(items):
                    yield k, directory, run_item(main, argv)
            finally:
                os.chdir(here)
