"""Fixtures that every test of the suite uses."""

import sys

import pytest


@pytest.fixture(autouse=True)
def empty_kernel_cache():
    """Each test starts with tape's cache of recorded shapes empty: the
    cache lives as long as the process, and no test's outcome may depend
    on the tests that ran before it.  A process that has not loaded tape
    has no cache, and the fixture does not load it."""
    tape = sys.modules.get("affinemetrics.tape")
    if tape is not None:
        tape._KERNELS.clear()
