"""Fixtures that every test of the suite uses."""

import sys

import pytest


@pytest.fixture(autouse=True)
def empty_kernel_cache():
    """Each test starts with tape's cache of recorded shapes, surfgeo's
    count of evaluations per shape and the catalog surfaces' bound kernels
    empty: they live as long as the process, and no test's outcome may
    depend on the tests that ran before it.  A process that has not loaded
    a module has no table, and the fixture does not load it."""
    tape = sys.modules.get("affinemetrics.tape")
    if tape is not None:
        tape._KERNELS.clear()
    surfgeo = sys.modules.get("affinemetrics.surfgeo")
    if surfgeo is not None:
        surfgeo._COUNTS.clear()
        for surface in surfgeo.CATALOG.values():
            surface._kernels.clear()
