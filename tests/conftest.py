"""Fixtures that every test of the suite uses."""

import sys

import pytest


@pytest.fixture(autouse=True)
def empty_kernel_cache(request):
    """Each test starts with expr's kernel table (the evaluations counted
    per shape and the recorded factories) empty, and with no bound kernel
    in the catalog surfaces or in the ParamCurves that the test's module
    holds at module level: they live as long as the process, and no test's
    outcome may depend on the tests that ran before it.  A process that
    has not loaded a module has no table, and the fixture does not load
    it."""
    expr = sys.modules.get("affinemetrics.expr")
    if expr is not None:
        expr._KERNELS.clear()
    surfgeo = sys.modules.get("affinemetrics.surfgeo")
    if surfgeo is not None:
        for surface in surfgeo.CATALOG.values():
            surface._kernels.clear()
    commensurate = sys.modules.get("affinemetrics.commensurate")
    if commensurate is not None:
        for value in vars(request.module).values():
            if isinstance(value, commensurate.ParamCurve):
                value._kernels.clear()
