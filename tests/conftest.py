"""Fixtures that every test of the suite uses."""

import sys

import pytest


@pytest.fixture(autouse=True)
def empty_kernel_cache(request):
    """Each test starts with expr's kernel table (the evaluations counted
    per shape and the recorded factories) empty, and with no bound kernel
    in any object that holds a KernelCache (a SurfaceDef, a ParamCurve)
    among the catalog surfaces and the values the test's module holds at
    module level: they live as long as the process, and no test's outcome
    may depend on the tests that ran before it.  A process that has not
    loaded expr has no table and no cache, and the fixture does not load
    it."""
    expr = sys.modules.get("affinemetrics.expr")
    if expr is None:
        return
    expr._KERNELS.clear()
    holders = list(vars(request.module).values())
    surfgeo = sys.modules.get("affinemetrics.surfgeo")
    if surfgeo is not None:
        holders += surfgeo.CATALOG.values()
    for value in holders:
        kernels = getattr(value, "_kernels", None)
        if isinstance(kernels, expr.KernelCache):
            kernels.clear()
