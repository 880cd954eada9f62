"""Repo-root pytest plugin: minimal strict-mode asyncio test support.

The serve-layer tests are coroutines, and the environment deliberately
carries no pytest-asyncio; this ~40-line plugin provides the strict
subset the suite needs:

* ``asyncio_mode`` ini option (only ``strict`` is implemented): an
  ``async def`` test MUST carry ``@pytest.mark.asyncio`` — an unmarked
  coroutine test fails loudly instead of silently passing uncollected;
* marked tests run on a **fresh event loop per test** via
  :func:`asyncio.run` with ``debug=True``, so unawaited coroutines,
  never-retrieved exceptions and slow callbacks surface as errors/logs
  rather than vanishing with the loop.

Combined with the ``filterwarnings`` entry in ``pytest.ini`` promoting
"coroutine ... was never awaited" to an error, this gives the
asyncio-strict posture of pytest-asyncio without the dependency.
"""

from __future__ import annotations

import os

# BLAS thread policy for the whole suite, set before NumPy is first
# imported: one BLAS thread unless the caller chose otherwise.  The
# default pool oversubscribes a small host and turns the wall-clock
# ratio gates under ``benchmarks/`` into coin flips.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import asyncio  # noqa: E402
import inspect  # noqa: E402

import pytest  # noqa: E402


def pytest_addoption(parser):
    parser.addini(
        "asyncio_mode",
        help="asyncio test mode: 'strict' (only @pytest.mark.asyncio "
        "coroutine tests run, unmarked coroutine tests fail)",
        default="strict",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "asyncio: run this coroutine test on a fresh event loop "
        "(asyncio.run, debug=True)",
    )


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    function = pyfuncitem.obj
    if not inspect.iscoroutinefunction(function):
        return None
    if pyfuncitem.get_closest_marker("asyncio") is None:
        mode = pyfuncitem.config.getini("asyncio_mode")
        pytest.fail(
            f"async test {pyfuncitem.name!r} lacks @pytest.mark.asyncio "
            f"(asyncio_mode={mode}: unmarked coroutine tests are an error, "
            f"they would otherwise silently never run)",
            pytrace=False,
        )
    kwargs = {
        name: pyfuncitem.funcargs[name]
        for name in pyfuncitem._fixtureinfo.argnames
    }
    asyncio.run(function(**kwargs), debug=True)
    return True
