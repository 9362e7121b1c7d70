"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _peak_above(call, outputs):
    """Run ``call()`` under tracemalloc; returns its result and its traced
    peak in bytes above the arrays that ``outputs(result)`` lists.

    tracemalloc also sees numpy's allocations in worker threads.  Memory
    allocated before the call, such as an input path set, is not counted.
    """
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - sum(a.nbytes for a in outputs(result))


@pytest.fixture
def peak_above():
    """:func:`_peak_above`: a call's traced peak above its live outputs."""
    return _peak_above
