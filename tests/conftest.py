"""Fixtures shared by the test modules."""

import tracemalloc

import numpy as np
import pytest


def _peak_above(call, outputs):
    """Run ``call()`` under tracemalloc; returns its result and its traced
    peak in bytes above the arrays that ``outputs(result)`` lists.

    tracemalloc sees this process only: an output in shared memory (an
    ``mmap``, which the engines use for forked workers) is not subtracted,
    and a forked worker's own memory is not counted.  Memory allocated
    before the call, such as an input path set, is not counted either.
    """
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - sum(_traced_nbytes(a) for a in outputs(result))


def _traced_nbytes(a) -> int:
    """``a.nbytes``, or 0 when ``a`` views memory numpy did not allocate."""
    root = a
    while isinstance(root.base, np.ndarray):
        root = root.base
    return a.nbytes if root.base is None else 0


@pytest.fixture
def peak_above():
    """:func:`_peak_above`: a call's traced peak above its live outputs."""
    return _peak_above
