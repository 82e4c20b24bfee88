"""Shared test fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args, **kwargs) calls fn and returns its result and
    the peak, in bytes, of the memory tracemalloc traced during the call."""
    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run
