"""Shared test helpers."""

import tracemalloc

import pytest


def _traced_peak(call):
    """The traced peak, in bytes, of `call()`: it runs once untraced, so
    that imports and first-use caches are not counted, and once under
    `tracemalloc`."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
