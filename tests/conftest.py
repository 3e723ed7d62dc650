"""Fixtures shared by the test modules."""

import pytest

from heckerpf import field


@pytest.fixture
def own_root_brackets():
    """Run a test on fresh root brackets and put the earlier ones back after
    it. `lambda_interval` returns the finest bracket refined so far for each
    p, so a test that refines to thousands of bits would otherwise slow every
    later sign at that p."""
    with field._roots_lock:
        saved = dict(field._roots_cache)
        field._roots_cache.clear()
    yield
    with field._roots_lock:
        field._roots_cache.clear()
        field._roots_cache.update(saved)
