"""Fixtures shared by the test modules."""

import pytest

from heckerpf import field


@pytest.fixture
def own_root_brackets():
    """Run a test on fresh root brackets and put the earlier ones back after
    it. The brackets of each p are process state that only ever gets finer,
    and `lambda_interval` and `conjugate_intervals` return the finest one, so
    a test that refines to thousands of bits would otherwise change what
    later tests read there."""
    with field._roots_lock:
        saved = dict(field._roots_cache)
        field._roots_cache.clear()
    yield
    with field._roots_lock:
        field._roots_cache.clear()
        field._roots_cache.update(saved)
