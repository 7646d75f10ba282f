"""The value caches the tests empty, and the fixture that empties them."""

import pytest

from hhkit import bounds, quadrature

# Every cache a kernel or a coefficient set is kept in.
VALUE_CACHES = (quadrature._kernel_K_cached,
                *(getattr(bounds, row.builder) for row in bounds.PRINTED_SETS.values()))


def clear_value_caches() -> None:
    """Empty every cache a mean, a kernel, a coefficient set or a
    certification is kept in, so that each run integrates what it looks up."""
    for cache in VALUE_CACHES:
        cache.cache_clear()
    bounds.clear_certification_cache()


@pytest.fixture
def cold():
    """Empty value caches for the test, emptied again after it."""
    clear_value_caches()
    yield
    clear_value_caches()
