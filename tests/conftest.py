import pytest

from sharpmart import gfun


@pytest.fixture(autouse=True)
def fresh_g_tables():
    """Each test starts and ends with no G table kept, so a table built while
    a test patches what the build reads is never handed to another test."""
    gfun._scan_table.cache_clear()
    gfun._bessel_table.cache_clear()
    yield
    gfun._scan_table.cache_clear()
    gfun._bessel_table.cache_clear()
