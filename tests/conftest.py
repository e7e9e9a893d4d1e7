import contextlib
import tracemalloc

import pytest

import colorpart as cp
from colorpart import asymptotic, exact, regions, selftest


@pytest.fixture(scope="session")
def classical_spec():
    return cp.validate([1], [1])


@pytest.fixture(scope="session")
def remark_spec():
    return cp.validate([1, 3], [2, 2])


@pytest.fixture(scope="session")
def ptable_2000():
    return cp.partition_table(2000)


@pytest.fixture(scope="session")
def classical_series_deep(classical_spec):
    """Classical series to n=8192, from the acceptance battery's cached builder."""
    return selftest.anchor_series(classical_spec)


@pytest.fixture
def forbid(monkeypatch):
    """forbid(*names): each named ``exact`` function fails the test if it is
    called, under every module name that holds it."""
    def forbid(*names):
        for name in names:
            original = getattr(exact, name)

            def called(*args, name=name, **kwargs):
                raise AssertionError(f"exact.{name} called")
            for mod in (exact, asymptotic, regions):
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, called)
    return forbid


@pytest.fixture
def small_peak():
    """A context manager that fails the test if the memory allocated in its
    body peaks at 64 KiB or more, as one entry per color would for 10**4 colors."""
    @contextlib.contextmanager
    def small_peak():
        tracemalloc.start()
        try:
            yield
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"traced memory peaked at {peak} bytes"
    return small_peak
