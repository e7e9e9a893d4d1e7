import pytest

import colorpart as cp
from colorpart import asymptotic, exact, regions, selftest, specs


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
def no_moduli(monkeypatch):
    """Fail the test if anything expands a spec to one modulus per color."""
    def moduli(self):
        raise AssertionError("ColoredSpec.moduli read")
    monkeypatch.setattr(specs.ColoredSpec, "moduli", property(moduli))
