import weakref

import pytest

from disperse.engine import ParticleSystem
from disperse.validate import validate_suite


@pytest.fixture(scope="session")
def quick_report():
    """One seeded quick validation run, shared by the tests that only read it."""
    return validate_suite(quick=True)


@pytest.fixture
def live_results(monkeypatch):
    """How many RunResults are alive each time a system packages one."""
    refs, counts = [], []  # RunResult compares by value, so no WeakSet
    package = ParticleSystem._result

    def counted(self):
        res = package(self)
        refs.append(weakref.ref(res))
        counts.append(sum(ref() is not None for ref in refs))
        return res

    monkeypatch.setattr(ParticleSystem, "_result", counted)
    return counts
