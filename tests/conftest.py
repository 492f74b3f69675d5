import weakref

import pytest

from disperse import engine, harness
from disperse.validate import validate_suite


@pytest.fixture(scope="session")
def quick_report():
    """One seeded quick validation run, shared by the tests that only read it."""
    return validate_suite(quick=True)


@pytest.fixture
def live_results(monkeypatch):
    """How many result blocks are alive each time the harness packages
    one, once for each replica of the block. Pools are three replicas
    wide, so a run packages a block at least every three replicas and a
    caller that kept its blocks would be seen holding many; a test that
    runs replicas must see at least one block per three."""
    refs, counts = [], []
    package = harness.package_rows
    monkeypatch.setattr(engine, "lockstep_batch_size", lambda topo, M: 3)
    monkeypatch.setattr(harness, "lockstep_batch_size", lambda topo, M: 3)

    def counted(*args, **kwargs):
        block = package(*args, **kwargs)
        refs.append(weakref.ref(block))
        counts.extend([sum(ref() is not None for ref in refs)] * len(block))
        return block

    monkeypatch.setattr(harness, "package_rows", counted)
    yield counts
    assert 3 * len(refs) >= len(counts)
