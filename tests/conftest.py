import itertools
import weakref

import pytest

from disperse import engine, harness
from disperse.validate import validate_suite


def lockstep_systems(systems, t_end):
    """Step array-kernel systems of one graph, particle count and variant
    to t_end in one `lockstep_rows` pool, and yield (i, system) for the
    i-th of `systems` as it leaves, settled at its own step. A system's
    row is read only when a slot frees; once the pool is closed or a step
    raises, every system it took is settled at its last completed step."""
    systems = iter(systems)
    s = next(systems)
    queue = enumerate(itertools.chain([s], systems))
    taken = {}

    def take(n):
        for i, ps in queue:
            taken[i] = ps
            return ps._row(i)
        return None

    def give_back(rows):
        left = [(i, taken.pop(i)) for i in rows.ids.tolist()]
        for r, (_, ps) in enumerate(left):
            ps._settle(rows, r)
        return left

    pool = engine.lockstep_rows(s.topo, s.particles, s.variant, take, t_end, give_back)
    try:
        for rows in pool:
            yield from give_back(rows)
    finally:
        pool.close()


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
