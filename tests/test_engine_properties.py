"""Invariant checks driven by randomised topologies, seeds and variants."""

from collections import Counter
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from disperse import engine
from disperse.engine import STANDARD, ParticleSystem, Status, WalkMode, lazy, lockstep_pool
from disperse.rng import derive_seed
from disperse.topology import TopologySpec, build

SETTINGS = dict(deadline=None, max_examples=60)


@st.composite
def experiments(draw, subcritical=False):
    """(spec, M) pairs across all families; subcritical keeps M small
    enough that dispersal is fast on the finite graphs."""
    fam = draw(
        st.sampled_from(
            ["complete", "star", "path", "cycle", "tree", "grid", "hypercube", "cayley"]
        )
    )
    if fam == "complete":
        n = draw(st.integers(4, 20))
        spec = TopologySpec.complete(n, with_loops=draw(st.booleans()))
    elif fam == "star":
        n = draw(st.integers(4, 12)) + 1
        spec = TopologySpec.star(n - 1)
    elif fam == "path":
        spec, n = TopologySpec.path(), None
    elif fam == "cycle":
        n = draw(st.integers(4, 16))
        spec = TopologySpec.cycle(n)
    elif fam == "tree":
        spec, n = TopologySpec.tree(draw(st.integers(2, 4))), None
    elif fam == "grid":
        spec, n = TopologySpec.grid(draw(st.integers(1, 3))), None
    elif fam == "hypercube":
        dim = draw(st.integers(3, 6))
        spec, n = TopologySpec.hypercube(dim), 1 << dim
    else:
        spec, n = (
            TopologySpec.cayley((4, 3), [(1, 0), (-1, 0), (0, 1), (0, -1)]),
            12,
        )
    cap = 8 if n is None else (max(2, n // 2) if subcritical else n)
    m = draw(st.integers(2, max(2, min(8, cap))))
    return spec, m


def variants():
    return st.sampled_from([STANDARD, lazy(0.5), lazy(1.0)])


@given(experiments(), variants(), st.integers(0, 2**32))
@settings(**SETTINGS)
def test_conservation_and_validity(exp, variant, seed):
    spec, m = exp
    ps = ParticleSystem(spec, m, variant=variant, seed=seed)
    topo = build(spec)
    for _ in range(15):
        if ps.is_dispersed():
            break
        walked = int(ps.walk_counts.sum())
        happy = ps.happy_unhappy_counts()[0]
        rep = ps.step()
        assert rep.movers == int(ps.walk_counts.sum()) - walked
        assert rep.newly_happy - rep.newly_unhappy == ps.happy_unhappy_counts()[0] - happy
        pos = ps.positions
        assert len(pos) == m
        assert all(topo.contains(v) for v in pos)


@given(experiments(subcritical=True), st.integers(0, 2**32))
@settings(**SETTINGS)
def test_dispersal_is_absorbing(exp, seed):
    spec, m = exp
    ps = ParticleSystem(spec, m, seed=seed)
    r = ps.run(4000)
    assume(r.status is Status.DISPERSED)
    frozen = ps.positions
    for _ in range(3):
        rep = ps.step()
        assert rep.movers == 0
        assert ps.positions == frozen
    assert ps.is_dispersed()


@given(experiments(), variants(), st.integers(0, 2**32))
@settings(**SETTINGS)
def test_happy_particles_stay_put(exp, variant, seed):
    spec, m = exp
    ps = ParticleSystem(spec, m, variant=variant, seed=seed)
    for _ in range(12):
        if ps.is_dispersed():
            break
        before = ps.positions
        occupancy = {}
        for v in before:
            occupancy[v] = occupancy.get(v, 0) + 1
        ps.step()
        after = ps.positions
        for pid in range(m):
            if occupancy[before[pid]] == 1:
                assert after[pid] == before[pid]


@given(experiments(), st.integers(0, 2**32))
@settings(**SETTINGS)
def test_standard_step_moves_at_least_two(exp, seed):
    # While not dispersed, some vertex holds >= 2 particles and all of
    # them move, so total walk length grows by >= 2 per step.
    spec, m = exp
    ps = ParticleSystem(spec, m, seed=seed)
    steps = 0
    for _ in range(25):
        if ps.is_dispersed():
            break
        rep = ps.step()
        steps += 1
        assert rep.movers >= 2
    assert int(ps.walk_counts.sum()) >= 2 * steps


@given(experiments(), variants(), st.integers(0, 2**32))
@settings(**SETTINGS)
def test_bipartite_distance_parity_tracks_walk_counts(exp, variant, seed):
    spec, m = exp
    topo = build(spec)
    assume(topo.is_bipartite())
    ps = ParticleSystem(spec, m, variant=variant, seed=seed)
    for _ in range(12):
        if ps.is_dispersed():
            break
        ps.step()
    counts = ps.walk_counts
    for pid, v in enumerate(ps.positions):
        assert topo.distance_to_origin(v) % 2 == int(counts[pid]) % 2


@given(experiments(subcritical=True), st.integers(0, 2**32))
@settings(**SETTINGS)
def test_dispersal_distance_respects_pigeonhole(exp, seed):
    spec, m = exp
    ps = ParticleSystem(spec, m, seed=seed)
    r = ps.run(4000)
    assume(r.status is Status.DISPERSED)
    topo = build(spec)
    assert r.d_disp >= topo.pigeonhole_radius(m)
    assert r.max_distance_ever >= r.d_disp


@given(experiments(), variants(), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_walk_modes_are_interchangeable(exp, variant, seed):
    spec, m = exp
    a = ParticleSystem(spec, m, variant=variant, seed=seed, walk_mode=WalkMode.ON_DEMAND)
    b = ParticleSystem(
        spec, m, variant=variant, seed=seed, walk_mode=WalkMode.PREDETERMINED
    )
    for _ in range(10):
        if a.is_dispersed():
            break
        a.step()
        b.step()
        assert a.positions == b.positions
    assert a.meeting_total == b.meeting_total
    assert a.walk_counts.tolist() == b.walk_counts.tolist()


def _assert_stored_counts(ps):
    pos = ps.positions
    occupancy = Counter(pos)
    assert ps._occ.tolist() == [occupancy[v] for v in pos]


@given(experiments(), variants(), st.integers(0, 2**32), st.booleans())
@settings(**SETTINGS)
def test_stored_occupancy_is_the_count_of_positions(exp, variant, seed, force_generic):
    spec, m = exp
    ps = ParticleSystem(spec, m, variant=variant, seed=seed, force_generic=force_generic)
    _assert_stored_counts(ps)
    for _ in range(15):
        ps.step()
        _assert_stored_counts(ps)
    ps.run(200)
    _assert_stored_counts(ps)
    # A step that raises: two particles on a depth-1 vertex of tree(2^40),
    # whose level 2 passes int64.
    placed = ParticleSystem(
        TopologySpec.tree(2**40, leaf_depth=0), 2, variant, seed, force_generic=force_generic
    )
    placed._posv[:] = placed.topo.to_array([(5,), (5,)])
    placed.max_distance_ever = 1
    with pytest.raises(ValueError, match="int64"):
        placed.run(10**4)
    _assert_stored_counts(placed)
    # A pool two wide, one system ahead of the rest: replicas leave, and
    # newcomers take their slots.
    pooled = [ParticleSystem(spec, m, variant, derive_seed(seed, i)) for i in range(5)]
    pooled[2]._advance(3)
    with mock.patch.object(engine, "lockstep_batch_size", lambda topo, M: 2):
        for _, left in lockstep_pool(iter(pooled), 12):
            _assert_stored_counts(left)
