from collections import Counter

import numpy as np
import pytest

from disperse import engine
from disperse.engine import (
    DEFAULT_BUDGET,
    SCHEMA,
    STANDARD,
    ParticleSystem,
    Status,
    Variant,
    WalkMode,
    happy_unhappy_counts,
    init,
    is_dispersed,
    lazy,
    run,
    step,
)
from disperse.rng import MASK64
from disperse.topology import TopologySpec, build


def K(n, loops=False):
    return TopologySpec.complete(n, with_loops=loops)


# -- construction and validation ---------------------------------------------


def test_rejects_bad_particle_counts():
    with pytest.raises(ValueError):
        ParticleSystem(K(5), 0)
    with pytest.raises(ValueError):
        ParticleSystem(K(5), 6)
    with pytest.raises(ValueError):
        ParticleSystem(TopologySpec.tree(3, leaf_depth=2), 11)  # 10 vertices


def test_variant_validation():
    with pytest.raises(ValueError):
        Variant("weird")
    with pytest.raises(ValueError):
        lazy(0.0)
    with pytest.raises(ValueError):
        lazy(1.5)
    assert lazy(1.0).p == 1.0
    assert STANDARD.kind == "standard"


def test_seed_is_masked_to_64_bits():
    ps = ParticleSystem(K(5), 2, seed=(1 << 80) + 3)
    assert ps.seed == ((1 << 80) + 3) & MASK64


# -- trivial and near-trivial runs ---------------------------------------------


def test_single_particle_is_immediately_dispersed():
    ps = ParticleSystem(TopologySpec.grid(2), 1, seed=9)
    assert ps.is_dispersed()
    r = ps.run()
    assert r.status is Status.DISPERSED
    assert r.t_disp == 0 and r.steps == 0
    assert r.d_disp == 0 and r.max_distance_ever == 0
    assert r.walk_counts.tolist() == [0]
    assert r.meeting_total == 0


def test_happy_unhappy_counts_before_and_after():
    ps = ParticleSystem(K(10), 4, seed=1)
    assert ps.happy_unhappy_counts() == (0, 4)
    r = ps.run()
    assert r.status is Status.DISPERSED
    assert ps.happy_unhappy_counts() == (4, 0)


def test_two_particles_on_k2_with_loops_disperse_half_the_time():
    hits = 0
    trials = 3000
    for s in range(trials):
        r = ParticleSystem(K(2, loops=True), 2, seed=s).run(1)
        hits += r.status is Status.DISPERSED
    assert abs(hits / trials - 0.5) < 0.03


def test_two_particles_on_star3_disperse_two_thirds_of_the_time():
    hits = 0
    trials = 3000
    for s in range(trials):
        r = ParticleSystem(TopologySpec.star(3), 2, seed=s).run(1)
        hits += r.status is Status.DISPERSED
    assert abs(hits / trials - 2 / 3) < 0.03


def test_k2_without_loops_never_disperses():
    # Both particles are forced onto the single other vertex together.
    r = ParticleSystem(K(2), 2, seed=5).run(50)
    assert r.status is Status.BUDGET_EXHAUSTED
    assert r.t_disp is None
    assert r.steps == 50


def test_tight_budget_usually_exhausts():
    exhausted = sum(
        ParticleSystem(K(10), 9, seed=s).run(1).status is Status.BUDGET_EXHAUSTED
        for s in range(100)
    )
    assert exhausted >= 99


# -- frozen deterministic regressions ------------------------------------------


def test_regression_complete():
    r = ParticleSystem(K(50), 20, seed=7).run()
    assert (r.t_disp, r.meeting_total, int(r.walk_counts.sum())) == (3, 197, 31)


def test_regression_cycle():
    r = ParticleSystem(TopologySpec.cycle(16), 6, seed=3).run()
    assert (r.t_disp, r.d_disp, r.max_distance_ever, r.meeting_total) == (24, 5, 5, 94)


def test_regression_grid():
    r = ParticleSystem(TopologySpec.grid(2), 8, seed=11).run()
    assert (r.t_disp, r.d_disp, r.max_distance_ever) == (3, 3, 3)
    assert sorted(r.walk_counts.tolist()) == [1, 1, 2, 2, 2, 2, 3, 3]


def test_regression_lazy_hypercube():
    r = ParticleSystem(TopologySpec.hypercube(5), 12, seed=2, variant=lazy(0.6)).run()
    assert (r.t_disp, r.d_disp, r.meeting_total) == (6, 3, 87)


# -- truncated-tree boundary behaviour ------------------------------------------


def test_truncated_tree_boundary_flag_and_status():
    # Three particles on the depth-1 binary tree: a multiply occupied
    # leaf returns all its occupants to the root at once, so the root
    # occupancy can never reach exactly one particle. The forced leaf
    # move raises the boundary flag and the run ends unresolved.
    ps = ParticleSystem(TopologySpec.tree(2, leaf_depth=1), 3, seed=1)
    r = ps.run(200)
    assert r.status is Status.BOUNDARY_HIT
    assert r.boundary_flag
    assert r.t_disp is None
    assert r.steps == 200  # the flag does not stop the run


def test_truncated_tree_flag_takes_precedence_over_dispersal():
    # Find a run that both raised the flag and ended dispersed; the
    # status must still report the boundary hit.
    spec = TopologySpec.tree(2, leaf_depth=2)  # 5 vertices
    seen = False
    for s in range(200):
        ps = ParticleSystem(spec, 3, seed=s)
        r = ps.run(500)
        if r.boundary_flag and ps.is_dispersed():
            assert r.status is Status.BOUNDARY_HIT
            assert r.t_disp is None
            seen = True
            break
    assert seen


def test_untruncated_tree_never_flags():
    r = ParticleSystem(TopologySpec.tree(3), 32, seed=4).run()
    assert r.status is Status.DISPERSED
    assert not r.boundary_flag


# -- equivalences ---------------------------------------------------------------


@pytest.mark.parametrize("loops", [False, True])
@pytest.mark.parametrize("variant", [STANDARD, lazy(0.7)])
def test_fast_and_generic_complete_paths_agree_bitwise(loops, variant):
    for seed in (0, 1, 17):
        a = ParticleSystem(K(30, loops=loops), 12, variant=variant, seed=seed)
        b = ParticleSystem(
            K(30, loops=loops), 12, variant=variant, seed=seed, force_generic=True
        )
        a.record_trajectories(True)
        b.record_trajectories(True)
        ra, rb = a.run(500), b.run(500)
        assert ra.status == rb.status
        assert ra.t_disp == rb.t_disp
        assert ra.meeting_total == rb.meeting_total
        assert ra.walk_counts.tolist() == rb.walk_counts.tolist()
        assert a.positions == b.positions
        assert ra.trajectories.events == rb.trajectories.events
        c = ParticleSystem(K(30, loops=loops), 12, variant=variant, seed=seed)
        d = ParticleSystem(
            K(30, loops=loops), 12, variant=variant, seed=seed, force_generic=True
        )
        for _ in range(ra.steps + 1):
            assert tuple(c.step()) == tuple(d.step())
            assert c.positions == d.positions


@pytest.mark.parametrize(
    "spec", [K(20), TopologySpec.grid(2), TopologySpec.tree(3), TopologySpec.cycle(11)]
)
def test_walk_modes_agree_bitwise(spec):
    for seed in (2, 9):
        a = ParticleSystem(spec, 8, seed=seed, walk_mode=WalkMode.ON_DEMAND)
        b = ParticleSystem(spec, 8, seed=seed, walk_mode=WalkMode.PREDETERMINED)
        ra, rb = a.run(2000), b.run(2000)
        assert ra.t_disp == rb.t_disp
        assert a.positions == b.positions
        assert ra.walk_counts.tolist() == rb.walk_counts.tolist()


def test_lazy_p1_replays_standard_run():
    for seed in (0, 3, 8):
        a = ParticleSystem(TopologySpec.cycle(9), 5, seed=seed)
        b = ParticleSystem(TopologySpec.cycle(9), 5, seed=seed, variant=lazy(1.0))
        a.record_trajectories(True)
        b.record_trajectories(True)
        ra, rb = a.run(5000), b.run(5000)
        assert ra.t_disp == rb.t_disp
        assert a._log.events == b._log.events


def test_run_equals_manual_step_loop():
    budget = 300
    a = ParticleSystem(TopologySpec.grid(2), 9, seed=21)
    b = ParticleSystem(TopologySpec.grid(2), 9, seed=21)
    ra = a.run(budget)
    while not b.is_dispersed() and b.t < budget:
        b.step()
    assert b.t == (ra.steps if ra.dispersed else budget)
    assert a.positions == b.positions
    assert a.meeting_total == b.meeting_total
    assert a.max_distance_ever == b.max_distance_ever


def test_step_report_is_consistent():
    ps = ParticleSystem(K(10), 4, seed=6)
    rep = ps.step()
    assert rep.movers == 4
    assert rep.pairwise_meetings == 6  # C(4,2) at the shared origin
    assert rep.dispersed_after == ps.is_dispersed()
    h, u = ps.happy_unhappy_counts()
    assert h + u == 4


# -- budget handling -------------------------------------------------------------


def test_budget_is_absolute_total_cap():
    ps = ParticleSystem(K(2), 2, seed=5)  # never disperses
    ps.run(10)
    assert ps.t == 10
    r = ps.run(15)  # same cap semantics: 15 total, not 15 more
    assert ps.t == 15
    assert r.steps == 15
    r = ps.run(15)  # already there: no further steps
    assert ps.t == 15


def test_default_budget_constant():
    assert DEFAULT_BUDGET == 10**7


# -- records and trajectories ------------------------------------------------------


def test_to_record_shape_and_walk_stats():
    r = ParticleSystem(K(30), 10, seed=13).run()
    rec = r.to_record()
    assert rec["schema"] == SCHEMA == "disperse/1"
    assert rec["status"] == "dispersed"
    assert rec["t_disp"] == r.t_disp
    assert rec["seed"] == 13
    counts = sorted(r.walk_counts.tolist())
    assert rec["walk_steps_min"] == counts[0]
    assert rec["walk_steps_max"] == counts[-1]
    assert rec["walk_steps_median"] == counts[(len(counts) + 1) // 2 - 1]


def test_record_trajectories_must_precede_first_step():
    ps = ParticleSystem(K(10), 3, seed=2)
    ps.step()
    with pytest.raises(RuntimeError):
        ps.record_trajectories(True)


def test_trajectory_replay_matches_final_positions():
    ps = ParticleSystem(TopologySpec.grid(2), 6, seed=31)
    ps.record_trajectories(True)
    r = ps.run(1000)
    log = r.trajectories
    assert log is not None
    assert log.positions_at(0) == [(0, 0)] * 6
    assert log.positions_at(log.steps) == ps.positions
    # Events are in application order with strictly non-decreasing steps.
    ts = [t for t, _, _ in log.events]
    assert ts == sorted(ts)
    per = log.per_particle()
    assert sum(len(m) for m in per) == len(log.events)
    assert len(per) == 6


@pytest.mark.parametrize("force_generic", [False, True])
def test_event_cap_fails_before_the_log_outgrows_it(monkeypatch, force_generic):
    cap = 25
    monkeypatch.setattr(engine, "RECORD_EVENT_CAP", cap)
    ps = ParticleSystem(K(30), 20, seed=4, force_generic=force_generic)
    ps.record_trajectories(True)
    with pytest.raises(RuntimeError, match="25 move events"):
        ps.run(1000)
    log = ps._log
    assert 0 < len(log.events) <= cap
    # The step that would pass the cap is not applied at all.
    assert int(ps.walk_counts.sum()) == len(log.events)
    assert ps.positions == log.positions_at(ps.t)
    assert ps.t == log.steps


def test_a_move_past_int64_leaves_the_system_at_its_last_step():
    # Two particles on one depth-1 vertex of tree(2^40), whose level 2 has
    # about 2^80 vertices: almost every draw moves a particle there.
    ps = ParticleSystem(TopologySpec.tree(2**40, leaf_depth=0), 2, seed=1)
    ps._posv[:] = ps.topo.to_array([(5,), (5,)])
    ps.max_distance_ever = 1
    with pytest.raises(ValueError, match="int64"):
        ps.run(10)
    assert (ps.t, ps.meeting_total, ps.walk_counts.tolist()) == (0, 0, [0, 0])
    assert ps.positions == [(5,), (5,)]


ARRAY_SPECS = {
    "complete": (K(20), 12),
    "star": (TopologySpec.star(12), 6),
    "cycle": (TopologySpec.cycle(15), 7),
    "path": (TopologySpec.path(), 6),
    "hypercube": (TopologySpec.hypercube(8), 8),
    "tree": (TopologySpec.tree(3, leaf_depth=9), 12),
    "tree-leaves": (TopologySpec.tree(3, leaf_depth=2), 8),
    "grid": (TopologySpec.grid(2), 8),
    "cayley": (TopologySpec.cayley((4, 3), [(1, 0), (-1, 0), (0, 1), (0, -1)]), 6),
}


@pytest.mark.parametrize("name", list(ARRAY_SPECS))
@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5), lazy(1.0)], ids=["std", "lazy0.5", "lazy1"])
def test_array_and_generic_kernels_agree_stepwise(monkeypatch, name, variant):
    spec, M = ARRAY_SPECS[name]
    if name == "path":
        monkeypatch.setattr(engine, "COORDINATE_LIMIT", 4)  # some runs abort
    for seed in (3, 8):
        a = ParticleSystem(spec, M, variant=variant, seed=seed)
        b = ParticleSystem(spec, M, variant=variant, seed=seed, force_generic=True)
        for _ in range(400):
            assert tuple(a.step()) == tuple(b.step())
            assert a.positions == b.positions
            assert a.happy_unhappy_counts() == b.happy_unhappy_counts()
            assert (a.t, a.boundary_flag, a.boundary_abort) == (
                b.t, b.boundary_flag, b.boundary_abort
            )
            if a.is_dispersed() or a.boundary_abort:
                break
        assert a.run(400).to_record() == b.run(400).to_record()


def test_tree_keys_refuse_to_leave_int64():
    k = 2**31
    topo = build(TopologySpec.tree(k, leaf_depth=0))
    last = (k - 1, k - 2)  # last vertex of level 2, index k(k-1) - 1 < 2^62
    v = topo.to_array([last])
    assert v[:, 0].tolist() == [2, k * (k - 1) - 1]
    assert topo.from_array(v) == [last]
    # Breadth-first code: the 1 + k vertices above level 2, plus the index.
    one = engine._Occupancy(topo, 1, 1)
    assert one.keys(v, 2).tolist() == [k * k] and one.span == k * k + 1
    with pytest.raises(ValueError, match="int64"):
        engine._Occupancy(topo, 1, 2).keys(np.repeat(v, 2, axis=1), 2)  # two replicas
    with pytest.raises(ValueError, match="int64"):
        topo.to_array([last + (0,)])  # level 3 holds k(k-1)^2 > 2^63 vertices
    with pytest.raises(ValueError, match="int64"):
        topo.neighbor_array(v, np.array([1], dtype=np.uint64))  # a move to level 3
    assert topo.neighbor_array(v, np.array([0], dtype=np.uint64)).tolist() == [[1], [k - 1]]


def _tree_batch(topo, reach, size, rng):
    """`size` array-form tree vertices drawn from 40 within `reach`, one at it."""
    depth = rng.integers(0, reach + 1, 40)
    depth[0] = reach
    width = np.where(depth > 0, topo.k * (topo.k - 1) ** np.maximum(depth - 1, 0), 1)
    pool = np.stack([depth, rng.integers(0, 2**62, 40) % width])
    return pool.take(rng.integers(0, 40, size), axis=1)


def _assert_counts(topo, occupancy, v, reach, M):
    """Each replica's counts equal a Counter over its decoded positions."""
    got = occupancy(v, reach)
    for j in range(occupancy.R):
        where = topo.from_array(v[..., j * M : (j + 1) * M])
        seen = Counter(where)
        assert got[j * M : (j + 1) * M].tolist() == [seen[x] for x in where]


def test_occupancy_method_follows_key_span():
    # Bincount wherever R * span fits LOCKSTEP_ELEMENTS, whether or not
    # the graph is finite, else a sort; both give the same counts.
    rng = np.random.default_rng(11)
    path, kn = build(TopologySpec.path()), build(K(1000))
    tree = build(TopologySpec.tree(3, leaf_depth=0))
    cases = [
        (path, 100, 10, 60, rng.integers(-60, 61, 1000), True),  # 10 * 121 bins
        (kn, 600, 8, 1, rng.integers(0, 1000, 4800), True),  # 8 * 1000 bins
        (tree, 50, 8, 14, _tree_batch(tree, 14, 400, rng), False),  # 8 * 49150 bins
    ]
    for topo, M, R, reach, v, bins in cases:
        occupancy = engine._Occupancy(topo, M, R)
        _assert_counts(topo, occupancy, v, reach, M)
        assert occupancy.bins is bins, topo.spec
    # At reach 12, 8 * 12286 bins do not fit; once 6 replicas leave, 2 * 12286 do.
    v = _tree_batch(tree, 12, 400, rng)
    occupancy = engine._Occupancy(tree, 50, 8)
    _assert_counts(tree, occupancy, v, 12, 50)
    assert not occupancy.bins
    occupancy.resize(2)
    _assert_counts(tree, occupancy, v[:, :100], 12, 50)
    assert occupancy.bins


def test_walk_counts_total_matches_event_count():
    ps = ParticleSystem(TopologySpec.cycle(12), 5, seed=17)
    ps.record_trajectories(True)
    r = ps.run(5000)
    assert int(r.walk_counts.sum()) == len(r.trajectories.events)


# -- meeting accounting ------------------------------------------------------------


def test_pair_meeting_total_counts_cooccupied_step_starts():
    # Two particles on the loopy complete graph share a vertex at the
    # start of every step until the dispersing one, inclusive.
    for s in range(6):
        r = ParticleSystem(K(6, loops=True), 2, seed=s).run()
        assert r.status is Status.DISPERSED
        assert r.meeting_total == r.t_disp


# -- module-level functional mirrors ------------------------------------------------


def test_functional_interface():
    sys_ = init(K(12), 4, seed=3)
    assert not is_dispersed(sys_)
    rep = step(sys_)
    assert rep.movers == 4
    res = run(sys_, 200)
    assert res.status is Status.DISPERSED
    assert happy_unhappy_counts(sys_) == (4, 0)
    twin = init(K(12), 4, seed=3)
    res2 = run(twin, 200)
    assert res2.t_disp == res.t_disp
