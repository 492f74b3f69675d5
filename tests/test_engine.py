import copy
import dataclasses
import pickle
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
    lazy,
    stream_keys,
)
from disperse.rng import DIRECTION_TAG, LAZINESS_TAG, MASK64, draw, stream_key, unit_threshold
from disperse.topology import Family, TopologySpec, build


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


@pytest.mark.parametrize("force_generic", [False, True])
def test_particle_count_and_budget_are_checked(force_generic):
    with pytest.raises(ValueError, match=r"^particles must be an integer, got 2\.0$"):
        ParticleSystem(TopologySpec.cycle(10), 2.0, seed=1, force_generic=force_generic)
    ps = ParticleSystem(K(2), 2, seed=5, force_generic=force_generic)  # never disperses
    with pytest.raises(ValueError, match=r"^budget must be an integer, got 10\.5$"):
        ps.run(10.5)
    with pytest.raises(ValueError, match="^budget must be >= 0$"):
        ps.run(-1)
    assert ps.t == 0
    a, b = (ParticleSystem(K(10), m, seed=1, force_generic=force_generic) for m in (np.int64(4), 4))
    assert type(a.particles) is int
    assert a.run().to_record() == b.run().to_record()
    assert a.positions == b.positions


@pytest.mark.parametrize("force_generic", [False, True])
def test_seed_is_read_as_an_integer(force_generic):
    a, b = (ParticleSystem(K(10), 3, seed=s, force_generic=force_generic) for s in (np.int64(5), 5))
    assert type(a.seed) is int
    assert a.run().to_record() == b.run().to_record()
    assert a.positions == b.positions
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 5\.5$"):
        ParticleSystem(K(10), 3, seed=5.5, force_generic=force_generic)


def test_variant_validation():
    with pytest.raises(ValueError):
        Variant("weird")
    with pytest.raises(ValueError):
        lazy(0.0)
    with pytest.raises(ValueError):
        lazy(1.5)
    assert lazy(1.0).p == 1.0
    assert STANDARD.kind == "standard"


def test_variant_reads_p_as_a_float():
    # p is held as a float, since a config writes its repr; a standard
    # variant has p = 1, so it equals, and batches with, STANDARD.
    assert type(lazy(np.float64(0.5)).p) is float
    assert Variant("standard", np.float64(1.0)) == STANDARD
    with pytest.raises(ValueError, match=r"^the standard variant moves with p = 1, got 0.5$"):
        Variant("standard", 0.5)
    with pytest.raises(ValueError, match=r"^move probability p must be a number, got '0.5'$"):
        lazy("0.5")


def test_seed_is_masked_to_64_bits():
    ps = ParticleSystem(K(5), 2, seed=(1 << 80) + 3)
    assert ps.seed == ((1 << 80) + 3) & MASK64


@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5)], ids=["std", "lazy"])
def test_given_stream_keys_are_the_derived_ones(variant):
    seeds = [3, 4, (1 << 64) + 3]
    blocks = stream_keys(seeds, 7, variant)
    assert blocks.shape == (3, 1 + (variant.kind == "lazy"), 7)
    for seed, keys in zip(seeds, blocks):
        given = ParticleSystem(K(20), 7, variant, seed, keys=keys)
        own = ParticleSystem(K(20), 7, variant, seed)
        assert given._keys.tolist() == own._keys.tolist()
        assert given.run().to_record() == own.run().to_record()
    assert ParticleSystem(K(20), 7, variant, 3)._keys.tolist() == blocks[2].tolist()
    for bad in (blocks[0, :, :6], blocks[:, 0], blocks[0].astype(np.int64)):
        with pytest.raises(ValueError, match="stream_keys"):
            ParticleSystem(K(20), 7, variant, 3, keys=bad)


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
        assert ra.trajectories.events == rb.trajectories.events


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


@pytest.mark.parametrize("force_generic", [False, True])
@pytest.mark.parametrize(
    "spec, M", [(K(10), 6), (TopologySpec.grid(2), 16)], ids=["complete", "grid"]
)
@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5)], ids=["std", "lazy0.5"])
def test_recording_turned_on_mid_run_logs_the_whole_run(force_generic, spec, M, variant):
    # A log replays its seed from t = 0, so one turned on after three
    # steps is the log of a run recorded from the start.
    late = ParticleSystem(spec, M, variant, seed=17, force_generic=force_generic)
    for _ in range(3):
        late.step()
    assert late.t == 3 and not late.is_dispersed()
    late.record_trajectories(True)
    early = ParticleSystem(spec, M, variant, seed=17, force_generic=force_generic)
    early.record_trajectories(True)
    a, b = late.run(500).trajectories, early.run(500).trajectories
    assert a == b
    assert np.array_equal(a.final, b.final)
    assert a.events == b.events and a.events


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
def test_positions_before_the_start_are_refused(force_generic):
    ps = ParticleSystem(TopologySpec.grid(2), 6, seed=31, force_generic=force_generic)
    ps.record_trajectories(True)
    log = ps.run(1000).trajectories
    for t in (-1, -3):
        with pytest.raises(ValueError, match="before the run's start"):
            log.positions_at(t)


def test_positions_at_reads_the_step_as_an_integer():
    ps = ParticleSystem(TopologySpec.grid(2), 6, seed=31)
    ps.record_trajectories(True)
    log = ps.run(1000).trajectories
    assert log.steps > 3
    assert log.positions_at(np.int64(3)) == log.positions_at(3)
    with pytest.raises(ValueError, match="^step must be an integer, got 2.5$"):
        log.positions_at(2.5)


def test_each_step_counts_occupancy_once(monkeypatch):
    calls = []
    count = engine._Occupancy.__call__

    def counted(self, v, reach):
        calls.append(reach)
        return count(self, v, reach)

    monkeypatch.setattr(engine._Occupancy, "__call__", counted)
    ps = ParticleSystem(K(100, loops=True), 60, seed=5)
    ps.record_trajectories(True)
    for _ in range(10):
        calls.clear()
        ps.happy_unhappy_counts()
        ps.is_dispersed()
        assert calls == []
        ps.step()
        assert len(calls) == 1
    log = ps.run(30).trajectories
    assert log.steps == 30
    calls.clear()
    log.events
    assert len(calls) == log.steps


@pytest.mark.parametrize("force_generic", [False, True])
def test_event_cap_fails_when_events_are_read(monkeypatch, force_generic):
    monkeypatch.setattr(engine, "RECORD_EVENT_CAP", 25)
    ps = ParticleSystem(K(30), 20, seed=4, force_generic=force_generic)
    ps.record_trajectories(True)
    r = ps.run(1000)
    log = r.trajectories
    # The run itself is not limited; reading its events is.
    walked = int(r.walk_counts.sum())
    assert r.dispersed and log.steps == ps.t == r.steps and walked > 25
    with pytest.raises(RuntimeError, match="25 move events"):
        log.events
    with pytest.raises(RuntimeError, match="25 move events"):
        log.per_particle()
    assert log.positions_at(log.steps) == ps.positions
    lone = ParticleSystem(K(30), 20, seed=4, force_generic=force_generic)
    for t in range(log.steps):
        assert log.positions_at(t) == lone.positions
        lone.step()
    monkeypatch.setattr(engine, "RECORD_EVENT_CAP", walked - 1)
    with pytest.raises(RuntimeError, match=f"{walked - 1} move events"):
        log.events
    monkeypatch.setattr(engine, "RECORD_EVENT_CAP", walked)
    assert len(log.events) == walked


def test_a_log_stays_read_only_after_pickling():
    ps = ParticleSystem(TopologySpec.complete(30), 12, lazy(0.5), seed=4)
    ps.record_trajectories(True)
    log = ps.run().trajectories
    for back in (pickle.loads(pickle.dumps(log)), copy.deepcopy(log)):
        assert back == log and np.array_equal(back.final, log.final)
        with pytest.raises(ValueError, match="read-only"):
            back.final[0] += 1
        assert back.events == log.events


@pytest.mark.parametrize("force_generic", [False, True])
def test_a_log_that_does_not_replay_to_its_final_positions_raises(force_generic):
    ps = ParticleSystem(TopologySpec.grid(2), 6, seed=31, force_generic=force_generic)
    ps.record_trajectories(True)
    log = ps.run(1000).trajectories
    assert len(log.events) == int(ps.walk_counts.sum())
    with pytest.raises(dataclasses.FrozenInstanceError):
        log.steps = 0
    with pytest.raises(ValueError, match="read-only"):
        log.final[0, 0] += 1
    moved = log.final.copy()
    moved[0, 0] += 1
    for bad in (dataclasses.replace(log, final=moved), dataclasses.replace(log, seed=32)):
        with pytest.raises(RuntimeError, match="does not replay"):
            bad.events
    # A system moved by hand before its run does not replay from its seed.
    ps = ParticleSystem(TopologySpec.grid(2), 6, seed=31, force_generic=force_generic)
    ps.record_trajectories(True)
    ps._posv[0, :3] = 1
    ps._occ[:] = 3  # three particles on (1, 0), three on the origin
    with pytest.raises(RuntimeError, match="does not replay"):
        ps.run(1000).trajectories.events


@pytest.mark.parametrize("force_generic", [False, True])
def test_a_move_past_int64_leaves_the_system_at_its_last_step(force_generic):
    # Two particles on one depth-1 vertex of tree(2^40), whose level 2 has
    # about 2^80 vertices: almost every draw moves a particle there.
    ps = ParticleSystem(
        TopologySpec.tree(2**40, leaf_depth=0), 2, seed=1, force_generic=force_generic
    )
    ps._posv[:] = ps.topo.to_array([(5,), (5,)])
    ps.max_distance_ever = 1
    with pytest.raises(ValueError, match="int64"):
        ps.run(10)
    assert (ps.t, ps.meeting_total, ps.walk_counts.tolist()) == (0, 0, [0, 0])
    assert ps.positions == [(5,), (5,)]


def test_vertex_counts_past_int64_are_refused_before_a_run():
    for make, n in ((K, 2**63 + 5), (TopologySpec.star, 2**63), (TopologySpec.cycle, 2**63 + 3)):
        with pytest.raises(ValueError, match=f"n <= {2**63 - 1} \\(the int64 limit\\)"):
            make(n)
    # At the limit both loops run, and agree.
    kernel, reference = (
        ParticleSystem(K(2**63 - 1), 2, seed=1, force_generic=g).run(5) for g in (False, True)
    )
    assert kernel.to_record() == reference.to_record()
    assert kernel.dispersed


@pytest.mark.parametrize("force_generic", [False, True], ids=["kernel", "reference"])
def test_one_particle_on_K1_with_loops_is_dispersed_at_once(force_generic):
    res = ParticleSystem(K(1, loops=True), 1, seed=3, force_generic=force_generic).run(10)
    assert res.dispersed and res.t_disp == 0 and res.meeting_total == 0


ARRAY_SPECS = {
    "complete": (K(20), 12),
    "star": (TopologySpec.star(12), 6),
    "cycle": (TopologySpec.cycle(15), 7),
    "path": (TopologySpec.path(), 6),
    "hypercube": (TopologySpec.hypercube(8), 8),
    "hypercube-63": (TopologySpec.hypercube(63), 128),
    "hypercube-64": (TopologySpec.hypercube(64), 128),
    "hypercube-100": (TopologySpec.hypercube(100), 128),
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


def _first_coin_on_its_threshold(M):
    """(seed, particle, p) at which that particle's first laziness draw
    is unit_threshold(p), the largest draw that still moves it."""
    for seed in range(10_000):
        for i in range(M):
            raw = draw(stream_key(seed, i, LAZINESS_TAG), 1)
            if raw & 0x7FF == 0x7FF:  # raw = (q << 11) - 1 for some q
                return seed, i, ((raw >> 11) + 1) * 2.0**-53
    raise AssertionError("no first draw has its low 11 bits set")


@pytest.mark.parametrize("force_generic", [False, True])
def test_a_coin_drawn_on_its_threshold_moves(force_generic):
    M = 8
    seed, i, p = _first_coin_on_its_threshold(M)
    assert unit_threshold(p) == draw(stream_key(seed, i, LAZINESS_TAG), 1)
    ps = ParticleSystem(K(50, loops=True), M, lazy(p), seed=seed, force_generic=force_generic)
    ps.step()  # every particle starts on the origin, so each flips a coin
    assert ps.walk_counts[i] == 1


@pytest.mark.parametrize("force_generic", [False, True])
def test_a_move_spends_one_direction_draw(force_generic):
    # Every particle starts on the origin, so each moves in step 0, to
    # the neighbour its first direction draw picks.
    ps = ParticleSystem(TopologySpec.grid(2), 6, seed=77, force_generic=force_generic)
    ps.step()
    keys = [stream_key(ps.seed, i, DIRECTION_TAG) for i in range(6)]
    assert ps.walk_counts.tolist() == [1] * 6
    assert ps.positions == [ps.topo.neighbor((0, 0), draw(key, 1) % 4) for key in keys]


def test_tree_keys_refuse_to_leave_int64():
    k = 2**31
    topo = build(TopologySpec.tree(k, leaf_depth=0))
    last = (k - 1, k - 2)  # last vertex of level 2, index k(k-1) - 1 < 2^62
    v = topo.to_array([last])
    assert v[:, 0].tolist() == [2, k * (k - 1) - 1]
    assert topo.from_array(v) == [last]
    # Breadth-first code: the 1 + k vertices above level 2, plus the index.
    one = engine._Occupancy(topo, 1, 1)
    assert one(v, 2).tolist() == [1] and one.span == k * k + 1
    assert one.keys(v, 2).tolist() == [k * k]
    # Two replicas' keys would pass int64: their rows are lexsorted, and
    # particles count together only within a replica.
    two = engine._Occupancy(topo, 2, 2)
    assert two(np.repeat(v, 4, axis=1), 2).tolist() == [2, 2, 2, 2]
    assert not (two.bins or two.packs)
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
    binary = build(TopologySpec.tree(2, leaf_depth=0))
    cases = [
        (path, 100, 10, 60, rng.integers(-60, 61, 1000), True),  # 10 * 121 bins
        (kn, 600, 8, 1, rng.integers(0, 1000, 4800), True),  # 8 * 1000 bins
        (tree, 50, 8, 14, _tree_batch(tree, 14, 400, rng), False),  # 8 * 49150 bins
        (binary, 20, 8, 117, _tree_batch(binary, 117, 160, rng), True),  # 8 * 235 bins
        (binary, 20, 8, 100, _tree_batch(binary, 100, 160, rng), True),  # 8 * 201 bins
        (tree, 50, 8, 40, _tree_batch(tree, 40, 400, rng), False),  # 8 * (3 * 2^40 - 2)
    ]
    for topo, M, R, reach, v, bins in cases:
        occupancy = engine._Occupancy(topo, M, R)
        _assert_counts(topo, occupancy, v, reach, M)
        assert occupancy.bins is bins, topo.spec
        if topo.spec.family is Family.TREE:
            # Breadth-first codes: the vertices above a level, plus the index.
            depth, index = v.tolist()
            want = [topo.ball_size(d - 1) + x if d else 0 for d, x in zip(depth, index)]
            assert topo.vertex_codes(v, reach).tolist() == want
    # At reach 12, 8 * 12286 bins do not fit; for the 2 replicas a batch
    # keeps once 6 leave, 2 * 12286 do.
    v = _tree_batch(tree, 12, 400, rng)
    occupancy = engine._Occupancy(tree, 50, 8)
    _assert_counts(tree, occupancy, v, 12, 50)
    assert not occupancy.bins
    occupancy = engine._Occupancy(tree, 50, 2)
    _assert_counts(tree, occupancy, v[:, :100], 12, 50)
    assert occupancy.bins


def test_sort_packs_particle_ids_below_keys_where_they_fit():
    # Past the bincount budget, one sort of keys shifted left by the bits
    # of the largest flat index, R * M - 1, with the index below them,
    # when R * span fits INT64_MAX >> bits; else a lexsort of the rows.
    rng = np.random.default_rng(12)
    tree = build(TopologySpec.tree(3, leaf_depth=0))
    k = 2**31
    wide = build(TopologySpec.tree(k, leaf_depth=0))
    crowd = wide.to_array([(), (k - 1, k - 2), (0,), (k - 1, k - 2), (), (7, 3), (k - 1, k - 2)])
    cases = [
        # 8 * 49150 keys below 9 bits of index.
        (tree, 50, 8, 14, _tree_batch(tree, 14, 400, rng), 9, True),
        # k^2 + 1 keys do not fit below 3 bits: the rows are lexsorted.
        (wide, 7, 1, 2, crowd, 3, False),
        # One particle packs with no bits at all.
        (wide, 1, 1, 2, crowd[:, 1:2], 0, True),
    ]
    for topo, M, R, reach, v, bits, packs in cases:
        occupancy = engine._Occupancy(topo, M, R)
        _assert_counts(topo, occupancy, v, reach, M)
        assert not occupancy.bins
        assert occupancy.bits == bits == (R * M - 1).bit_length()
        assert occupancy.packs is packs is (R * occupancy.span <= engine.INT64_MAX >> bits)


def test_lexsort_counts_keys_that_pass_int64():
    # Where R * span passes INT64_MAX >> bits, neither bincount nor the
    # packed sort runs: the vertex rows are lexsorted under the replica.
    rng = np.random.default_rng(13)
    k = 2**31
    wide = build(TopologySpec.tree(k, leaf_depth=0))
    level2 = wide.to_array([(k - 1, k - 2), (0, 0), (k - 1, k - 2), (5, 9), (0, 0), (0, 0)])
    huge = 2**63 - 1
    cases = [
        # Two replicas of k^2 + 1 codes pass int64.
        (wide, 6, 2, 2, np.tile(level2, 2)),
        (build(TopologySpec.complete(huge)), 5, 2, 1, np.array([huge - 1, 0, huge - 1, 3, 0] * 2)),
    ]
    for dim in (64, 100):
        cube = build(TopologySpec.hypercube(dim))
        pool = [0, 1, 1 << 62, 1 << 63, (1 << dim) - 1, (1 << 63) | 1]
        verts = [pool[i] for i in rng.integers(0, len(pool), 3 * 8)]
        cases.append((cube, 8, 3, dim, cube.to_array(verts)))
    grid = build(TopologySpec.grid(40))
    pool = [tuple(rng.integers(-1, 2, 40).tolist()) for _ in range(4)] + [(0,) * 40]
    verts = [pool[i] for i in rng.integers(0, len(pool), 2 * 10)]
    cases.append((grid, 10, 2, 40, grid.to_array(verts)))
    for topo, M, R, reach, v in cases:
        occupancy = engine._Occupancy(topo, M, R)
        _assert_counts(topo, occupancy, v, reach, M)
        assert not (occupancy.bins or occupancy.packs), topo.spec
        assert R * topo.code_span(reach) > engine.INT64_MAX >> occupancy.bits


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



# -- run-level identities between families ---------------------------------------

# Pairs of families whose runs are the same process: equal neighbour order
# from equal addresses, so a seed gives the same record on both. The torus
# is wide enough that no run reaches around it.
_UNITS = [tuple(int(i == j) for j in range(6)) for i in range(6)]
IDENTICAL_FAMILIES = {
    "path-grid1": (TopologySpec.path(), TopologySpec.grid(1), 40),
    "cycle13-cayley": (TopologySpec.cycle(13), TopologySpec.cayley((13,), [(-1,), (1,)]), 12),
    "cycle14-cayley": (TopologySpec.cycle(14), TopologySpec.cayley((14,), [(-1,), (1,)]), 12),
    "hypercube-cayley": (TopologySpec.hypercube(6), TopologySpec.cayley((2,) * 6, _UNITS), 6),
    "grid2-torus": (
        TopologySpec.grid(2),
        TopologySpec.cayley((64, 64), [(-1, 0), (1, 0), (0, -1), (0, 1)]),
        20,
    ),
}


@pytest.mark.parametrize("force_generic", [False, True], ids=["lockstep", "generic"])
@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5)], ids=["std", "lazy0.5"])
@pytest.mark.parametrize("name", list(IDENTICAL_FAMILIES))
def test_identical_families_give_identical_runs(name, variant, force_generic):
    a, b, M = IDENTICAL_FAMILIES[name]
    for seed in range(5):
        ra, rb = (
            ParticleSystem(spec, M, variant=variant, seed=seed, force_generic=force_generic).run()
            for spec in (a, b)
        )
        assert ra.status is Status.DISPERSED, (name, seed)
        for field in ("status", "steps", "t_disp", "d_disp", "max_distance_ever", "meeting_total"):
            assert getattr(ra, field) == getattr(rb, field), (name, seed, field)
        assert np.array_equal(ra.walk_counts, rb.walk_counts), (name, seed)
        if b.family is Family.CAYLEY and len(b.moduli) == 2:
            assert 2 * rb.max_distance_ever < min(b.moduli), (name, seed)
