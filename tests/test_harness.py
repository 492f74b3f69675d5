import concurrent.futures
import dataclasses
import itertools
import math
import os
import re
from collections import Counter, namedtuple

import numpy as np
import pytest

from disperse import engine, harness, topology
from disperse.engine import (
    STANDARD,
    ParticleSystem,
    RunResult,
    Status,
    lazy,
    lockstep_batch_size,
    lockstep_rows,
    package_rows,
)
from disperse.harness import (
    AggregateStats,
    ExperimentSpec,
    ScanAxis,
    ScanSpec,
    aggregate,
    aggregate_blocks,
    grid_step_budget,
    nearest_rank_quantiles,
    pair_coupling_audit,
    replica_results,
    result_blocks,
    run_replicas,
    scan,
    wilson_interval,
)
from disperse.rng import derive_seed, stream_counts
from disperse.topology import Family, TopologySpec, build, default_leaf_depth, with_leaf_depth

from conftest import lockstep_systems


# -- interval and quantile helpers -------------------------------------------


def test_wilson_interval_reference_values():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0
    assert hi == pytest.approx(0.2775, abs=1e-4)
    lo, hi = wilson_interval(8, 10)
    assert (lo, hi) == (
        pytest.approx(0.4902, abs=1e-4),
        pytest.approx(0.9433, abs=1e-4),
    )
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(10, 10)
    assert hi == pytest.approx(1.0, abs=1e-12) and 0 < lo < 1


def test_wilson_interval_brackets_the_rate():
    for s, t in [(1, 7), (5, 9), (50, 100), (99, 100)]:
        lo, hi = wilson_interval(s, t)
        assert 0.0 <= lo <= s / t <= hi <= 1.0


def test_nearest_rank_quantiles():
    q = nearest_rank_quantiles(list(range(100, 0, -1)))  # 100..1 shuffled order
    assert q == {"min": 1, "p25": 25, "p50": 50, "p75": 75, "p95": 95, "max": 100}
    q4 = nearest_rank_quantiles([40, 10, 30, 20])
    assert (q4["p25"], q4["p50"], q4["p75"], q4["p95"]) == (10, 20, 30, 40)
    single = nearest_rank_quantiles([7])
    assert set(single.values()) == {7}
    empty = nearest_rank_quantiles([])
    assert all(v is None for v in empty.values())


def test_grid_step_budget_value():
    assert grid_step_budget(50, 20.0) == 391203
    assert grid_step_budget(50, 20.0) == math.ceil(2 * 20 * 50 * 50 * math.log(50))
    with pytest.raises(ValueError):
        grid_step_budget(1, 20.0)


# -- aggregation ---------------------------------------------------------------


def fake_result(status, t_disp=None, d_disp=0, maxd=0, meetings=0, seed=0):
    return RunResult(
        status=status,
        steps=t_disp or 100,
        t_disp=t_disp,
        d_disp=d_disp,
        max_distance_ever=maxd,
        meeting_total=meetings,
        walk_counts=np.zeros(2, dtype=np.int64),
        seed=seed,
        boundary_flag=status is Status.BOUNDARY_HIT,
    )


def test_aggregate_excludes_boundary_hits():
    results = [
        fake_result(Status.DISPERSED, t_disp=10, d_disp=3, maxd=4, meetings=2),
        fake_result(Status.DISPERSED, t_disp=20, d_disp=5, maxd=6, meetings=4),
        fake_result(Status.BUDGET_EXHAUSTED, maxd=9, meetings=6),
        fake_result(Status.BOUNDARY_HIT, maxd=99, meetings=1000),
    ]
    stats = aggregate(results)
    assert stats.replicas == 4
    assert stats.boundary_hits == 1
    assert stats.dispersed == 2
    assert stats.dispersal_fraction == pytest.approx(2 / 3)
    assert stats.t_disp["min"] == 10 and stats.t_disp["max"] == 20
    assert stats.d_disp["max"] == 5
    # Boundary run's distances and meetings must not leak in.
    assert stats.max_distance["max"] == 9
    assert stats.mean_meetings == pytest.approx((2 + 4 + 6) / 3)
    # One pass over any iterable, in any order, of anything with the fields.
    assert aggregate(iter(results)) == aggregate(results[::-1]) == stats
    fields = namedtuple("Fields", "status t_disp d_disp max_distance_ever meeting_total")
    assert aggregate(fields(*(getattr(r, f) for f in fields._fields)) for r in results) == stats


def test_aggregate_no_dispersals():
    stats = aggregate([fake_result(Status.BUDGET_EXHAUSTED)] * 3)
    assert stats.dispersal_fraction == 0.0
    assert stats.t_disp["min"] is None
    row = stats.to_row()
    assert row["t_disp_p50"] is None
    assert list(row) == list(AggregateStats.COLUMNS)


def test_aggregate_single_particle_trivial_stats():
    exp = ExperimentSpec(topology=TopologySpec.grid(2), M=1, replicas=5, master_seed=3)
    _, stats = run_replicas(exp)
    assert stats.dispersal_fraction == 1.0
    assert set(stats.t_disp.values()) == {0}
    assert set(stats.d_disp.values()) == {0}


# -- experiment resolution --------------------------------------------------------


def test_resolve_fills_family_defaults():
    grid = ExperimentSpec(topology=TopologySpec.grid(2), M=10).resolve()
    assert grid == ExperimentSpec(topology=TopologySpec.grid(2), M=10)
    tree = ExperimentSpec(topology=TopologySpec.tree(3), M=4096).resolve()
    assert tree.topology.leaf_depth == 37
    # Resolution is idempotent.
    assert grid.resolve() == grid
    assert tree.resolve() == tree


@pytest.mark.parametrize(
    "dim, M",
    # sqrt(2^4)/2 = 2 and sqrt(2^6)/2 = 4 were once the most each took.
    [(4, 10), (6, 40)],
    ids=["dim-4-M-10", "dim-6-M-40"],
)
def test_hypercube_takes_any_particle_count(monkeypatch, dim, M):
    pools, systems = _kept_systems(monkeypatch)
    exp = ExperimentSpec(TopologySpec.hypercube(dim), M, budget=3000, replicas=3, master_seed=4)
    assert exp.resolve() == exp
    results, _ = run_replicas(exp)
    assert len(systems) == 3 and all(r.dispersed for r in results)
    _assert_equal_generic_runs(exp, results, systems)


def test_experiment_validation_errors():
    good = ExperimentSpec(topology=TopologySpec.complete(10), M=4)
    for bad in (
        dict(M=0),
        dict(budget=0),
        dict(replicas=0),
    ):
        with pytest.raises(ValueError):
            dataclasses.replace(good, **bad)


@pytest.mark.parametrize("field", ["M", "budget", "replicas", "master_seed"])
def test_experiment_integer_fields_refuse_other_numbers(field):
    # A float budget used to run and then write a header --config refuses.
    good = ExperimentSpec(topology=TopologySpec.complete(100), M=4)
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got 50.5$"):
        dataclasses.replace(good, **{field: 50.5})
    assert type(getattr(dataclasses.replace(good, **{field: np.int64(5)}), field)) is int


# -- replication ---------------------------------------------------------------


def base_exp(**kw):
    kw.setdefault("topology", TopologySpec.complete(40))
    kw.setdefault("M", 15)
    kw.setdefault("replicas", 8)
    kw.setdefault("master_seed", 99)
    return ExperimentSpec(**kw)


def test_replica_seeds_derive_from_master():
    results, _ = run_replicas(base_exp())
    assert [r.seed for r in results] == [derive_seed(99, i) for i in range(8)]


def test_parallelism_does_not_change_results(monkeypatch):
    # Reach the real process pool even on a one-core host.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    seq, seq_stats = run_replicas(base_exp(), parallelism=1)
    par, par_stats = run_replicas(base_exp(), parallelism=4)
    assert [r.to_record() for r in seq] == [r.to_record() for r in par]
    assert seq_stats == par_stats


@pytest.fixture
def in_process_pool(monkeypatch):
    """Run the harness's process pool in this process; returns the
    worker counts it was asked for and the jobs it was given."""
    asked, jobs = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, given, chunksize=1):
            jobs.extend(given)
            return map(fn, given)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return asked, jobs


def test_worker_count_capped_by_replicas_and_cores(monkeypatch, in_process_pool):
    asked, _ = in_process_pool
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    exp = base_exp(replicas=3)
    results, stats = run_replicas(exp, parallelism=10**6)
    assert asked == [3]
    serial, serial_stats = run_replicas(exp)
    assert [r.to_record() for r in results] == [r.to_record() for r in serial]
    assert stats == serial_stats
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run_replicas(exp, parallelism=10**6)
    assert asked == [3, 2]


@pytest.mark.parametrize(
    "parallelism, message",
    [
        (0, "parallelism must be >= 1, got 0"),
        (-3, "parallelism must be >= 1, got -3"),
        (2.5, "parallelism must be an integer, got 2.5"),
        ("2", "parallelism must be an integer, got '2'"),
    ],
)
def test_run_replicas_refuses_bad_parallelism_before_any_replica(
    monkeypatch, parallelism, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("a replica pool was started")

    monkeypatch.setattr(harness, "lockstep_rows", refuse)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_replicas(base_exp(), parallelism=parallelism)
    # The stream checks its arguments when it is made, not when read.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replica_results(base_exp(), parallelism=parallelism)


def test_run_replicas_stats_match_aggregate():
    results, stats = run_replicas(base_exp())
    assert stats == aggregate(results)


def test_serial_progress_reports_every_replica(monkeypatch, capsys):
    monkeypatch.setattr(engine, "lockstep_batch_size", lambda topo, M: 3)
    results, _ = run_replicas(base_exp(replicas=7), progress=True)
    err = capsys.readouterr().err
    assert err == "".join(f"\rreplica {k}/7" for k in range(1, 8)) + "\n"
    assert [r.seed for r in results] == [derive_seed(99, i) for i in range(7)]


@pytest.mark.parametrize(
    "replicas, sizes",
    [(40, [5] * 8), (12, [3] * 4), (4, [2, 2]), (7, [3, 3, 1])],
    ids=["four-per-worker", "full-width", "worker-share", "uneven"],
)
def test_parallel_run_keeps_several_pools_per_worker(
    monkeypatch, capsys, in_process_pool, replicas, sizes
):
    # Two workers and pools three wide: about four jobs per worker, but
    # none narrower than a width or, below that, a worker's share.
    asked, jobs = in_process_pool
    monkeypatch.setattr(harness, "lockstep_batch_size", lambda topo, M: 3)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    exp = base_exp(replicas=replicas)
    results, stats = run_replicas(exp, parallelism=2, progress=True)
    assert asked == [2]
    assert [len(seeds) for _, seeds in jobs] == sizes
    assert [s for _, seeds in jobs for s in seeds] == [r.seed for r in results]
    done = list(np.cumsum(sizes))
    assert capsys.readouterr().err == "".join(
        f"\rreplica {k}/{replicas}" for k in done
    ) + "\n"
    serial, serial_stats = run_replicas(exp)
    assert [r.to_record() for r in results] == [r.to_record() for r in serial]
    assert stats == serial_stats


@pytest.mark.parametrize("parallelism", [1, 2], ids=["serial", "parallel"])
def test_replica_results_stream_what_run_replicas_collects(
    monkeypatch, capsys, in_process_pool, parallelism
):
    # Pools and jobs three wide over seven replicas: serial replicas come
    # as they leave their pool, parallel ones a job at a time.
    monkeypatch.setattr(engine, "lockstep_batch_size", lambda topo, M: 3)
    monkeypatch.setattr(harness, "lockstep_batch_size", lambda topo, M: 3)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    exp = base_exp(replicas=7, variant=lazy(0.5))
    got = list(replica_results(exp, parallelism=parallelism, progress=True))
    err = capsys.readouterr().err
    results, _ = run_replicas(exp, parallelism=parallelism, progress=True)
    assert capsys.readouterr().err == err
    assert sorted(i for i, _ in got) == list(range(7))
    streamed = dict(got)
    for i, res in enumerate(results):
        assert streamed[i].to_record() == res.to_record()
        assert streamed[i].walk_counts.tolist() == res.walk_counts.tolist()


def test_run_replicas_builds_no_system(monkeypatch):
    # Replicas are rows of their pool's slots from seed to result: no
    # ParticleSystem is made, and each result is a lone run's.
    built = []
    init = ParticleSystem.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(engine, "lockstep_batch_size", lambda topo, M: 3)
    monkeypatch.setattr(ParticleSystem, "__init__", counted)
    exp = ExperimentSpec(
        TopologySpec.complete(40), 15, lazy(0.5), replicas=30, master_seed=8,
        record_trajectories=True,
    )
    results, _ = run_replicas(exp)
    assert built == []
    for i, res in enumerate(results):
        want = ParticleSystem(exp.topology, 15, lazy(0.5), derive_seed(8, i)).run(exp.budget)
        assert res.to_record() == want.to_record()
        assert res.walk_counts.tolist() == want.walk_counts.tolist()
    assert len({r.steps for r in results}) > 1


def test_scan_folds_each_result_as_it_is_made(live_results):
    # Each point's result blocks go straight into its aggregate: never
    # more than two alive, the one just made and the one the fold last read.
    s = ScanSpec(base_exp(variant=lazy(0.5), replicas=15), ScanAxis.DENSITY, (0.25, 0.5))
    points = scan(s)
    assert len(live_results) == 30 and max(live_results) <= 2
    for pt in points:
        assert pt.stats == run_replicas(pt.experiment)[1]


def test_a_serial_run_steps_every_replica_in_one_pool(monkeypatch):
    # One lockstep_rows pool, three wide, runs all eight replicas from
    # seed to result; no replica is stepped as a system of its own, and
    # each result is a lone run's.
    pools, advanced = [], []
    rows, advance = harness.lockstep_rows, ParticleSystem._advance
    monkeypatch.setattr(engine, "lockstep_batch_size", lambda topo, M: 3)
    monkeypatch.setattr(harness, "lockstep_batch_size", lambda topo, M: 3)
    monkeypatch.setattr(harness, "lockstep_rows", lambda *a, **kw: pools.append(a) or rows(*a, **kw))
    monkeypatch.setattr(
        ParticleSystem, "_advance", lambda self, t: advanced.append(self) or advance(self, t)
    )
    exp = base_exp(variant=lazy(0.5))
    results, _ = run_replicas(exp)
    assert (len(pools), advanced) == (1, [])
    for i, r in enumerate(results):
        lone = ParticleSystem(exp.topology, exp.M, exp.variant, derive_seed(99, i))
        assert r.to_record() == lone.run(exp.budget).to_record()


def test_chunked_stream_keys_equal_systems_built_one_by_one(monkeypatch):
    # Keys are derived a pool width of seeds at a time: 2 * width + 3
    # replicas fill two chunks and start a third.
    spec = TopologySpec.complete(2000, with_loops=True)
    M = 600
    width = lockstep_batch_size(build(spec), M)
    pools, systems = _kept_systems(monkeypatch)
    exp = ExperimentSpec(spec, M, lazy(0.5), replicas=2 * width + 3, master_seed=19)
    results, _ = run_replicas(exp)
    chunks = [len(list(g)) for _, g in itertools.groupby(systems, lambda ps: id(ps._keys.base))]
    assert chunks == [width, width, 3] and pools == [(2 * width + 3, width)]
    for i, (res, ps) in enumerate(zip(results, systems)):
        alone = ParticleSystem(spec, M, lazy(0.5), derive_seed(19, i))
        want = alone.run(exp.budget)
        assert res.seed == ps.seed == want.seed
        assert ps.positions == alone.positions
        assert res.walk_counts.tolist() == want.walk_counts.tolist()
        assert ps._words[1].tolist() == alone._words[1].tolist()
        assert (res.t_disp, res.meeting_total) == (want.t_disp, want.meeting_total)
    assert all(r.dispersed for r in results) and len({r.t_disp for r in results}) > 1


@pytest.mark.parametrize("family", ["tree", "grid"])
def test_chunked_stream_keys_fill_multi_row_slots_bit_for_bit(monkeypatch, family):
    # Two-row vertices (tree addresses, 2-D grid points) fill their slots
    # from the origin and the keys across key chunks and refills: with
    # the width patched to 3 for the chunks and the pool, 2 * width + 3
    # replicas fill two chunks and start a third.
    spec, M = ARRAY_FAMILIES[family]
    width = 3
    monkeypatch.setattr(harness, "lockstep_batch_size", lambda topo, M: width)
    pools, systems = _kept_systems(monkeypatch, width)
    exp = ExperimentSpec(spec, M, lazy(0.5), budget=3000, replicas=2 * width + 3, master_seed=23)
    results, _ = run_replicas(exp)
    chunks = [len(list(g)) for _, g in itertools.groupby(systems, lambda ps: id(ps._keys.base))]
    assert chunks == [width, width, 3] and pools == [(2 * width + 3, width)]
    exp = exp.resolve()
    for i, (res, ps) in enumerate(zip(results, systems)):
        ref = ParticleSystem(exp.topology, M, exp.variant, derive_seed(23, i), force_generic=True)
        want = ref.run(exp.budget)
        assert res.to_record() == want.to_record()
        assert res.walk_counts.tolist() == want.walk_counts.tolist()
        assert ps.positions == ref.positions
    assert all(r.dispersed for r in results) and len({r.t_disp for r in results}) > 1


# -- complete-graph replicas in lockstep ---------------------------------------


@pytest.mark.parametrize("loops", [False, True])
@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5), lazy(1.0)], ids=["std", "lazy0.5", "lazy1"])
@pytest.mark.parametrize(
    "M, budget, record, parallelism",
    [(1, 50, False, 1), (12, 4, False, 1), (12, 400, True, 1), (12, 400, True, 2)],
    ids=["M1", "budget-cut", "dispersed-recorded", "parallel"],
)
def test_lockstep_replicas_equal_single_runs(
    monkeypatch, loops, variant, M, budget, record, parallelism
):
    n = 30
    # Pools three replicas wide: four of the seven take over freed slots.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pools, systems = _kept_systems(monkeypatch, 3)
    exp = ExperimentSpec(
        TopologySpec.complete(n, with_loops=loops), M, variant, budget=budget,
        replicas=7, master_seed=5, record_trajectories=record,
    )
    results, _ = run_replicas(exp, parallelism=parallelism)
    if parallelism == 1:
        # One pool over all seven; a lone particle's row is dispersed as
        # it enters, and leaves at the pool's first exit.
        assert pools == [(7, 3)]
        positions = [ps.positions for ps in systems]
    else:
        positions = [r.trajectories.positions_at(r.trajectories.steps) for r in results]

    topo = build(exp.topology)
    for i, res in enumerate(results):
        seed = derive_seed(5, i)
        for generic in (False, True):
            ref = ParticleSystem(exp.topology, M, variant, seed, force_generic=generic)
            ref.record_trajectories(record)
            want = ref.run(budget)
            assert res.to_record() == want.to_record()
            assert res.walk_counts.tolist() == want.walk_counts.tolist()
            assert positions[i] == ref.positions
            if record:
                assert res.trajectories.events == want.trajectories.events
                assert res.trajectories.steps == want.trajectories.steps
                assert not res.trajectories.final.flags.writeable  # also from a worker
        assert res.d_disp == max(topo.distance_to_origin(v) for v in positions[i])

    statuses = {r.status for r in results}
    if M == 1:
        assert all(r.t_disp == 0 for r in results)
    elif budget == 4:
        assert Status.BUDGET_EXHAUSTED in statuses
    else:
        assert statuses == {Status.DISPERSED}
        assert len({r.t_disp for r in results}) > 1


# Every array-kernel family but K_n, with the particle counts its tests use.
ARRAY_FAMILIES = {
    "star": (TopologySpec.star(12), 6),
    "cycle": (TopologySpec.cycle(15), 7),
    "path": (TopologySpec.path(), 6),
    "hypercube": (TopologySpec.hypercube(8), 8),
    # Past 62 dimensions 2^dim passes int64 and the vertex rows are lexsorted.
    "hypercube-63": (TopologySpec.hypercube(63), 128),
    "hypercube-64": (TopologySpec.hypercube(64), 128),
    "hypercube-100": (TopologySpec.hypercube(100), 128),
    "tree": (TopologySpec.tree(3), 12),
    # Eight particles on ten vertices: truncated leaves move to their parent.
    "tree-leaves": (TopologySpec.tree(3, leaf_depth=2), 8),
    "grid": (TopologySpec.grid(2), 6),
    "cayley": (TopologySpec.cayley((4, 3), [(1, 0), (-1, 0), (0, 1), (0, -1)]), 5),
}


def _kept_systems(monkeypatch, width=None):
    """Run lockstep pools `width` replicas wide (their own width if
    None), keeping, in replica order, a ParticleSystem for every replica
    that run_replicas packages, made from its seed and stream keys and
    given the row it left with; and, per pool, the rows it took and the
    most it held live at once, which must not pass the width. Each pool
    yields the rows that leave at every exit (gather 1), so the rows it
    holds are the rows taken less the rows yielded."""
    pools, systems = [], []
    keys, made = {}, {}  # by replica: its fresh row's words, which are its keys; its system
    if width is not None:
        monkeypatch.setattr(engine, "lockstep_batch_size", lambda topo, M: width)

    def pool(topo, M, variant, take, t_end, *rest, **kw):
        taken = left = peak = 0

        def counted(n):
            nonlocal taken, peak
            rows = take(n)
            if rows is not None:
                taken += len(rows.ids)
                peak = max(peak, taken - left)
                keys.update((i, rows.words[:, r]) for r, i in enumerate(rows.ids.tolist()))
            return rows

        for rows in lockstep_rows(topo, M, variant, counted, t_end, *rest, **{**kw, "gather": 1}):
            load, t, _, far, _ = rows.book
            done = (t == t_end) | (load == M)  # at its budget, or dispersed
            if topo.unbounded:
                done |= far > engine.COORDINATE_LIMIT
            assert done.all()
            left += len(rows.ids)
            yield rows
        assert width is None or peak <= width
        pools.append((taken, peak))

    def package(topo, variant, rows, seeds, *rest):
        for r, (i, seed) in enumerate(zip(rows.ids.tolist(), seeds.tolist())):
            made[i] = ParticleSystem(topo, rows.keys.shape[-1], variant, seed, keys=keys.pop(i))
            made[i]._settle(rows, r)
        systems[:] = [made[i] for i in sorted(made)]
        return package_rows(topo, variant, rows, seeds, *rest)

    monkeypatch.setattr(harness, "lockstep_rows", pool)
    monkeypatch.setattr(harness, "package_rows", package)
    return pools, systems


def _assert_equal_generic_runs(exp, results, systems):
    topo = build(exp.topology)
    for i, res in enumerate(results):
        ref = ParticleSystem(
            exp.topology, exp.M, exp.variant, derive_seed(exp.master_seed, i),
            force_generic=True,
        )
        ref.record_trajectories(exp.record_trajectories)
        want = ref.run(exp.budget)
        assert res.to_record() == want.to_record()
        assert res.steps == want.steps
        assert res.boundary_flag == want.boundary_flag
        assert res.walk_counts.tolist() == want.walk_counts.tolist()
        assert systems[i].positions == ref.positions
        assert systems[i].boundary_abort == ref.boundary_abort
        assert systems[i].is_dispersed() == ref.is_dispersed()
        if exp.record_trajectories:
            assert res.trajectories.events == want.trajectories.events
            assert res.trajectories.steps == want.trajectories.steps
        assert res.d_disp == max(topo.distance_to_origin(v) for v in ref.positions)


@pytest.mark.parametrize("family", list(ARRAY_FAMILIES))
@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5), lazy(1.0)], ids=["std", "lazy0.5", "lazy1"])
@pytest.mark.parametrize(
    "budget, record", [(3, False), (3000, True)], ids=["budget-cut", "recorded"]
)
@pytest.mark.parametrize("bins", [True, False], ids=["bincount", "sorted"])
def test_lockstep_array_families_equal_generic_runs(
    monkeypatch, family, variant, budget, record, bins
):
    spec, M = ARRAY_FAMILIES[family]
    # Occupancy by bincount for every family, the unbounded path and grid
    # included (R * span always fits 10**9), or by sorted keys for every one.
    monkeypatch.setattr(engine, "LOCKSTEP_ELEMENTS", 10**9 if bins else 0)
    pools, systems = _kept_systems(monkeypatch, 3)
    exp = ExperimentSpec(
        spec, M, variant, budget=budget, replicas=7, master_seed=5,
        record_trajectories=record,
    )
    results, _ = run_replicas(exp)
    assert pools == [(7, 3)]  # four replicas take over freed slots
    _assert_equal_generic_runs(exp.resolve(), results, systems)
    statuses = {r.status for r in results}
    if budget == 3:
        assert any(r.steps == 3 and r.t_disp is None for r in results)
    elif family == "tree-leaves":
        assert Status.BOUNDARY_HIT in statuses
    else:
        assert Status.DISPERSED in statuses
        assert len({r.t_disp for r in results if r.dispersed}) > 1


@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5)], ids=["std", "lazy0.5"])
def test_lockstep_path_boundary_abort_equals_generic_runs(monkeypatch, variant):
    monkeypatch.setattr(engine, "COORDINATE_LIMIT", 4)
    pools, systems = _kept_systems(monkeypatch, 3)
    exp = ExperimentSpec(
        TopologySpec.path(), 8, variant, budget=3000, replicas=7, master_seed=9,
        record_trajectories=True,
    )
    results, _ = run_replicas(exp)
    assert pools == [(7, 3)]
    _assert_equal_generic_runs(exp, results, systems)
    aborted = [r for r in results if r.status is Status.BOUNDARY_HIT]
    assert aborted and all(r.max_distance_ever == 5 for r in aborted)
    assert len({r.steps for r in results}) > 1  # replicas left the pool apart


@pytest.mark.parametrize(
    "dim, M, limit", [(40, 5, None), (2, 8, 2)], ids=["grid40", "grid2-abort"]
)
def test_lockstep_grid_equals_generic_runs(monkeypatch, dim, M, limit):
    # At reach 1 the keys of grid(40) would need 3^40 > 2^63 slots per
    # replica, so its vertex rows are lexsorted instead.
    if limit is not None:
        monkeypatch.setattr(engine, "COORDINATE_LIMIT", limit)
    pools, systems = _kept_systems(monkeypatch, 3)
    exp = ExperimentSpec(
        TopologySpec.grid(dim), M, lazy(0.5), budget=3000, replicas=7, master_seed=9,
        record_trajectories=True,
    )
    results, _ = run_replicas(exp)
    assert pools == [(7, 3)]
    _assert_equal_generic_runs(exp, results, systems)
    aborted = [r for r in results if r.status is Status.BOUNDARY_HIT]
    if limit is None:
        assert all(r.dispersed for r in results)
    else:
        assert aborted and all(r.max_distance_ever == limit + 1 for r in aborted)


def _laziness_counts(ps):
    """Each particle's count of laziness draws, decoded from its words."""
    return stream_counts(ps._words[1], ps._keys[1]).tolist()


def _placed_on_tree(variant, master, j, **kw):
    """Two particles on depth-1 vertex (j,) of tree(2^40); level 2 has
    about 2^80 vertices, so a move there raises."""
    ps = ParticleSystem(
        TopologySpec.tree(2**40, leaf_depth=0), 2, variant, seed=derive_seed(master, j), **kw
    )
    ps._posv[:] = ps.topo.to_array([(j,), (j,)])
    ps.max_distance_ever = 1
    return ps


@pytest.mark.parametrize(
    "variant, master, last", [(STANDARD, 1, 0), (lazy(0.05), 1, 5)], ids=["std", "lazy0.05"]
)
def test_a_raising_step_leaves_every_lockstep_replica_at_its_last_step(variant, master, last):
    def placed(j, **kw):
        return _placed_on_tree(variant, master, j, **kw)

    systems = [placed(j) for j in range(4)]
    with pytest.raises(ValueError, match="int64"):
        list(lockstep_systems(systems, 50))
    raised_at = []
    for j, ps in enumerate(systems):
        assert (ps.t, ps.meeting_total, ps.walk_counts.tolist()) == (last, last, [0, 0])
        assert ps.positions == [(j,), (j,)] and not ps.is_dispersed()
        ref = placed(j, force_generic=True)
        ref.run(last)
        assert ps.t == ref.t and ps.meeting_total == ref.meeting_total
        if variant.kind == "lazy":
            assert _laziness_counts(ps) == _laziness_counts(ref) == [last, last]
        with pytest.raises(ValueError, match="int64"):
            ref.run(50)
        raised_at.append(ref.t)
    # The batch stopped at the first step at which any of its systems raises.
    assert min(raised_at) == last


@pytest.mark.parametrize("variant", [STANDARD, lazy(0.05)], ids=["std", "lazy0.05"])
def test_a_raising_step_leaves_systems_not_yet_taken_untouched(monkeypatch, variant):
    # Five systems in a pool two wide: the step that raises is taken by
    # the first two, and the other three are still waiting for a slot.
    monkeypatch.setattr(engine, "lockstep_batch_size", lambda topo, M: 2)
    systems = [_placed_on_tree(variant, 3, j) for j in range(5)]
    with pytest.raises(ValueError, match="int64"):
        list(lockstep_systems(iter(systems), 50))
    taken, waiting = systems[:2], systems[2:]
    last = taken[0].t
    raised_at = []
    for j, ps in enumerate(taken):
        assert (ps.t, ps.meeting_total, ps.walk_counts.tolist()) == (last, last, [0, 0])
        assert ps.positions == [(j,), (j,)] and not ps.is_dispersed()
        ref = _placed_on_tree(variant, 3, j, force_generic=True)
        ref.run(last)
        assert ps.t == ref.t and ps.meeting_total == ref.meeting_total
        if variant.kind == "lazy":
            assert _laziness_counts(ps) == _laziness_counts(ref) == [last, last]
        with pytest.raises(ValueError, match="int64"):
            ref.run(50)
        raised_at.append(ref.t)
    assert min(raised_at) == last
    for j, ps in enumerate(waiting, 2):
        assert (ps.t, ps.meeting_total, ps.max_distance_ever) == (0, 0, 1)
        assert ps.walk_counts.tolist() == [0, 0] and ps.positions == [(j,), (j,)]
        assert not ps.is_dispersed() and not ps.boundary_flag
        if variant.kind == "lazy":
            assert _laziness_counts(ps) == [0, 0]
    if variant.kind == "lazy":
        assert last > 0  # steps completed in the pool before the raise


def test_event_cap_applies_when_batch_events_are_read(monkeypatch):
    monkeypatch.setattr(engine, "RECORD_EVENT_CAP", 40)
    pools, systems = _kept_systems(monkeypatch, 3)
    exp = ExperimentSpec(
        TopologySpec.complete(30), 20, budget=1000, replicas=4, master_seed=5,
        record_trajectories=True,
    )
    results, _ = run_replicas(exp)  # the runs are not limited
    assert pools == [(4, 3)]
    for i, (ps, res) in enumerate(zip(systems, results)):
        assert res.dispersed and res.trajectories.steps == ps.t
        walked = int(ps.walk_counts.sum())
        assert walked > 40
        with pytest.raises(RuntimeError, match="40 move events"):
            res.trajectories.events
        assert res.trajectories.positions_at(ps.t) == ps.positions
        ref = ParticleSystem(exp.topology, 20, seed=derive_seed(5, i), force_generic=True)
        ref.record_trajectories(True)
        want = ref.run(1000)
        assert res.to_record() == want.to_record()
        assert ps.walk_counts.tolist() == want.walk_counts.tolist()
        monkeypatch.setattr(engine, "RECORD_EVENT_CAP", walked)
        assert res.trajectories.events == want.trajectories.events
        monkeypatch.setattr(engine, "RECORD_EVENT_CAP", 40)


# -- replicas as rows: blocks of results ---------------------------------------


def _assert_blocks_equal_lone_reference_runs(exp):
    """Every result that replica_results streams from its blocks equals a
    lone run of its seed on the scalar reference loop: its record, step
    count, boundary flag, walk counts and, when recorded, events."""
    got = dict(replica_results(exp))
    assert sorted(got) == list(range(exp.replicas))
    exp = exp.resolve()
    for i, res in got.items():
        ref = ParticleSystem(
            exp.topology, exp.M, exp.variant, derive_seed(exp.master_seed, i), force_generic=True
        )
        ref.record_trajectories(exp.record_trajectories)
        want = ref.run(exp.budget)
        assert res.to_record() == want.to_record()
        assert (res.steps, res.boundary_flag) == (want.steps, want.boundary_flag)
        assert res.walk_counts.tolist() == want.walk_counts.tolist()
        if exp.record_trajectories:
            assert res.trajectories.events == want.trajectories.events
    return [got[i] for i in range(exp.replicas)]


BLOCK_FAMILIES = {"complete-loops": (TopologySpec.complete(12, with_loops=True), 7), **ARRAY_FAMILIES}


@pytest.mark.parametrize("family", list(BLOCK_FAMILIES))
@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5)], ids=["std", "lazy0.5"])
def test_result_blocks_equal_lone_reference_runs(family, variant):
    spec, M = BLOCK_FAMILIES[family]
    exp = ExperimentSpec(spec, M, variant, budget=3000, replicas=9, master_seed=37)
    results = _assert_blocks_equal_lone_reference_runs(exp)
    if family == "tree-leaves":  # the truncated tree: leaves move to their parent
        assert Status.BOUNDARY_HIT in {r.status for r in results}


def test_hundreds_leaving_at_one_step_equal_lone_reference_runs():
    # K_8 with loops, M=5: a first batch of a full width disperses within
    # a few steps, hundreds at a step; 2 * width + 3 replicas take keys
    # from three chunks, and the last ones leave as the pool narrows.
    spec = TopologySpec.complete(8, with_loops=True)
    width = lockstep_batch_size(build(spec), 5)
    exp = ExperimentSpec(spec, 5, replicas=2 * width + 3, master_seed=41)
    results = _assert_blocks_equal_lone_reference_runs(exp)
    assert max(Counter(r.steps for r in results[:width]).values()) >= 100


def test_a_lone_particle_leaves_dispersed_at_entry():
    exp = ExperimentSpec(TopologySpec.grid(2), 1, lazy(0.5), replicas=7, master_seed=43)
    results = _assert_blocks_equal_lone_reference_runs(exp)
    assert all(r.t_disp == 0 and r.walk_counts.tolist() == [0] for r in results)


@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5)], ids=["std", "lazy0.5"])
def test_recorded_blocks_replay_to_the_same_events(variant):
    exp = ExperimentSpec(
        TopologySpec.complete(20), 12, variant, budget=400, replicas=9, master_seed=47,
        record_trajectories=True,
    )
    results = _assert_blocks_equal_lone_reference_runs(exp)
    assert all(not r.trajectories.final.flags.writeable for r in results)


def test_a_block_packages_and_aggregates_as_its_rows():
    # A block's records are its rows' records, and its columns fold to
    # the aggregate of its rows.
    exp = ExperimentSpec(
        TopologySpec.tree(3, leaf_depth=2), 8, lazy(0.5), budget=6, replicas=30, master_seed=53
    )
    blocks = list(result_blocks(exp))
    rows = [res for block in blocks for res in block.rows()]
    assert [rec for block in blocks for rec in block.records()] == [r.to_record() for r in rows]
    assert aggregate_blocks(blocks) == aggregate(rows) == run_replicas(exp)[1]
    assert {r.status for r in rows} == set(Status)


# K_n beside four array families; hypercube(64)'s counts lexsort its rows.
STEPWISE_FAMILIES = {
    "complete": (TopologySpec.complete(20), 12),
    **{f: ARRAY_FAMILIES[f] for f in ("path", "tree-leaves", "grid", "hypercube-64")},
}


@pytest.mark.parametrize("family", list(STEPWISE_FAMILIES))
@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5)], ids=["std", "lazy0.5"])
def test_lockstep_batch_equals_lone_systems_after_every_step(family, variant):
    spec, M = STEPWISE_FAMILIES[family]
    seeds = [derive_seed(17, i) for i in range(4)]
    batch = [ParticleSystem(spec, M, variant, seed) for seed in seeds]
    lone = [ParticleSystem(spec, M, variant, seed) for seed in seeds]
    for t in range(400):
        list(lockstep_systems(batch, t + 1))
        for ps in lone:
            ps._advance(t + 1)
        for b, a in zip(batch, lone):
            assert b.t == a.t
            assert b.positions == a.positions
            assert b.walk_counts.tolist() == a.walk_counts.tolist()
            assert (b.meeting_total, b.max_distance_ever, b.boundary_flag) == (
                a.meeting_total, a.max_distance_ever, a.boundary_flag
            )
        if all(ps.is_dispersed() for ps in lone):
            break
    assert any(ps.is_dispersed() for ps in lone)
    assert len({ps.t for ps in lone}) > 1  # replicas left the batch apart


# Families whose runs last past t=5, with more particles on the grid and
# the hypercube than their other tests use.
POOL_FAMILIES = {
    **{f: STEPWISE_FAMILIES[f] for f in ("complete", "path", "tree-leaves")},
    "grid": (TopologySpec.grid(2), 16),
    "hypercube": (TopologySpec.hypercube(8), 24),
}


@pytest.mark.parametrize("family", list(POOL_FAMILIES))
@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5)], ids=["std", "lazy0.5"])
def test_lockstep_pool_steps_systems_at_different_steps(monkeypatch, family, variant):
    # Five systems in a pool two wide, two of them advanced alone to
    # t=5: one steps beside a fresh one from the start, the other waits
    # and takes over a freed slot, as the fresh ones do, at another step.
    # Each ends as a lone run from t=0 on the reference loop does.
    _assert_pool_matches_lone_runs(monkeypatch, family, variant, width=2)


@pytest.mark.parametrize("family", list(POOL_FAMILIES))
@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5)], ids=["std", "lazy0.5"])
def test_a_pool_one_wide_copies_each_newcomer_in(monkeypatch, family, variant):
    # The same five systems through one slot, refilled four times: each
    # newcomer, fresh or at t=5, is copied in as in a wider pool.
    _assert_pool_matches_lone_runs(monkeypatch, family, variant, width=1)


def _assert_pool_matches_lone_runs(monkeypatch, family, variant, width):
    monkeypatch.setattr(engine, "lockstep_batch_size", lambda topo, M: width)
    spec, M = POOL_FAMILIES[family]
    pooled = [ParticleSystem(spec, M, variant, derive_seed(59, i)) for i in range(5)]
    for ps in pooled[1], pooled[3]:
        ps._advance(5)
        assert ps.t == 5 and not ps.is_dispersed()
    t_end = 40
    left = [i for i, _ in lockstep_systems(iter(pooled), t_end)]
    assert sorted(left) == list(range(5))
    lone = [
        ParticleSystem(spec, M, variant, derive_seed(59, i), force_generic=True)
        for i in range(5)
    ]
    for ps in lone:
        ps._advance(t_end)
    for b, a in zip(pooled, lone):
        assert (b.is_dispersed(), b.boundary_abort) == (a.is_dispersed(), a.boundary_abort)
        _assert_same_state(b, a)
    assert len({ps.t for ps in lone}) > 1


def _assert_same_state(b, a):
    """b and a are at the same step with the same stored state."""
    assert b.t == a.t
    assert b.positions == a.positions
    assert b.walk_counts.tolist() == a.walk_counts.tolist()
    assert b._occ.tolist() == a._occ.tolist()
    assert (b.meeting_total, b.max_distance_ever, b.boundary_flag) == (
        a.meeting_total, a.max_distance_ever, a.boundary_flag
    )
    if a.variant.kind == "lazy":
        assert _laziness_counts(b) == _laziness_counts(a)


@pytest.mark.parametrize("family", list(POOL_FAMILIES))
@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5)], ids=["std", "lazy0.5"])
def test_closing_a_pool_settles_every_live_system(monkeypatch, family, variant):
    # Five systems in a pool two wide, closed as the first one leaves:
    # the other one taken is written back at the pool's step, and the
    # three not yet taken are untouched.
    monkeypatch.setattr(engine, "lockstep_batch_size", lambda topo, M: 2)
    spec, M = POOL_FAMILIES[family]

    def fresh(i, **kw):
        return ParticleSystem(spec, M, variant, derive_seed(61, i), **kw)

    pooled, taken = [fresh(i) for i in range(5)], []

    def queue():
        for i, ps in enumerate(pooled):
            taken.append(i)
            yield ps

    pool = lockstep_systems(queue(), 40)
    first, _ = next(pool)
    pool.close()
    assert taken == [0, 1]
    t = pooled[first].t
    assert t > 0
    for i in taken:
        assert pooled[i].t == t
        ref = fresh(i, force_generic=True)
        ref._advance(t)
        _assert_same_state(pooled[i], ref)
    for i in range(2, 5):
        _assert_same_state(pooled[i], fresh(i))


@pytest.mark.parametrize("family", list(POOL_FAMILIES))
@pytest.mark.parametrize("variant", [STANDARD, lazy(0.5)], ids=["std", "lazy0.5"])
def test_lone_systems_stepped_in_turn_each_keep_their_own_state(family, variant):
    # Three systems of one shape stepped in turn, by step() and by run(),
    # each i + 1 steps a round: between calls each holds its state in
    # arrays that no other system shares, and each ends as a reference
    # run to its own step does.
    spec, M = POOL_FAMILIES[family]

    def fresh(i, **kw):
        return ParticleSystem(spec, M, variant, derive_seed(67, i), **kw)

    systems = [fresh(i) for i in range(3)]
    for _ in range(15):
        systems[0].step()
        for i in (1, 2):
            systems[i].run(systems[i].t + i + 1)
        arrays = [(ps._posv, ps._words, ps._occ) for ps in systems]
        for a, b in itertools.combinations(arrays, 2):
            assert not any(np.shares_memory(x, y) for x in a for y in b)
    assert len({ps.t for ps in systems}) > 1
    for i, ps in enumerate(systems):
        ref = fresh(i, force_generic=True)
        ref._advance(ps.t)
        _assert_same_state(ps, ref)
        assert ps._result().to_record() == ref._result().to_record()


@pytest.mark.parametrize("master", [1, 2, 3])
def test_a_raising_step_after_the_batch_narrowed_settles_every_live_system(monkeypatch, master):
    # Three lazy systems on tree(2^40) in a pool three wide. The first
    # starts with both particles at the root and disperses at its first
    # move; the other two start on depth-1 vertices, where a move raises.
    # Once the first leaves the batch narrows to two, and the step that
    # raises leaves both at their last completed step.
    monkeypatch.setattr(engine, "lockstep_batch_size", lambda topo, M: 3)
    variant = lazy(0.05)

    def rooted(**kw):
        return ParticleSystem(
            TopologySpec.tree(2**40, leaf_depth=0), 2, variant, derive_seed(master, 0), **kw
        )

    def raised_at(j):
        ref = _placed_on_tree(variant, master, j, force_generic=True)
        with pytest.raises(ValueError, match="int64"):
            ref.run(10**4)
        return ref.t

    left_at = rooted(force_generic=True).run(10**4).t_disp
    # The first two placed systems that complete a step in the narrowed batch.
    js = list(itertools.islice((j for j in itertools.count(1) if raised_at(j) > left_at), 2))
    last = min(map(raised_at, js))
    systems = [rooted()] + [_placed_on_tree(variant, master, j) for j in js]
    left = []
    with pytest.raises(ValueError, match="int64"):
        for i, _ in lockstep_systems(iter(systems), 10**4):
            left.append(i)
    assert left == [0] and systems[0].t == left_at
    for j, ps in zip(js, systems[1:]):
        ref = _placed_on_tree(variant, master, j, force_generic=True)
        ref.run(last)
        assert ps.t == last
        _assert_same_state(ps, ref)


def test_cayley_bfs_runs_once_per_group():
    topology._cayley_bfs.cache_clear()
    spec = TopologySpec.cayley((5, 7), [(1, 0), (-1, 0), (0, 1), (0, -1)])
    results, _ = run_replicas(ExperimentSpec(spec, 6, replicas=4, master_seed=2))
    info = topology._cayley_bfs.cache_info()
    # The pool's one build runs the BFS, and its four systems share that
    # topology: none builds its own.
    assert len(results) == 4 and (info.misses, info.hits) == (1, 0)


def test_lockstep_batch_size_batches_every_array_family():
    E = engine.LOCKSTEP_ELEMENTS

    def size(topo, M):
        return lockstep_batch_size(build(ExperimentSpec(topo, M).resolve().topology), M)

    # Bins fit: R (M + n) <= LOCKSTEP_ELEMENTS, as for K_n before.
    assert size(TopologySpec.complete(1000), 600) == E // 1600
    assert size(TopologySpec.cycle(100), 10) == E // 110
    # Unbounded or too many vertices: R M particles, keys sorted.
    assert size(TopologySpec.path(), 100) == E // 100
    assert size(TopologySpec.tree(3), 4096) == E // 4096
    assert size(TopologySpec.hypercube(16), 100) == E // 100
    # Keys past int64 lexsort the rows, so they do not limit a batch.
    assert size(TopologySpec.hypercube(62), 2) == E // 2
    assert size(TopologySpec.grid(2), 10) == E // 10
    assert size(TopologySpec.cayley((4, 3), [(1, 0), (-1, 0), (0, 1), (0, -1)]), 5) == E // 17
    assert size(TopologySpec.hypercube(63), 2) == E // 2
    # Bins that do not fit beside the particles are left out of the sum
    # (M + n = 3E / 2); bins that just fit are charged (M + n = E); past
    # the budget a batch still holds one replica.
    assert size(TopologySpec.complete(E), E // 2) == 2
    assert size(TopologySpec.complete(E // 2), E // 2) == 1
    assert size(TopologySpec.path(), 2 * E) == 1


# K_n, star, cycle, hypercube and cayley shapes whose batches are charged
# their n bins: the batch rule keeps R (M + n), and so R n, within the
# budget that the bincount rule reads.
CHARGED_SHAPES = {
    "complete": (TopologySpec.complete(1000, with_loops=True), 700, lazy(0.5)),
    "star": (TopologySpec.star(2000), 300, STANDARD),
    "cycle": (TopologySpec.cycle(5000), 100, STANDARD),
    "hypercube": (TopologySpec.hypercube(12), 100, STANDARD),
    "cayley": (TopologySpec.cayley((64, 64), [(1, 0), (-1, 0), (0, 1), (0, -1)]), 50, STANDARD),
}


@pytest.mark.parametrize("shape", list(CHARGED_SHAPES))
@pytest.mark.parametrize("budget", ["default", "patched"])
def test_a_full_width_pool_counts_by_bincount(monkeypatch, shape, budget):
    spec, M, variant = CHARGED_SHAPES[shape]
    topo = build(spec)
    n = topo.n_vertices
    if budget == "patched":
        # Two replicas, with M + n - 1 elements of the budget unused.
        monkeypatch.setattr(engine, "LOCKSTEP_ELEMENTS", 3 * (M + n) - 1)
    width = lockstep_batch_size(topo, M)
    # Charged its bins: a replica more would pass the budget.
    assert width * (M + n) <= engine.LOCKSTEP_ELEMENTS < (width + 1) * (M + n)
    counts = []

    class Spy(engine._Occupancy):
        def __call__(self, *args, **kwargs):
            occ = super().__call__(*args, **kwargs)
            counts.append((self.R, self.bins))  # for the span just counted
            return occ

    monkeypatch.setattr(engine, "_Occupancy", Spy)
    list(lockstep_systems([ParticleSystem(spec, M, variant, seed=s) for s in range(width)], 1))
    assert counts[0] == (width, True)


def test_halving_the_budget_leaves_lazy_kn_records_unchanged(monkeypatch):
    # 50 replicas through pools as wide as the default budget and half of
    # it allow (38 and 19 at 2^16): refills and narrowing differ, the
    # records do not.
    exp = ExperimentSpec(
        TopologySpec.complete(1000, with_loops=True), 700, lazy(0.5), replicas=50, master_seed=31
    )
    topo = build(exp.resolve().topology)
    runs = []
    for budget in (engine.LOCKSTEP_ELEMENTS, engine.LOCKSTEP_ELEMENTS // 2):
        monkeypatch.setattr(engine, "LOCKSTEP_ELEMENTS", budget)
        pools, _ = _kept_systems(monkeypatch)
        results, stats = run_replicas(exp)
        assert pools == [(50, lockstep_batch_size(topo, 700))]
        runs.append(([r.to_record() for r in results], [r.walk_counts.tolist() for r in results], stats))
    assert runs[0] == runs[1]


def test_hypercube_past_62_dimensions_batches_by_default(monkeypatch):
    # Keys past int64 no longer cap a batch at one replica.
    exp = ExperimentSpec(TopologySpec.hypercube(64), 128, replicas=6, master_seed=3)
    assert lockstep_batch_size(build(exp.resolve().topology), 128) == engine.LOCKSTEP_ELEMENTS // 128
    pools, systems = _kept_systems(monkeypatch)
    results, _ = run_replicas(exp)
    assert pools == [(6, 6)]
    _assert_equal_generic_runs(exp.resolve(), results, systems)
    assert all(r.dispersed for r in results)


# -- scans -----------------------------------------------------------------------


def test_density_scan_sets_particle_counts():
    base = base_exp(replicas=3)
    points = scan(ScanSpec(base=base, axis=ScanAxis.DENSITY, grid=(0.1, 0.3, 0.5)))
    assert [pt.experiment.M for pt in points] == [4, 12, 20]
    assert [pt.value for pt in points] == [0.1, 0.3, 0.5]
    # Point seeds are derived, so later points do not depend on earlier ones.
    assert [pt.experiment.master_seed for pt in points] == [
        derive_seed(99, i) for i in range(3)
    ]
    # On a tree without a set depth, every point keeps the depth derived
    # for the base M, so M/n is the grid value at each point.
    treebase = base_exp(topology=TopologySpec.tree(3), M=10, replicas=2)
    points = scan(ScanSpec(base=treebase, axis=ScanAxis.DENSITY, grid=(1e-4, 5e-4)))
    n = build(with_leaf_depth(treebase.topology, treebase.M)).n_vertices
    for pt in points:
        assert pt.experiment.topology.leaf_depth == default_leaf_depth(3, 10)
        assert build(pt.experiment.topology).n_vertices == n
        assert pt.experiment.M == round(pt.value * n)


def test_lazy_p_scan_sets_variant():
    base = base_exp(replicas=2, variant=lazy(0.5))
    points = scan(ScanSpec(base=base, axis=ScanAxis.LAZY_P, grid=(0.25, 1.0)))
    assert [pt.experiment.variant.p for pt in points] == [0.25, 1.0]
    assert all(pt.experiment.variant.kind == "lazy" for pt in points)


def test_tree_k_and_grid_dim_scans():
    treebase = base_exp(topology=TopologySpec.tree(3), M=27, replicas=2)
    pts = scan(ScanSpec(base=treebase, axis=ScanAxis.TREE_K, grid=(3.0, 4.0)))
    assert [pt.experiment.topology.k for pt in pts] == [3, 4]
    gridbase = base_exp(topology=TopologySpec.grid(2), M=6, replicas=2)
    pts = scan(ScanSpec(base=gridbase, axis=ScanAxis.GRID_DIM, grid=(2.0, 3.0)))
    assert [pt.experiment.topology.dim for pt in pts] == [2, 3]


def test_scan_progress_names_each_point_before_its_replicas(monkeypatch, capsys):
    monkeypatch.setattr(engine, "lockstep_batch_size", lambda topo, M: 2)
    scan(ScanSpec(base_exp(replicas=3), ScanAxis.LAZY_P, (0.5, 1.0)), progress=True)
    replicas = "".join(f"\rreplica {k}/3" for k in range(1, 4)) + "\n"
    assert capsys.readouterr().err == f"scan lazy-p=0.5\n{replicas}scan lazy-p=1.0\n{replicas}"


def test_scan_validation_errors():
    base = base_exp()
    with pytest.raises(ValueError):
        ScanSpec(base=base, axis=ScanAxis.DENSITY, grid=()).points()
    with pytest.raises(ValueError):
        ScanSpec(base=base, axis=ScanAxis.DENSITY, grid=(0.5, 0.3)).points()
    with pytest.raises(ValueError):
        ScanSpec(base=base, axis=ScanAxis.LAZY_P, grid=(0.0, 0.5)).points()
    with pytest.raises(ValueError):
        ScanSpec(base=base, axis=ScanAxis.TREE_K, grid=(3.0, 4.0)).points()
    with pytest.raises(ValueError):
        ScanSpec(base=base, axis=ScanAxis.TREE_K, grid=(3.5,)).points()
    cube_base = base_exp(topology=TopologySpec.hypercube(3), M=2)
    with pytest.raises(ValueError, match="^grid-dim scan needs a grid topology$"):
        ScanSpec(base=cube_base, axis=ScanAxis.GRID_DIM, grid=(2.0,)).points()
    for value in (1.5, 0.0):
        with pytest.raises(ValueError, match="^grid-dim grid values must be integers >= 1$"):
            ScanSpec(base=base_exp(topology=TopologySpec.grid(2), M=2), axis=ScanAxis.GRID_DIM,
                     grid=(value,)).points()
    path_base = base_exp(topology=TopologySpec.path(), M=6)
    with pytest.raises(ValueError):
        ScanSpec(base=path_base, axis=ScanAxis.DENSITY, grid=(0.5,)).points()
    tree_base = base_exp(topology=TopologySpec.tree(3), M=6)
    grid_base = base_exp(topology=TopologySpec.grid(2), M=6)
    for b, axis in ((base, ScanAxis.DENSITY), (tree_base, ScanAxis.TREE_K), (grid_base, ScanAxis.GRID_DIM)):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                ScanSpec(base=b, axis=axis, grid=(value,)).points()


def test_scan_grid_refuses_a_non_number_by_name():
    with pytest.raises(ValueError, match="^scan grid value must be a number, got '0.2'$"):
        ScanSpec(base_exp(), ScanAxis.DENSITY, (0.1, "0.2"))


def test_scan_grid_refuses_a_non_sequence_by_name():
    for grid in (0.5, None, "0.1,0.2", iter((0.1, 0.2))):
        with pytest.raises(ValueError, match="^scan grid must be a sequence of numbers, got "):
            ScanSpec(base_exp(), ScanAxis.DENSITY, grid)
    # A one-dimensional array is a sequence of numbers.
    assert ScanSpec(base_exp(), ScanAxis.DENSITY, np.array([0.1, 0.2])).grid == (0.1, 0.2)


def test_scan_grid_given_as_a_list_is_its_tuple():
    listed = ScanSpec(base_exp(), ScanAxis.DENSITY, [0.1, 0.2])
    given = ScanSpec(base_exp(), ScanAxis.DENSITY, (0.1, 0.2))
    assert listed == given and hash(listed) == hash(given)


@pytest.mark.parametrize(
    "tree", [TopologySpec.tree(3, leaf_depth=0), TopologySpec.tree(2)], ids=["k3-depth0", "k2"]
)
def test_density_scan_refuses_infinite_tree(tree):
    # An infinite tree has no n to measure a density against; k = 2
    # resolves to depth 0, so it is infinite too.
    base = base_exp(topology=tree, M=10, replicas=2)
    with pytest.raises(ValueError, match="finite vertex set"):
        scan(ScanSpec(base=base, axis=ScanAxis.DENSITY, grid=(0.1,)))


# Density grids whose later point is refused: past K_20's n, and past
# the n = 256 of hypercube(8).
INVALID_SCANS = [
    (TopologySpec.complete(20, with_loops=True), (0.5, 2.0), "M=40 outside"),
    (TopologySpec.hypercube(8), (0.01, 2.0), "M=512 outside"),
]


@pytest.mark.parametrize("topo, grid, match", INVALID_SCANS, ids=["past-n", "hypercube-past-n"])
def test_scan_refuses_an_invalid_point_before_running_any(monkeypatch, topo, grid, match):
    calls = []
    result_blocks = harness.result_blocks

    def counted(exp, **kw):
        calls.append(exp)
        return result_blocks(exp, **kw)

    monkeypatch.setattr(harness, "result_blocks", counted)
    base = base_exp(topology=topo, M=5, replicas=2)
    with pytest.raises(ValueError, match=match):
        scan(ScanSpec(base=base, axis=ScanAxis.DENSITY, grid=grid))
    assert calls == []
    # Without the invalid point the scan runs.
    assert len(scan(ScanSpec(base=base, axis=ScanAxis.DENSITY, grid=grid[:1]))) == len(calls) == 1


# -- coupling audit ----------------------------------------------------------------


def recorded_run(spec, seed, budget=2000, variant=None):
    kw = {"variant": variant} if variant else {}
    ps = ParticleSystem(spec, 2, seed=seed, **kw)
    ps.record_trajectories(True)
    return ps.run(budget)


def test_coupling_audit_line_example():
    r = recorded_run(TopologySpec.path(), seed=11)
    assert pair_coupling_audit(r.trajectories) == (3, 3)


def test_coupling_audit_counts_empty_prefix():
    # Both particles start together, so the empty difference walk is a
    # return and meetings start at 1; the bound holds from step zero.
    for spec in (TopologySpec.path(), TopologySpec.grid(2), TopologySpec.hypercube(6)):
        for seed in range(25):
            r = recorded_run(spec, seed)
            meetings, combined = pair_coupling_audit(r.trajectories)
            assert meetings >= 1
            assert combined >= meetings


def test_coupling_audit_counts_are_pinned():
    # (meetings, combined returns) of seeds 0-4, as the per-family
    # difference walk counted them.
    once = [(1, 1), (1, 1), (3, 3), (1, 1), (1, 1)]
    lazy_once = [(1, 1), (1, 1), (4, 3), (1, 1), (1, 1)]
    want = {
        (Family.PATH, "std"): [(5, 5), (1, 1), (3, 3), (1, 1), (1, 1)],
        (Family.PATH, "lazy0.5"): lazy_once,
        (Family.GRID, "std"): once,
        (Family.GRID, "lazy0.5"): lazy_once,
        (Family.HYPERCUBE, "std"): once,
        (Family.HYPERCUBE, "lazy0.5"): lazy_once,
    }
    for spec in (TopologySpec.path(), TopologySpec.grid(2), TopologySpec.hypercube(6)):
        for name, variant in (("std", None), ("lazy0.5", lazy(0.5))):
            got = [
                pair_coupling_audit(recorded_run(spec, seed, variant=variant).trajectories)
                for seed in range(5)
            ]
            assert got == want[spec.family, name], (spec, name)


def test_coupling_audit_rejects_bad_inputs():
    r = recorded_run(TopologySpec.path(), seed=0)
    with pytest.raises(ValueError):
        pair_coupling_audit(r.trajectories, 0, 0)
    with pytest.raises(ValueError):
        pair_coupling_audit(r.trajectories, 0, 5)
    star = ParticleSystem(TopologySpec.star(4), 2, seed=1)
    star.record_trajectories(True)
    rs = star.run(100)
    with pytest.raises(ValueError, match="not defined"):
        pair_coupling_audit(rs.trajectories)


# -- validation suite ----------------------------------------------------------------


def test_validate_suite_quick_passes(quick_report):
    report = quick_report
    assert report.passed, str(report)
    assert len(report.checks) == 13
    assert not report.failures
    text = str(report)
    assert "13/13 checks passed" in text
