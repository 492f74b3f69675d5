import dataclasses
import math
import os

import numpy as np
import pytest

from disperse import engine, harness, topology
from disperse.engine import STANDARD, ParticleSystem, RunResult, Status, advance_lockstep, lazy
from disperse.harness import (
    DEFAULT_GRID_OMEGA,
    DEFAULT_HYPERCUBE_OMEGA,
    AggregateStats,
    ExperimentSpec,
    ScanAxis,
    ScanSpec,
    aggregate,
    grid_step_budget,
    nearest_rank_quantiles,
    pair_coupling_audit,
    run_replicas,
    scan,
    wilson_interval,
)
from disperse.rng import derive_seed
from disperse.topology import TopologySpec, build, default_leaf_depth, with_leaf_depth
from disperse.validate import validate_suite


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
    assert grid.omega == DEFAULT_GRID_OMEGA
    cube = ExperimentSpec(topology=TopologySpec.hypercube(16), M=10).resolve()
    assert cube.omega == DEFAULT_HYPERCUBE_OMEGA
    tree = ExperimentSpec(topology=TopologySpec.tree(3), M=4096).resolve()
    assert tree.topology.leaf_depth == 37
    comp = ExperimentSpec(topology=TopologySpec.complete(10), M=4).resolve()
    assert comp.omega is None
    # Resolution is idempotent.
    assert grid.resolve() == grid


def test_resolve_enforces_hypercube_cap():
    # sqrt(2^4)/2 = 2 particles at most.
    exp = ExperimentSpec(topology=TopologySpec.hypercube(4), M=10)
    with pytest.raises(ValueError, match="cap"):
        exp.resolve()
    override = dataclasses.replace(exp, omega=0.1)
    assert override.resolve().M == 10


def test_experiment_validation_errors():
    good = ExperimentSpec(topology=TopologySpec.complete(10), M=4)
    good.validate()
    for bad in (
        dataclasses.replace(good, M=0),
        dataclasses.replace(good, budget=0),
        dataclasses.replace(good, replicas=0),
        dataclasses.replace(good, omega=-1.0),
    ):
        with pytest.raises(ValueError):
            bad.validate()


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


def test_worker_count_capped_by_replicas_and_cores(monkeypatch):
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
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


def test_run_replicas_stats_match_aggregate():
    results, stats = run_replicas(base_exp())
    assert stats == aggregate(results)


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
    # Chunks of three replicas: seven replicas run as 3 + 3 + 1.
    monkeypatch.setattr(harness, "LOCKSTEP_ELEMENTS", 3 * (n + M))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    batches, systems = [], []

    def lockstep(batch, t_end):
        batches.append(len(batch))
        advance_lockstep(batch, t_end)

    class Kept(ParticleSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(self)

    monkeypatch.setattr(harness, "advance_lockstep", lockstep)
    monkeypatch.setattr(harness, "ParticleSystem", Kept)
    exp = ExperimentSpec(
        TopologySpec.complete(n, with_loops=loops), M, variant, budget=budget,
        replicas=7, master_seed=5, record_trajectories=record,
    )
    results, _ = run_replicas(exp, parallelism=parallelism)
    if parallelism == 1:
        assert batches == [3, 3]  # the lone last replica runs on its own
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
        assert res.d_disp == max(topo.distance_to_origin(v) for v in positions[i])

    statuses = {r.status for r in results}
    if M == 1:
        assert all(r.t_disp == 0 for r in results)
    elif budget == 4:
        assert Status.BUDGET_EXHAUSTED in statuses
    else:
        assert statuses == {Status.DISPERSED}
        assert len({r.t_disp for r in results}) > 1


def test_lockstep_rejects_systems_out_of_step():
    spec = TopologySpec.complete(20)
    a, b = ParticleSystem(spec, 15, seed=1), ParticleSystem(spec, 15, seed=2)
    a.step()
    with pytest.raises(ValueError, match="lockstep"):
        advance_lockstep([a, b], 10)
    with pytest.raises(ValueError, match="lockstep"):
        advance_lockstep([b, ParticleSystem(spec, 14, seed=3)], 10)
    with pytest.raises(ValueError, match="lockstep"):
        advance_lockstep([b, ParticleSystem(spec, 15, seed=3, force_generic=True)], 10)
    assert b.t == 0


# Every array-kernel family but K_n, with the particle counts its tests use.
ARRAY_FAMILIES = {
    "star": (TopologySpec.star(12), 6),
    "cycle": (TopologySpec.cycle(15), 7),
    "path": (TopologySpec.path(), 6),
    "hypercube": (TopologySpec.hypercube(8), 8),
    "tree": (TopologySpec.tree(3), 12),
    # Eight particles on ten vertices: truncated leaves move to their parent.
    "tree-leaves": (TopologySpec.tree(3, leaf_depth=2), 8),
    "grid": (TopologySpec.grid(2), 6),
    "cayley": (TopologySpec.cayley((4, 3), [(1, 0), (-1, 0), (0, 1), (0, -1)]), 5),
}


def _kept_systems(monkeypatch, chunk):
    """Run run_replicas in chunks of `chunk` replicas, keeping every
    ParticleSystem it makes and the size of every lockstep batch."""
    batches, systems = [], []

    def lockstep(batch, t_end):
        batches.append(len(batch))
        advance_lockstep(batch, t_end)

    class Kept(ParticleSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(self)

    monkeypatch.setattr(harness, "advance_lockstep", lockstep)
    monkeypatch.setattr(harness, "ParticleSystem", Kept)
    monkeypatch.setattr(harness, "_chunk_size", lambda exp, workers: chunk)
    return batches, systems


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
    batches, systems = _kept_systems(monkeypatch, 3)
    exp = ExperimentSpec(
        spec, M, variant, budget=budget, replicas=7, master_seed=5,
        record_trajectories=record,
    )
    results, _ = run_replicas(exp)
    assert batches == [3, 3]  # the lone last replica runs on its own
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
    batches, systems = _kept_systems(monkeypatch, 7)
    exp = ExperimentSpec(
        TopologySpec.path(), 8, variant, budget=3000, replicas=7, master_seed=9,
        record_trajectories=True,
    )
    results, _ = run_replicas(exp)
    assert batches == [7]
    _assert_equal_generic_runs(exp, results, systems)
    aborted = [r for r in results if r.status is Status.BOUNDARY_HIT]
    assert aborted and all(r.max_distance_ever == 5 for r in aborted)
    assert len({r.steps for r in results}) > 1  # replicas left the batch apart


@pytest.mark.parametrize(
    "dim, M, limit", [(40, 5, None), (2, 8, 2)], ids=["grid40", "grid2-abort"]
)
def test_lockstep_grid_equals_generic_runs(monkeypatch, dim, M, limit):
    # At reach 1 the keys of grid(40) would need 3^40 > 2^63 slots per
    # replica, so its vertices are ranked instead.
    if limit is not None:
        monkeypatch.setattr(engine, "COORDINATE_LIMIT", limit)
    batches, systems = _kept_systems(monkeypatch, 7)
    exp = ExperimentSpec(
        TopologySpec.grid(dim), M, lazy(0.5), budget=3000, replicas=7, master_seed=9,
        record_trajectories=True,
    )
    results, _ = run_replicas(exp)
    assert batches == [7]
    _assert_equal_generic_runs(exp, results, systems)
    aborted = [r for r in results if r.status is Status.BOUNDARY_HIT]
    if limit is None:
        assert all(r.dispersed for r in results)
    else:
        assert aborted and all(r.max_distance_ever == limit + 1 for r in aborted)


def test_event_cap_leaves_every_lockstep_replica_at_its_last_step(monkeypatch):
    monkeypatch.setattr(engine, "RECORD_EVENT_CAP", 40)
    batches, systems = _kept_systems(monkeypatch, 4)
    exp = ExperimentSpec(
        TopologySpec.complete(30), 20, budget=1000, replicas=4, master_seed=5,
        record_trajectories=True,
    )
    with pytest.raises(RuntimeError, match="40 move events"):
        run_replicas(exp)
    assert batches == [4]
    for i, ps in enumerate(systems):
        log = ps._log
        assert int(ps.walk_counts.sum()) == len(log.events) <= 40
        assert ps.positions == log.positions_at(ps.t)
        assert ps.t == log.steps
        ref = ParticleSystem(exp.topology, 20, seed=derive_seed(5, i), force_generic=True)
        want = ref.run(ps.t)
        assert (ps.meeting_total, ps.max_distance_ever, ps.is_dispersed()) == (
            want.meeting_total, want.max_distance_ever, want.dispersed
        )
        assert ps.walk_counts.tolist() == want.walk_counts.tolist()


def test_cayley_bfs_runs_once_per_group(monkeypatch):
    calls = []
    bfs = topology._Cayley._bfs
    monkeypatch.setattr(
        topology._Cayley, "_bfs", staticmethod(lambda *args: calls.append(args) or bfs(*args))
    )
    topology._cayley_tables.cache_clear()
    spec = TopologySpec.cayley((5, 7), [(1, 0), (-1, 0), (0, 1), (0, -1)])
    results, _ = run_replicas(ExperimentSpec(spec, 6, replicas=4, master_seed=2))
    assert len(results) == 4 and len(calls) == 1


def test_chunk_size_batches_every_array_family(monkeypatch):
    def size(topo, M, replicas=10**6):
        return harness._chunk_size(ExperimentSpec(topo, M, replicas=replicas).resolve(), 1)

    # Bins fit: R (M + n) <= LOCKSTEP_ELEMENTS, as for K_n before.
    assert size(TopologySpec.complete(1000), 600) == 2**15 // 1600
    assert size(TopologySpec.cycle(100), 10) == 2**15 // 110
    # Unbounded or too many vertices: R M particles, keys sorted.
    assert size(TopologySpec.path(), 100) == 2**15 // 100
    assert size(TopologySpec.tree(3), 4096) == 8
    assert size(TopologySpec.hypercube(16), 100) == 2**15 // 100
    # No more replicas than the keys of one int64 allow.
    assert size(TopologySpec.hypercube(62), 2, replicas=10) == 1
    assert size(TopologySpec.grid(2), 10) == 2**15 // 10
    assert size(TopologySpec.cayley((4, 3), [(1, 0), (-1, 0), (0, 1), (0, -1)]), 5) == 2**15 // 17
    # Only a hypercube past 62 dimensions has no array form: one replica at a time.
    assert size(TopologySpec.hypercube(63), 2) == 1
    # Never more replicas than a worker's share.
    assert size(TopologySpec.path(), 100, replicas=10) == 10


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


def test_scan_validation_errors():
    base = base_exp()
    with pytest.raises(ValueError):
        ScanSpec(base=base, axis=ScanAxis.DENSITY, grid=()).validate()
    with pytest.raises(ValueError):
        ScanSpec(base=base, axis=ScanAxis.DENSITY, grid=(0.5, 0.3)).validate()
    with pytest.raises(ValueError):
        ScanSpec(base=base, axis=ScanAxis.LAZY_P, grid=(0.0, 0.5)).validate()
    with pytest.raises(ValueError):
        ScanSpec(base=base, axis=ScanAxis.TREE_K, grid=(3.0, 4.0)).validate()
    with pytest.raises(ValueError):
        ScanSpec(base=base, axis=ScanAxis.TREE_K, grid=(3.5,)).validate()
    path_base = base_exp(topology=TopologySpec.path(), M=6)
    with pytest.raises(ValueError):
        ScanSpec(base=path_base, axis=ScanAxis.DENSITY, grid=(0.5,)).validate()


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


def test_validate_suite_quick_passes():
    report = validate_suite(quick=True)
    assert report.passed, str(report)
    assert len(report.checks) == 14
    assert not report.failures
    text = str(report)
    assert "14/14 checks passed" in text
    doc = report.to_json()
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} == {c.name for c in report.checks}
