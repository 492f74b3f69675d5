"""End-to-end acceptance runs.

Each test prints one [PASS]/[FAIL] line on the terminal (bypassing
capture) so the whole suite reads as a checklist. Tolerances and step
budgets come from the closed-form oracles where one exists; statistical
criteria use fractions over fixed replica counts with frozen master
seeds.
"""

import math

import numpy as np
import pytest

from disperse.engine import ParticleSystem, Status, WalkMode, lazy
from disperse.harness import (
    ExperimentSpec,
    grid_step_budget,
    run_replicas,
)
from disperse.oracles import (
    kn_subcritical_time,
    lazy_subcritical_time,
    path_distance_bounds,
    tree_depth_bounds,
)
from disperse.topology import TopologySpec, build
from disperse.validate import (
    _check_coupling,
    _check_edh_forms,
    _check_hypercube_matrix,
    _check_kn_changes_mc,
    _check_lazy_range_mc,
    _check_line_pmf,
)


def report(capsys, criterion, passed, detail):
    with capsys.disabled():
        print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def K1000(loops=True):
    return TopologySpec.complete(1000, with_loops=loops)


def test_criterion_1_complete_subcritical(capsys):
    t_bound = kn_subcritical_time(1000, 0.2)  # 70
    exp = ExperimentSpec(
        topology=K1000(), M=400, replicas=100, budget=10**4, master_seed=101
    )
    _, stats = run_replicas(exp)
    ok = (
        stats.dispersed == 100
        and stats.t_disp["p50"] <= t_bound
        and stats.t_disp["max"] <= 2 * t_bound
    )
    report(
        capsys,
        "criterion 1 (complete graph, subcritical)",
        ok,
        f"{stats.dispersed}/100 dispersed, median t {stats.t_disp['p50']} <= {t_bound}, "
        f"max t {stats.t_disp['max']} <= {2 * t_bound}",
    )


def test_criterion_2_complete_supercritical(capsys):
    exp = ExperimentSpec(
        topology=K1000(), M=600, replicas=20, budget=10**5, master_seed=202
    )
    _, stats = run_replicas(exp)
    ok = stats.dispersed == 0
    report(
        capsys,
        "criterion 2 (complete graph, supercritical)",
        ok,
        f"{stats.dispersed}/20 dispersed within 1e5 steps (want 0)",
    )


def test_criterion_3a_lazy_fast_side(capsys):
    budget = 5 * lazy_subcritical_time(1000, 0.5, 0.05)  # 5530
    exp = ExperimentSpec(
        topology=K1000(),
        M=700,
        variant=lazy(0.5),
        replicas=100,
        budget=budget,
        master_seed=301,
    )
    _, stats = run_replicas(exp)
    ok = stats.dispersed == 100
    report(
        capsys,
        "criterion 3a (lazy, fast side of the threshold)",
        ok,
        f"{stats.dispersed}/100 dispersed within {budget} steps",
    )


def test_criterion_3b_lazy_slow_side(capsys):
    exp = ExperimentSpec(
        topology=K1000(),
        M=800,
        variant=lazy(0.5),
        replicas=20,
        budget=10**5,
        master_seed=302,
    )
    _, stats = run_replicas(exp)
    ok = stats.dispersed == 0
    report(
        capsys,
        "criterion 3b (lazy, slow side of the threshold)",
        ok,
        f"{stats.dispersed}/20 dispersed within 1e5 steps (want 0); "
        "the no-dispersal guarantee is asymptotic and does not bind at "
        "n=1000, p=0.5, margin 0.05 - see ROADMAP.md item 6",
    )


def test_criterion_3c_lazy_p1_equals_standard(capsys):
    mismatches = 0
    for seed in range(50):
        a = ParticleSystem(K1000(), 400, seed=seed)
        b = ParticleSystem(K1000(), 400, seed=seed, variant=lazy(1.0))
        a.record_trajectories(True)
        b.record_trajectories(True)
        ra, rb = a.run(10**4), b.run(10**4)
        if (
            ra.trajectories.events != rb.trajectories.events
            or ra.t_disp != rb.t_disp
        ):
            mismatches += 1
    ok = mismatches == 0
    report(
        capsys,
        "criterion 3c (lazy p=1 replays the standard process)",
        ok,
        f"{mismatches}/50 shared-seed trajectory mismatches (want 0)",
    )


def test_criterion_4_path_bounds(capsys):
    M = 100
    lo, hi = path_distance_bounds(M, 0.2)  # 50, ~2210.5
    t_bound = M**3 * math.log(M)  # ~4.6e6
    reach_bound = 6 * M * math.log(M)  # ~2763
    exp = ExperimentSpec(
        topology=TopologySpec.path(), M=M, replicas=50, budget=10**7, master_seed=404
    )
    results, stats = run_replicas(exp)
    dispersed = [r for r in results if r.status is Status.DISPERSED]
    ok = bool(dispersed) and all(
        lo <= r.d_disp <= hi
        and r.t_disp <= t_bound
        and r.max_distance_ever <= reach_bound
        for r in dispersed
    )
    d_lo = min((r.d_disp for r in dispersed), default=None)
    d_hi = max((r.d_disp for r in dispersed), default=None)
    report(
        capsys,
        "criterion 4 (line distance and time bounds)",
        ok,
        f"{len(dispersed)}/50 dispersed, d_disp in [{d_lo}, {d_hi}] within "
        f"[{lo}, {hi:.0f}], max t {stats.t_disp['max']} <= {t_bound:.2g}, "
        f"max reach {stats.max_distance['max']} <= {reach_bound:.0f}",
    )


def test_criterion_5_tree_depth_band(capsys):
    exp = ExperimentSpec(
        topology=TopologySpec.tree(3), M=4096, replicas=50, master_seed=505
    ).resolve()
    lo, hi = tree_depth_bounds(3, 4096, 0.2)
    band_lo, band_hi = 13, 30  # ceil band with +-2 slack
    assert band_lo <= math.ceil(lo) and math.ceil(hi) <= band_hi
    pigeon = build(exp.topology).pigeonhole_radius(4096)  # 11
    results, _ = run_replicas(exp)
    clean = [r for r in results if r.status is not Status.BOUNDARY_HIT]
    disp = [r for r in clean if r.status is Status.DISPERSED]
    in_band = sum(band_lo <= r.d_disp <= band_hi for r in disp)
    too_shallow = sum(r.d_disp < pigeon for r in disp)
    ok = (
        len(clean) == 50
        and len(disp) >= 1
        and in_band >= 0.95 * len(clean)
        and too_shallow == 0
    )
    report(
        capsys,
        "criterion 5 (tree dispersal depth band)",
        ok,
        f"{in_band}/{len(clean)} non-boundary runs with d_disp in "
        f"[{band_lo}, {band_hi}], {too_shallow} below pigeonhole radius {pigeon}",
    )


def test_criterion_6_grid_budget(capsys):
    budget = grid_step_budget(50, 20.0)  # 391203
    exp = ExperimentSpec(
        topology=TopologySpec.grid(2),
        M=50,
        replicas=50,
        budget=budget,
        omega=20.0,
        master_seed=606,
    )
    _, stats = run_replicas(exp)
    ok = stats.dispersed >= 0.95 * 50
    report(
        capsys,
        "criterion 6 (2-d grid step budget)",
        ok,
        f"{stats.dispersed}/50 dispersed within {budget} steps",
    )


def test_criterion_7_hypercube(capsys):
    d, M = 16, 100
    budget = (M // 2) * (d**3 // 4)  # 51200
    exp = ExperimentSpec(
        topology=TopologySpec.hypercube(d),
        M=M,
        replicas=50,
        budget=budget,
        master_seed=707,
    )
    results, stats = run_replicas(exp)
    near = sum(r.max_distance_ever <= d // 2 for r in results)
    ok = stats.dispersed >= 0.95 * 50 and near >= 0.95 * 50
    report(
        capsys,
        "criterion 7 (hypercube time and confinement)",
        ok,
        f"{stats.dispersed}/50 dispersed within {budget}, "
        f"{near}/50 stayed within distance {d // 2}",
    )


def test_criterion_8_oracle_exactness(capsys):
    rng = np.random.default_rng(0x0815)
    checks = [
        _check_line_pmf(8),
        _check_hypercube_matrix(6, 40),
        _check_edh_forms(),
        _check_kn_changes_mc(rng, 10**6),
        _check_lazy_range_mc(rng, 10**6),
    ]
    bad = [c for c in checks if not c.passed]
    ok = not bad
    report(
        capsys,
        "criterion 8 (oracle exactness)",
        ok,
        "pmf exhaustive to T=8, matrix powers to 1e-12, both change "
        "formulas within 3 SE of 1e6-trial Monte Carlo"
        if ok
        else "; ".join(c.line() for c in bad),
    )


def test_criterion_9_coupling_audit(capsys):
    result = _check_coupling(seeds=1000)
    report(
        capsys,
        "criterion 9 (meetings bounded by combined returns)",
        result.passed,
        f"{result.observed} across line, grid and hypercube",
    )


def _invariant_sweep(runs):
    """Randomised invariant checks; returns a list of violation strings."""
    rng = np.random.default_rng(0xACC10)
    problems = []
    pool = [
        lambda: TopologySpec.complete(int(rng.integers(4, 24)), with_loops=bool(rng.integers(2))),
        lambda: TopologySpec.star(int(rng.integers(3, 12))),
        lambda: TopologySpec.path(),
        lambda: TopologySpec.cycle(int(rng.integers(4, 16))),
        lambda: TopologySpec.tree(int(rng.integers(2, 5))),
        lambda: TopologySpec.grid(int(rng.integers(1, 4))),
        lambda: TopologySpec.hypercube(int(rng.integers(3, 7))),
        lambda: TopologySpec.cayley((4, 3), [(1, 0), (-1, 0), (0, 1), (0, -1)]),
    ]
    for i in range(runs):
        spec = pool[i % len(pool)]()
        topo = build(spec)
        cap = 8 if topo.n_vertices is None else max(2, topo.n_vertices // 2)
        m = int(rng.integers(2, min(8, cap) + 1))
        seed = int(rng.integers(0, 2**63))
        variant = [None, lazy(0.5), lazy(1.0)][i % 3]
        kw = {"variant": variant} if variant else {}
        ps = ParticleSystem(spec, m, seed=seed, **kw)
        standard = variant is None
        steps = 0
        for _ in range(40):
            if ps.is_dispersed():
                break
            before = ps.positions
            occ = {}
            for v in before:
                occ[v] = occ.get(v, 0) + 1
            rep = ps.step()
            steps += 1
            after = ps.positions
            if len(after) != m or not all(topo.contains(v) for v in after):
                problems.append(f"{spec.family.value}: conservation broke")
            if any(
                occ[before[pid]] == 1 and after[pid] != before[pid]
                for pid in range(m)
            ):
                problems.append(f"{spec.family.value}: happy particle moved")
            if standard and rep.movers < 2:
                problems.append(f"{spec.family.value}: undispersed step moved < 2")
        if standard and int(ps.walk_counts.sum()) < 2 * steps:
            problems.append(f"{spec.family.value}: total walk length < 2t")
        if topo.is_bipartite():
            counts = ps.walk_counts
            for pid, v in enumerate(ps.positions):
                if topo.distance_to_origin(v) % 2 != int(counts[pid]) % 2:
                    problems.append(f"{spec.family.value}: parity broke")
                    break
        if ps.is_dispersed():
            frozen = ps.positions
            rep = ps.step()
            if rep.movers or ps.positions != frozen:
                problems.append(f"{spec.family.value}: dispersal not absorbing")
            d_disp = max(topo.distance_to_origin(v) for v in frozen)
            if d_disp < topo.pigeonhole_radius(m):
                problems.append(f"{spec.family.value}: below pigeonhole radius")
        if i % 5 == 0:
            a = ParticleSystem(spec, m, seed=seed, walk_mode=WalkMode.ON_DEMAND, **kw)
            b = ParticleSystem(spec, m, seed=seed, walk_mode=WalkMode.PREDETERMINED, **kw)
            ra, rb = a.run(300), b.run(300)
            if a.positions != b.positions or ra.t_disp != rb.t_disp:
                problems.append(f"{spec.family.value}: walk modes diverged")
    return problems


def test_criterion_10_invariant_suite(capsys):
    problems = _invariant_sweep(160)
    ok = not problems
    report(
        capsys,
        "criterion 10 (engine invariant suite)",
        ok,
        "160 randomized runs, 0 invariant violations"
        if ok
        else f"{len(problems)} violations, first: {problems[0]}",
    )
