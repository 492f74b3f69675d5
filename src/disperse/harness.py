"""Replicated experiments, aggregation, threshold scans and the pair
coupling audit.

Replica i of an experiment runs with seed derive_seed(master_seed, i),
so result lists are a pure function of (spec, master_seed) and do not
depend on the parallelism level. Replicas are stepped in lockstep
(`engine.lockstep_pool`), which gives the same bits as stepping them
one by one. A serial run is one pool over every seed: it holds at most
`engine.lockstep_batch_size` replicas live, derives stream keys for
that many seeds at a time in one pass, hands the pool a replica's
system only once a slot frees, and packages each result as its replica
leaves. A parallel run splits the seeds into contiguous runs, one pool
each, about four per worker but none narrower than a full width (or a
worker's share, where that is smaller). Scans derive one sub-master
per grid point the same way.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .engine import (
    DEFAULT_BUDGET,
    STANDARD,
    ParticleSystem,
    RunResult,
    Status,
    TrajectoryLog,
    Variant,
    WalkMode,
    lazy,
    lockstep_batch_size,
    lockstep_pool,
    stream_keys,
)
from .rng import derive_seed
from .topology import Family, TopologySpec, build, with_leaf_depth

__all__ = [
    "DEFAULT_GRID_OMEGA",
    "DEFAULT_HYPERCUBE_OMEGA",
    "ExperimentSpec",
    "AggregateStats",
    "ScanAxis",
    "ScanSpec",
    "ScanPoint",
    "wilson_interval",
    "nearest_rank_quantiles",
    "aggregate",
    "run_replicas",
    "scan",
    "grid_step_budget",
    "pair_coupling_audit",
]

# The step-bound and particle-cap schedules leave a free factor omega;
# these are the defaults recorded in every output.
DEFAULT_GRID_OMEGA = 20.0
DEFAULT_HYPERCUBE_OMEGA = 2.0

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class ExperimentSpec:
    topology: TopologySpec
    M: int
    variant: Variant = STANDARD
    budget: int = DEFAULT_BUDGET
    replicas: int = 1
    master_seed: int = 0
    record_trajectories: bool = False
    walk_mode: WalkMode = WalkMode.ON_DEMAND
    omega: Optional[float] = None

    def validate(self):
        self.topology.validate()
        if self.M < 1:
            raise ValueError("need at least one particle")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if self.omega is not None and not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")

    def resolve(self) -> "ExperimentSpec":
        """Fill derived defaults: tree leaf depth from the particle
        count, omega by family, and enforce the hypercube particle cap
        M <= sqrt(n)/omega."""
        self.validate()
        topo = with_leaf_depth(self.topology, self.M)
        omega = self.omega
        if omega is None:
            if topo.family is Family.GRID:
                omega = DEFAULT_GRID_OMEGA
            elif topo.family is Family.HYPERCUBE:
                omega = DEFAULT_HYPERCUBE_OMEGA
        if topo.family is Family.HYPERCUBE:
            # The cap is the float sqrt(2^dim)/omega = 2^(dim // 2) * q,
            # compared with M exactly as the fraction q = num/den times a
            # power of two: 2^dim as a float overflows past 1023 dimensions.
            q = math.sqrt(2 ** (topo.dim % 2)) / omega
            num, den = q.as_integer_ratio()
            if self.M * den > num << topo.dim // 2:
                cap = math.ldexp(q, topo.dim // 2)
                raise ValueError(
                    f"M={self.M} exceeds the hypercube cap sqrt(n)/omega = {cap:.1f}"
                )
        return dataclasses.replace(self, topology=topo, omega=omega)


def grid_step_budget(M: int, omega: float) -> int:
    """Dispersal step allowance on the 2-D grid: 2 omega M^2 ln M."""
    if M < 2:
        raise ValueError("need M >= 2")
    return math.ceil(2.0 * omega * M * M * math.log(M))


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


_QUANTILE_KEYS = ("min", "p25", "p50", "p75", "p95", "max")
# The AggregateStats fields that hold nearest_rank_quantiles dicts.
_QUANTILE_FIELDS = ("t_disp", "d_disp", "max_distance")


def nearest_rank_quantiles(values) -> dict[str, Optional[float]]:
    """Nearest-rank quantiles: q_p = sorted[ceil(p/100 * N) - 1]."""
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return {k: None for k in _QUANTILE_KEYS}
    out = {"min": vals[0], "max": vals[-1]}
    for p, key in ((25, "p25"), (50, "p50"), (75, "p75"), (95, "p95")):
        out[key] = vals[max(0, math.ceil(p / 100 * n) - 1)]
    return {k: out[k] for k in _QUANTILE_KEYS}


@dataclass(frozen=True)
class AggregateStats:
    replicas: int
    boundary_hits: int
    dispersed: int
    dispersal_fraction: float
    ci_lo: float
    ci_hi: float
    t_disp: dict
    d_disp: dict
    max_distance: dict
    mean_meetings: float

    # Fixed CSV column order; the writer and README both lean on this.
    COLUMNS = (
        "replicas",
        "boundary_hits",
        "dispersed",
        "dispersal_fraction",
        "ci_lo",
        "ci_hi",
        *(f"{q}_{key}" for q in _QUANTILE_FIELDS for key in _QUANTILE_KEYS),
        "mean_meetings",
    )

    def to_row(self) -> dict:
        """The CSV row: each quantile dict flattened to prefix_key cells."""
        row = dataclasses.asdict(self)
        for q in _QUANTILE_FIELDS:
            row.update((f"{q}_{key}", v) for key, v in row.pop(q).items())
        return {c: row[c] for c in self.COLUMNS}


def aggregate(results: list[RunResult]) -> AggregateStats:
    """Deterministic fold over a seed-ordered result list. Boundary
    hits are counted separately and excluded from every statistic;
    dispersal quantiles cover dispersed runs only."""
    clean = [r for r in results if r.status is not Status.BOUNDARY_HIT]
    dispersed = [r for r in clean if r.status is Status.DISPERSED]
    n = len(clean)
    frac = len(dispersed) / n if n else 0.0
    lo, hi = wilson_interval(len(dispersed), n)
    return AggregateStats(
        replicas=len(results),
        boundary_hits=len(results) - n,
        dispersed=len(dispersed),
        dispersal_fraction=frac,
        ci_lo=lo,
        ci_hi=hi,
        t_disp=nearest_rank_quantiles([r.t_disp for r in dispersed]),
        d_disp=nearest_rank_quantiles([r.d_disp for r in dispersed]),
        max_distance=nearest_rank_quantiles([r.max_distance_ever for r in clean]),
        mean_meetings=(sum(r.meeting_total for r in clean) / n) if n else 0.0,
    )


def _pool_results(exp: ExperimentSpec, seeds: list[int]) -> Iterator[tuple[int, RunResult]]:
    """(i, result of seeds[i]) as each replica leaves one lockstep pool
    over `seeds`. A replica's system is built only once a slot is free,
    from stream keys derived in one pass for a chunk of seeds: the first
    seed alone, whose topology gives the pool's width, then that many at
    a time, so at most one chunk waits."""

    def systems():
        start, width = 0, 1
        while start < len(seeds):
            chunk = seeds[start : start + width]
            for seed, keys in zip(chunk, stream_keys(chunk, exp.M, exp.variant)):
                ps = ParticleSystem(
                    exp.topology, exp.M, variant=exp.variant, seed=seed,
                    walk_mode=exp.walk_mode, keys=keys,
                )
                if exp.record_trajectories:
                    ps.record_trajectories(True)
                yield ps
            start += len(chunk)
            width = lockstep_batch_size(ps.topo, exp.M)

    for i, ps in lockstep_pool(systems(), exp.budget):
        yield i, ps.run(exp.budget)


def _replica_pool(job: tuple[ExperimentSpec, list[int]]) -> list[RunResult]:
    exp, seeds = job
    results: list = [None] * len(seeds)
    for i, res in _pool_results(exp, seeds):
        results[i] = res
    return results


def run_replicas(
    exp: ExperimentSpec, parallelism: int = 1, progress: bool = False
) -> tuple[list[RunResult], AggregateStats]:
    exp = exp.resolve()
    seeds = [derive_seed(exp.master_seed, i) for i in range(exp.replicas)]
    # More workers than replicas or cores only costs process start-up.
    workers = min(parallelism, exp.replicas, os.cpu_count() or 1)
    results: list = [None] * exp.replicas
    finished = 0
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # About four jobs per worker, for load balance and progress,
            # but none so small that its pool cannot fill its width when
            # a worker's share could.
            width = lockstep_batch_size(build(exp.topology), exp.M)
            share = -(-exp.replicas // workers)
            size = max(min(width, share), -(-exp.replicas // (4 * workers)))
            starts = range(0, exp.replicas, size)
            jobs = [(exp, seeds[i : i + size]) for i in starts]
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            outputs = zip(starts, pool.map(_replica_pool, jobs))
        else:
            # One pool over every seed: each replica is reported as it leaves.
            outputs = ((i, [res]) for i, res in _pool_results(exp, seeds))
        for i, res in outputs:
            results[i : i + len(res)] = res
            finished += len(res)
            if progress:
                print(f"\rreplica {finished}/{exp.replicas}", end="", file=sys.stderr)
    if progress:
        print(file=sys.stderr)
    return results, aggregate(results)


class ScanAxis(str, Enum):
    DENSITY = "density"
    LAZY_P = "lazy-p"
    TREE_K = "tree-k"
    GRID_DIM = "grid-dim"


@dataclass(frozen=True)
class ScanSpec:
    base: ExperimentSpec
    axis: ScanAxis
    grid: tuple

    def validate(self):
        self.base.validate()
        if not self.grid:
            raise ValueError("scan grid must be non-empty")
        if not all(math.isfinite(v) for v in self.grid):
            raise ValueError("scan grid values must be finite")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("scan grid must be strictly increasing")
        axis = ScanAxis(self.axis)
        fam = self.base.topology.family
        if axis is ScanAxis.DENSITY:
            # On the graph _apply_axis measures the density against.
            topo = with_leaf_depth(self.base.topology, self.base.M)
            if build(topo).n_vertices is None:
                raise ValueError("density scan needs a finite vertex set")
        elif axis is ScanAxis.LAZY_P:
            if any(not 0 < v <= 1 for v in self.grid):
                raise ValueError("lazy-p grid values must be in (0, 1]")
        elif axis is ScanAxis.TREE_K:
            if fam is not Family.TREE:
                raise ValueError("tree-k scan needs a tree topology")
            if any(int(v) != v or v < 3 for v in self.grid):
                raise ValueError("tree-k grid values must be integers >= 3")
        elif axis is ScanAxis.GRID_DIM:
            if fam is not Family.GRID:
                raise ValueError("grid-dim scan needs a grid topology")
            if any(int(v) != v or v < 1 for v in self.grid):
                raise ValueError("grid-dim grid values must be integers >= 1")


@dataclass(frozen=True)
class ScanPoint:
    value: float
    experiment: ExperimentSpec
    stats: AggregateStats


def _apply_axis(base: ExperimentSpec, axis: ScanAxis, value) -> ExperimentSpec:
    if axis is ScanAxis.DENSITY:
        # Fix the tree depth at the base's, so every point runs on the
        # graph whose n the density is measured against.
        topo = with_leaf_depth(base.topology, base.M)
        n = build(topo).n_vertices
        M = round(value * n)
        if not 1 <= M <= n:
            raise ValueError(f"density {value} gives M={M} outside [1, {n}]")
        return dataclasses.replace(base, topology=topo, M=M)
    if axis is ScanAxis.LAZY_P:
        return dataclasses.replace(base, variant=lazy(float(value)))
    if axis is ScanAxis.TREE_K:
        topo = dataclasses.replace(base.topology, k=int(value))
        return dataclasses.replace(base, topology=topo)
    if axis is ScanAxis.GRID_DIM:
        topo = dataclasses.replace(base.topology, dim=int(value))
        return dataclasses.replace(base, topology=topo)
    raise ValueError(f"unknown axis {axis!r}")


def scan(
    s: ScanSpec, parallelism: int = 1, progress: bool = False
) -> list[ScanPoint]:
    """One aggregated row per grid value, in grid order. Grid point i
    runs under sub-master derive_seed(master_seed, i)."""
    s.validate()
    axis = ScanAxis(s.axis)
    points = []
    for i, value in enumerate(s.grid):
        exp = _apply_axis(s.base, axis, value)
        exp = dataclasses.replace(exp, master_seed=derive_seed(s.base.master_seed, i))
        exp = exp.resolve()
        if progress:
            print(f"scan {axis.value}={value}", file=sys.stderr)
        _, stats = run_replicas(exp, parallelism=parallelism, progress=progress)
        points.append(ScanPoint(float(value), exp, stats))
    return points


# -- meeting vs combined-return coupling ------------------------------------


_AUDIT_FAMILIES = (Family.PATH, Family.GRID, Family.HYPERCUBE)


def pair_coupling_audit(log: TrajectoryLog, i: int = 0, j: int = 1) -> tuple[int, int]:
    """Count step-start co-occupancies of particles i and j against the
    origin visits of the interleaved difference walk Y.

    Y applies i's displacements and j's negated displacements in time
    order (i first within a step); on the hypercube the XOR group is
    its own inverse, so j's moves enter un-negated. Both particles start
    at the origin, so Y is pos_i - pos_j (pos_i XOR pos_j on the cube)
    after every move, and Y is at the origin exactly when the two
    positions are equal. Origin visits are counted over every prefix of
    Y including the empty one. For the standard variant a co-occupied
    pair always moves, so each meeting lands on a distinct prefix and
    combined_returns >= meetings; lazy runs can break that by keeping
    both particles in place.
    """
    fam = log.spec.family
    if fam not in _AUDIT_FAMILIES:
        raise ValueError(f"coupling audit is not defined for family {fam.value!r}")
    if i == j or not (0 <= i < log.particles) or not (0 <= j < log.particles):
        raise ValueError("need two distinct recorded particles")
    # A particle moves at most once per step: its moves by step.
    per = log.per_particle()
    moves_i, moves_j = dict(per[i]), dict(per[j])
    pos_i = pos_j = log.origin
    meetings, returns = 0, 1  # the empty prefix of Y is at the origin
    for t in range(log.steps):
        meetings += pos_i == pos_j
        if t in moves_i:
            pos_i = moves_i[t]
            returns += pos_i == pos_j
        if t in moves_j:
            pos_j = moves_j[t]
            returns += pos_i == pos_j
    return meetings, returns
