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

`replica_results` yields each result as its replica leaves (serial)
or as its job returns (parallel); `run_replicas` collects them, and
`scan` and `disperse run` fold the stream into `aggregate`, so neither
holds a result once the fold has read it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

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
from .rng import derive_seed, split_key_array
from .topology import Family, TopologySpec, as_float, as_int, build, with_leaf_depth

__all__ = [
    "ExperimentSpec",
    "AggregateStats",
    "ScanAxis",
    "ScanSpec",
    "ScanPoint",
    "wilson_interval",
    "nearest_rank_quantiles",
    "aggregate",
    "replica_results",
    "run_replicas",
    "scan",
    "grid_step_budget",
    "pair_coupling_audit",
]

# The standard normal quantile of a two-sided 95% interval.
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

    def __post_init__(self):
        for name in ("M", "budget", "replicas", "master_seed"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        if self.M < 1:
            raise ValueError("need at least one particle")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.replicas < 1:
            raise ValueError("need at least one replica")

    def resolve(self) -> "ExperimentSpec":
        """Fill in a tree's unset leaf depth from M; refuses nothing."""
        return dataclasses.replace(self, topology=with_leaf_depth(self.topology, self.M))


def grid_step_budget(M: int, omega: float) -> int:
    """Dispersal step allowance on the 2-D grid: 2 omega M^2 ln M."""
    if M < 2:
        raise ValueError("need M >= 2")
    return math.ceil(2.0 * omega * M * M * math.log(M))


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The 95% Wilson score interval for a success fraction."""
    if trials == 0:
        return 0.0, 1.0
    z = _Z95
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


def aggregate(results: Iterable[RunResult]) -> AggregateStats:
    """Deterministic fold, in one pass, over results in any order: it
    reads only each result's status, t_disp, d_disp, max_distance_ever
    and meeting_total, so anything with those fields will do. Boundary
    hits are counted separately and excluded from every statistic;
    dispersal quantiles cover dispersed runs only."""
    replicas = meetings = 0
    t_disp, d_disp, max_distance = [], [], []
    for r in results:
        replicas += 1
        if r.status is Status.BOUNDARY_HIT:
            continue
        max_distance.append(r.max_distance_ever)
        meetings += r.meeting_total
        if r.status is Status.DISPERSED:
            t_disp.append(r.t_disp)
            d_disp.append(r.d_disp)
    n = len(max_distance)
    lo, hi = wilson_interval(len(t_disp), n)
    return AggregateStats(
        replicas=replicas,
        boundary_hits=replicas - n,
        dispersed=len(t_disp),
        dispersal_fraction=len(t_disp) / n if n else 0.0,
        ci_lo=lo,
        ci_hi=hi,
        t_disp=nearest_rank_quantiles(t_disp),
        d_disp=nearest_rank_quantiles(d_disp),
        max_distance=nearest_rank_quantiles(max_distance),
        mean_meetings=meetings / n if n else 0.0,
    )


def _pool_results(exp: ExperimentSpec, seeds: list[int]) -> Iterator[tuple[int, RunResult]]:
    """(i, result of seeds[i]) as each replica leaves one lockstep pool
    over `seeds`. A replica's system is built only once a slot is free,
    on the pool's one topology, from stream keys derived in one pass for
    a chunk of seeds, a pool width at a time, so at most one chunk waits.
    It holds only its keys until its slot is filled from them."""
    topo = build(exp.topology)
    width = lockstep_batch_size(topo, exp.M)

    def systems():
        for start in range(0, len(seeds), width):
            chunk = seeds[start : start + width]
            for seed, keys in zip(chunk, stream_keys(chunk, exp.M, exp.variant)):
                ps = ParticleSystem(topo, exp.M, variant=exp.variant, seed=seed, keys=keys)
                if exp.record_trajectories:
                    ps.record_trajectories(True)
                yield ps

    for i, ps in lockstep_pool(systems(), exp.budget):
        yield i, ps._result()


def _replica_pool(job: tuple[ExperimentSpec, list[int]]) -> list[RunResult]:
    exp, seeds = job
    results: list = [None] * len(seeds)
    for i, res in _pool_results(exp, seeds):
        results[i] = res
    return results


def replica_results(
    exp: ExperimentSpec, parallelism: int = 1, progress: bool = False
) -> Iterator[tuple[int, RunResult]]:
    """(i, result of replica i) for every replica of `exp`, as each
    leaves its lockstep pool (serial) or as its job returns (parallel),
    so a caller can fold the results without holding them all. The
    arguments are checked and `exp` resolved when this is called."""
    parallelism = as_int("parallelism", parallelism)
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    exp = exp.resolve()
    # derive_seed(master_seed, i) of every replica i, in one pass.
    seeds = split_key_array([exp.master_seed], exp.replicas)[0].tolist()
    # More workers than replicas or cores only costs process start-up.
    workers = min(parallelism, exp.replicas, os.cpu_count() or 1)
    return _replica_stream(exp, seeds, workers, progress)


def _replica_stream(
    exp: ExperimentSpec, seeds: list[int], workers: int, progress: bool
) -> Iterator[tuple[int, RunResult]]:
    finished = 0
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # Imported here: a serial run loads no process machinery.
            from concurrent.futures import ProcessPoolExecutor

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
            finished += len(res)
            if progress:
                print(f"\rreplica {finished}/{exp.replicas}", end="", file=sys.stderr)
            for j, r in enumerate(res, i):
                yield j, r
    if progress:
        print(file=sys.stderr)


def run_replicas(
    exp: ExperimentSpec, parallelism: int = 1, progress: bool = False
) -> tuple[list[RunResult], AggregateStats]:
    """Every replica's result, in seed order, and their aggregate."""
    results: list = [None] * exp.replicas
    for i, res in replica_results(exp, parallelism, progress):
        results[i] = res
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

    def __post_init__(self):
        grid = self.grid
        if isinstance(grid, np.ndarray) and grid.ndim == 1:
            grid = grid.tolist()
        if isinstance(grid, (str, bytes)) or not isinstance(grid, Sequence):
            raise ValueError(f"scan grid must be a sequence of numbers, got {grid!r}")
        object.__setattr__(self, "grid", tuple(as_float("scan grid value", v) for v in grid))
        if not self.grid:
            raise ValueError("scan grid must be non-empty")
        if not all(math.isfinite(v) for v in self.grid):
            raise ValueError("scan grid values must be finite")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("scan grid must be strictly increasing")
        object.__setattr__(self, "axis", ScanAxis(self.axis))

    def points(self) -> list[ExperimentSpec]:
        """Every grid point's resolved experiment, under sub-master
        derive_seed(master_seed, i), in grid order. Raises on the first
        grid value its axis cannot apply (`_apply_axis`), so a grid can
        be checked, or a point replayed, before anything runs; a
        malformed grid is refused already when the ScanSpec is made."""
        return [
            dataclasses.replace(
                _apply_axis(self.base, self.axis, value),
                master_seed=derive_seed(self.base.master_seed, i),
            ).resolve()
            for i, value in enumerate(self.grid)
        ]


@dataclass(frozen=True)
class ScanPoint:
    value: float
    experiment: ExperimentSpec
    stats: AggregateStats


def _apply_axis(base: ExperimentSpec, axis: ScanAxis, value) -> ExperimentSpec:
    """The base with one grid value applied, unresolved. Refuses a value
    the axis cannot apply: a density needs a finite graph and M in [1, n],
    tree-k and grid-dim values must be integers (the grid holds floats),
    and grid-dim needs a grid, since a hypercube also takes `dim`."""
    if axis is ScanAxis.DENSITY:
        # Fix the tree depth at the base's, so every point runs on the
        # graph whose n the density is measured against.
        topo = with_leaf_depth(base.topology, base.M)
        n = build(topo).n_vertices
        if n is None:
            raise ValueError("density scan needs a finite vertex set")
        M = round(value * n)
        if not 1 <= M <= n:
            raise ValueError(f"density {value} gives M={M} outside [1, {n}]")
        return dataclasses.replace(base, topology=topo, M=M)
    if axis is ScanAxis.LAZY_P:
        return dataclasses.replace(base, variant=lazy(value))
    if axis is ScanAxis.TREE_K:
        if int(value) != value or value < 3:
            raise ValueError("tree-k grid values must be integers >= 3")
        topo = dataclasses.replace(base.topology, k=int(value))
        return dataclasses.replace(base, topology=topo)
    if axis is ScanAxis.GRID_DIM:
        if base.topology.family is not Family.GRID:
            raise ValueError("grid-dim scan needs a grid topology")
        if int(value) != value or value < 1:
            raise ValueError("grid-dim grid values must be integers >= 1")
        topo = dataclasses.replace(base.topology, dim=int(value))
        return dataclasses.replace(base, topology=topo)
    raise ValueError(f"unknown axis {axis!r}")


def scan(
    s: ScanSpec, parallelism: int = 1, progress: bool = False
) -> list[ScanPoint]:
    """One aggregated row per grid value, in grid order: each point of
    `s.points()`, all resolved before any runs, so an invalid point costs
    no replicas. A point's results are folded into its aggregate as
    they come, and none is kept."""
    points = []
    for value, exp in zip(s.grid, s.points()):
        if progress:
            print(f"scan {s.axis.value}={value}", file=sys.stderr)
        stream = replica_results(exp, parallelism=parallelism, progress=progress)
        points.append(ScanPoint(value, exp, aggregate(res for _, res in stream)))
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
