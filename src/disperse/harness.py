"""Replicated experiments, aggregation, threshold scans and the pair
coupling audit.

Replica i of an experiment runs with seed derive_seed(master_seed, i),
so result lists are a pure function of (spec, master_seed) and do not
depend on the parallelism level. Replicas of a complete-graph experiment
are stepped in lockstep chunks (`engine.advance_lockstep`), which gives
the same bits as stepping them one by one. Scans derive one sub-master
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
from typing import Optional

from .engine import (
    DEFAULT_BUDGET,
    STANDARD,
    ParticleSystem,
    RunResult,
    Status,
    TrajectoryLog,
    Variant,
    WalkMode,
    advance_lockstep,
    lazy,
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
        if self.omega is not None and self.omega <= 0:
            raise ValueError("omega must be positive")

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
            cap = math.sqrt(2**topo.dim) / omega
            if self.M > cap:
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
        "t_disp_min",
        "t_disp_p25",
        "t_disp_p50",
        "t_disp_p75",
        "t_disp_p95",
        "t_disp_max",
        "d_disp_min",
        "d_disp_p25",
        "d_disp_p50",
        "d_disp_p75",
        "d_disp_p95",
        "d_disp_max",
        "max_distance_min",
        "max_distance_p25",
        "max_distance_p50",
        "max_distance_p75",
        "max_distance_p95",
        "max_distance_max",
        "mean_meetings",
    )

    def to_row(self) -> dict:
        row = {
            "replicas": self.replicas,
            "boundary_hits": self.boundary_hits,
            "dispersed": self.dispersed,
            "dispersal_fraction": self.dispersal_fraction,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "mean_meetings": self.mean_meetings,
        }
        for prefix, q in (
            ("t_disp", self.t_disp),
            ("d_disp", self.d_disp),
            ("max_distance", self.max_distance),
        ):
            for key in _QUANTILE_KEYS:
                row[f"{prefix}_{key}"] = q[key]
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


# Replicas of a complete-graph experiment are stepped in lockstep, in
# chunks of at most this many particles plus vertices, R * (M + n).
# Larger chunks cost memory and gain little speed.
LOCKSTEP_ELEMENTS = 2**15


def _replica_chunk(job: tuple[ExperimentSpec, list[int]]) -> list[RunResult]:
    exp, seeds = job
    systems = [
        ParticleSystem(
            exp.topology, exp.M, variant=exp.variant, seed=seed, walk_mode=exp.walk_mode
        )
        for seed in seeds
    ]
    if exp.record_trajectories:
        for ps in systems:
            ps.record_trajectories(True)
    if len(systems) > 1:
        advance_lockstep(systems, exp.budget)
    return [ps.run(exp.budget) for ps in systems]


def _chunk_size(exp: ExperimentSpec, workers: int) -> int:
    if exp.topology.family is not Family.COMPLETE:
        return 1
    size = max(1, LOCKSTEP_ELEMENTS // (exp.M + exp.topology.n))
    # Leave no worker idle.
    return min(size, -(-exp.replicas // workers))


def run_replicas(
    exp: ExperimentSpec, parallelism: int = 1, progress: bool = False
) -> tuple[list[RunResult], AggregateStats]:
    exp = exp.resolve()
    seeds = [derive_seed(exp.master_seed, i) for i in range(exp.replicas)]
    # More workers than replicas or cores only costs process start-up.
    workers = min(parallelism, exp.replicas, os.cpu_count() or 1)
    size = _chunk_size(exp, workers)
    jobs = [(exp, seeds[i : i + size]) for i in range(0, exp.replicas, size)]
    results: list[RunResult] = []
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            chunk = max(1, len(jobs) // (workers * 4))
            outputs = pool.map(_replica_chunk, jobs, chunksize=chunk)
        else:
            outputs = map(_replica_chunk, jobs)
        for res in outputs:
            results.extend(res)
            if progress:
                print(f"\rreplica {len(results)}/{exp.replicas}", end="", file=sys.stderr)
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
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("scan grid must be strictly increasing")
        axis = ScanAxis(self.axis)
        fam = self.base.topology.family
        if axis is ScanAxis.DENSITY:
            if self.base.topology.family in (Family.PATH, Family.GRID):
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
    its own inverse, so j's moves enter un-negated. Origin visits are
    counted over every prefix of Y including the empty one. For the
    standard variant a co-occupied pair always moves, so each meeting
    lands on a distinct prefix and combined_returns >= meetings; lazy
    runs can break that by keeping both particles in place.
    """
    fam = log.spec.family
    if fam not in _AUDIT_FAMILIES:
        raise ValueError(f"coupling audit is not defined for family {fam.value!r}")
    if i == j or not (0 <= i < log.particles) or not (0 <= j < log.particles):
        raise ValueError("need two distinct recorded particles")
    per = log.per_particle()
    moves_i, moves_j = per[i], per[j]

    if fam is Family.HYPERCUBE:
        state = 0
        combine_i = combine_j = lambda s, src, dest: s ^ (src ^ dest)
        is_zero = lambda s: s == 0
    elif fam is Family.PATH:
        state = 0
        combine_i = lambda s, src, dest: s + (dest - src)
        combine_j = lambda s, src, dest: s - (dest - src)
        is_zero = lambda s: s == 0
    else:
        dim = log.spec.dim
        state = (0,) * dim
        combine_i = lambda s, src, dest: tuple(
            a + (d - c) for a, c, d in zip(s, src, dest)
        )
        combine_j = lambda s, src, dest: tuple(
            a - (d - c) for a, c, d in zip(s, src, dest)
        )
        is_zero = lambda s: all(a == 0 for a in s)

    meetings = 0
    returns = 1 if is_zero(state) else 0
    pos_i = pos_j = log.origin
    ptr_i = ptr_j = 0
    for t in range(log.steps):
        if pos_i == pos_j:
            meetings += 1
        if ptr_i < len(moves_i) and moves_i[ptr_i][0] == t:
            dest = moves_i[ptr_i][1]
            state = combine_i(state, pos_i, dest)
            pos_i = dest
            ptr_i += 1
            if is_zero(state):
                returns += 1
        if ptr_j < len(moves_j) and moves_j[ptr_j][0] == t:
            dest = moves_j[ptr_j][1]
            state = combine_j(state, pos_j, dest)
            pos_j = dest
            ptr_j += 1
            if is_zero(state):
                returns += 1
    return meetings, returns
