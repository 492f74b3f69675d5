"""Synchronous dispersion process engine.

Semantics: at the start of each step every particle sharing its
vertex with another is unhappy (decided on the step-start occupancy
snapshot); unhappy particles move to a uniformly random neighbour,
all moves applied simultaneously. The lazy variant moves each
unhappy particle independently with probability p. The process is
over once every vertex holds at most one particle.

Randomness: particle i owns two counter-based streams keyed by
(seed, i, tag) with tags {direction, laziness}, so trajectories are
a pure function of (spec, M, variant, seed, budget) and are identical
whether draws are made one at a time by the generic path or
batch-evaluated by the vectorised complete-graph path. The two walk
modes run the same code: a counter-based draw needs no buffer, so
`walk_mode` has no effect on results and is kept only so that
configs naming either mode still replay.

Occupancy is a hash multiset iterating only multi-occupied vertices,
so per-step cost tracks the unhappy count, not M. The Complete
family gets a numpy fast path with bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, NamedTuple, Optional

import numpy as np

from .rng import (
    DIRECTION_TAG,
    LAZINESS_TAG,
    MASK64,
    draw,
    draw_array,
    stream_key,
    to_unit,
    to_unit_array,
)
from .topology import COORDINATE_LIMIT, Family, Topology, TopologySpec, build

__all__ = [
    "SCHEMA",
    "RECORD_EVENT_CAP",
    "DEFAULT_BUDGET",
    "Status",
    "WalkMode",
    "Variant",
    "STANDARD",
    "lazy",
    "StepReport",
    "TrajectoryLog",
    "RunResult",
    "ParticleSystem",
    "init",
    "step",
    "run",
    "is_dispersed",
    "happy_unhappy_counts",
    "record_trajectories",
]

SCHEMA = "disperse/1"

# Trajectory recording refuses runs beyond this many move events.
RECORD_EVENT_CAP = 50_000_000

# Supercritical runs never end on their own; a hard cap is mandatory.
DEFAULT_BUDGET = 10**7


class Status(str, Enum):
    DISPERSED = "dispersed"
    BUDGET_EXHAUSTED = "budget_exhausted"
    BOUNDARY_HIT = "boundary_hit"


class WalkMode(str, Enum):
    """Accepted so that configs naming either mode replay; both modes
    run the same code and give identical results."""

    ON_DEMAND = "on-demand"
    PREDETERMINED = "predetermined"


@dataclass(frozen=True)
class Variant:
    kind: str = "standard"  # "standard" | "lazy"
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in ("standard", "lazy"):
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.kind == "lazy" and not 0.0 < self.p <= 1.0:
            raise ValueError("lazy move probability must be in (0, 1]")


STANDARD = Variant("standard")


def lazy(p: float) -> Variant:
    return Variant("lazy", p)


class StepReport(NamedTuple):
    movers: int
    newly_happy: int
    newly_unhappy: int
    pairwise_meetings: int
    dispersed_after: bool


@dataclass
class TrajectoryLog:
    """Move events of one run: (step, particle, destination), in
    application order. Positions are reconstructed by replaying
    events on top of the shared origin.
    """

    spec: TopologySpec
    particles: int
    origin: Any
    seed: int
    events: list = field(default_factory=list)
    steps: int = 0

    def per_particle(self) -> list[list[tuple[int, Any]]]:
        out: list[list[tuple[int, Any]]] = [[] for _ in range(self.particles)]
        for t, pid, dest in self.events:
            out[pid].append((t, dest))
        return out

    def positions_at(self, t: int) -> list[Any]:
        """Positions at the start of step t (t <= steps)."""
        pos = [self.origin] * self.particles
        for et, pid, dest in self.events:
            if et >= t:
                break
            pos[pid] = dest
        return pos


@dataclass
class RunResult:
    status: Status
    steps: int
    t_disp: Optional[int]
    d_disp: int
    max_distance_ever: int
    meeting_total: int
    walk_counts: np.ndarray
    seed: int
    boundary_flag: bool = False
    trajectories: Optional[TrajectoryLog] = None

    @property
    def dispersed(self) -> bool:
        return self.status is Status.DISPERSED

    def to_record(self) -> dict:
        counts = np.sort(self.walk_counts)
        m = len(counts)
        median = int(counts[(m + 1) // 2 - 1]) if m else 0
        return {
            "schema": SCHEMA,
            "status": self.status.value,
            "t_disp": self.t_disp,
            "d_disp": self.d_disp,
            "max_distance_ever": self.max_distance_ever,
            "meeting_total": self.meeting_total,
            "walk_steps_min": int(counts[0]) if m else 0,
            "walk_steps_median": median,
            "walk_steps_max": int(counts[-1]) if m else 0,
            "seed": self.seed,
        }


class ParticleSystem:
    """Mutable state of one run. Single-threaded by contract:
    exclusive mutation, no cross-system sharing.
    """

    def __init__(
        self,
        spec: TopologySpec,
        particles: int,
        variant: Variant = STANDARD,
        seed: int = 0,
        walk_mode: WalkMode = WalkMode.ON_DEMAND,
        force_generic: bool = False,
    ):
        if particles < 1:
            raise ValueError("need at least one particle")
        topo = build(spec)
        if topo.n_vertices is not None and particles > topo.n_vertices:
            raise ValueError(
                f"{particles} particles cannot disperse on {topo.n_vertices} vertices"
            )
        self.spec = spec
        self.topo: Topology = topo
        self.particles = particles
        self.variant = variant
        self.walk_mode = WalkMode(walk_mode)
        self.seed = seed & MASK64
        self.t = 0
        self.meeting_total = 0
        self.max_distance_ever = 0
        self.boundary_flag = False  # truncated-leaf forcing fired
        self.boundary_abort = False  # coordinate limit exceeded
        self._log: Optional[TrajectoryLog] = None

        self._dkeys = [stream_key(self.seed, i, DIRECTION_TAG) for i in range(particles)]
        self._lazy = variant.kind == "lazy"
        if self._lazy:
            self._lkeys = [stream_key(self.seed, i, LAZINESS_TAG) for i in range(particles)]
        else:
            self._lkeys = None

        self._fast = spec.family is Family.COMPLETE and not force_generic
        if self._fast:
            self._n = topo.n_vertices
            self._posv = np.zeros(particles, dtype=np.int64)
            self._N = np.zeros(particles, dtype=np.int64)
            self._dkv = np.array(self._dkeys, dtype=np.uint64)
            if self._lazy:
                self._lkv = np.array(self._lkeys, dtype=np.uint64)
                self._Lv = np.zeros(particles, dtype=np.int64)
            self._dispersed = particles == 1
        else:
            self._pos: list[Any] = [topo.origin] * particles
            self._Ns: list[int] = [0] * particles
            self._L = [0] * particles if self._lazy else None
            origin = topo.origin
            self._vert: dict[Any, set[int]] = {origin: set(range(particles))}
            self._multi: set[Any] = {origin} if particles >= 2 else set()
            # Truncated-tree leaves force a parent move; watch for it.
            self._leafwatch = (
                spec.family is Family.TREE and bool(getattr(topo, "leaf_depth", 0))
            )

    # -- queries -------------------------------------------------------

    @property
    def positions(self) -> list[Any]:
        if self._fast:
            return self._posv.tolist()
        return list(self._pos)

    @property
    def walk_counts(self) -> np.ndarray:
        if self._fast:
            return self._N.copy()
        return np.array(self._Ns, dtype=np.int64)

    def is_dispersed(self) -> bool:
        if self._fast:
            return self._dispersed
        return not self._multi

    def _unhappy_ids(self) -> set[int]:
        if self._fast:
            counts = np.bincount(self._posv, minlength=self._n)
            return set(np.flatnonzero(counts[self._posv] >= 2).tolist())
        return {pid for v in self._multi for pid in self._vert[v]}

    def happy_unhappy_counts(self) -> tuple[int, int]:
        unhappy = len(self._unhappy_ids())
        return self.particles - unhappy, unhappy

    def record_trajectories(self, on: bool) -> None:
        if on:
            if self.t > 0:
                raise RuntimeError("trajectory recording must be enabled before the first step")
            self._log = TrajectoryLog(
                self.spec, self.particles, self.topo.origin, self.seed
            )
        else:
            self._log = None

    # -- stepping, generic path -----------------------------------------

    def _run_generic(self, t_end: int) -> None:
        vert = self._vert
        multi = self._multi
        pos = self._pos
        N = self._Ns
        dkeys = self._dkeys
        topo = self.topo
        deg = topo.degree
        nbr = topo.neighbor
        dist = topo.distance_to_origin
        lazyv = self._lazy
        p = self.variant.p
        lkeys = self._lkeys
        lcnt = self._L
        leafwatch = self._leafwatch
        unbounded = topo.unbounded
        log = self._log
        events = log.events if log is not None else None
        flag = self.boundary_flag
        t = self.t
        meetings_total = self.meeting_total
        maxd = self.max_distance_ever
        _draw = draw
        _unit = to_unit

        while multi and t < t_end:
            movers: list[tuple[int, Any]] = []
            for v in multi:
                s = vert[v]
                c = len(s)
                meetings_total += c * (c - 1) // 2
                for pid in s:
                    movers.append((pid, v))
            if lazyv:
                kept = []
                for pid, src in movers:
                    lc = lcnt[pid] + 1
                    lcnt[pid] = lc
                    if _unit(_draw(lkeys[pid], lc)) < p:
                        kept.append((pid, src))
                movers = kept
                if not movers:
                    t += 1
                    continue
            dests = []
            for pid, src in movers:
                c = N[pid] + 1
                N[pid] = c
                raw = _draw(dkeys[pid], c)
                d = deg(src)
                if d == 1:
                    if leafwatch:
                        flag = True
                    dests.append(nbr(src, 0))
                else:
                    dests.append(nbr(src, raw % d))
            affected = set()
            for pid, src in movers:
                vert[src].remove(pid)
                affected.add(src)
            i = 0
            for pid, src in movers:
                dest = dests[i]
                i += 1
                s = vert.get(dest)
                if s is None:
                    vert[dest] = {pid}
                else:
                    s.add(pid)
                pos[pid] = dest
                affected.add(dest)
                d2 = dist(dest)
                if d2 > maxd:
                    maxd = d2
            if events is not None:
                # Particle-id order within a step, as the numpy kernel records.
                events.extend(sorted((t, pid, d) for (pid, _), d in zip(movers, dests)))
                if len(events) > RECORD_EVENT_CAP:
                    self.t = t
                    raise RuntimeError(
                        f"trajectory recording exceeded {RECORD_EVENT_CAP} move events"
                    )
            for v in affected:
                s = vert.get(v)
                if s:
                    if len(s) >= 2:
                        multi.add(v)
                    else:
                        multi.discard(v)
                else:
                    if s is not None:
                        del vert[v]
                    multi.discard(v)
            t += 1
            if unbounded and maxd > COORDINATE_LIMIT:
                self.boundary_abort = True
                break

        self.t = t
        self.meeting_total = meetings_total
        self.max_distance_ever = maxd
        self.boundary_flag = flag
        if log is not None:
            log.steps = t

    # -- stepping, complete-graph fast path -------------------------------

    def _complete_destinations(self, idx: np.ndarray) -> np.ndarray:
        n = self._n
        self._N[idx] += 1
        raws = draw_array(self._dkv[idx], self._N[idx])
        if self.spec.with_loops:
            return (raws % np.uint64(n)).astype(np.int64)
        r = (raws % np.uint64(n - 1)).astype(np.int64)
        src = self._posv[idx]
        return r + (r >= src)

    def _lazy_filter(self, idx: np.ndarray) -> np.ndarray:
        self._Lv[idx] += 1
        raws = draw_array(self._lkv[idx], self._Lv[idx])
        return idx[to_unit_array(raws) < self.variant.p]

    def _run_complete(self, t_end: int) -> None:
        pos = self._posv
        n = self._n
        lazyv = self._lazy
        log = self._log
        t = self.t
        meetings_total = self.meeting_total
        while not self._dispersed and t < t_end:
            counts = np.bincount(pos, minlength=n)
            unh = counts[pos] >= 2
            if not unh.any():
                self._dispersed = True
                break
            meetings_total += int((counts * (counts - 1) // 2).sum())
            idx = np.nonzero(unh)[0]
            if lazyv:
                idx = self._lazy_filter(idx)
            if idx.size:
                dest = self._complete_destinations(idx)
                pos[idx] = dest
                if log is not None:
                    log.events.extend(
                        (t, int(pid), int(d)) for pid, d in zip(idx, dest)
                    )
                if self.max_distance_ever == 0 and bool((dest != 0).any()):
                    self.max_distance_ever = 1
            t += 1
        self.t = t
        self.meeting_total = meetings_total
        if not self._dispersed:
            counts = np.bincount(pos, minlength=n)
            self._dispersed = bool((counts <= 1).all())
        if log is not None:
            log.steps = t

    # -- public stepping ---------------------------------------------------

    def _advance(self, t_end: int) -> None:
        if self._fast:
            self._run_complete(t_end)
        else:
            self._run_generic(t_end)

    def step(self) -> StepReport:
        """One synchronous step through the loop run() uses; the report
        is read off the states before and after it."""
        walked = int(self.walk_counts.sum())
        meetings = self.meeting_total
        before = self._unhappy_ids()
        self._advance(self.t + 1)
        after = self._unhappy_ids()
        return StepReport(
            movers=int(self.walk_counts.sum()) - walked,
            newly_happy=len(before - after),
            newly_unhappy=len(after - before),
            pairwise_meetings=self.meeting_total - meetings,
            dispersed_after=self.is_dispersed(),
        )

    def run(self, budget: int = DEFAULT_BUDGET) -> RunResult:
        if budget < 0:
            raise ValueError("budget must be >= 0")
        self._advance(budget)

        dispersed = self.is_dispersed()
        if self.boundary_abort or self.boundary_flag:
            status = Status.BOUNDARY_HIT
        elif dispersed:
            status = Status.DISPERSED
        else:
            status = Status.BUDGET_EXHAUSTED
        dist = self.topo.distance_to_origin
        d_disp = max(dist(v) for v in self.positions)
        return RunResult(
            status=status,
            steps=self.t,
            t_disp=self.t if status is Status.DISPERSED else None,
            d_disp=d_disp,
            max_distance_ever=self.max_distance_ever,
            meeting_total=self.meeting_total,
            walk_counts=self.walk_counts,
            seed=self.seed,
            boundary_flag=self.boundary_flag,
            trajectories=self._log,
        )


# Functional mirrors of the spec operations.


def init(
    spec: TopologySpec,
    particles: int,
    variant: Variant = STANDARD,
    seed: int = 0,
    walk_mode: WalkMode = WalkMode.ON_DEMAND,
) -> ParticleSystem:
    return ParticleSystem(spec, particles, variant, seed, walk_mode)


def step(sys: ParticleSystem) -> StepReport:
    return sys.step()


def run(sys: ParticleSystem, budget: int = DEFAULT_BUDGET) -> RunResult:
    return sys.run(budget)


def is_dispersed(sys: ParticleSystem) -> bool:
    return sys.is_dispersed()


def happy_unhappy_counts(sys: ParticleSystem) -> tuple[int, int]:
    return sys.happy_unhappy_counts()


def record_trajectories(sys: ParticleSystem, on: bool) -> None:
    sys.record_trajectories(on)
