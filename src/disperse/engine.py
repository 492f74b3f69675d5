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
family gets a numpy kernel, `advance_lockstep`, with bitwise-identical
results: it steps R replicas together on flat arrays of R*M particles,
so numpy's per-call cost is paid once per step for all of them. A
single system's step() and run() are the R = 1 case; the harness
batches a complete-graph experiment's replicas in chunks whose size
it bounds.
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
    stream_key_array,
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
    "advance_lockstep",
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

        self._lazy = variant.kind == "lazy"
        dkeys = stream_key_array(self.seed, particles, DIRECTION_TAG)
        lkeys = stream_key_array(self.seed, particles, LAZINESS_TAG) if self._lazy else None

        self._fast = spec.family is Family.COMPLETE and not force_generic
        if self._fast:
            self._n = topo.n_vertices
            self._posv = np.zeros(particles, dtype=np.int64)
            self._N = np.zeros(particles, dtype=np.int64)
            self._dkv = dkeys
            if self._lazy:
                self._lkv = lkeys
                self._Lv = np.zeros(particles, dtype=np.int64)
            self._dispersed = particles == 1
        else:
            self._dkeys = dkeys.tolist()
            self._lkeys = lkeys.tolist() if self._lazy else None
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
                if len(events) + len(movers) > RECORD_EVENT_CAP:
                    self.t = t
                    raise _event_cap_error()
                # Particle-id order within a step, as the numpy kernel records.
                events.extend(sorted((t, pid, d) for (pid, _), d in zip(movers, dests)))
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

    # -- public stepping ---------------------------------------------------

    def _advance(self, t_end: int) -> None:
        if self._fast:
            advance_lockstep([self], t_end)
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
        if self._fast:
            # Every vertex of K_n but the origin 0 is at distance 1.
            d_disp = int(bool(self._posv.any()))
        else:
            dist = self.topo.distance_to_origin
            d_disp = max(dist(v) for v in self._pos)
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


def _event_cap_error() -> RuntimeError:
    return RuntimeError(f"trajectory recording would exceed {RECORD_EVENT_CAP} move events")


# -- stepping, complete-graph kernel ------------------------------------------


def advance_lockstep(systems: list[ParticleSystem], t_end: int) -> None:
    """Advance complete-graph systems to step t_end (or dispersal) in
    lockstep, bit for bit as if each ran alone.

    The systems must share the graph, particle count, variant and
    current step. Their states are laid end to end in flat arrays of
    R*M particles, and one bincount over R*n bins gives every
    replica's occupancy. A replica leaves the batch, keeping its own
    t, once it disperses.
    """
    if not all(s._fast for s in systems):
        raise ValueError("lockstep systems must be on the complete-graph kernel")
    live = [s for s in systems if not s._dispersed and s.t < t_end]
    if not live:
        return
    first = live[0]
    M, n, t = first.particles, first._n, first.t
    for s in live:
        if (s.spec, s.particles, s.variant, s.t) != (first.spec, M, first.variant, t):
            raise ValueError(
                "lockstep systems must share the graph, particle count, variant and step"
            )
    lazyv = first._lazy
    p = first.variant.p
    loops = first.spec.with_loops
    modulus = np.uint64(n if loops else n - 1)

    R = len(live)
    # Replica r's vertex v is bin r*n + v of one shared bincount.
    off = np.repeat(np.arange(R, dtype=np.int64) * n, M)
    pos = np.concatenate([s._posv for s in live]) + off
    N = np.concatenate([s._N for s in live])
    dk = np.concatenate([s._dkv for s in live])
    if lazyv:
        L = np.concatenate([s._Lv for s in live])
        lk = np.concatenate([s._lkv for s in live])
    meet = np.array([s.meeting_total for s in live], dtype=np.int64)
    far = np.array([s.max_distance_ever > 0 for s in live])
    all_far = bool(far.all())
    recording = any(s._log is not None for s in live)

    while True:
        occ = np.bincount(pos, minlength=R * n).take(pos)
        # Sum over a replica's particles of their vertex's occupancy:
        # M exactly when it is dispersed, else M + 2 * its meetings.
        load = occ.reshape(R, M).sum(1)
        if t >= t_end or load.min() == M:
            done = load == M
            leave = np.ones(R, dtype=bool) if t >= t_end else done
            for j in np.flatnonzero(leave).tolist():
                s = live[j]
                seg = slice(j * M, (j + 1) * M)
                s._posv[:] = pos[seg] - j * n
                s._N[:] = N[seg]
                if lazyv:
                    s._Lv[:] = L[seg]
                s.t = t
                s.meeting_total = int(meet[j])
                s.max_distance_ever = int(far[j])
                s._dispersed = bool(done[j])
                if s._log is not None:
                    s._log.steps = t
            if leave.all():
                return
            stay = ~leave
            live = [s for s, k in zip(live, stay.tolist()) if k]
            R = len(live)
            kept = np.repeat(stay, M)
            # Renumber the staying replicas 0..R-1.
            pos = pos[kept] - off[kept] + off[: R * M]
            off = off[: R * M]
            N, dk, meet, far = N[kept], dk[kept], meet[stay], far[stay]
            if lazyv:
                L, lk = L[kept], lk[kept]
            continue
        meet += (load - M) >> 1
        idx = (occ >= 2).nonzero()[0]
        if lazyv:
            c = L.take(idx)
            c += 1
            L[idx] = c
            idx = idx[to_unit_array(draw_array(lk.take(idx), c)) < p]
        if idx.size:
            c = N.take(idx)
            c += 1
            N[idx] = c
            raw = draw_array(dk.take(idx), c)
            # raw % m; numpy divides by a scalar far faster than it
            # takes a remainder.
            raw -= raw // modulus * modulus
            dest = raw.view(np.int64)
            base = off.take(idx)
            dest += base
            if not loops:
                dest += dest >= pos.take(idx)
            pos[idx] = dest
            if not all_far:
                far[idx[dest != base] // M] = True
                all_far = bool(far.all())
            if recording:
                _record_lockstep(live, t, idx, dest, M, n)
        t += 1


def _record_lockstep(live, t, idx, dest, M, n) -> None:
    """Append step t's moves to each recording replica's log, in
    particle-id order."""
    bounds = np.searchsorted(idx, np.arange(len(live) + 1) * M).tolist()
    for j, s in enumerate(live):
        log = s._log
        lo, hi = bounds[j], bounds[j + 1]
        if log is None or lo == hi:
            continue
        if len(log.events) + (hi - lo) > RECORD_EVENT_CAP:
            raise _event_cap_error()
        log.events.extend(
            (t, pid - j * M, d - j * n)
            for pid, d in zip(idx[lo:hi].tolist(), dest[lo:hi].tolist())
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
