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
whether draws are made one at a time by the reference loop or
batch-evaluated by the vectorised array kernel. The two walk
modes run the same code: a counter-based draw needs no buffer, so
`walk_mode` has no effect on results and is kept only so that
configs naming either mode still replay.

One production kernel, the lockstep array kernel `advance_lockstep`,
runs every family on int64 vertex arrays (see topology): the tree as
(depth, index) pairs, the grid as rows of coordinates, cayley as
mixed-radix ints. It steps R replicas together on flat arrays of R*M
particles, so numpy's per-call cost is paid once per step for all of
them; a single system's step() and run() are the R = 1 case, stepped
on the system's own arrays. Occupancy is counted on packed (replica,
vertex) keys: replica * span plus a vertex code in [0, span), where the
span is n on K_n, star, cycle, hypercube and cayley, and grows with the
farthest distance reached so far on the path, grid and tree. One
bincount over R*span bins counts them when R*span <= LOCKSTEP_ELEMENTS,
else a sort; the choice is made afresh each step, as the span grows and
as replicas leave. Keys raise ValueError rather than leave int64 (the
grid ranks its vertices instead). Tuple addresses are decoded only for
`positions` and trajectory events.

A scalar reference loop gives the same bits: it counts occupancy
afresh each step and moves one particle at a time on the topology's
own addresses. `force_generic=True` selects it, and so does the one
input with no int64 form, a hypercube past 62 dimensions. A step that
raises leaves the system at its last completed step on either loop.
"""

from __future__ import annotations

from collections import Counter
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
from .topology import COORDINATE_LIMIT, INT64_MAX, Family, Topology, TopologySpec, build

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
    "LOCKSTEP_ELEMENTS",
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

        self._array = topo.array_form and not force_generic
        self._dispersed = particles == 1
        if self._array:
            self._posv = np.repeat(topo.to_array([topo.origin]), particles, axis=-1)
            self._N = np.zeros(particles, dtype=np.int64)
            self._dkv = dkeys
            if self._lazy:
                self._lkv = lkeys
                self._Lv = np.zeros(particles, dtype=np.int64)
        else:
            self._pos: list[Any] = [topo.origin] * particles
            self._N = [0] * particles
            self._L = [0] * particles
            self._dkeys = dkeys.tolist()
            self._lkeys = lkeys.tolist() if self._lazy else None

    # -- queries -------------------------------------------------------

    @property
    def positions(self) -> list[Any]:
        return self.topo.from_array(self._posv) if self._array else list(self._pos)

    @property
    def walk_counts(self) -> np.ndarray:
        return np.array(self._N, dtype=np.int64)

    def is_dispersed(self) -> bool:
        return self._dispersed

    def _unhappy(self) -> np.ndarray:
        """Mask of the particles that share their vertex."""
        if self._array:
            occupancy = _Occupancy(self.topo, self.particles, 1)
            return occupancy(self._posv, self.max_distance_ever) >= 2
        occupancy = Counter(self._pos)
        return np.array([occupancy[v] >= 2 for v in self._pos], dtype=bool)

    def happy_unhappy_counts(self) -> tuple[int, int]:
        unhappy = int(np.count_nonzero(self._unhappy()))
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

    # -- stepping, scalar reference loop ---------------------------------------

    def _run_reference(self, t_end: int) -> None:
        """The process as the module docstring states it, one particle at
        a time on the topology's own addresses, with occupancy counted
        afresh each step: the reference every kernel is checked against,
        and the kernel of a hypercube past 62 dimensions."""
        topo, pos, N, L, log = self.topo, self._pos, self._N, self._L, self._log
        while True:
            occupancy = Counter(pos)
            self._dispersed = len(occupancy) == self.particles
            if self._dispersed or self.t >= t_end or self.boundary_abort:
                return
            unhappy = [i for i, v in enumerate(pos) if occupancy[v] >= 2]
            movers = unhappy
            if self._lazy:
                p = self.variant.p
                movers = [i for i in unhappy if to_unit(draw(self._lkeys[i], L[i] + 1)) < p]
            dests = [
                topo.neighbor(pos[i], draw(self._dkeys[i], N[i] + 1) % topo.degree(pos[i]))
                for i in movers
            ]
            if log is not None and len(log.events) + len(movers) > RECORD_EVENT_CAP:
                raise _event_cap_error()
            # Nothing below raises: the step is applied whole.
            if self._lazy:
                for i in unhappy:
                    L[i] += 1
            for i, dest in zip(movers, dests):
                self.boundary_flag |= topo.is_truncated_leaf(pos[i])
                N[i] += 1
                pos[i] = dest
                self.max_distance_ever = max(self.max_distance_ever, topo.distance_to_origin(dest))
            self.meeting_total += sum(c * (c - 1) // 2 for c in occupancy.values())
            if log is not None:
                log.events.extend((self.t, i, dest) for i, dest in zip(movers, dests))
                log.steps = self.t + 1
            self.t += 1
            self.boundary_abort = topo.unbounded and self.max_distance_ever > COORDINATE_LIMIT

    # -- public stepping ---------------------------------------------------

    def _advance(self, t_end: int) -> None:
        # A run that left the coordinate range stays where it stopped.
        if self.boundary_abort:
            return
        if self._array:
            advance_lockstep([self], t_end)
        else:
            self._run_reference(t_end)

    def step(self) -> StepReport:
        """One synchronous step through the loop run() uses; the report
        is read off the states before and after it."""
        walked = int(np.sum(self._N))
        meetings = self.meeting_total
        before = self._unhappy()
        self._advance(self.t + 1)
        after = self._unhappy()
        return StepReport(
            movers=int(np.sum(self._N)) - walked,
            newly_happy=int(np.count_nonzero(before > after)),
            newly_unhappy=int(np.count_nonzero(after > before)),
            pairwise_meetings=self.meeting_total - meetings,
            dispersed_after=self.is_dispersed(),
        )

    def run(self, budget: int = DEFAULT_BUDGET) -> RunResult:
        if budget < 0:
            raise ValueError("budget must be >= 0")
        self._advance(budget)
        if self.boundary_abort or self.boundary_flag:
            status = Status.BOUNDARY_HIT
        elif self._dispersed:
            status = Status.DISPERSED
        else:
            status = Status.BUDGET_EXHAUSTED
        if self._array:
            d_disp = int(self.topo.distance_array(self._posv).max())
        else:
            d_disp = max(map(self.topo.distance_to_origin, self._pos))
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


# -- stepping, lockstep array kernel ------------------------------------------

# Occupancy of a batch of R replicas is counted with one bincount over
# R * span bins, span being the width of the packed vertex codes, when
# those fit in this many, else by sorting the particles' (replica,
# vertex) keys. The harness also sizes its lockstep chunks by it.
LOCKSTEP_ELEMENTS = 2**15


class _Occupancy:
    """Each particle's count of particles on its vertex, for R replicas
    of M particles laid end to end: one bincount over R * span bins when
    those fit in LOCKSTEP_ELEMENTS, else a sort of (replica, vertex)
    keys. The span is the width of the topology's vertex codes at the
    current reach: n on K_n, star, cycle, hypercube and cayley, 2 * reach
    + 1 on the path, (2 * reach + 1)^dim on the grid, the ball of radius
    reach on the tree."""

    def __init__(self, topo: Topology, M: int, R: int):
        self.topo, self.M = topo, M
        self.span = 0
        self.resize(R)

    def resize(self, R: int) -> None:
        """Count the first R replicas of the layout from now on."""
        self.R = R
        if self.span:
            self.base = self.base[: R * self.M]

    @property
    def bins(self) -> bool:
        """Whether counts are by bincount: R * span fits LOCKSTEP_ELEMENTS,
        for the span of the latest keys and the replicas counted now."""
        return self.R * self.span <= LOCKSTEP_ELEMENTS

    def keys(self, v: np.ndarray, reach: int) -> np.ndarray:
        """replica * span + code of the array-form vertices v, which lie
        within distance `reach` of the origin. Raises ValueError rather
        than let a key leave int64."""
        codes, span = self.topo.vertex_codes(v, reach)
        if span != self.span:
            if self.R * span > INT64_MAX:
                raise ValueError(
                    f"occupancy keys of {self.R} {self.topo.spec.family.value} replicas "
                    f"within distance {reach} of the origin do not fit an int64"
                )
            self.span = span
            self.base = np.repeat(np.arange(self.R, dtype=np.int64) * span, self.M)
        return codes if self.R == 1 else codes + self.base

    def __call__(self, v: np.ndarray, reach: int) -> np.ndarray:
        keys = self.keys(v, reach)
        if self.bins:
            return np.bincount(keys, minlength=self.R * self.span).take(keys)
        order = keys.argsort()
        keys = keys.take(order)
        # Runs of equal keys in sorted order; each particle gets its run's length.
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        del keys
        starts = first.nonzero()[0]
        runs = np.empty(starts.size, dtype=np.int64)
        np.subtract(starts[1:], starts[:-1], out=runs[:-1])
        runs[-1] = first.size - starts[-1]
        occ = np.empty(first.size, dtype=np.int64)
        occ[order] = np.repeat(runs, runs)
        return occ


def advance_lockstep(systems: list[ParticleSystem], t_end: int) -> None:
    """Advance array-kernel systems to step t_end (or dispersal) in
    lockstep, bit for bit as if each ran alone.

    The systems must share the graph, particle count, variant and
    current step. Their states are laid end to end in flat arrays of
    R*M particles, and one occupancy count over (replica, vertex) keys
    serves every replica. A replica leaves the batch, keeping its own t,
    once it disperses or, on an unbounded graph, once its reach passes
    COORDINATE_LIMIT. A lone system is stepped on its own arrays. A step
    that raises (the event cap, or a vertex or key past int64) changes
    no system: each is left at its last completed step.
    """
    if not all(s._array for s in systems):
        raise ValueError("lockstep systems must be on the array kernel")
    live = [
        s for s in systems if not (s._dispersed or s.boundary_abort) and s.t < t_end
    ]
    if not live:
        return
    first = live[0]
    M, t, topo = first.particles, first.t, first.topo
    for s in live:
        if (s.spec, s.particles, s.variant, s.t) != (first.spec, M, first.variant, t):
            raise ValueError(
                "lockstep systems must share the graph, particle count, variant and step"
            )
    lazyv = first._lazy
    p = first.variant.p
    leaf = topo.spec.family is Family.TREE and topo.leaf_depth  # truncated leaves' depth
    unbounded = topo.unbounded
    full = topo.max_distance

    R = len(live)
    own = R == 1  # step the system's own arrays; nothing to write back
    if own:
        pos, N, dk = first._posv, first._N, first._dkv
        if lazyv:
            L, lk = first._Lv, first._lkv
    else:
        pos = np.concatenate([s._posv for s in live], axis=-1)
        N = np.concatenate([s._N for s in live])
        dk = np.concatenate([s._dkv for s in live])
        if lazyv:
            L = np.concatenate([s._Lv for s in live])
            lk = np.concatenate([s._lkv for s in live])
        # Each system keeps views of its segment, not a second copy.
        for j, s in enumerate(live):
            seg = slice(j * M, (j + 1) * M)
            s._posv, s._N, s._dkv = pos[..., seg], N[seg], dk[seg]
            if lazyv:
                s._Lv, s._lkv = L[seg], lk[seg]
    # Twice the meetings so far plus M per step: a step adds its load.
    meet = np.array([2 * s.meeting_total for s in live], dtype=np.int64)
    t0 = t
    far = np.array([s.max_distance_ever for s in live], dtype=np.int64)
    reach = int(far.max())
    flag = np.array([s.boundary_flag for s in live])
    all_far = reach == full and bool((far == full).all())
    recording = any(s._log is not None for s in live)
    occupancy = _Occupancy(topo, M, R)

    def settle(rows, done):
        """Write the state of batch replicas `rows` back to their systems."""
        for j in rows:
            s = live[j]
            if not own:
                seg = slice(j * M, (j + 1) * M)
                s._posv[:] = pos[..., seg]
                s._N[:] = N[seg]
                if lazyv:
                    s._Lv[:] = L[seg]
            s.t = t
            s.meeting_total = (int(meet[j]) - M * (t - t0)) // 2
            s.max_distance_ever = int(far[j])
            s.boundary_flag = bool(flag[j])
            s.boundary_abort = unbounded and s.max_distance_ever > COORDINATE_LIMIT
            s._dispersed = bool(done[j])
            if s._log is not None:
                s._log.steps = t

    try:
        while True:
            occ = occupancy(pos, reach)
            # Sum over a replica's particles of their vertex's occupancy:
            # M exactly when it is dispersed, else M + 2 * its meetings.
            load = occ.reshape(R, M).sum(1)
            outside = unbounded and reach > COORDINATE_LIMIT
            if t >= t_end or load.min() == M or outside:
                done = load == M
                if t >= t_end:
                    leave = np.ones(R, dtype=bool)
                else:
                    leave = done | (far > COORDINATE_LIMIT) if outside else done
                settle(np.flatnonzero(leave).tolist(), done)
                if leave.all():
                    return
                stay = ~leave
                live = [s for s, k in zip(live, stay.tolist()) if k]
                R = len(live)
                rows = stay.nonzero()[0]
                pos, N, dk = _keep(pos, rows, M), _keep(N, rows, M), _keep(dk, rows, M)
                if lazyv:
                    L, lk = _keep(L, rows, M), _keep(lk, rows, M)
                meet, far, flag = meet[stay], far[stay], flag[stay]
                reach = int(far.max())
                occupancy.resize(R)
                continue
            unhappy = idx = (occ >= 2).nonzero()[0]
            if lazyv:
                lc = L.take(unhappy)
                lc += 1
                idx = unhappy[to_unit_array(draw_array(lk.take(unhappy), lc)) < p]
            if idx.size:
                c = N.take(idx)
                c += 1
                flat = pos.ndim == 1  # else the rows of the grid or the tree
                src = pos.take(idx) if flat else pos.take(idx, axis=1)
                dest = topo.neighbor_array(src, draw_array(dk.take(idx), c))
                if recording:
                    _record_lockstep(live, t, idx, dest, M, topo)
            # Nothing below raises: the step is applied whole.
            if lazyv:
                L[unhappy] = lc
            if idx.size:
                N[idx] = c
                if leaf:
                    # A truncated leaf's move to its parent marks the run.
                    flag[idx[src[0] == leaf] // M] = True
                if flat:
                    pos[idx] = dest
                else:
                    for row, new in zip(pos, dest):
                        row[idx] = new
                if not all_far:
                    np.maximum.at(far, idx // M, topo.distance_array(dest))
                    reach = int(far.max())
                    all_far = reach == full and bool((far == full).all())
            meet += load
            t += 1
    except BaseException:
        settle(range(R), np.zeros(R, dtype=bool))
        raise


def _keep(x: np.ndarray, rows: np.ndarray, M: int) -> np.ndarray:
    """The M-long segments of x (along its last axis) of replicas `rows`."""
    lead = x.shape[:-1]
    return x.reshape(lead + (-1, M)).take(rows, axis=-2).reshape(lead + (-1,))


def _record_lockstep(live, t, idx, dest, M, topo) -> None:
    """Append step t's moves to each recording replica's log, in
    particle-id order, once every log is known to stay within the cap."""
    bounds = np.searchsorted(idx, np.arange(len(live) + 1) * M).tolist()
    logs = [(j, s._log) for j, s in enumerate(live) if s._log is not None]
    if any(len(log.events) + bounds[j + 1] - bounds[j] > RECORD_EVENT_CAP for j, log in logs):
        raise _event_cap_error()
    for j, log in logs:
        lo, hi = bounds[j], bounds[j + 1]
        log.events.extend(
            (t, pid - j * M, d)
            for pid, d in zip(idx[lo:hi].tolist(), topo.from_array(dest[..., lo:hi]))
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
