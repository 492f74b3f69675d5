"""Synchronous dispersion process engine.

Semantics: at the start of each step every particle sharing its
vertex with another is unhappy (decided on the step-start occupancy
snapshot); unhappy particles move to a uniformly random neighbour,
all moves applied simultaneously. The lazy variant moves each
unhappy particle independently with probability p. The process is
over once every vertex holds at most one particle.

Randomness: particle i owns counter-based streams keyed by (seed, i,
tag), one for its direction and, when lazy, one for its coin, so
trajectories are a pure function of (spec, M, variant, seed, budget),
the same whether the reference loop draws one at a time or the array
kernel draws in batches. A system holds them as one (tags, M) uint64
block of keys from `stream_keys` and one block of splitmix64 state
words, key + GOLDEN * n (mod 2^64) after n draws: the kernel's next
draw adds GOLDEN to a word and mixes it, and a coin compares the mixed
word with an integer threshold (see rng). Each copy into or out of a
slot, and the reference loop's decoding, moves the whole block; only
`stream_keys` and the two draw sites know which streams a variant has.
`stream_keys` is one pass over any number of seeds: the harness
derives a chunk of seeds' keys at once, and a system given none
derives its own.

One production kernel, the lockstep array kernel `lockstep_pool`
(`advance_lockstep` runs it to its end), runs every input on int64
vertex arrays (see topology): the tree as (depth, index) pairs, the
grid and the hypercube as rows, cayley as mixed-radix ints. It steps R
replicas together on flat arrays of R*M particles, so numpy's per-call
cost is paid once per step for all of them. The replicas need not be
at the same step, and R is at most `lockstep_batch_size`: when one
leaves, the next waiting system takes over its slot, so a long run of
replicas keeps the batch full until the last ones. A new system holds
only its stream keys, and makes its positions, words and occupancy
from the origin, the keys and M when they are first read. Every
system, a lone one included, moves into its slot as it enters: a
fresh one's slot, as every harness-built replica's, is filled straight
from those three, any other's arrays are copied in, and its own arrays
are dropped, so a live replica's state exists once, and a system that
a pool holds is refused by name if it is stepped or pooled again. The
replicas that leave at one step get arrays cut from their slots in one
take, and what their results read off them, dispersal and d_disp, is
read for all of them at once, so a short replica costs little beyond
its steps. A single system's step() and run() are the R = 1 case, and
so move the system in and out on each call. A step gathers the movers'
vertex rows and hands them, with their draws, to `neighbor_array`,
which may overwrite both: the tree, the grid and the hypercube write
the destinations into the gathered rows.

Occupancy is counted on packed (replica, vertex) keys: replica * span
plus a vertex code in [0, span), where the span is n on K_n, star,
cycle, hypercube and cayley, and grows with the farthest distance
reached so far on the path, grid and tree. One
bincount over R*span bins counts them when R*span <= LOCKSTEP_ELEMENTS,
else one sort of keys with particle ids packed below them where those
words fit an int64, else one lexsort of the vertex rows under the replica
index; the choice is made afresh each step, as the span grows and as
replicas come and go. In the bincount regime a step that moves at most
UPDATE_FRACTION (1/8) of the batch's particles keeps the bins and each
particle's key, and the next such step at the same span updates them
from its moves alone; a newcomer's slot is recounted on entry. Lazy K_n
steps move a few percent of the batch and so update; standard K_n and
path steps move more and recount. `lockstep_batch_size` sizes a batch
by the same budget of elements. Tuple addresses are decoded only
for `positions` and trajectory events.

A system carries its step-start occupancy, each particle's count of
particles on its vertex, beside its positions and words. Only the two
stepping loops count occupancy and write it; `step()`, `is_dispersed()`,
`happy_unhappy_counts()` and trajectory reads take it as stored.

A scalar reference loop gives the same bits: it decodes the arrays on
entry, counts occupancy afresh each step with a Counter, moves one
particle at a time on the topology's own addresses, and encodes the
arrays again on exit. Only `force_generic=True` selects it. A step that
raises, on either loop, leaves the system at its last completed step.

Neither loop knows of trajectory logs. A run that records returns a
TrajectoryLog of its inputs, step count and final positions; its move
events are read back by running the same seed again on the same loop.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .rng import (
    DIRECTION_TAG,
    GOLDEN_U64,
    LAZINESS_TAG,
    MASK64,
    draw,
    mix64_array,
    stream_counts,
    stream_key_array,
    stream_words,
    to_unit,
    unit_threshold,
)
from .topology import (
    COORDINATE_LIMIT,
    INT64_MAX,
    Family,
    Topology,
    TopologySpec,
    as_float,
    as_int,
    build,
)

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
    "lockstep_pool",
    "lockstep_batch_size",
    "stream_keys",
]

SCHEMA = "disperse/1"

# A trajectory log refuses to list more than this many move events. A
# held event takes about 90 B on the path and 180 B on the tree, so the
# cap keeps a read under 2 GB and refuses it before memory runs out.
RECORD_EVENT_CAP = 10_000_000

# Supercritical runs never end on their own; a hard cap is mandatory.
DEFAULT_BUDGET = 10**7


class Status(str, Enum):
    DISPERSED = "dispersed"
    BUDGET_EXHAUSTED = "budget_exhausted"
    BOUNDARY_HIT = "boundary_hit"


class WalkMode(str, Enum):
    """Selects nothing: every draw is counter-based, so both modes run
    the same code and give identical results. It stays while something
    still names it: `perfbench/bench.py` builds its step-profile system
    with `walk_mode=exp.walk_mode`, and every NDJSON and CSV header
    writes `walk_mode=on-demand`, so those headers replay. The enum, the
    `ParticleSystem` keyword (which still refuses a value no mode names),
    `ExperimentSpec.walk_mode` and the cli's config row go together once
    the benchmark stops passing it."""

    ON_DEMAND = "on-demand"
    PREDETERMINED = "predetermined"


@dataclass(frozen=True)
class Variant:
    kind: str = "standard"  # "standard" | "lazy"
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in ("standard", "lazy"):
            raise ValueError(f"unknown variant kind {self.kind!r}")
        object.__setattr__(self, "p", as_float("move probability p", self.p))
        if self.kind == "standard" and self.p != 1.0:
            raise ValueError(f"the standard variant moves with p = 1, got {self.p}")
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


@dataclass(frozen=True)
class TrajectoryLog:
    """A recorded run, kept as its inputs: every run is a pure function of
    (spec, M, variant, seed, budget), so the log stores no moves and
    reading them runs the system again on the loop that produced them.

    `events` are the move events (step, particle, destination), in
    step order and, within a step, particle-id order; reading more than
    RECORD_EVENT_CAP of them raises. A rerun that does not end at the
    stored final positions raises too.
    """

    spec: TopologySpec
    particles: int
    origin: Any
    seed: int
    variant: Variant
    force_generic: bool
    steps: int
    final: np.ndarray = field(compare=False, repr=False)  # positions at `steps`, array form

    def __post_init__(self):
        self.final.flags.writeable = False

    def __setstate__(self, state):
        # Unpickling skips __post_init__, and numpy drops the flag.
        self.__dict__.update(state)
        self.final.flags.writeable = False

    def _rerun(self) -> ParticleSystem:
        return ParticleSystem(
            self.spec, self.particles, self.variant, self.seed, force_generic=self.force_generic
        )

    @property
    def events(self) -> list[tuple[int, int, Any]]:
        ps = self._rerun()
        out: list[tuple[int, int, Any]] = []
        for t in range(self.steps):
            movers, _ = ps._step_once()
            if len(out) + movers.size > RECORD_EVENT_CAP:
                raise RuntimeError(f"trajectory log would pass {RECORD_EVENT_CAP} move events")
            dests = ps.topo.from_array(ps._posv[..., movers])
            out.extend(zip([t] * movers.size, movers.tolist(), dests))
        if ps.t != self.steps or not np.array_equal(ps._posv, self.final):
            raise RuntimeError("trajectory log does not replay to its final positions")
        return out

    def per_particle(self) -> list[list[tuple[int, Any]]]:
        out: list[list[tuple[int, Any]]] = [[] for _ in range(self.particles)]
        for t, pid, dest in self.events:
            out[pid].append((t, dest))
        return out

    def positions_at(self, t: int) -> list[Any]:
        """Positions at the start of step t; from `steps` on, the run's
        final positions."""
        t = as_int("step", t)
        if t < 0:
            raise ValueError(f"step {t} is before the run's start")
        if t >= self.steps:
            return build(self.spec).from_array(self.final)
        ps = self._rerun()
        ps._advance(t)
        return ps.positions


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


def _tags(variant: Variant) -> tuple[int, ...]:
    """The streams each particle draws from under `variant`."""
    return (DIRECTION_TAG, LAZINESS_TAG) if variant.kind == "lazy" else (DIRECTION_TAG,)


def stream_keys(seeds, particles: int, variant: Variant) -> np.ndarray:
    """The stream keys of `particles` particles under each of `seeds`, in
    one pass: a (tags, particles) uint64 block per seed, whose rows are
    the direction keys and, for the lazy variant, the laziness keys."""
    return stream_key_array(seeds, particles, _tags(variant))


# A system's state arrays: positions, occupancy and stream words.
_STATE = ("_posv", "_occ", "_words")


def _start(topo: Topology, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (array form) and occupancy at t = 0: every particle on
    the origin."""
    return np.repeat(topo.to_array([topo.origin]), M, axis=-1), np.full(M, M, dtype=np.int64)


class ParticleSystem:
    """Mutable state of one run. Single-threaded by contract:
    exclusive mutation, no cross-system sharing. A new system holds only
    its stream keys: its position, word and occupancy arrays are made
    when its state is first read or stepped, every particle on the
    origin with M particles on its vertex and its words its keys. One
    that enters a lockstep pool first, as every system the harness
    builds does, has its slot filled from those three, the origin's
    array form, the keys and M, and never makes arrays of its own. While a pool holds it, its arrays are its slot's
    and its own are None: every read of its state (`positions`,
    `walk_counts`, `is_dispersed()`, `boundary_abort`, the happy and
    unhappy counts, its result) and every step is refused by name, while
    the plain attributes `t`, `meeting_total`, `max_distance_ever` and
    `boundary_flag` keep their values from when it entered. As it leaves
    it gets arrays cut from the slot, rows of blocks shared with the
    replicas that leave at the same step, and the pool's reading of its
    dispersal and d_disp, which its result takes until it steps again.

    `spec` may be the graph's Topology instead, so that a pool's systems
    share one build. A tree spec whose leaf_depth is None runs on the
    infinite tree; `ExperimentSpec.resolve()`, whose one job this is,
    fills in the default depth for M particles. `keys`, when given, is
    the system's block of `stream_keys` for its seed, so that many
    systems' keys can be derived in one pass; it is kept, not copied.
    Without it the system derives its own.
    """

    def __init__(
        self,
        spec: TopologySpec | Topology,
        particles: int,
        variant: Variant = STANDARD,
        seed: int = 0,
        walk_mode: WalkMode = WalkMode.ON_DEMAND,
        force_generic: bool = False,
        keys: Optional[np.ndarray] = None,
    ):
        particles = as_int("particles", particles)
        if particles < 1:
            raise ValueError("need at least one particle")
        topo = spec if isinstance(spec, Topology) else build(spec)
        if topo.n_vertices is not None and particles > topo.n_vertices:
            raise ValueError(
                f"{particles} particles cannot disperse on {topo.n_vertices} vertices"
            )
        self.spec = topo.spec
        self.topo: Topology = topo
        self.particles = particles
        self.variant = variant
        WalkMode(walk_mode)  # refuses a value no mode names; stores nothing
        self.seed = as_int("seed", seed) & MASK64
        self.t = 0
        self.meeting_total = 0
        self.max_distance_ever = 0
        self.boundary_flag = False  # truncated-leaf forcing fired
        self._record = False  # run() returns a TrajectoryLog
        self._left = None  # (dispersed, d_disp) as read by the pool it last left

        self._lazy = variant.kind == "lazy"
        self._reference = force_generic  # step on the scalar reference loop
        # Stream keys, one (tags, M) block, direction row first; the state
        # arrays follow from them (__getattr__).
        if keys is None:
            keys = stream_keys([self.seed], particles, variant)[0]
        elif keys.dtype != np.uint64 or keys.shape != (len(_tags(variant)), particles):
            raise ValueError("keys must be one seed's block of stream_keys")
        self._keys = keys

    def __getattr__(self, name: str):
        """Make the state arrays at their first read, as at t = 0; only
        names that the system does not hold reach here. `_posv` holds the
        positions in array form; `_occ` each particle's count of particles
        on its vertex at the start of step t, which only the stepping
        loops write; `_words` the state words key + GOLDEN * count that
        the loops step (see rng), in a block shaped as the keys."""
        if name not in _STATE:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        # All are made at once; one that a caller set first is kept.
        state = vars(self)
        posv, occ = _start(self.topo, self.particles)
        state.setdefault("_posv", posv)
        state.setdefault("_occ", occ)
        state.setdefault("_words", self._keys.copy())
        return state[name]

    @property
    def _fresh(self) -> bool:
        """Whether the state arrays are yet to be made: the system holds
        only its keys."""
        return vars(self).keys().isdisjoint(_STATE)

    # -- queries -------------------------------------------------------

    @property
    def positions(self) -> list[Any]:
        self._check_free()
        return self.topo.from_array(self._posv)

    @property
    def walk_counts(self) -> np.ndarray:
        self._check_free()
        return stream_counts(self._words[0], self._keys[0])

    def is_dispersed(self) -> bool:
        self._check_free()
        return int(self._occ.max()) <= 1

    @property
    def boundary_abort(self) -> bool:
        """Whether a particle passed COORDINATE_LIMIT on an unbounded graph."""
        self._check_free()
        return self._outside

    @property
    def _outside(self) -> bool:
        """boundary_abort, unchecked: for callers that know the system free."""
        return self.topo.unbounded and self.max_distance_ever > COORDINATE_LIMIT

    def _check_free(self) -> None:
        """Refuse, by name, a system whose state a lockstep pool holds;
        a fresh system's arrays stay unmade."""
        if "_posv" in vars(self) and self._posv is None:
            raise ValueError("a lockstep pool holds this system until it leaves")

    def _unhappy(self) -> np.ndarray:
        """Mask of the particles that share their vertex."""
        self._check_free()
        return self._occ >= 2

    def happy_unhappy_counts(self) -> tuple[int, int]:
        unhappy = int(np.count_nonzero(self._unhappy()))
        return self.particles - unhappy, unhappy

    def record_trajectories(self, on: bool) -> None:
        """Whether run() returns a TrajectoryLog. A log replays its seed
        from t = 0, so it may be turned on at any step."""
        self._record = on

    # -- stepping, scalar reference loop ---------------------------------------

    def _run_reference(self, t_end: int) -> None:
        """The process as the module docstring states it, one particle at
        a time on the topology's own addresses, with occupancy counted
        afresh each step: the reference every kernel is checked against.
        It decodes the system's arrays on entry and encodes them on exit."""
        topo = self.topo
        pos = topo.from_array(self._posv)
        counts, keys = stream_counts(self._words, self._keys).tolist(), self._keys.tolist()
        N, L, dkeys, lkeys = counts[0], counts[-1], keys[0], keys[-1]  # L, lkeys read when lazy
        occupancy = Counter(pos)
        try:
            while not (len(occupancy) == self.particles or self.t >= t_end or self.boundary_abort):
                unhappy = [i for i, v in enumerate(pos) if occupancy[v] >= 2]
                movers = unhappy
                if self._lazy:
                    p = self.variant.p
                    movers = [i for i in unhappy if to_unit(draw(lkeys[i], L[i] + 1)) < p]
                dests = [
                    topo.neighbor(pos[i], draw(dkeys[i], N[i] + 1) % topo.degree(pos[i]))
                    for i in movers
                ]
                topo.to_array(dests)  # raises where a destination has no int64 form
                # Nothing below raises: the step is applied whole.
                if self._lazy:
                    for i in unhappy:
                        L[i] += 1
                for i, dest in zip(movers, dests):
                    self.boundary_flag |= topo.is_truncated_leaf(pos[i])
                    N[i] += 1
                    pos[i] = dest
                    self.max_distance_ever = max(
                        self.max_distance_ever, topo.distance_to_origin(dest)
                    )
                self.meeting_total += sum(c * (c - 1) // 2 for c in occupancy.values())
                self.t += 1
                occupancy = Counter(pos)
        finally:
            self._posv[:] = topo.to_array(pos)
            self._occ[:] = [occupancy[v] for v in pos]
            self._words[:] = stream_words(self._keys, counts)

    # -- public stepping ---------------------------------------------------

    def _advance(self, t_end: int) -> None:
        if self._reference:
            self._run_reference(t_end)
        else:
            advance_lockstep([self], t_end)

    def _step_once(self) -> tuple[np.ndarray, np.ndarray]:
        """One step through the loop run() uses; returns the ids of the
        particles that moved (their direction words changed) and the
        unhappy mask the step started from."""
        unhappy = self._unhappy()
        words = self._words[0].copy()
        self._advance(self.t + 1)
        return (self._words[0] != words).nonzero()[0], unhappy

    def step(self) -> StepReport:
        """One synchronous step through the loop run() uses; the report
        is read off the states before and after it."""
        meetings = self.meeting_total
        movers, before = self._step_once()
        after = self._unhappy()
        return StepReport(
            movers=movers.size,
            newly_happy=int(np.count_nonzero(before > after)),
            newly_unhappy=int(np.count_nonzero(after > before)),
            pairwise_meetings=self.meeting_total - meetings,
            dispersed_after=self.is_dispersed(),
        )

    def run(self, budget: int = DEFAULT_BUDGET) -> RunResult:
        budget = as_int("budget", budget)
        if budget < 0:
            raise ValueError("budget must be >= 0")
        self._advance(budget)
        return self._result()

    def _result(self) -> RunResult:
        """The result of the run so far, read off the system's state; a
        system that a lockstep pool has settled is packaged by this alone."""
        self._check_free()
        t, posv = self.t, self._posv
        left = self._left
        if left is None:
            left = self._occ.max() <= 1, int(self.topo.distance_array(posv).max())
        dispersed, d_disp = left
        if self.boundary_flag or self._outside:
            status = Status.BOUNDARY_HIT
        elif dispersed:
            status = Status.DISPERSED
        else:
            status = Status.BUDGET_EXHAUSTED
        log = None
        if self._record:
            log = TrajectoryLog(
                self.spec, self.particles, self.topo.origin, self.seed,
                self.variant, self._reference, t, posv.copy(),
            )
        return RunResult(
            status=status,
            steps=t,
            t_disp=t if status is Status.DISPERSED else None,
            d_disp=d_disp,
            max_distance_ever=self.max_distance_ever,
            meeting_total=self.meeting_total,
            walk_counts=stream_counts(self._words[0], self._keys[0]),
            seed=self.seed,
            boundary_flag=self.boundary_flag,
            trajectories=log,
        )


# -- stepping, lockstep array kernel ------------------------------------------

# Occupancy of a batch of R replicas is counted with one bincount over
# R * span bins, span being the width of the packed vertex codes, when
# those fit in this many, else by a sort (see _Occupancy).
# lockstep_batch_size sizes batches by it too, so a batch charged its
# bins is always counted by bincount.
LOCKSTEP_ELEMENTS = 2**16

# A bincount-regime step that moves at most this share of the batch's
# particles updates the kept bins by its moves instead of recounting
# every particle; past it, one bincount of all of them is cheaper than
# the updates (see _Occupancy).
UPDATE_FRACTION = 1 / 8


class _Occupancy:
    """Each particle's count of particles on its vertex, for R replicas
    of M particles laid end to end: one bincount over R * span bins when
    those fit in LOCKSTEP_ELEMENTS, else one sort of (replica, vertex)
    keys with particle ids packed below them when those words fit an
    int64, else one lexsort of the vertex rows under the replica index.
    The span is the topology's code span at the current reach: n on K_n,
    star, cycle, hypercube and cayley, 2 * reach + 1 on the path,
    (2 * reach + 1)^dim on the grid, the ball of radius reach on the
    tree; a vertex's code changes only with the span. This is the only
    place that decides what a key past int64 does.

    In the bincount regime, a step that moved at most UPDATE_FRACTION of
    the batch's particles keeps two arrays until the next count: the
    bins and each particle's key. The next such step at the same span
    updates them from its movers alone, taking one off each mover's old
    bin and adding one to its new bin, and a newcomer's slot, named by
    `refill` when it enters, has only its own bins and keys recounted.
    A denser step recounts every particle and keeps nothing, and a
    changed span or a fresh batch recounts too. The kept keys are their
    own array: at R = 1 the codes may be the positions themselves.
    Lazy K_n steps move a few percent of the batch, so nearly all of
    their counts update; a standard K_n pool in its long steady state
    moves too many particles to update, and so does most of a path's
    run."""

    def __init__(self, topo: Topology, M: int, R: int):
        self.topo, self.M, self.R = topo, M, R
        self.span = 0
        self.bits = (R * M - 1).bit_length()  # of a particle's flat index
        self.cnt = self.key = None  # the kept bins and keys, if any
        self.refilled = []  # slots entered since the kept arrays were counted
        self.sparse = UPDATE_FRACTION * R * M  # most movers a step may have to update

    @property
    def bins(self) -> bool:
        """Whether counts are by bincount: R * span, for the span of the
        latest count, fits LOCKSTEP_ELEMENTS."""
        return self.R * self.span <= LOCKSTEP_ELEMENTS

    @property
    def packs(self) -> bool:
        """Whether a sort packs each particle's index into the low `bits`
        of its key: R * span, for the span of the latest count, fits
        INT64_MAX >> bits. Where neither this nor `bins` holds, the
        vertex rows are lexsorted."""
        return self.R * self.span <= INT64_MAX >> self.bits

    def keys(self, v: np.ndarray, reach: int, at: Optional[np.ndarray] = None) -> np.ndarray:
        """replica * span + code of the array-form vertices v, which lie
        within distance `reach` of the origin, for the span of the latest
        count; v holds the particles of flat indices `at`, or all of them
        when `at` is None. Only where `bins` or `packs` holds."""
        codes = self.topo.vertex_codes(v, reach)
        if self.R == 1:
            return codes
        return codes + (self.base if at is None else self.base.take(at))

    def refill(self, j: int) -> None:
        """Slot j has a newcomer: an update at the next count recounts
        the slot's bins and keys."""
        if self.cnt is not None:
            self.refilled.append(j)

    def __call__(
        self, v: np.ndarray, reach: int, movers: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The counts at positions v. `movers` are the flat indices of the
        only particles that moved since the latest count, apart from the
        slots refilled since; None counts afresh and keeps nothing."""
        span = self.topo.code_span(reach)
        if span != self.span:
            self.span = span
            self.cnt = self.key = None
            if self.R > 1 and (self.bins or self.packs):
                self.base = np.repeat(np.arange(self.R, dtype=np.int64) * span, self.M)
        if self.bins:
            if movers is None or movers.size > self.sparse:
                self.cnt = self.key = None
                keys = self.keys(v, reach)
                return np.bincount(keys, minlength=self.R * span).take(keys)
            if self.cnt is None:
                keys = self.keys(v, reach)
                if np.may_share_memory(keys, v):
                    keys = keys.copy()
                self.cnt, self.key = np.bincount(keys, minlength=self.R * span), keys
            else:
                cnt, key = self.cnt, self.key
                new = self.keys(v.take(movers, axis=-1), reach, movers)
                np.subtract.at(cnt, key.take(movers), 1)
                np.add.at(cnt, new, 1)
                key[movers] = new
                # A refilled slot's bins and keys are its own: a stale key
                # above touched only them, and they are overwritten whole.
                for j in self.refilled:
                    codes = self.topo.vertex_codes(v[..., j * self.M : (j + 1) * self.M], reach)
                    cnt[j * span : (j + 1) * span] = np.bincount(codes, minlength=span)
                    key[j * self.M : (j + 1) * self.M] = codes + j * span
            self.refilled = []
            return self.cnt.take(self.key)
        first = np.empty(v.shape[-1], dtype=bool)
        first[:1] = True
        if self.packs:
            # Words key << bits | index are distinct, so one plain sort
            # orders them by key and gives each particle's index back.
            packed = self.keys(v, reach) << self.bits
            packed |= np.arange(packed.size)
            packed.sort()
            order = packed & ((1 << self.bits) - 1)
            packed >>= self.bits
            np.not_equal(packed[1:], packed[:-1], out=first[1:])
            del packed
        else:
            # Keys would pass int64: sort the vertex rows themselves, the
            # replica index last and so most significant.
            rows = np.vstack([v.reshape(-1, first.size), np.arange(first.size) // self.M])
            order = np.lexsort(rows)
            rows = rows.take(order, axis=1)
            np.any(rows[:, 1:] != rows[:, :-1], axis=0, out=first[1:])
            del rows
        # Runs of equal keys in sorted order; each particle gets its run's length.
        starts = first.nonzero()[0]
        runs = np.empty(starts.size, dtype=np.int64)
        np.subtract(starts[1:], starts[:-1], out=runs[:-1])
        runs[-1] = first.size - starts[-1]
        occ = np.empty(first.size, dtype=np.int64)
        occ[order] = np.repeat(runs, runs)
        return occ


def lockstep_batch_size(topo: Topology, M: int) -> int:
    """Replicas of M particles on topo per lockstep batch (at least one):
    R * (M + n) <= LOCKSTEP_ELEMENTS when a replica's n occupancy bins fit
    beside its particles, else R * M <= LOCKSTEP_ELEMENTS. A wider batch
    pays a step's fixed cost for more replicas but holds more memory;
    past 2^16 elements the time saved no longer pays for the memory."""
    n = topo.n_vertices
    bins = n if n is not None and M + n <= LOCKSTEP_ELEMENTS else 0
    return max(1, LOCKSTEP_ELEMENTS // (M + bins))


def advance_lockstep(systems: Iterable[ParticleSystem], t_end: int) -> None:
    """Advance array-kernel systems to step t_end (or dispersal), bit for
    bit as if each ran alone: `lockstep_pool` run to its end. The
    systems need not share a step; a freed slot takes the next one."""
    for _ in lockstep_pool(systems, t_end):
        pass


def lockstep_pool(
    systems: Iterable[ParticleSystem], t_end: int
) -> Iterator[tuple[int, ParticleSystem]]:
    """Advance array-kernel systems to step t_end (or dispersal) in
    lockstep, bit for bit as if each ran alone, and yield (i, system)
    for the i-th of `systems` as it leaves.

    The systems must share the graph, particle count and variant, but
    not the step: each keeps its own t. At most `lockstep_batch_size`
    of them are live at once, each in a slot of flat arrays of R*M
    particles laid end to end, and one occupancy count over (replica,
    vertex) keys serves every replica. A system's state moves into a
    slot only by `enter`, which fills a fresh system's slot from its keys
    and drops any arrays of its own, and back only by `settle`, which
    cuts the slots of the replicas leaving at one step in one take; a
    system passed twice, or held by another pool, is refused by name.
    A replica leaves, keeping its own t, once it reaches t_end or
    disperses or, on an unbounded graph, once its reach passes
    COORDINATE_LIMIT; it is settled, and the next system of `systems`,
    taken only now, enters its slot. Once `systems` is spent and a slot
    stays empty, the live slots are cut, in their order, into a batch as
    wide as they are; their systems stay held. A system already at
    t_end, dispersed or out of bounds is yielded as it is taken. A step
    that raises (a tree vertex past int64) leaves each live system at
    its last completed step, and systems not yet taken untouched.
    """
    queue = enumerate(systems)
    shape = None  # graph, particle count and variant of the first live system

    def live(s: ParticleSystem) -> bool:
        """Whether s is to be stepped, not yielded as it is; raises if it
        cannot join the pool."""
        nonlocal shape
        if s._reference:
            raise ValueError("lockstep systems must be on the array kernel")
        # A fresh system has all its particles on one vertex; a held one
        # is refused by is_dispersed().
        dispersed = s.particles == 1 if s._fresh else s.is_dispersed()
        if dispersed or s._outside or s.t >= t_end:
            return False
        if shape is None:
            shape = (s.spec, s.particles, s.variant)
        elif (s.spec, s.particles, s.variant) != shape:
            raise ValueError("lockstep systems must share the graph, particle count and variant")
        return True

    batch = []  # (i, system) to enter into a fresh batch as wide as they are
    for got in queue:
        if not live(got[1]):
            yield got
            continue
        batch.append(got)
        if len(batch) == 1:
            topo, M, variant = got[1].topo, got[1].particles, got[1].variant
            width = lockstep_batch_size(topo, M)
        if len(batch) == width:
            break
    if not batch:
        return
    lazyv = variant.kind == "lazy"
    # A coin's draw r moves its particle when to_unit(r) < p, that is r <= this.
    threshold = np.uint64(unit_threshold(variant.p)) if lazyv else None
    leaf = topo.spec.family is Family.TREE and topo.leaf_depth  # truncated leaves' depth
    unbounded = topo.unbounded
    full = topo.max_distance
    start_pos, start_occ = _start(topo, M)  # a fresh system's
    rows = start_pos.shape[:-1]  # of an array-form vertex
    tags = len(batch[0][1]._keys)  # streams per particle
    # The pool's own step count k: slot j is at step k + lag[j].
    k = 0
    slots = []  # (i, system) live in each slot, None once it left

    def enter(j, got):
        """Move system got[1]'s state into the free slot j."""
        s = got[1]
        seg = slice(j * M, (j + 1) * M)
        # Sum over a replica's particles of their vertex's occupancy: M
        # exactly when it is dispersed, else M + 2 * its meetings.
        if s._fresh:
            # Filled as the system would make its arrays.
            pos[..., seg] = start_pos
            words[:, seg] = s._keys
            occ[seg] = start_occ
            load[j] = M * M
        else:
            s._check_free()  # taken twice into the first batch
            pos[..., seg] = s._posv
            words[:, seg] = s._words
            occ[seg] = s._occ
            load[j] = occ[seg].sum()
        s._posv = s._words = s._occ = s._left = None
        slots[j] = got
        lag[j] = s.t - k
        # Twice the meetings so far plus M per step: a step adds its load.
        meet[j] = 2 * s.meeting_total + M * s.t
        far[j] = s.max_distance_ever
        flag[j] = s.boundary_flag

    def settle(js):
        """Give each slot of js its state back and free it, yielding
        (i, system) in turn; the arrays are cut from one take of all of
        them, so each system's are rows of shared blocks."""
        cut_pos = pos.reshape(rows + (R, M)).take(js, axis=-2)
        cut_words = words.reshape(tags, R, M).take(js, axis=1)
        cut_occ = occ.reshape(R, M).take(js, axis=0)
        loads, lags, meets, fars, flags = book.take(js, axis=1).tolist()
        # The distances its result reads off each one's positions.
        d_disp = topo.distance_array(cut_pos.reshape(rows + (-1,))).reshape(-1, M).max(1).tolist()
        for r, j in enumerate(js):
            i, s = slots[j]
            slots[j] = None
            s._posv, s._words, s._occ = cut_pos[..., r, :], cut_words[:, r], cut_occ[r]
            s._left = loads[r] == M, d_disp[r]
            s.t = t = k + lags[r]
            s.meeting_total = (meets[r] - M * t) // 2
            s.max_distance_ever = fars[r]
            s.boundary_flag = bool(flags[r])
            yield i, s

    try:
        while True:
            if batch:
                R = len(batch)
                slots = [None] * R
                pos = np.empty(rows + (R * M,), dtype=np.int64)
                words = np.empty((tags, R * M), dtype=np.uint64)
                dw, lw = words[0], words[-1]  # lw is read only when lazy
                occ = np.empty(R * M, dtype=np.int64)
                # Each slot's load, lag, doubled meetings plus M per step,
                # reach and boundary flag, in rows that settle cuts in one take.
                book = np.empty((5, R), dtype=np.int64)
                load, lag, meet, far, flag = book
                for j, got in enumerate(batch):
                    enter(j, got)
                batch = []
                occupancy = _Occupancy(topo, M, R)
            reach = int(far.max())
            all_far = reach == full and bool((far == full).all())
            due = t_end - int(lag.max())  # k at which the first slot reaches t_end
            while True:
                outside = unbounded and reach > COORDINATE_LIMIT
                if k >= due or load.min() == M or outside:
                    leave = load == M
                    if k >= due:
                        leave |= lag >= t_end - k
                    if outside:
                        leave |= far > COORDINATE_LIMIT
                    if not leave.any():  # each way in names a leaving slot; else the pool spins
                        raise RuntimeError("lockstep pool: no slot leaves at its exit")
                    gone = leave.nonzero()[0].tolist()
                    for j, done in zip(gone, settle(gone)):
                        yield done
                        for got in queue:
                            if live(got[1]):
                                enter(j, got)
                                occupancy.refill(j)
                                break
                            yield got
                    if None in slots:  # `systems` is spent: narrow the batch
                        keep = [j for j, slot in enumerate(slots) if slot is not None]
                        if not keep:
                            return
                        R = len(keep)
                        slots = [slots[j] for j in keep]
                        pos = pos.reshape(rows + (-1, M)).take(keep, axis=-2).reshape(rows + (R * M,))
                        words = words.reshape(tags, -1, M).take(keep, axis=1).reshape(tags, R * M)
                        dw, lw = words[0], words[-1]
                        occ = occ.reshape(-1, M).take(keep, axis=0).reshape(R * M)
                        book = book.take(keep, axis=1)
                        load, lag, meet, far, flag = book
                        occupancy = _Occupancy(topo, M, R)
                    break  # a newcomer may be over at once
                unhappy = idx = (occ >= 2).nonzero()[0]
                if lazyv:
                    lc = lw.take(unhappy)
                    lc += GOLDEN_U64
                    idx = unhappy.compress(mix64_array(lc) <= threshold)
                if idx.size:
                    c = dw.take(idx)
                    c += GOLDEN_U64
                    flat = pos.ndim == 1  # else the rows of the grid or the tree
                    dest = pos.take(idx) if flat else pos.take(idx, axis=1)
                    if leaf:
                        at_leaf = dest[0] == leaf
                    # The gathered rows take their destinations in place.
                    dest = topo.neighbor_array(dest, mix64_array(c))
                # Nothing below raises: the step is applied whole.
                if lazyv:
                    lw[unhappy] = lc
                if idx.size:
                    dw[idx] = c
                    if leaf:
                        # A truncated leaf's move to its parent marks the run.
                        flag[idx.compress(at_leaf) // M] = True
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
                k += 1
                occ = occupancy(pos, reach, idx)
                occ.reshape(R, M).sum(1, out=load)
    except BaseException:
        held = [j for j, slot in enumerate(slots) if slot is not None]
        if held:  # else the slots' arrays may not exist yet
            for _ in settle(held):
                pass
        raise
