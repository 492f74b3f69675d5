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
`stream_keys` is one pass over any number of seeds: `seed_rows`
derives a chunk of seeds' keys at once, and a system given none
derives its own.

One production kernel, the lockstep array kernel `lockstep_rows`, runs
every input on int64 vertex arrays (see topology): the tree as (depth,
index) pairs, the grid and the hypercube as rows, cayley as mixed-radix
ints. It steps R replicas together on flat arrays of R*M particles, so
numpy's per-call cost is paid once per step for all of them. A replica
is a row of those arrays (a slot), not an object: rows enter as blocks
(`ReplicaRows`) and leave as blocks. The replicas need not be at the
same step, and R is at most `lockstep_batch_size`: when rows leave,
the pool takes as many new ones for the freed slots, so a long run of
replicas keeps the batch full until the last ones. The harness fills
slots straight from blocks of fresh rows (`seed_rows`): positions from
the origin's array form, occupancy M, words the stream keys, with no
ParticleSystem built. The rows that leave at one step are copied out
of their slots in one assignment per array, gathered into blocks, and
packaged into a ResultBlock in one pass (`package_rows`): status,
d_disp and walk counts are read for every row at once, so a short
replica costs little beyond its steps. A RunResult is one row of a
ResultBlock.

A ParticleSystem is the one-replica API over the same rows: its
step() and run() are the R = 1 case, a `lockstep_rows` pool whose one
row is the system's state (`_row`), which the system takes back
(`_settle`) as the row leaves or, when a step raises, at its last
completed step. Its result is the one row of a block packaged from its
state. A step gathers the movers' vertex rows and hands them, with
their draws, to `neighbor_array`, which may overwrite both: the tree,
the grid and the hypercube write the destinations into the gathered
rows. On K_n with loops a destination is the draw mod n, so there the
step gathers nothing and hands over None (`Topology.reads_source`).

Occupancy is counted on packed (replica, vertex) keys: replica * span
plus a vertex code in [0, span), where the span is n on K_n, star,
cycle, hypercube and cayley, and grows with the farthest distance
reached so far on the path, grid and tree. One
bincount over R*span bins counts them when R*span <= LOCKSTEP_ELEMENTS,
else one sort of keys with particle ids packed below them where those
words fit an int64, else one lexsort of the vertex rows under the replica
index. Each choice is made where its input changes, never in a step's
body. What depends on the family, the variant or the array shape
(whether the topology reads a mover's source, whether the variant
draws coins, whether a vertex is one int or rows, the truncated
leaves' depth) is fixed once per pool, as `lockstep_rows` starts. The
regime, the bin count and each slot's key offset are fixed once per
span, in `_Occupancy._respan`, when a count's span differs from the
latest one's; the span is looked up only when the reach changes. When
the batch narrows, a new `_Occupancy` for the R it keeps makes those
choices afresh. In the bincount regime a step that moves at most
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
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

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
    "ResultBlock",
    "ParticleSystem",
    "ReplicaRows",
    "LOCKSTEP_ELEMENTS",
    "lockstep_rows",
    "lockstep_batch_size",
    "package_rows",
    "seed_rows",
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


# A ResultBlock's status codes are indices into this.
_STATUSES = (Status.DISPERSED, Status.BUDGET_EXHAUSTED, Status.BOUNDARY_HIT)
_DISPERSED, _EXHAUSTED, _BOUNDARY = map(
    _STATUSES.index, (Status.DISPERSED, Status.BUDGET_EXHAUSTED, Status.BOUNDARY_HIT)
)


def _record(code, steps, d_disp, far, meetings, lo, mid, hi, seed) -> dict:
    """One replica's record from its Python-int fields."""
    return {
        "schema": SCHEMA,
        "status": _STATUSES[code].value,
        "t_disp": steps if code == _DISPERSED else None,
        "d_disp": d_disp,
        "max_distance_ever": far,
        "meeting_total": meetings,
        "walk_steps_min": lo,
        "walk_steps_median": mid,
        "walk_steps_max": hi,
        "seed": seed,
    }


class ResultBlock:
    """The results of a block of replicas of one run, one row each, kept
    as columns: `ids` (int64, as the rows' pool numbered them), `code`
    (each status's index in _STATUSES), `steps`, `d_disp`,
    `max_distance_ever` and `meeting_total` (int64), `boundary_flag`
    (bool), `seed` (uint64), the (rows, M) `walk_counts`, and
    `trajectories`, a TrajectoryLog per row when the run records, else
    None. `dispersed` and `boundary_hit` read the codes as row masks. A
    RunResult is one row of a block; `records()` gives every row's
    `to_record()` at once."""

    STATUSES = _STATUSES  # the status each code names

    def __init__(
        self, ids, code, steps, d_disp, max_distance_ever, meeting_total,
        boundary_flag, seed, walk_counts, trajectories=None,
    ):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.code = np.asarray(code, dtype=np.int8)
        self.steps = np.asarray(steps, dtype=np.int64)
        self.d_disp = np.asarray(d_disp, dtype=np.int64)
        self.max_distance_ever = np.asarray(max_distance_ever, dtype=np.int64)
        self.meeting_total = np.asarray(meeting_total, dtype=np.int64)
        self.boundary_flag = np.asarray(boundary_flag, dtype=bool)
        self.seed = np.asarray(seed, dtype=np.uint64)
        self.walk_counts = walk_counts
        self.trajectories = trajectories
        self._summary = None  # min, median and max of each row's walk counts

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dispersed(self) -> np.ndarray:
        return self.code == _DISPERSED

    @property
    def boundary_hit(self) -> np.ndarray:
        return self.code == _BOUNDARY

    def rows(self) -> list[RunResult]:
        return [RunResult._of(self, r) for r in range(len(self.ids))]

    def walk_summary(self) -> tuple[list[int], list[int], list[int]]:
        """Each row's minimum, (lower) median and maximum walk count, from
        one sort of the block along its rows."""
        if self._summary is None:
            counts = np.sort(self.walk_counts, axis=1)
            m = counts.shape[1]
            if m:
                self._summary = tuple(counts[:, c].tolist() for c in (0, (m + 1) // 2 - 1, -1))
            else:
                self._summary = ([0] * len(self),) * 3
        return self._summary

    def records(self) -> list[dict]:
        """Every row's `to_record()`, in row order."""
        columns = (self.code, self.steps, self.d_disp, self.max_distance_ever, self.meeting_total)
        fields = (*(c.tolist() for c in columns), *self.walk_summary(), self.seed.tolist())
        return [_record(*row) for row in zip(*fields)]


def _field(column: str, read: Callable[[Any], Any]) -> property:
    """A RunResult field: its row of the block's `column`, as `read` gives it."""
    return property(lambda self: read(getattr(self.block, column)[self.row]))


class RunResult:
    """One replica's result: row `row` of a ResultBlock, whose columns its
    fields read. Made from field values, it is the one row of a block of
    its own; its t_disp must be its steps when it dispersed, else None."""

    __slots__ = ("block", "row")

    def __init__(
        self, status: Status, steps: int, t_disp: Optional[int], d_disp: int,
        max_distance_ever: int, meeting_total: int, walk_counts: np.ndarray, seed: int,
        boundary_flag: bool = False, trajectories: Optional[TrajectoryLog] = None,
    ):
        code = _STATUSES.index(Status(status))
        if t_disp != (steps if code == _DISPERSED else None):
            raise ValueError("t_disp is a dispersed run's step count, else None")
        self.block = ResultBlock(
            [0], [code], [steps], [d_disp], [max_distance_ever], [meeting_total],
            [boundary_flag], [seed], np.asarray(walk_counts)[None], [trajectories],
        )
        self.row = 0

    @classmethod
    def _of(cls, block: ResultBlock, row: int) -> RunResult:
        res = cls.__new__(cls)
        res.block, res.row = block, row
        return res

    status = _field("code", _STATUSES.__getitem__)
    dispersed = _field("code", lambda code: bool(code == _DISPERSED))
    steps = _field("steps", int)
    d_disp = _field("d_disp", int)
    max_distance_ever = _field("max_distance_ever", int)
    meeting_total = _field("meeting_total", int)
    walk_counts = _field("walk_counts", np.asarray)
    seed = _field("seed", int)
    boundary_flag = _field("boundary_flag", bool)

    @property
    def t_disp(self) -> Optional[int]:
        return self.steps if self.dispersed else None

    @property
    def trajectories(self) -> Optional[TrajectoryLog]:
        logs = self.block.trajectories
        return None if logs is None else logs[self.row]

    def to_record(self) -> dict:
        b, r = self.block, self.row
        lo, mid, hi = b.walk_summary()
        return _record(
            int(b.code[r]), self.steps, self.d_disp, self.max_distance_ever,
            self.meeting_total, lo[r], mid[r], hi[r], self.seed,
        )


def _tags(variant: Variant) -> tuple[int, ...]:
    """The streams each particle draws from under `variant`."""
    return (DIRECTION_TAG, LAZINESS_TAG) if variant.kind == "lazy" else (DIRECTION_TAG,)


def stream_keys(seeds, particles: int, variant: Variant) -> np.ndarray:
    """The stream keys of `particles` particles under each of `seeds`, in
    one pass: a (tags, particles) uint64 block per seed, whose rows are
    the direction keys and, for the lazy variant, the laziness keys."""
    return stream_key_array(seeds, particles, _tags(variant))


def _start(topo: Topology, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (array form) and occupancy at t = 0: every particle on
    the origin."""
    return np.repeat(topo.to_array([topo.origin]), M, axis=-1), np.full(M, M, dtype=np.int64)


class ParticleSystem:
    """Mutable state of one run. Single-threaded by contract:
    exclusive mutation, no cross-system sharing. A system holds three
    state arrays, made in `__init__` as at t = 0: `_posv`, the positions
    in array form; `_occ`, each particle's count of particles on its
    vertex at the start of step t, which only the stepping loops write;
    and `_words`, the state words key + GOLDEN * count that the loops
    step (see rng), in a block shaped as the keys.

    `spec` may be the graph's Topology instead, so that several systems
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

        self._lazy = variant.kind == "lazy"
        self._reference = force_generic  # step on the scalar reference loop
        # Stream keys, one (tags, M) block, direction row first.
        if keys is None:
            keys = stream_keys([self.seed], particles, variant)[0]
        elif keys.dtype != np.uint64 or keys.shape != (len(_tags(variant)), particles):
            raise ValueError("keys must be one seed's block of stream_keys")
        self._keys = keys
        self._posv, self._occ = _start(topo, particles)
        self._words = keys.copy()

    # -- queries -------------------------------------------------------

    @property
    def positions(self) -> list[Any]:
        return self.topo.from_array(self._posv)

    @property
    def walk_counts(self) -> np.ndarray:
        return stream_counts(self._words[0], self._keys[0])

    def is_dispersed(self) -> bool:
        return int(self._occ.max()) <= 1

    @property
    def boundary_abort(self) -> bool:
        """Whether a particle passed COORDINATE_LIMIT on an unbounded graph."""
        return self.topo.unbounded and self.max_distance_ever > COORDINATE_LIMIT

    def _unhappy(self) -> np.ndarray:
        """Mask of the particles that share their vertex."""
        return self._occ >= 2

    def happy_unhappy_counts(self) -> tuple[int, int]:
        unhappy = int(np.count_nonzero(self._unhappy()))
        return self.particles - unhappy, unhappy

    def record_trajectories(self, on: bool) -> None:
        """Whether run() returns a TrajectoryLog. A log replays its seed
        from t = 0, so it may be turned on at any step."""
        self._record = on

    # -- a pool row ------------------------------------------------------

    def _row(self, i: int) -> ReplicaRows:
        """The system's state as a block of one row, id i, on its own arrays."""
        occ = self._occ
        book = [occ.sum(), self.t, self.meeting_total, self.max_distance_ever, self.boundary_flag]
        return ReplicaRows(
            np.array([i]), self._posv[..., None, :], self._words[:, None], self._keys[0][None],
            occ[None], np.array(book, dtype=np.int64)[:, None],
        )

    def _settle(self, rows: ReplicaRows, r: int) -> None:
        """Take a copy of row r of `rows` as the system's state."""
        self._posv = rows.pos[..., r, :].copy()
        self._words, self._occ = rows.words[:, r].copy(), rows.occ[r].copy()
        _, self.t, self.meeting_total, self.max_distance_ever, flag = rows.book[:, r].tolist()
        self.boundary_flag = bool(flag)

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
            return
        # The system is the one row of its own pool, settled as it leaves
        # or, when a step raises, at its last completed step.
        rows = [self._row(0)]
        take = lambda n: rows.pop() if rows else None
        settle = lambda left: self._settle(left, 0)
        for left in lockstep_rows(self.topo, self.particles, self.variant, take, t_end, settle):
            settle(left)

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
        """The result of the run so far: the one row of the block that
        packages the system's state."""
        seed = np.array([self.seed], dtype=np.uint64)
        rows = self._row(0)
        return RunResult._of(package_rows(self.topo, self.variant, rows, seed, self._record, self._reference), 0)


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
    changed span or a fresh batch recounts too.

    What depends only on the span (the regime, the bin count and each
    particle's replica offset) is fixed in `_respan` when the span
    changes, and the span is looked up only when the reach does, so a
    step's count only makes its keys and counts them. Keys are always a
    new array, codes plus offsets: the kept keys never share memory
    with the positions.
    Lazy K_n steps move a few percent of the batch, so nearly all of
    their counts update; a standard K_n pool in its long steady state
    moves too many particles to update, and so does most of a path's
    run."""

    def __init__(self, topo: Topology, M: int, R: int):
        self.topo, self.M, self.R = topo, M, R
        self.codes = topo.vertex_codes
        self.reach = self.span = None  # of the latest count
        self.bits = (R * M - 1).bit_length()  # of a particle's flat index
        self.cnt = self.key = None  # the kept bins and keys, if any
        self.refilled = []  # slots entered since the kept arrays were counted
        self.sparse = UPDATE_FRACTION * R * M  # most movers a step may have to update

    def _respan(self, span: int) -> None:
        """Fix everything that depends only on the span, and drop the kept
        arrays: `bins`, whether counts are by bincount (R * span fits
        LOCKSTEP_ELEMENTS); `packs`, whether a sort packs each particle's
        index into the low `bits` of its key (R * span fits
        INT64_MAX >> bits), and where neither holds the vertex rows are
        lexsorted; `size`, the bin count; and `base`, each particle's
        replica offset, replica * span, where keys are made."""
        self.span, self.size = span, self.R * span
        self.bins = self.size <= LOCKSTEP_ELEMENTS
        self.packs = self.size <= INT64_MAX >> self.bits
        self.cnt = self.key = None
        self.refilled = []
        if self.bins or self.packs:
            self.base = np.repeat(np.arange(self.R, dtype=np.int64) * span, self.M)

    def keys(self, v: np.ndarray, reach: int, at: Optional[np.ndarray] = None) -> np.ndarray:
        """replica * span + code of the array-form vertices v, which lie
        within distance `reach` of the origin, for the span of the latest
        count, in a new array; v holds the particles of flat indices `at`,
        or all of them when `at` is None. Only where `bins` or `packs`
        holds."""
        return self.codes(v, reach) + (self.base if at is None else self.base.take(at))

    def refill(self, js: Iterable[int]) -> None:
        """Slots js have newcomers: an update at the next count recounts
        those slots' bins and keys."""
        if self.cnt is not None:
            self.refilled.extend(js)

    def __call__(
        self, v: np.ndarray, reach: int, movers: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The counts at positions v. `movers` are the flat indices of the
        only particles that moved since the latest count, apart from the
        slots refilled since; None counts afresh and keeps nothing."""
        if reach != self.reach:
            self.reach = reach
            span = self.topo.code_span(reach)
            if span != self.span:
                self._respan(span)
        if self.bins:
            if movers is None or movers.size > self.sparse:
                self.cnt = self.key = None
                self.refilled = []
                keys = self.codes(v, reach) + self.base
                return np.bincount(keys, minlength=self.size).take(keys)
            if self.cnt is None:
                self.key = self.codes(v, reach) + self.base
                self.cnt = np.bincount(self.key, minlength=self.size)
            else:
                cnt, key, span = self.cnt, self.key, self.span
                new = self.keys(v.take(movers, axis=-1), reach, movers)
                np.subtract.at(cnt, key.take(movers), 1)
                np.add.at(cnt, new, 1)
                key[movers] = new
                # A refilled slot's bins and keys are its own: a stale key
                # above touched only them, and they are overwritten whole.
                for j in self.refilled:
                    codes = self.codes(v[..., j * self.M : (j + 1) * self.M], reach)
                    cnt[j * span : (j + 1) * span] = np.bincount(codes, minlength=span)
                    key[j * self.M : (j + 1) * self.M] = codes + j * span
            self.refilled = []
            return self.cnt.take(self.key)
        first = np.empty(v.shape[-1], dtype=bool)
        first[:1] = True
        if self.packs:
            # Words key << bits | index are distinct, so one plain sort
            # orders them by key and gives each particle's index back.
            packed = self.keys(v, reach)
            packed <<= self.bits
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


def _slots(js: np.ndarray):
    """The slots js as an index: a slice where they are consecutive, as
    one leaver's are, which numpy reads and writes faster than an array."""
    if js.size and js[-1] - js[0] == js.size - 1:
        return slice(int(js[0]), int(js[-1]) + 1)
    return js


class ReplicaRows(NamedTuple):
    """A block of replica states, one row each, as a lockstep pool takes
    them in and gives them out. A fresh row, every particle on the origin
    at step 0 with its words its keys, has `pos`, `occ` and `book` None."""

    ids: np.ndarray  # (n,) int64, as the pool's caller numbers its replicas
    pos: Optional[np.ndarray]  # (rows..., n, M) positions in array form
    words: np.ndarray  # (tags, n, M) stream words
    keys: np.ndarray  # (n, M) direction keys, which walk counts are read against
    occ: Optional[np.ndarray]  # (n, M) step-start occupancy
    # (5, n) int64: each row's load (its particles' summed occupancy),
    # step, meeting total, reach and boundary flag.
    book: Optional[np.ndarray]


def seed_rows(M: int, variant: Variant, seeds: Sequence[int], chunk: int):
    """A `take` for `lockstep_rows`: fresh rows of M particles under
    `seeds`, in order, with ids their indices in `seeds`. Stream keys are
    derived `chunk` seeds at a time in one pass, and only once every row
    of the chunk before is taken, so at most one chunk waits."""
    base = at = 0  # seeds[base] is the first seed of the chunk; `at` of it are taken
    keys = np.empty((len(_tags(variant)), 0, M), dtype=np.uint64)  # the chunk's, words layout

    def take(n: int) -> Optional[ReplicaRows]:
        nonlocal base, at, keys
        if at == keys.shape[1]:
            if base + at == len(seeds):
                return None
            base, at = base + at, 0
            keys = stream_keys(seeds[base : base + chunk], M, variant).transpose(1, 0, 2)
        lo, at = at, min(at + n, keys.shape[1])
        ids = np.arange(base + lo, base + at)
        return ReplicaRows(ids, None, keys[:, lo:at], keys[0, lo:at], None, None)

    return take


def package_rows(
    topo: Topology, variant: Variant, rows: ReplicaRows, seeds: np.ndarray,
    record: bool = False, reference: bool = False,
) -> ResultBlock:
    """The results of `rows`, whose seeds are `seeds` (uint64, one per
    row), as one block: status, d_disp and walk counts are read for all
    of them at once. With `record`, each row gets a TrajectoryLog of the
    loop named by `reference`."""
    M = rows.keys.shape[-1]
    load, t, meetings, far, flag = rows.book.copy()  # rows may be views the pool writes over
    shape = rows.pos.shape[:-2]  # of an array-form vertex
    d_disp = topo.distance_array(rows.pos.reshape(shape + (-1,))).reshape(-1, M).max(1)
    # Dispersed exactly when every load is M.
    code = np.where(load == M, _DISPERSED, _EXHAUSTED).astype(np.int8)
    flagged = flag != 0
    code[flagged | (far > COORDINATE_LIMIT) if topo.unbounded else flagged] = _BOUNDARY
    logs = None
    if record:
        logs = [
            TrajectoryLog(
                topo.spec, M, topo.origin, s, variant, reference, steps, rows.pos[..., r, :].copy()
            )
            for r, (s, steps) in enumerate(zip(seeds.tolist(), t.tolist()))
        ]
    return ResultBlock(
        rows.ids.copy(), code, t, d_disp, far, meetings, boundary_flag=flagged, seed=seeds,
        walk_counts=stream_counts(rows.words[0], rows.keys), trajectories=logs,
    )


def lockstep_rows(
    topo: Topology,
    M: int,
    variant: Variant,
    take: Callable[[int], Optional[ReplicaRows]],
    t_end: int,
    give_back: Optional[Callable[[ReplicaRows], Any]] = None,
    gather: int = 1,
) -> Iterator[ReplicaRows]:
    """Advance replicas of M particles on topo under variant to step t_end
    (or dispersal) in lockstep, bit for bit as if each ran alone, and
    yield the rows that leave, in the order they left, as blocks of at
    least `gather` rows (the last one excepted).

    `take(n)` gives the pool up to n rows (a block of fresh rows, or any
    rows, at any step), or None once it has no more; it is called only
    for slots that are free. At most `lockstep_batch_size` rows are live
    at once, each in a slot of flat arrays of R*M particles laid end to
    end, and one occupancy count over (replica, vertex) keys serves every
    replica. A block's rows fill their slots in one assignment per array;
    a fresh row's slot is filled from the origin's array form, its keys
    and M, and is recounted at the next count like any other newcomer. A
    row leaves, keeping its own step, once it reaches t_end or disperses
    or, on an unbounded graph, once its reach passes COORDINATE_LIMIT.
    The rows that leave at one step are copied from their slots into the
    block being gathered in one assignment per array; with `gather` 1,
    each exit's block is yielded before `take` fills the slots it freed.
    A yielded block is a view of the gathering arrays, which the pool
    writes over once it resumes, so a caller copies what it keeps. Once
    `take` is spent and a slot stays empty, the live slots are cut, in
    their order, into a batch as wide as they are. A step that raises
    leaves each live row at its last completed step; if the pool is
    closed or raises, the rows it still holds, and those it gathered,
    are handed to `give_back` when it is given.
    """
    lazyv = variant.kind == "lazy"
    # A coin's draw r moves its particle when to_unit(r) < p, that is r <= this.
    threshold = np.uint64(unit_threshold(variant.p)) if lazyv else None
    leaf = topo.spec.family is Family.TREE and topo.leaf_depth  # truncated leaves' depth
    unbounded = topo.unbounded
    full = topo.max_distance
    sourced = topo.reads_source  # else a step gathers no movers' positions
    start_pos = _start(topo, M)[0][..., None, :]  # a fresh row's, as a block of one
    # A fresh row's book, its lag and id set as it enters: a replica's
    # load, the sum over its particles of their vertex's occupancy, is M
    # exactly when it is dispersed, else M + 2 * its meetings.
    fresh = np.array([[M * M], [0], [0], [0], [0], [0]], dtype=np.int64)
    rows = start_pos.shape[:-2]  # of an array-form vertex
    flat = not rows  # else the rows of the grid, the hypercube or the tree
    tags = len(_tags(variant))  # streams per particle
    # The pool's own step count k: slot j is at step k + lag[j].
    k = 0
    book = None  # each slot's load, lag, meetings, reach, flag and row id (-1 while free)
    out = None  # the gathering arrays, made at the first exit
    a = 0  # rows gathered since the last yield

    def pull(n):
        """Up to n rows from `take`, as the blocks it gave."""
        got = []
        while n:
            block = take(n)
            if block is None:
                break
            got.append(block)
            n -= len(block.ids)
        return got

    def fill(js, blocks):
        """Enter the rows of `blocks` into the free slots js, in order;
        returns how many entered."""
        O = occ.reshape(R, M)
        e = 0
        for block in blocks:
            n = len(block.ids)
            sel = _slots(js[e : e + n])
            e += n
            W[:, sel] = block.words
            K[sel] = block.keys
            if block.pos is None:
                P[..., sel, :] = start_pos
                O[sel] = M
                fresh[1] = -k
                book[:, sel] = fresh
                ident[sel] = block.ids
            else:
                P[..., sel, :] = block.pos
                O[sel] = block.occ
                b = block.book
                # Twice the meetings so far plus M per step: a step adds its load.
                book[:, sel] = b[0], b[1] - k, 2 * b[2] + M * b[1], b[3], b[4], block.ids
        occupancy.refill(js[:e].tolist())
        return e

    def cut(js):
        """Copy the rows of slots js into the block being gathered, with
        each one's own step, and free the slots."""
        nonlocal out, a
        if out is None:
            # Room for the rows that leave while fewer than `gather` are held.
            n = gather + R - 1
            out = ReplicaRows(
                None,
                np.empty(rows + (n, M), dtype=np.int64),
                np.empty((tags, n, M), dtype=np.uint64),
                np.empty((n, M), dtype=np.uint64),
                np.empty((n, M), dtype=np.int64),
                np.empty((6, n), dtype=np.int64),
            )
        sel, to = _slots(js), slice(a, a + js.size)
        out.book[:, to] = book[:, sel]
        out.book[1, to] += k  # step
        out.pos[..., to, :] = P[..., sel, :]
        out.words[:, to] = W[:, sel]
        out.keys[to] = K[sel]
        out.occ[to] = occ.reshape(R, M)[sel]
        ident[sel] = -1
        a += js.size

    def gathered():
        """The rows gathered so far, as one block of views into the
        gathering arrays, which the next cut writes over."""
        nonlocal a
        b = out.book[:, :a]
        b[2] -= M * b[1]
        b[2] //= 2  # meetings
        held, a = slice(0, a), 0
        return ReplicaRows(
            b[5], out.pos[..., held, :], out.words[:, held], out.keys[held], out.occ[held], b[:5]
        )

    try:
        first = pull(lockstep_batch_size(topo, M))
        if not first:
            return
        R = sum(len(block.ids) for block in first)
        pos = np.empty(rows + (R * M,), dtype=np.int64)
        words = np.empty((tags, R * M), dtype=np.uint64)
        dw, lw = words[0], words[-1]  # lw is read only when lazy
        dkeys = np.empty(R * M, dtype=np.uint64)
        P, W, K = pos.reshape(rows + (R, M)), words.reshape(tags, R, M), dkeys.reshape(R, M)
        occ = np.empty(R * M, dtype=np.int64)
        # Each slot's load, lag, doubled meetings plus M per step, reach,
        # boundary flag and row id, in rows that a cut copies in one take.
        book = np.full((6, R), -1, dtype=np.int64)
        load, lag, meet, far, flag, ident = book
        occupancy = _Occupancy(topo, M, R)
        fill(np.arange(R), first)
        while True:
            reach = int(far.max())
            all_far = reach == full and bool((far == full).all())
            due = t_end - int(lag.max())  # k at which the first slot reaches t_end
            while True:
                outside = unbounded and reach > COORDINATE_LIMIT
                if k >= due or np.minimum.reduce(load) == M or outside:
                    leave = load == M
                    if k >= due:
                        leave |= lag >= t_end - k
                    if outside:
                        leave |= far > COORDINATE_LIMIT
                    gone = leave.nonzero()[0]
                    if not gone.size:  # each way in names a leaving slot; else the pool spins
                        raise RuntimeError("lockstep pool: no slot leaves at its exit")
                    cut(gone)
                    if a >= gather:
                        yield gathered()
                    if fill(gone, pull(gone.size)) < gone.size:  # `take` is spent: narrow the batch
                        keep = (ident >= 0).nonzero()[0]
                        if not keep.size:
                            if a:
                                yield gathered()
                            return
                        R = keep.size
                        pos = pos.reshape(rows + (-1, M)).take(keep, axis=-2).reshape(rows + (R * M,))
                        words = words.reshape(tags, -1, M).take(keep, axis=1).reshape(tags, R * M)
                        dw, lw = words[0], words[-1]
                        dkeys = dkeys.reshape(-1, M).take(keep, axis=0).reshape(R * M)
                        P, W, K = pos.reshape(rows + (R, M)), words.reshape(tags, R, M), dkeys.reshape(R, M)
                        occ = occ.reshape(-1, M).take(keep, axis=0).reshape(R * M)
                        book = book.take(keep, axis=1)
                        load, lag, meet, far, flag, ident = book
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
                    dest = None
                    if sourced:
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
                np.add.reduce(occ.reshape(R, M), 1, out=load)
    except BaseException:
        if give_back is not None and book is not None:
            held = (ident >= 0).nonzero()[0]
            if held.size:
                cut(held)
            if a:
                give_back(gathered())
        raise
