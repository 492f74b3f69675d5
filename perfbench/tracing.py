"""Spans around the calls between layers, and per-layer timings.

The traced run records a span (name, start, end, parent, workload,
repeat, replica) at each call that crosses a layer boundary:

    cli.parse_and_dispatch -> harness.run_replicas
    harness.run_replicas   -> rng.derive_seed, engine.init, engine.run,
                              harness.aggregate
    engine.init            -> topology.build

The spans are recorded from this file by rebinding those names in the
calling module for the duration of one traced call (`instrument`), and
restoring them afterwards. Calls inside the stepping kernels (scalar
draws, neighbour queries) are far too frequent for a span each; their
time is engine self time, and their unit cost comes from the
micro-benchmarks at the end of this file instead.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

import disperse.cli
import disperse.engine
import disperse.harness
from disperse.rng import draw, draw_array, stream_key
from disperse.topology import build

LAYERS = ("cli", "harness", "engine", "topology", "rng")


class Tracer:
    """In-memory span list of one traced run; one instance per run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, repeat, replica]
        self.repeat = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, replica=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.repeat, replica])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter_ns()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def to_json(self) -> list[dict]:
        keys = ("name", "start_ns", "end_ns", "parent", "repeat", "replica")
        return [dict(zip(keys, s), workload=self.workload) for s in self.spans]


def _traced_system(tracer: Tracer, base):
    """ParticleSystem subclass whose construction and run are spans,
    numbered by replica in construction order."""
    replicas = itertools.count()

    class TracedSystem(base):
        def __init__(self, *args, **kwargs):
            self._bench_replica = next(replicas)
            with tracer.span("engine.init", self._bench_replica):
                super().__init__(*args, **kwargs)

        def run(self, *args, **kwargs):
            with tracer.span("engine.run", self._bench_replica):
                return super().run(*args, **kwargs)

    return TracedSystem


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the layer-boundary names that the program looks up at call
    time so each call records a span. A name that a later version of the
    program no longer has is left alone; its layer then reads as self
    time of its caller."""
    patches = [
        (disperse.cli, "run_replicas", lambda f: tracer.wrap("harness.run_replicas", f)),
        (disperse.harness, "ParticleSystem", lambda f: _traced_system(tracer, f)),
        (disperse.harness, "aggregate", lambda f: tracer.wrap("harness.aggregate", f)),
        (disperse.harness, "derive_seed", lambda f: tracer.wrap("rng.derive_seed", f)),
        (disperse.engine, "build", lambda f: tracer.wrap("topology.build", f)),
    ]
    saved = []
    try:
        for module, name, make in patches:
            if hasattr(module, name):
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, make(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def repeat_summary(spans: list[list], repeat: int) -> dict:
    """Self time per layer and span totals of one traced repeat, in
    seconds. Self time is a span's duration minus its children's."""
    own = [i for i, s in enumerate(spans) if s[4] == repeat]
    child: defaultdict[int, int] = defaultdict(int)
    for i in own:
        child[spans[i][3]] += spans[i][2] - spans[i][1]
    self_s = dict.fromkeys(LAYERS, 0.0)
    total_s: defaultdict[str, float] = defaultdict(float)
    count: Counter = Counter()
    for i in own:
        name, start, end = spans[i][:3]
        self_s[name.split(".")[0]] += (end - start - child[i]) * 1e-9
        total_s[name] += (end - start) * 1e-9
        count[name] += 1
    return {"self_s": self_s, "total_s": total_s, "count": count}


# -- micro-benchmarks ---------------------------------------------------------


def _ns_per_item(body, items: int, batches: int = 5) -> float:
    times = []
    for _ in range(batches):
        t0 = perf_counter_ns()
        body()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times) / items


def rng_costs(seed: int, movers: int) -> dict:
    """ns per scalar draw, per draw_array element at `movers` elements,
    and per stream_key derivation."""
    key = stream_key(seed, 0, 0)
    n = 20_000

    def scalar():
        for c in range(1, n + 1):
            draw(key, c)

    m = max(1, movers)
    keys = np.array([stream_key(seed, i, 0) for i in range(m)], dtype=np.uint64)
    counters = np.arange(1, m + 1, dtype=np.int64)
    reps = max(20, 200_000 // m)

    def vector():
        for _ in range(reps):
            draw_array(keys, counters)

    def keying():
        for i in range(n):
            stream_key(seed, i, 0)

    return {
        "rng.draw_ns": _ns_per_item(scalar, n),
        "rng.draw_array_ns_per_elem": _ns_per_item(vector, reps * m),
        "rng.stream_key_ns": _ns_per_item(keying, n),
    }


def topology_costs(spec, positions: list) -> dict:
    """µs per build, and ns per degree / neighbor / distance_to_origin
    call on the given vertices (a run's final positions)."""
    topo = build(spec)
    reps = 200

    def building():
        for _ in range(reps):
            build(spec)

    verts = positions * -(-10_000 // len(positions))
    pairs = [(v, j % topo.degree(v)) for j, v in enumerate(verts)]
    deg, nbr, dist = topo.degree, topo.neighbor, topo.distance_to_origin

    def degrees():
        for v in verts:
            deg(v)

    def neighbors():
        for v, i in pairs:
            nbr(v, i)

    def distances():
        for v in verts:
            dist(v)

    return {
        "topology.build_us": _ns_per_item(building, reps) * 1e-3,
        "topology.neighbor_ns": _ns_per_item(neighbors, len(pairs)),
        "topology.degree_ns": _ns_per_item(degrees, len(verts)),
        "topology.distance_ns": _ns_per_item(distances, len(verts)),
    }
