"""Golden-result corpus: fixed records that every kernel must reproduce.

Each case is one small experiment (topology, M, variant, budget, master
seed) of three replicas, replica i seeded with derive_seed(master, i)
as `harness.run_replicas` seeds it. Its stored record per replica holds
the status, t_disp, d_disp, max_distance_ever, meeting_total and steps,
and SHA-256 digests of the walk counts, the final positions and the
recorded trajectory events.

The corpus is fixed data: a kernel that disagrees with it is wrong.
`--write` generates it from the scalar reference loop
(force_generic=True), the one implementation every kernel is checked
against. Regenerate it only on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/golden/corpus.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

CORPUS_PATH = Path(__file__).resolve().parent / "corpus.json"

REPLICAS = 3
BUDGET = 600
CUT_BUDGET = 3  # cuts most cases mid-run
VARIANTS = {"standard": None, "lazy0.5": 0.5, "lazy1.0": 1.0}

# name -> (TopologySpec constructor arguments, M)
TOPOLOGIES = {
    "complete": (("complete", {"n": 12}), 7),
    "complete-loops": (("complete", {"n": 12, "with_loops": True}), 7),
    "star": (("star", {"leaves": 12}), 5),
    "path": (("path", {}), 6),
    "cycle": (("cycle", {"n": 16}), 7),
    "tree": (("tree", {"k": 3}), 10),
    "tree-truncated": (("tree", {"k": 3, "leaf_depth": 2}), 8),
    "tree-binary": (("tree", {"k": 2, "leaf_depth": 0}), 5),
    "grid": (("grid", {"dim": 2}), 6),
    "hypercube": (("hypercube", {"dim": 8}), 6),
    "hypercube-64": (("hypercube", {"dim": 64}), 6),
    "cayley": (
        ("cayley", {"moduli": (4, 3), "generators": [(1, 0), (-1, 0), (0, 1), (0, -1)]}),
        5,
    ),
}


def cases() -> list[tuple[str, str, int, int]]:
    """(topology, variant, budget, master seed) of every case."""
    out = []
    for topo in TOPOLOGIES:
        for variant in VARIANTS:
            for master in (11, 12, 13):
                out.append((topo, variant, BUDGET, master))
            out.append((topo, variant, CUT_BUDGET, 14))
    return out


def case_id(case) -> str:
    topo, variant, budget, master = case
    return f"{topo}-{variant}-b{budget}-s{master}"


def experiment(case):
    from disperse import ExperimentSpec, TopologySpec, lazy, STANDARD

    topo, variant, budget, master = case
    (ctor, kwargs), M = TOPOLOGIES[topo]
    spec = getattr(TopologySpec, ctor)(**kwargs)
    p = VARIANTS[variant]
    return ExperimentSpec(
        spec,
        M,
        STANDARD if p is None else lazy(p),
        budget=budget,
        replicas=REPLICAS,
        master_seed=master,
        record_trajectories=True,
    )


def _sha(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def _json(value) -> str:
    # Tuple addresses serialise as lists; the digest pins their values.
    return json.dumps(value, separators=(",", ":"))


def record(result, positions) -> dict:
    """The stored fields of one replica."""
    counts = np.ascontiguousarray(result.walk_counts, dtype="<i8")
    return {
        "status": result.status.value,
        "t_disp": result.t_disp,
        "d_disp": result.d_disp,
        "max_distance_ever": result.max_distance_ever,
        "meeting_total": result.meeting_total,
        "steps": result.steps,
        "walk_sha256": _sha(counts.tobytes()),
        "positions_sha256": _sha(_json(list(positions))),
        "events_sha256": _sha(_json(result.trajectories.events)),
    }


def replay(case, kernel: str) -> list[dict]:
    """Records of one case's replicas, run through one kernel:
    "harness" (run_replicas in one lockstep pool), "pool" (run_replicas
    with the pool's width forced to 2, so the third replica takes over
    a freed slot), "single" (one ParticleSystem per replica, default
    kernel) or "generic" (force_generic=True, the scalar reference
    loop)."""
    from disperse import ParticleSystem, derive_seed, engine, run_replicas

    exp = experiment(case).resolve()
    if kernel in ("harness", "pool"):
        width = engine.lockstep_batch_size
        if kernel == "pool":
            engine.lockstep_batch_size = lambda topo, M: 2
        try:
            results, _ = run_replicas(exp)
        finally:
            engine.lockstep_batch_size = width
        return [
            record(r, r.trajectories.positions_at(r.trajectories.steps)) for r in results
        ]
    out = []
    for i in range(exp.replicas):
        ps = ParticleSystem(
            exp.topology,
            exp.M,
            variant=exp.variant,
            seed=derive_seed(exp.master_seed, i),
            force_generic=kernel == "generic",
        )
        ps.record_trajectories(True)
        result = ps.run(exp.budget)
        out.append(record(result, ps.positions))
    return out


def load() -> dict:
    return json.loads(CORPUS_PATH.read_text())


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    corpus = {case_id(c): replay(c, "generic") for c in cases()}
    # One case per line.
    lines = [
        f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(corpus.items())
    ]
    CORPUS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(corpus)} cases to {CORPUS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
