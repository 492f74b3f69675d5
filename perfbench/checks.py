"""Output checks behind `attempted`, `failed` and `ok_frac`.

A result is a pure function of (spec, M, variant, seed, budget), so a
kernel that changes any bit of a replica's output fails here rather
than showing up as a speed-up. Every replica is checked against:

- the stored record table, when the workload runs at full size with its
  default seed (`expected.json`);
- seed-independent invariants, for every seed;
- the same replica in the run's first repeat (repeats must agree bit
  for bit);
- for the CLI workload, the NDJSON replica records against a library
  `run_replicas` of the same spec.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from disperse import SCHEMA, Family, Status, oracles

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def record(r) -> dict:
    """The stored per-replica fields of one RunResult."""
    counts = np.ascontiguousarray(r.walk_counts, dtype="<i8")
    return {
        "status": r.status.value,
        "t_disp": r.t_disp,
        "d_disp": r.d_disp,
        "max_distance_ever": r.max_distance_ever,
        "meeting_total": r.meeting_total,
        "walk_sha256": hashlib.sha256(counts.tobytes()).hexdigest(),
    }


def load_table(name: str, seed: int):
    """Stored records of workload `name` at `seed`, or None when the
    table holds no records for that seed."""
    entry = json.loads(EXPECTED_PATH.read_text()).get(name)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["records"]


def invariant_problems(exp, topo, r) -> list[str]:
    """Seed-independent properties of one replica's result."""
    out = []
    counts = np.asarray(r.walk_counts)
    walk = int(counts.sum())
    if counts.shape != (exp.M,) or (counts < 0).any():
        out.append("walk_counts shape or sign")
    if not 0 <= r.steps <= exp.budget:
        out.append("steps outside [0, budget]")
    if (r.t_disp == r.steps) != (r.status is Status.DISPERSED):
        out.append("t_disp disagrees with status")
    if r.d_disp > r.max_distance_ever:
        out.append("d_disp > max_distance_ever")
    if r.meeting_total < r.steps:
        out.append("fewer meetings than steps")
    if walk > exp.M * r.steps:
        out.append("more moves than particles x steps")
    if exp.variant.kind == "standard" and walk < 2 * r.steps:
        out.append("standard variant moved fewer than 2 particles a step")
    if r.status is Status.DISPERSED:
        if r.d_disp < topo.pigeonhole_radius(exp.M):
            out.append("d_disp below the pigeonhole radius")
        if topo.spec.family is Family.PATH and exp.M >= 2:
            if r.d_disp < oracles.path_distance_bounds(exp.M, 0.25)[0]:
                out.append("d_disp below the line's lower bound")
    return out


def parity_problems(topo, positions, walk_counts) -> list[str]:
    """On a bipartite graph every move flips the parity of the distance
    to the origin, so each walk count has the parity of its distance."""
    if not topo.is_bipartite():
        return []
    bad = sum(
        (int(c) - topo.distance_to_origin(v)) % 2
        for v, c in zip(positions, walk_counts)
    )
    return [f"{bad} particles break walk/distance parity"] if bad else []


def ndjson_problems(text: str, results, stats) -> list[list[str]]:
    """Per replica: how the CLI's NDJSON disagrees with the library."""
    lines = [json.loads(line) for line in text.splitlines()]
    replicas = [rec for rec in lines if rec.get("record") == "replica"]
    aggregates = [rec for rec in lines if rec.get("record") == "aggregate"]
    want_agg = {"schema": SCHEMA, "record": "aggregate", **stats.to_row()}
    shared = []
    if len(replicas) != len(results):
        shared.append(f"{len(replicas)} replica records for {len(results)} replicas")
    if len(aggregates) != 1 or not _same(aggregates[0], want_agg):
        shared.append("aggregate record differs from the library")
    out = []
    for i, r in enumerate(results):
        want = {**r.to_record(), "record": "replica", "replica": i}
        got = replicas[i] if i < len(replicas) else None
        out.append(shared + ([] if got is not None and _same(got, want) else ["record differs"]))
    return out


def _same(got: dict, want: dict) -> bool:
    # Round-trip through JSON so ints, floats and None compare as the
    # file stores them; NaN never appears in these records.
    return got == json.loads(json.dumps(want))


def compare(records: list[dict], reference: list[dict]) -> list[list[str]]:
    """Per replica: which fields differ from a reference record list."""
    out = []
    for i, rec in enumerate(records):
        ref = reference[i] if i < len(reference) else None
        if ref is None:
            out.append(["no reference record"])
        else:
            out.append([f"{k} differs" for k in ref if rec.get(k) != ref[k]])
    if len(reference) != len(records):
        out = [p + [f"{len(reference)} reference records"] for p in out]
    return out
