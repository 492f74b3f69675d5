"""Measurement and checks behind run.py; see its docstring."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import calibration
import disperse
import checks
import tracing
import workloads
from disperse import ParticleSystem, derive_seed
from disperse.cli import parse_and_dispatch
from disperse.harness import run_replicas
from disperse.topology import build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Metric names, units and bounds live in one place: BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_PROBES = 9
MIN_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="master seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    return ap.parse_args(argv)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            commit = done.stdout.strip() or commit
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def setup_times(w, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to it being ready to
    start the first replica, once per probe: scaled to the nominal
    machine speed by calibration rounds right before and after each
    probe (calibration.py), and raw."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), w.name, str(seed)]
    if w.tiny:
        cmd.append("--tiny")
    scaled, raw = [], []
    before = calibration.round_s()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        after = calibration.round_s()
        scaled.append(elapsed * calibration.NOMINAL_S / statistics.mean((before, after)))
        raw.append(elapsed)
        before = after
    return scaled, raw


def step_profile(exp):
    """Replay replica 0 one public step() at a time. Returns the step
    ratios, the final RunResult and the final positions."""
    ps = ParticleSystem(
        exp.topology, exp.M, variant=exp.variant,
        seed=derive_seed(exp.master_seed, 0), walk_mode=exp.walk_mode,
    )
    unhappy = movers = newly_happy = 0
    while ps.t < exp.budget and not ps.is_dispersed() and not ps.boundary_abort:
        unhappy += ps.happy_unhappy_counts()[1]
        report = ps.step()
        movers += report.movers
        newly_happy += report.newly_happy
    positions = ps.positions
    result = ps.run(exp.budget)  # no steps left; packages the final state
    steps = max(result.steps, 1)
    ratios = {
        "engine.mover_fraction": movers / (steps * exp.M),
        "engine.lazy_move_ratio": movers / unhappy if unhappy else 0.0,
        "engine.newly_happy_per_mover": newly_happy / movers if movers else 0.0,
    }
    return ratios, movers / steps, result, positions


class Bench:
    """One workload at one seed: timed executions plus their checks."""

    def __init__(self, w, seed: int):
        self.w = w
        self.seed = seed
        self.exp = w.experiment(seed)
        self.topo = build(self.exp.topology)
        self.ndjson = OUT / f"{w.name}-{os.getpid()}.ndjson"
        self.reference = None  # (results, stats) that every repeat must reproduce
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()
        self.output_bytes = 0
        self.repeats = 0  # timed executions, traced ones included
        self.raw: dict = {}  # unscaled medians of the untraced run

    # -- execution ------------------------------------------------------------

    def _call(self):
        if self.w.via_cli:
            code = parse_and_dispatch(self.w.argv(self.seed, str(self.ndjson)))
            if code != 0:
                raise RuntimeError(f"disperse run exited with {code}")
            return None
        return run_replicas(self.exp)

    def execute(self, tracer=None, sampler=None) -> float:
        """Run the workload once and check its output; returns the wall
        seconds from the first replica's start to the aggregate (for the
        CLI workload, to the written NDJSON file). A calibration sampler
        runs during the timed call only."""
        if tracer is None:
            with sampler or contextlib.nullcontext():
                t0 = perf_counter()
                out = self._call()
                wall = perf_counter() - t0
        else:
            top = "cli.parse_and_dispatch" if self.w.via_cli else "harness.run_replicas"
            with tracing.instrument(tracer):
                t0 = perf_counter()
                with tracer.span(top):
                    out = self._call()
                wall = perf_counter() - t0
        self.check(out)
        self.repeats += 1
        return wall

    # -- checks -----------------------------------------------------------------

    def check(self, out) -> None:
        if self.reference is None:
            self.reference = out if out is not None else run_replicas(self.exp)
            self._check_reference()
        results, stats = self.reference
        if self.w.via_cli:
            text = self.ndjson.read_text()
            self.ndjson.unlink()
            self.output_bytes = len(text.encode())
            extra = checks.ndjson_problems(text, results, stats)
        else:
            extra = checks.compare([checks.record(r) for r in out[0]], self.ref_records)
        for base, more in zip(self.ref_problems, extra):
            self.attempted += 1
            if base or more:
                self.failed += 1
                self.problems.update(base + more)

    def _check_reference(self) -> None:
        results = self.reference[0]
        self.ref_records = [checks.record(r) for r in results]
        probs = [checks.invariant_problems(self.exp, self.topo, r) for r in results]
        table = None if self.w.tiny else checks.load_table(self.w.name, self.seed)
        if table is not None:
            probs = [a + b for a, b in zip(probs, checks.compare(self.ref_records, table))]
        self.profile, self.movers_per_step, result0, self.positions = step_profile(self.exp)
        replay = checks.compare([checks.record(result0)], self.ref_records[:1])[0]
        probs[0] += [f"step() replay: {p}" for p in replay]
        probs[0] += checks.parity_problems(self.topo, self.positions, result0.walk_counts)
        self.ref_problems = probs

    # -- counts -----------------------------------------------------------------

    def counts(self) -> dict:
        results = self.reference[0]
        return {
            "engine.steps": sum(r.steps for r in results),
            "engine.moves": sum(int(r.walk_counts.sum()) for r in results),
            "engine.meetings": sum(r.meeting_total for r in results),
            "engine.dispersed": sum(r.dispersed for r in results),
        }

    # -- the two kinds of run ------------------------------------------------------

    def untraced(self, seconds: float) -> dict:
        """End-to-end metrics. Every timing is scaled to the nominal
        machine speed (calibration.py); the raw medians are kept for the
        report."""
        setup, setup_raw = setup_times(self.w, self.seed)
        cal: list[float] = []
        walls: list[float] = []
        scaled: list[float] = []
        t_end = perf_counter() + seconds
        while len(walls) < MIN_REPEATS or perf_counter() < t_end:
            sampler = calibration.Sampler()
            walls.append(self.execute(sampler=sampler))
            scaled.append(sampler.scaled(walls[-1]))
            cal.append(sampler.round_s())
        wall = statistics.median(scaled)
        self.raw = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_raw),
            "round_s": statistics.median(cal),
        }
        return {
            "wall_s": wall,
            "moves_per_s": self.counts()["engine.moves"] / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - self.failed / self.attempted,
        }

    def traced(self, seconds: float, env: dict) -> dict:
        tracer = tracing.Tracer(self.w.name)
        plain: list[float] = []
        per_repeat: list[dict] = []
        spent = 0.0
        while len(per_repeat) < MIN_REPEATS or spent < seconds:
            plain.append(self.execute())
            tracer.repeat = len(per_repeat)
            wall = self.execute(tracer)
            summary = tracing.repeat_summary(tracer.spans, tracer.repeat)
            per_repeat.append(self._layer_times(summary, wall))
            spent += plain[-1] + wall

        m = {k: statistics.median(r[k] for r in per_repeat) for k in per_repeat[0]}
        m["trace.overhead_frac"] = m.pop("wall") / statistics.median(plain) - 1.0
        m["cli.output_bytes"] = self.output_bytes
        m.update(self.counts())
        m.update(self.profile)
        m.update(tracing.rng_costs(self.exp.master_seed, round(self.movers_per_step)))
        m.update(tracing.topology_costs(self.exp.topology, self.positions))

        doc = {"env": env, "workload": self.w.name, "seed": self.seed, "spans": tracer.to_json()}
        name = f"trace-{self.w.name}{'-tiny' if self.w.tiny else ''}-{self.seed}.json"
        (OUT / name).write_text(json.dumps(doc))
        return m

    def _layer_times(self, summary: dict, wall: float) -> dict:
        """Per-layer figures of one traced repeat."""
        total = summary["total_s"]
        own = summary["self_s"]
        counts = self.counts()
        run = total["engine.run"]
        inits = summary["count"]["engine.init"]

        def per(x, n):
            return x / n if n else 0.0

        return {
            "wall": wall,
            "engine.init_us_per_particle": per(total["engine.init"] * 1e6, inits * self.exp.M),
            "engine.run_us_per_step": per(run * 1e6, counts["engine.steps"]),
            "engine.run_ns_per_move": per(run * 1e9, counts["engine.moves"]),
            "engine.run_share": run / wall,
            "engine.self_s": own["engine"],
            "topology.self_s": own["topology"],
            "rng.self_s": own["rng"],
            "harness.overhead_s": own["harness"],
            "harness.aggregate_us_per_replica": total["harness.aggregate"] * 1e6 / self.exp.replicas,
            "cli.overhead_s": own["cli"],
            "trace.unattributed_frac": 1.0 - sum(own.values()) / wall,
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(disperse.__file__).resolve().parent != ROOT / "src" / "disperse":
        print(f"perfbench: imported disperse from {disperse.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.get(args.workload, args.tiny)
    seed = w.seed if args.seed is None else args.seed
    OUT.mkdir(exist_ok=True)
    bench = Bench(w, seed)
    env = environment()
    try:
        values = bench.traced(args.seconds, env) if args.trace else bench.untraced(args.seconds)
    finally:
        bench.ndjson.unlink(missing_ok=True)

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {w.name} seed {seed} trace {args.trace} repeats {bench.repeats} "
          f"attempted {bench.attempted} failed {bench.failed}")
    if bench.raw:
        print("unscaled " + " ".join(f"{k} {v:.6g}" for k, v in bench.raw.items()))
    for problem, n in sorted(bench.problems.items()):
        print(f"FAILED {n} x {problem}")
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    for m in listed:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0
