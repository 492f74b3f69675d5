"""Self-test of the benchmark. Exits 0 when every check passes.

    python3 perfbench/selftest.py

1. Every workload at tiny size, traced and untraced, through run.py:
   exit 0, a last line with exactly the contract's keys, every metric
   that BENCHMARK.json names with its unit, and no failed replica.
2. The record-table gate: path-long at full size and its default seed
   has no failure against the committed table, and exactly one when
   one stored record has been altered.
3. In a directory holding only BENCHMARK.json and the benchmark,
   run.py exits non-zero without printing a result.
4. The calibration sampler samples every piece during a timed block,
   keeps the block's own time positive, and disarms its timer and
   restores the SIGALRM handler afterwards.
"""

import copy
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def output_problems(name: str, trace: int) -> list[str]:
    done = run(ROOT, "--workload", name, "--seconds", "0.3", "--trace", str(trace), "--tiny")
    where = f"{name} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-300:]}"]
    res = json.loads(done.stdout.strip().splitlines()[-1])
    out = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"{where}: result keys {sorted(res)}")
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
        out.append(f"{where}: correct={res['correct']} failed={res['failed']}")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        out.append(f"{where}: metrics/units {got} differ from BENCHMARK.json {want}")
    for k, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            out.append(f"{where}: {k} has no numeric value")
    if trace == 0 and res["metrics"].get("ok_frac", {}).get("value") != 1.0:
        out.append(f"{where}: ok_frac is not 1")
    return out


def gate_problems() -> list[str]:
    w = workloads.get("path-long")
    table = json.loads(checks.EXPECTED_PATH.read_text())
    altered = copy.deepcopy(table)
    altered[w.name]["records"][3]["t_disp"] += 1
    path = bench.OUT / "selftest-expected.json"
    bench.OUT.mkdir(exist_ok=True)
    original = checks.EXPECTED_PATH
    out = []
    try:
        checks.EXPECTED_PATH = path
        for doc, want in ((table, 0), (altered, 1)):
            path.write_text(json.dumps(doc))
            b = bench.Bench(w, w.seed)
            b.execute()
            if b.failed != want:
                out.append(f"gate: {b.failed} failed replicas, want {want}")
    finally:
        checks.EXPECTED_PATH = original
        path.unlink(missing_ok=True)
    return out


def bare_problems() -> list[str]:
    bare = bench.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        done = run(bare, "--workload", "path-long", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def sampler_problems() -> list[str]:
    handler = signal.getsignal(signal.SIGALRM)
    with calibration.Sampler() as sampler:
        t0 = bench.perf_counter()
        while bench.perf_counter() - t0 < 0.5:
            sum(range(1000))
        wall = bench.perf_counter() - t0
    out = []
    if not all(len(times) >= 2 for times in sampler.samples):
        out.append(f"sampler: samples per piece {[len(t) for t in sampler.samples]}")
    if not 0 < sampler.scaled(wall):
        out.append(f"sampler: scaled time {sampler.scaled(wall)} of a {wall:.3f} s block")
    if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0) or signal.getsignal(signal.SIGALRM) != handler:
        out.append("sampler: timer or SIGALRM handler left behind")
    return out


def main() -> int:
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += output_problems(name, trace)
    problems += gate_problems()
    problems += bare_problems()
    problems += sampler_problems()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
