"""Benchmark of the disperse simulator, one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: complete-super, complete-lazy-cli, tree-dense, path-long
(see workloads.py). Run from anywhere inside a source checkout; the
program is imported from the checkout's `src` directory, and the run
exits with status 2 when that is missing.

The workload runs serially in this process, repeated until the timed
executions add up to --seconds, and every repeat's output is checked
(checks.py). stdout gets the environment, every metric by name and
unit, and as its last line one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 measures the end-to-end metrics with tracing off, its
timings scaled to a nominal machine speed by calibration samples taken
during each timed execution (calibration.py). --trace 1
alternates plain and traced executions and reports the per-layer
metrics (tracing.py); its spans are written to
.perfbench_out/trace-<workload>-<seed>.json at the checkout root.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "disperse" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
