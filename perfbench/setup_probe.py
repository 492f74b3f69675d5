"""Set-up probe: everything a fresh interpreter does before the first
replica of a workload (import the package, parse the command line for
the CLI workload, resolve the experiment, build the topology), then
"ready" on stdout. run.py times it from process start to that line.

    python3 perfbench/setup_probe.py <workload> <seed> [--tiny]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports disperse)
from disperse.topology import build  # noqa: E402

w = workloads.get(sys.argv[1], "--tiny" in sys.argv[3:])
seed = int(sys.argv[2])
if w.via_cli:
    import disperse.cli

    disperse.cli.build_parser().parse_args(w.argv(seed, "probe.ndjson"))
build(w.experiment(seed).topology)
print("ready", flush=True)
