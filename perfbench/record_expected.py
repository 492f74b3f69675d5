"""Write expected.json: the per-replica records of every workload at
its default seed, which run.py compares each default-seed run with.

    python3 perfbench/record_expected.py

The table is fixed data. Regenerate it only at a commit whose outputs
are trusted, never to make a changed kernel pass.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from disperse.harness import run_replicas  # noqa: E402

table = {}
for w in workloads.WORKLOADS.values():
    results, _ = run_replicas(w.experiment(w.seed))
    table[w.name] = {"seed": w.seed, "records": [checks.record(r) for r in results]}
    print(f"{w.name}: {len(results)} records", file=sys.stderr)
checks.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
