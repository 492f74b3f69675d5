"""Golden CLI digests: the SHA-256 of what each of a fixed list of
`disperse` invocations writes to stdout, with its exit code.

The list covers `run` and `scan` in both output formats, every run
input flag, every registered oracle and `mixing-step`. A change to any
of these outputs, down to one byte, is a change of output format or of
results and shows here. Regenerate only on purpose, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/golden/cli.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "cli.json"

_RUN = ["run", "--family", "complete", "--n", "60", "--particles", "25", "--replicas", "6",
        "--seed", "7", "--lazy-p", "0.5"]
_SCAN = ["scan", "--family", "complete", "--n", "50", "--particles", "10", "--replicas", "3",
         "--seed", "5", "--axis", "density", "--grid", "0.2,0.4"]
_FORMATS = ("ndjson", "csv")

# name -> argv
INVOCATIONS: dict[str, list[str]] = {
    **{f"run-{fmt}": _RUN + ["--format", fmt] for fmt in _FORMATS},
    **{f"scan-{fmt}": _SCAN + ["--format", fmt] for fmt in _FORMATS},
    "run-grid-csv": ["run", "--family", "grid", "--dim", "2", "--particles", "5",
                     "--replicas", "3", "--seed", "2", "--format", "csv"],
    "run-tree-ndjson": ["run", "--family", "tree", "--k", "3", "--particles", "12",
                        "--replicas", "3", "--seed", "4"],
    # Together with the above, every run input flag is passed at least once.
    "run-cayley-csv": ["run", "--family", "cayley", "--moduli", "8,8",
                       "--generators", "(1,0),(-1,0),(0,1),(0,-1)", "--particles", "6",
                       "--replicas", "2", "--seed", "3", "--budget", "40", "--format", "csv"],
    "run-hypercube-ndjson": ["run", "--family", "hypercube", "--dim", "10",
                             "--particles", "6", "--replicas", "2", "--seed", "5"],
    "run-tree-leaf-depth-ndjson": ["run", "--family", "tree", "--k", "3", "--leaf-depth", "6",
                                   "--particles", "20", "--replicas", "2", "--seed", "2",
                                   "--format", "ndjson"],
    "run-complete-loops-csv": ["run", "--family", "complete", "--n", "12", "--with-loops",
                               "--particles", "8", "--replicas", "3", "--seed", "4",
                               "--format", "csv"],
    "scan-lazy-p-csv": ["scan", "--family", "cycle", "--n", "30", "--particles", "8",
                        "--replicas", "3", "--seed", "6", "--axis", "lazy-p",
                        "--grid", "0.25,0.5,1", "--format", "csv"],
    "scan-tree-k-ndjson": ["scan", "--family", "tree", "--k", "3", "--particles", "6",
                           "--replicas", "2", "--seed", "8", "--axis", "tree-k",
                           "--grid", "3,4", "--format", "ndjson"],
    "scan-grid-dim-csv": ["scan", "--family", "grid", "--dim", "1", "--particles", "6",
                          "--replicas", "2", "--seed", "9", "--axis", "grid-dim",
                          "--grid", "1,2", "--format", "csv"],
    # Density points keep the base's tree depth, which the header leaves out.
    "scan-tree-density-ndjson": ["scan", "--family", "tree", "--k", "3", "--particles", "10",
                                 "--replicas", "2", "--seed", "3", "--axis", "density",
                                 "--grid", "1e-4,5e-4"],
    "scan-hypercube-density-csv": ["scan", "--family", "hypercube", "--dim", "8",
                                   "--particles", "5", "--replicas", "2", "--seed", "1",
                                   "--axis", "density", "--grid", "0.01,0.02",
                                   "--format", "csv"],
    "oracle-kn-changes": ["oracle", "kn-changes", "--n", "100", "--H", "30", "--U", "20"],
    "oracle-kn-changes-loopless": ["oracle", "kn-changes", "--n", "100", "--H", "30",
                                   "--U", "20", "--no-with-loops"],
    "oracle-kn-time": ["oracle", "kn-time", "--n", "1000", "--delta", "0.1"],
    "oracle-lazy-range": ["oracle", "lazy-range", "--n", "100", "--p", "0.5",
                          "--occupancies", "2,2,3", "--E-empty", "60"],
    "oracle-lazy-time": ["oracle", "lazy-time", "--n", "1000", "--p", "0.5", "--alpha", "0.2"],
    "oracle-tree-constants": ["oracle", "tree-constants", "--k", "3"],
    "oracle-tree-depth": ["oracle", "tree-depth", "--k", "3", "--M", "4096", "--eps", "0.2"],
    "oracle-tree-ruin": ["oracle", "tree-ruin", "--k", "3", "--d", "10"],
    "oracle-line-pmf": ["oracle", "line-pmf", "--T", "4", "--r", "2"],
    "oracle-line-tail": ["oracle", "line-tail", "--T", "4", "--r", "2"],
    "oracle-line-tail-r0": ["oracle", "line-tail", "--T", "4", "--r", "0"],
    "oracle-grid2d-returns": ["oracle", "grid2d-returns", "--t", "50"],
    "oracle-hypercube-return": ["oracle", "hypercube-return", "--d", "6", "--s", "4"],
    "oracle-path-bounds": ["oracle", "path-bounds", "--M", "100", "--eps", "0.2"],
    "oracle-mixing-step-cycle": ["oracle", "mixing-step", "--family", "cycle", "--n", "9"],
    "oracle-mixing-step-hypercube": ["oracle", "mixing-step", "--family", "hypercube",
                                     "--dim", "5"],
    "oracle-mixing-step-cayley": ["oracle", "mixing-step", "--family", "cayley",
                                  "--moduli", "8,8", "--generators", "(1,0),(-1,0),(0,1),(0,-1)"],
}


def replay(name: str) -> dict:
    """Exit code and stdout digest of one invocation."""
    from disperse import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.parse_and_dispatch(INVOCATIONS[name])
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


def load() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    digests = {name: replay(name) for name in INVOCATIONS}
    lines = [
        f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(digests.items())
    ]
    DIGESTS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
