"""The four benchmark workloads and how to run one of them.

Each workload is a fixed experiment whose only free input is the
master seed. The sizes were picked so one execution takes about two
seconds on a 2-core Xeon, and so that each ROADMAP optimisation has a
workload that exercises it and one that should not move:

    complete-super     numpy K_n kernel, long supercritical steady state
    complete-lazy-cli  same kernel, short lazy runs, 400 replicas via the CLI
    tree-dense         generic dict/set path, ~1300 movers per step
    path-long          generic path, ~50 movers per step, many steps

The caller must put the program's `src` directory on sys.path before
importing this module.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from disperse import ExperimentSpec, Family, TopologySpec, lazy, STANDARD


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int  # default master seed; the stored record table is for this seed
    family: str
    particles: int
    replicas: int
    budget: int
    n: Optional[int] = None
    k: Optional[int] = None
    with_loops: bool = False
    lazy_p: Optional[float] = None
    via_cli: bool = False  # run through disperse.cli.parse_and_dispatch
    tiny: bool = False

    def experiment(self, seed: int) -> ExperimentSpec:
        """The resolved experiment, as run_replicas receives it."""
        topo = TopologySpec(
            Family(self.family), n=self.n, k=self.k, with_loops=self.with_loops
        )
        variant = lazy(self.lazy_p) if self.lazy_p is not None else STANDARD
        exp = ExperimentSpec(
            topo,
            self.particles,
            variant,
            budget=self.budget,
            replicas=self.replicas,
            master_seed=seed,
        )
        return exp.resolve()

    def argv(self, seed: int, out: str) -> list[str]:
        """`disperse run` arguments for the same experiment."""
        args = ["run", "--family", self.family]
        if self.n is not None:
            args += ["--n", str(self.n)]
        if self.k is not None:
            args += ["--k", str(self.k)]
        if self.with_loops:
            args.append("--with-loops")
        args += ["--particles", str(self.particles)]
        if self.lazy_p is not None:
            args += ["--lazy-p", repr(self.lazy_p)]
        args += ["--replicas", str(self.replicas), "--budget", str(self.budget)]
        args += ["--seed", str(seed), "--out", out]
        return args

    def shrunk(self) -> "Workload":
        """A seconds-scale copy for the self-test; never compared
        against the stored record table."""
        return dataclasses.replace(
            self,
            n=self.n // 10 if self.n else None,
            particles=max(2, self.particles // 10),
            replicas=min(self.replicas, 3),
            budget=min(self.budget, 1000),
            tiny=True,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Never disperses: exactly 80 000 steps of the K_n fast path.
        Workload("complete-super", 202, "complete", 600, 8, 10**4, n=1000, with_loops=True),
        # Median t_disp ~51, so particle-system construction dominates.
        Workload(
            "complete-lazy-cli", 301, "complete", 700, 400, 5530,
            n=1000, with_loops=True, lazy_p=0.5, via_cli=True,
        ),
        # Leaf depth comes from ExperimentSpec.resolve().
        Workload("tree-dense", 505, "tree", 4096, 8, 10**7, k=3),
        Workload("path-long", 404, "path", 100, 10, 10**7),
    )
}


def get(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return w.shrunk() if tiny else w
