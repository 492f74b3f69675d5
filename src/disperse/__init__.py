"""Synchronous dispersion processes on graphs.

The simulator and experiment harness for particles that scatter from a
common origin: every particle sharing a vertex with another moves to a
uniform random neighbour, all at once, until each vertex holds at most
one. `disperse.oracles` and `disperse.validate` load when imported.
"""

from .engine import (
    DEFAULT_BUDGET,
    RECORD_EVENT_CAP,
    SCHEMA,
    STANDARD,
    ParticleSystem,
    ResultBlock,
    RunResult,
    Status,
    StepReport,
    TrajectoryLog,
    Variant,
    lazy,
)
from .harness import (
    AggregateStats,
    ExperimentSpec,
    ScanAxis,
    ScanPoint,
    ScanSpec,
    aggregate,
    aggregate_blocks,
    grid_step_budget,
    nearest_rank_quantiles,
    pair_coupling_audit,
    replica_results,
    result_blocks,
    run_replicas,
    scan,
    wilson_interval,
)
from .rng import derive_seed, split_key, stream_key
from .topology import COORDINATE_LIMIT, Family, TopologySpec

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "COORDINATE_LIMIT",
    "DEFAULT_BUDGET",
    "ExperimentSpec",
    "Family",
    "ParticleSystem",
    "RECORD_EVENT_CAP",
    "ResultBlock",
    "RunResult",
    "SCHEMA",
    "STANDARD",
    "ScanAxis",
    "ScanPoint",
    "ScanSpec",
    "Status",
    "StepReport",
    "TopologySpec",
    "TrajectoryLog",
    "Variant",
    "aggregate",
    "aggregate_blocks",
    "derive_seed",
    "grid_step_budget",
    "lazy",
    "nearest_rank_quantiles",
    "pair_coupling_audit",
    "replica_results",
    "result_blocks",
    "run_replicas",
    "scan",
    "split_key",
    "stream_key",
    "wilson_interval",
    "__version__",
]
