"""Command line front end: run, scan, oracle, validate.

Every input flag is a flat INI config key's text, under the key's name
with dashes for underscores. argparse reads no input value: the key's
reader reads a flag as it reads the key in a config file, so a
malformed value exits 2 with one line that names the key. The inputs of
run, scan and oracle take one path: the keys of --config (run and
scan), with every given flag over them, as flat config text. Each
subcommand reads its own keys from that text and refuses any other by
name before any work. Every run output embeds the fully resolved
configuration and master seed. A scan output embeds its base experiment
exactly as given, and its axis and grid; each grid point resolves its
own tree leaf depth, except on the density axis, whose points keep the
base's. Feeding an embedded config back in reproduces the identical
results.
Exit codes: 0 success, 1 validation failure, 2 argument or config error,
141 (128 + SIGPIPE) when the reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import itertools
import json
import os
import sys
from typing import Iterable, Optional

from . import oracles
from .engine import SCHEMA, WalkMode, lazy
from .harness import (
    AggregateStats,
    ExperimentSpec,
    ScanAxis,
    ScanSpec,
    aggregate_blocks,
    result_blocks,
    scan,
)
from .topology import TopologySpec, config_bool, config_value

__all__ = ["main", "parse_and_dispatch", "build_parser"]

_FORMATS = ("csv", "ndjson")

# A shell's status for a process that SIGPIPE ended: 128 + 13.
_EXIT_PIPE = 141


def _fmt(v) -> str:
    """One formatting rule for CSV cells and config values."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if v.is_integer() and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    return str(v)


# -- config plumbing ---------------------------------------------------------


# (config key, ExperimentSpec field, parser, writer): a key the config
# leaves out leaves the spec's own default, and a writer's None leaves
# the key out of the written config.
_EXPERIMENT_FIELDS = (
    ("particles", "M", int, _fmt),
    ("lazy_p", "variant", lambda p: lazy(float(p)), lambda v: repr(v.p) if v.kind == "lazy" else None),
    ("budget", "budget", int, _fmt),
    ("replicas", "replicas", int, _fmt),
    ("seed", "master_seed", int, _fmt),
    ("walk_mode", "walk_mode", WalkMode, lambda m: m.value),
    ("record_trajectories", "record_trajectories", config_bool, _fmt),
)
_TOPOLOGY_KEYS = tuple(f.name for f in dataclasses.fields(TopologySpec))
_EXPERIMENT_KEYS = _TOPOLOGY_KEYS + tuple(key for key, *_ in _EXPERIMENT_FIELDS)


def experiment_to_config(exp: ExperimentSpec) -> dict[str, str]:
    cfg = exp.topology.to_config()
    for key, field, _, write in _EXPERIMENT_FIELDS:
        text = write(getattr(exp, field))
        if text is not None:
            cfg[key] = text
    return cfg


def config_to_experiment(cfg: dict[str, str]) -> ExperimentSpec:
    # Earlier grid and hypercube headers carry this key; it changed no result.
    cfg = {key: text for key, text in cfg.items() if key != "omega"}
    unknown = [key for key in cfg if key not in _EXPERIMENT_KEYS]
    if unknown:
        raise ValueError(f"config: not an experiment key: {', '.join(unknown)}")
    topology = TopologySpec.from_config({k: v for k, v in cfg.items() if k in _TOPOLOGY_KEYS})
    if "particles" not in cfg:
        raise ValueError("config needs a particles count")
    given = {field: config_value(key, cfg[key], read) for key, field, read, _ in _EXPERIMENT_FIELDS if key in cfg}
    return ExperimentSpec(topology=topology, **given)


def read_config_file(path: str) -> dict[str, str]:
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    other = ", ".join(f"[{name}]" for name in cp.sections() if name != "disperse")
    if other:
        raise ValueError(f"config: keys go under [disperse], not {other}")
    return dict(cp["disperse"] if "disperse" in cp else cp[cp.default_section])


def write_config_ini(cfg: dict[str, str]) -> str:
    cp = configparser.ConfigParser()
    cp["disperse"] = dict(cfg)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# -- argument parsing --------------------------------------------------------


def _add_input_flags(p: argparse.ArgumentParser, keys):
    """One flag per config key, whose value is that key's text for the
    key's reader; --with-loops is the one switch."""
    for key in dict.fromkeys(keys):
        flag = "--" + key.replace("_", "-")
        if key == "with_loops":
            p.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
        else:
            p.add_argument(flag)


def _add_experiment_flags(p: argparse.ArgumentParser):
    # walk_mode and record_trajectories are replayed from a config only.
    replay_only = ("walk_mode", "record_trajectories")
    _add_input_flags(p, (key for key in _EXPERIMENT_KEYS if key not in replay_only))
    p.add_argument("--config", help="INI file; explicit flags override it")
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--format", choices=_FORMATS)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="disperse",
        description="Synchronous dispersion processes on graphs: simulate, scan, and cross-check against closed forms.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    runp = sub.add_parser("run", help="replicated runs of one experiment")
    _add_experiment_flags(runp)

    scanp = sub.add_parser("scan", help="sweep one axis over a grid of values")
    _add_experiment_flags(scanp)
    _add_input_flags(scanp, ("axis", "grid"))

    orap = sub.add_parser("oracle", help="evaluate one closed form")
    orap.add_argument("name", choices=oracles.NAMES)
    params = (p for d in oracles.ORACLES.values() for p, _ in d.params + d.optional)
    _add_input_flags(orap, (*_TOPOLOGY_KEYS, *params))
    orap.add_argument("--out")

    valp = sub.add_parser("validate", help="oracle cross-checks and invariant audits")
    valp.add_argument("--quick", action="store_true")
    valp.add_argument("--out")
    return ap


# Arguments that steer a subcommand; every other one is an input.
_CONTROL = ("subcommand", "name", "config", "parallelism", "out", "format")


def _config_from_args(args) -> dict[str, str]:
    """A subcommand's inputs as flat config text: --config's keys, with
    every given flag's text over them under its INI key (the argparse
    dest), and --with-loops as true or false. The subcommand reads its
    own keys and refuses any other."""
    cfg = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, v in vars(args).items():
        if key not in _CONTROL and v is not None:
            cfg[key] = _fmt(v)
    return cfg


# -- output writers ----------------------------------------------------------


def _infer_format(fmt: Optional[str], out: Optional[str]) -> str:
    """--format, else CSV for a .csv --out, else NDJSON."""
    if fmt:
        return fmt
    return "csv" if out and out.endswith(".csv") else "ndjson"


def _write(out: Optional[str], lines: Iterable[str]):
    """Write `lines` to --out, else to stdout, one at a time as they
    are made."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _csv_lines(cfg: dict, header: list[str], rows: list[dict]) -> Iterable[str]:
    for key in sorted(cfg):
        yield f"# {key}={cfg[key]}\n"
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(_fmt(row.get(h)) for h in header) + "\n"


def _emit(
    args,
    cfg: dict,
    columns: list[str],
    rows: list[dict],
    replicas: Optional[list[dict]] = None,
):
    """Write one output in the format --format or the --out extension
    picks: CSV rows under columns, or NDJSON records after a header, line
    by line. A run passes its one aggregate row and, for NDJSON, its
    replica records, written as they are; a scan passes one row per
    point."""
    if _infer_format(args.format, args.out) == "csv":
        lines = _csv_lines(cfg, columns, rows)
    else:
        if replicas is None:
            records = ({"schema": SCHEMA, "record": "scan-point", **row} for row in rows)
        else:
            records = itertools.chain(
                replicas, [{"schema": SCHEMA, "record": "aggregate", **rows[0]}]
            )
        header = {"schema": SCHEMA, "record": "header", "config": cfg}
        lines = (json.dumps(rec, sort_keys=True) + "\n" for rec in itertools.chain([header], records))
    _write(args.out, lines)


# -- subcommands -------------------------------------------------------------


def _cmd_run(args) -> int:
    exp = config_to_experiment(_config_from_args(args)).resolve()
    progress = sys.stderr.isatty()
    # The results are folded into the aggregate a block at a time, as a
    # scan folds a point's; each leaves behind only its NDJSON records,
    # which CSV does not write.
    records = None if _infer_format(args.format, args.out) == "csv" else [None] * exp.replicas

    def packaged():
        for block in result_blocks(exp, parallelism=args.parallelism, progress=progress):
            if records is not None:
                for i, rec in zip(block.ids.tolist(), block.records()):
                    rec["record"], rec["replica"] = "replica", i
                    records[i] = rec
            yield block

    stats = aggregate_blocks(packaged())
    _emit(args, experiment_to_config(exp), list(AggregateStats.COLUMNS), [stats.to_row()], replicas=records)
    return 0


def _cmd_scan(args) -> int:
    cfg = _config_from_args(args)
    axis, grid = cfg.pop("axis", None), cfg.pop("grid", None)
    if not axis or not grid:
        raise ValueError("scan needs an axis and a grid (--axis and --grid, or config)")
    values = config_value("grid", grid, lambda raw: tuple(float(x) for x in raw.split(",")))
    spec = ScanSpec(config_to_experiment(cfg), config_value("axis", axis, ScanAxis), values)
    progress = sys.stderr.isatty()
    points = scan(spec, parallelism=args.parallelism, progress=progress)
    _emit(
        args,
        {**experiment_to_config(spec.base), "axis": axis, "grid": grid},
        [axis] + list(AggregateStats.COLUMNS),
        [{axis: pt.value, **pt.stats.to_row()} for pt in points],
    )
    return 0


def _cmd_oracle(args) -> int:
    ov = oracles.evaluate(args.name, _config_from_args(args))
    _write(args.out, [json.dumps(dataclasses.asdict(ov), sort_keys=True) + "\n"])
    return 0


def _cmd_validate(args) -> int:
    # Imported here: run, scan and oracle never load the suite.
    from .validate import validate_suite

    report = validate_suite(quick=args.quick)
    _write(args.out, [str(report) + "\n"])
    return 0 if report.passed else 1


def parse_and_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # Fail before the work, not when its output is written.
        out = getattr(args, "out", None)
        folder = os.path.dirname(os.path.abspath(out)) if out else None
        if folder and not os.path.isdir(folder):
            raise ValueError(f"--out {out}: directory {folder} does not exist")
        if out and os.path.isdir(out):
            raise ValueError(f"--out {out}: is a directory")
        if args.subcommand == "run":
            return _cmd_run(args)
        if args.subcommand == "scan":
            return _cmd_scan(args)
        if args.subcommand == "oracle":
            return _cmd_oracle(args)
        return _cmd_validate(args)
    except BrokenPipeError:
        # The reader stopped early, as `| head` does: not an input error.
        # Output left in stdout's buffer goes to the null device, so the
        # interpreter's final flush raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_PIPE
    except (ValueError, KeyError, OSError, configparser.Error) as e:
        print(f"disperse: error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
