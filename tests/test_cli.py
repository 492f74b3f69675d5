import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from disperse import cli, harness, oracles, validate
from disperse.engine import lazy
from disperse.harness import AggregateStats, ExperimentSpec, ScanAxis, ScanSpec, scan
from disperse.topology import Family, TopologySpec, build, with_leaf_depth

RUN_ARGS = [
    "run",
    "--family",
    "complete",
    "--n",
    "60",
    "--particles",
    "25",
    "--replicas",
    "6",
    "--seed",
    "7",
]


def run_cli(args):
    return cli.parse_and_dispatch(args)


# -- run -----------------------------------------------------------------------


def test_run_ndjson_shape(tmp_path):
    out = tmp_path / "r.ndjson"
    assert run_cli(RUN_ARGS + ["--out", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    header = lines[0]
    assert header["record"] == "header"
    assert header["schema"] == "disperse/1"
    assert header["config"]["particles"] == "25"
    assert header["config"]["seed"] == "7"
    replicas = [rec for rec in lines if rec.get("record") == "replica"]
    assert len(replicas) == 6
    assert all(rec["schema"] == "disperse/1" for rec in replicas)
    agg = lines[-1]
    assert agg["record"] == "aggregate"
    assert agg["dispersed"] == sum(r["status"] == "dispersed" for r in replicas)


def test_run_csv_columns_and_config_comments(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli(RUN_ARGS + ["--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert "# particles=25" in comments
    assert "# seed=7" in comments
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == ",".join(AggregateStats.COLUMNS)
    assert len(data) == 2


def test_run_csv_leaves_dispersal_cells_empty_when_no_replica_disperses(tmp_path):
    # One step on the path cannot spread five particles from the origin.
    out = tmp_path / "r.csv"
    args = ["run", "--family", "path", "--particles", "5", "--replicas", "3",
            "--budget", "1", "--format", "csv", "--out", str(out)]
    assert run_cli(args) == 0
    header, row = (l.split(",") for l in out.read_text().splitlines() if not l.startswith("#"))
    cells = dict(zip(header, row))
    assert cells["dispersed"] == "0" and cells["max_distance_max"] == "1"
    dispersal = [c for c in header if c.startswith(("t_disp_", "d_disp_"))]
    assert len(dispersal) == 12 and {cells[c] for c in dispersal} == {""}


def test_run_format_inferred_from_extension(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli(RUN_ARGS + ["--out", str(out)]) == 0
    assert out.read_text().splitlines()[-2].startswith("# ") is False  # header+row present


@pytest.mark.parametrize("ext", ["json", "svg"])
def test_out_extension_other_than_csv_writes_ndjson(ext, tmp_path):
    out = tmp_path / f"r.{ext}"
    assert run_cli(RUN_ARGS + ["--out", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0])["record"] == "header"


def test_run_stdout_when_no_out(capsys):
    assert run_cli(RUN_ARGS) == 0
    lines = capsys.readouterr().out.splitlines()
    header = json.loads(lines[0])
    assert header["record"] == "header"
    assert header["schema"] == "disperse/1"
    assert header["config"]["particles"] == "25"
    assert len(lines) == 8  # header + 6 replicas + aggregate


def test_run_reproducible_from_embedded_config(tmp_path):
    first = tmp_path / "a.ndjson"
    assert run_cli(RUN_ARGS + ["--out", str(first)]) == 0
    header = json.loads(first.read_text().splitlines()[0])
    ini = tmp_path / "replay.ini"
    ini.write_text(cli.write_config_ini(header["config"]))
    second = tmp_path / "b.ndjson"
    assert run_cli(["run", "--config", str(ini), "--out", str(second)]) == 0
    assert first.read_text() == second.read_text()


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_run_holds_each_result_only_until_it_is_packaged(tmp_path, live_results, fmt):
    # Never more than two result blocks alive: the one just made and
    # the one before it, already folded and written.
    out = tmp_path / f"r.{fmt}"
    args = ["run", "--family", "complete", "--n", "40", "--particles", "15", "--lazy-p", "0.5",
            "--replicas", "30", "--seed", "8", "--out", str(out)]
    assert run_cli(args) == 0
    assert len(live_results) == 30 and max(live_results) <= 2
    exp = ExperimentSpec(TopologySpec.complete(40), 15, lazy(0.5), replicas=30, master_seed=8)
    results, stats = harness.run_replicas(exp)
    lines = out.read_text().splitlines()
    if fmt == "csv":
        assert lines[-1] == ",".join(cli._fmt(v) for v in stats.to_row().values())
    else:
        records = [json.loads(line) for line in lines[1:]]
        assert records[:-1] == [
            {**r.to_record(), "record": "replica", "replica": i} for i, r in enumerate(results)
        ]
        assert records[-1] == {"schema": "disperse/1", "record": "aggregate", **stats.to_row()}


@pytest.mark.parametrize(
    "exp",
    [
        ExperimentSpec(TopologySpec.complete(30), 5, lazy(np.float64(0.5))),
        ExperimentSpec(TopologySpec.grid(2), np.int64(5), budget=np.int64(100),
                       replicas=np.int64(2), master_seed=np.uint64(7)),
    ],
    ids=["lazy-p", "integer-fields"],
)
def test_specs_made_with_numpy_floats_replay(exp):
    cfg = cli.experiment_to_config(exp)
    assert cli.config_to_experiment(cfg) == exp


def test_walk_mode_and_record_trajectories_are_config_keys_only(tmp_path):
    # Neither changes a result, so neither is a flag; configs naming them
    # still run and echo them.
    assert run_cli(RUN_ARGS + ["--walk-mode", "predetermined"]) == 2
    assert run_cli(RUN_ARGS + ["--record-trajectories"]) == 2
    ini = tmp_path / "old.ini"
    ini.write_text(
        "[disperse]\nfamily = complete\nn = 60\nparticles = 25\nreplicas = 2\nseed = 7\n"
        "walk_mode = predetermined\nrecord_trajectories = true\n"
    )
    out = tmp_path / "o.ndjson"
    assert run_cli(["run", "--config", str(ini), "--out", str(out)]) == 0
    config = json.loads(out.read_text().splitlines()[0])["config"]
    assert (config["walk_mode"], config["record_trajectories"]) == ("predetermined", "true")
    # The same config naming the other mode differs only in its header.
    ini.write_text(ini.read_text().replace("predetermined", "on-demand"))
    other = tmp_path / "other.ndjson"
    assert run_cli(["run", "--config", str(ini), "--out", str(other)]) == 0
    lines, other_lines = out.read_text().splitlines(), other.read_text().splitlines()
    assert json.loads(other_lines[0])["config"]["walk_mode"] == "on-demand"
    assert lines[1:] == other_lines[1:]


@pytest.mark.parametrize(
    "topology, omega",
    [
        ("family = grid\ndim = 2\nparticles = 5\n", "20"),
        ("family = hypercube\ndim = 10\nparticles = 6\n", "4"),
        # A value once refused as non-finite is not read either.
        ("family = complete\nn = 20\nparticles = 5\n", "inf"),
    ],
    ids=["grid-omega-20", "hypercube-omega-4", "complete-omega-inf"],
)
def test_old_headers_naming_omega_replay(tmp_path, topology, omega):
    # Grid and hypercube headers of earlier versions carry an omega key,
    # which is dropped unread: the records are those of the same config
    # without it.
    config = f"[disperse]\n{topology}replicas = 3\nseed = 2\n"
    outputs = []
    for text in (config, config + f"omega = {omega}\n"):
        ini, out = tmp_path / "c.ini", tmp_path / "o.ndjson"
        ini.write_text(text)
        assert run_cli(["run", "--config", str(ini), "--out", str(out)]) == 0
        outputs.append(out.read_text().splitlines())
    assert len(outputs[1]) == 5 and outputs[1][1:] == outputs[0][1:]
    assert "omega" not in json.loads(outputs[1][0])["config"]


def test_omega_is_no_flag(capsys):
    assert run_cli(RUN_ARGS + ["--omega", "4"]) == 2
    assert "unrecognized arguments: --omega 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ini, err",
    [
        ("[experiment]\nfamily = complete\nn = 10\nparticles = 3\n", "[experiment]"),
        ("[disperse]\nfamily = complete\nn = 10\n[extra]\nparticles = 3\n[more]\n", "[extra], [more]"),
    ],
    ids=["only-other", "beside-disperse"],
)
def test_config_section_other_than_disperse_is_named(ini, err, no_work, tmp_path, capsys):
    path = tmp_path / "c.ini"
    path.write_text(ini)
    out = tmp_path / "o.ndjson"
    assert run_cli(["run", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"disperse: error: config: keys go under [disperse], not {err}\n"


def test_config_file_of_default_keys_only_runs(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[DEFAULT]\nfamily = complete\nn = 10\nparticles = 3\nreplicas = 2\n")
    out = tmp_path / "o.ndjson"
    assert run_cli(["run", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0])["config"]["replicas"] == "2"


def test_flags_override_config_file(tmp_path):
    ini = tmp_path / "base.ini"
    ini.write_text(
        "[disperse]\nfamily = complete\nn = 60\nparticles = 25\nreplicas = 6\nseed = 7\n"
    )
    out = tmp_path / "o.ndjson"
    assert (
        run_cli(["run", "--config", str(ini), "--replicas", "2", "--out", str(out)])
        == 0
    )
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["config"]["replicas"] == "2"
    assert sum(1 for l in lines if json.loads(l).get("record") == "replica") == 2


def test_config_booleans_read_alike():
    base = {"family": "complete", "n": "60", "particles": "25"}
    for raw, want in (("True", True), (" yes ", True), ("1", True), ("FALSE", False), ("no", False)):
        exp = cli.config_to_experiment({**base, "with_loops": raw, "record_trajectories": raw})
        assert exp.record_trajectories is want and exp.topology.with_loops is want, raw
    with pytest.raises(ValueError, match="boolean"):
        cli.config_to_experiment({**base, "record_trajectories": "maybe"})


def test_config_file_booleans_in_any_case(tmp_path, capsys):
    ini = tmp_path / "caps.ini"
    ini.write_text(
        "[disperse]\nfamily = complete\nn = 60\nwith_loops = True\nparticles = 25\n"
        "replicas = 2\nseed = 7\nrecord_trajectories = True\n"
    )
    out = tmp_path / "o.ndjson"
    assert run_cli(["run", "--config", str(ini), "--out", str(out)]) == 0
    config = json.loads(out.read_text().splitlines()[0])["config"]
    assert config["with_loops"] == config["record_trajectories"] == "true"
    ini.write_text(ini.read_text().replace("record_trajectories = True", "record_trajectories = y"))
    assert run_cli(["run", "--config", str(ini), "--out", str(out)]) == 2
    assert "disperse: error:" in capsys.readouterr().err


def test_run_lazy_flag_recorded_and_used(tmp_path):
    out = tmp_path / "l.ndjson"
    assert run_cli(RUN_ARGS + ["--lazy-p", "0.5", "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["config"]["lazy_p"] == "0.5"


# -- scan ----------------------------------------------------------------------


SCAN_ARGS = [
    "scan",
    "--family",
    "complete",
    "--n",
    "50",
    "--particles",
    "10",
    "--replicas",
    "3",
    "--seed",
    "5",
    "--axis",
    "density",
    "--grid",
    "0.2,0.4",
]


def test_scan_reproducible_from_embedded_config(tmp_path):
    first = tmp_path / "a.ndjson"
    assert run_cli(SCAN_ARGS + ["--out", str(first)]) == 0
    header = json.loads(first.read_text().splitlines()[0])
    ini = tmp_path / "replay.ini"
    ini.write_text(cli.write_config_ini(header["config"]))
    second = tmp_path / "b.ndjson"
    assert run_cli(["scan", "--config", str(ini), "--out", str(second)]) == 0
    assert first.read_text() == second.read_text()


def test_scan_csv_layout(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(SCAN_ARGS + ["--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == ",".join(["density"] + list(AggregateStats.COLUMNS))
    assert len(lines) == 3
    assert lines[1].startswith("0.2,")
    assert lines[2].startswith("0.4,")


def test_scan_ndjson_records(tmp_path):
    out = tmp_path / "s.ndjson"
    assert run_cli(SCAN_ARGS + ["--format", "ndjson", "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines[0]["record"] == "header"
    assert lines[0]["config"]["axis"] == "density"
    points = [l for l in lines if l.get("record") == "scan-point"]
    assert [p["density"] for p in points] == [0.2, 0.4]


@pytest.mark.parametrize(
    "k, particles, axis, grid",
    [
        # The leaf depth of a tree-k point comes from that point's k, not
        # from the base k.
        (40, 1000, ScanAxis.TREE_K, (3.0,)),
        # Density points keep the base's depth, so M/n is the grid value.
        (3, 10, ScanAxis.DENSITY, (1e-4, 5e-4)),
    ],
)
def test_scan_points_resolve_like_library_scan(tmp_path, monkeypatch, k, particles, axis, grid):
    ran = []
    real_result_blocks = harness.result_blocks

    def recording_result_blocks(exp, **kw):
        ran.append(exp)
        return real_result_blocks(exp, **kw)

    monkeypatch.setattr(harness, "result_blocks", recording_result_blocks)
    out = tmp_path / "t.ndjson"
    args = ["scan", "--family", "tree", "--k", str(k), "--particles", str(particles),
            "--replicas", "4", "--seed", "3", "--axis", axis.value,
            "--grid", ",".join(map(str, grid))]
    assert run_cli(args + ["--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    if axis is ScanAxis.DENSITY:
        n = build(with_leaf_depth(TopologySpec.tree(k), particles)).n_vertices
        assert [build(exp.topology).n_vertices for exp in ran] == [n] * len(grid)
        assert [exp.M for exp in ran] == [round(v * n) for v in grid]
    base = ExperimentSpec(TopologySpec.tree(k), particles, replicas=4, master_seed=3)
    points = scan(ScanSpec(base, axis, grid))
    expected = [
        {"schema": "disperse/1", "record": "scan-point", axis.value: pt.value, **pt.stats.to_row()}
        for pt in points
    ]
    assert lines[1:] == expected
    assert "leaf_depth" not in lines[0]["config"]


def test_hypercube_density_scan_runs_past_the_base_cap(tmp_path):
    # The base M=100 is above sqrt(256)/2 = 8, the hypercube(8) cap that
    # once refused it; the CLI runs what scan() runs (M = 3 and 5) and
    # embeds the base as given.
    out = tmp_path / "h.ndjson"
    args = ["scan", "--family", "hypercube", "--dim", "8", "--particles", "100",
            "--replicas", "2", "--seed", "1", "--axis", "density", "--grid", "0.01,0.02"]
    assert run_cli(args + ["--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    base = ExperimentSpec(TopologySpec.hypercube(8), 100, replicas=2, master_seed=1)
    points = scan(ScanSpec(base, ScanAxis.DENSITY, (0.01, 0.02)))
    assert [pt.experiment.M for pt in points] == [3, 5]
    expected = [
        {"schema": "disperse/1", "record": "scan-point", "density": pt.value, **pt.stats.to_row()}
        for pt in points
    ]
    assert lines[1:] == expected
    assert "omega" not in lines[0]["config"]


def test_readme_scan_axes_match_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    line = next(l for l in readme.splitlines() if l.startswith("Scan axes:"))
    assert re.findall(r"`([^`]+)`", line) == [a.value for a in ScanAxis]


def test_readme_families_match_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    line = next(l for l in readme.splitlines() if l.startswith("Families:"))
    assert re.findall(r"`([^`]+)`", line) == [f.value for f in Family]


def test_scan_requires_axis_and_grid(tmp_path):
    assert run_cli(SCAN_ARGS[:-4]) == 2


_BASE_INI = "[disperse]\nfamily = complete\nn = 10\nparticles = 3\n"


@pytest.mark.parametrize(
    "ini, args, key",
    [
        (_BASE_INI.replace("particles = 3", "particles = x"), ["run"], "particles"),
        (_BASE_INI + "axis = sideways\ngrid = 0.1\n", ["scan"], "axis"),
        (None, ["oracle", "lazy-range", "--n", "100", "--p", "x", "--occupancies", "2,2,3",
                "--E-empty", "60"], "p"),
        (None, SCAN_ARGS[:-1] + ["0.1,,0.2"], "grid"),
    ],
    ids=["particles", "axis", "p", "grid"],
)
def test_a_malformed_value_names_its_key(tmp_path, capsys, ini, args, key):
    if ini is not None:
        path = tmp_path / "bad.ini"
        path.write_text(ini)
        args = args + ["--config", str(path)]
    assert run_cli(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"disperse: error: {key}: "), err


@pytest.mark.parametrize(
    "family, grid",
    [(["complete", "--n", "20", "--with-loops"], "0.5,2.0"), (["hypercube", "--dim", "8"], "0.01,2.0")],
    ids=["past-n", "hypercube-past-n"],
)
def test_scan_with_an_invalid_point_runs_nothing_and_writes_nothing(
    tmp_path, monkeypatch, family, grid
):
    calls = []
    replica_results = harness.replica_results

    def counted(exp, **kw):
        calls.append(exp)
        return replica_results(exp, **kw)

    monkeypatch.setattr(harness, "replica_results", counted)
    out = tmp_path / "s.csv"
    args = ["scan", "--family", *family, "--particles", "5", "--replicas", "2", "--seed", "3",
            "--axis", "density", "--grid", grid, "--out", str(out)]
    assert run_cli(args) == 2
    assert calls == [] and not out.exists()


# -- oracle ---------------------------------------------------------------------


def test_oracle_tree_ruin_value(capsys):
    assert run_cli(["oracle", "tree-ruin", "--k", "3", "--d", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 0.0009765625
    assert doc["name"] == "tree-ruin"
    assert doc["inputs"] == {"k": 3, "d": 10}
    assert doc["equation_tag"]


def test_oracle_composite_and_list_inputs(capsys):
    assert (
        run_cli(
            [
                "oracle",
                "lazy-range",
                "--n",
                "100",
                "--p",
                "0.5",
                "--occupancies",
                "2,2",
                "--E-empty",
                "60",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"]["ER_minus_exact"] == pytest.approx(0.485162, abs=1e-6)


def test_oracle_mixing_step(capsys):
    assert run_cli(["oracle", "mixing-step", "--family", "cycle", "--n", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 24


@pytest.mark.parametrize(
    "args",
    [["tree-ruin", "--k", "3", "--d", "2"], ["mixing-step", "--family", "cycle", "--n", "9"]],
    ids=["tree-ruin", "mixing-step"],
)
def test_oracle_refuses_a_parameter_it_does_not_take(args, capsys):
    assert run_cli(["oracle", *args, "--delta", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"disperse: error: oracle {args[0]} takes no --delta\n"


def test_oracle_missing_parameter_is_config_error(capsys):
    assert run_cli(["oracle", "tree-ruin", "--k", "3"]) == 2
    assert "requires --d" in capsys.readouterr().err


# -- validate ---------------------------------------------------------------------


@pytest.fixture
def quick_cli(monkeypatch, quick_report):
    """`disperse validate --quick` on the session's one quick report."""

    def suite(quick):
        assert quick is True
        return quick_report

    monkeypatch.setattr(validate, "validate_suite", suite)


def test_validate_quick_exit_zero(quick_cli, capsys):
    assert run_cli(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "13/13 checks passed" in out


def test_validate_detects_corrupted_oracle(monkeypatch, capsys):
    # Breaking one closed form must turn the suite red and exit 1.
    monkeypatch.setattr(oracles, "tree_ruin_probability", lambda k, d: 0.5)
    assert run_cli(["validate", "--quick"]) == 1
    assert "tree-ruin" in capsys.readouterr().out


# -- what a run loads ---------------------------------------------------------------

_LOADED = """
import sys
import disperse
from disperse import ExperimentSpec, TopologySpec, run_replicas

def loaded():
    return sorted(m for m in sys.modules if m == "disperse" or m.startswith("disperse."))

def held(*names):
    return [m for m in names if m in sys.modules]

run_replicas(ExperimentSpec(TopologySpec.path(), 4, replicas=2))
print(loaded(), held("concurrent.futures", "fractions"))
from disperse import cli
assert cli.parse_and_dispatch(sys.argv[1:]) == 0
print(loaded(), held("concurrent.futures", "disperse.validate"))
"""


def test_a_run_loads_the_simulator_only(tmp_path):
    # A fresh interpreter, since this test process has loaded every module.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    )}
    argv = RUN_ARGS + ["--out", str(tmp_path / "r.ndjson")]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], env=env, capture_output=True, text=True, check=True
    )
    simulator = ["disperse", "disperse.engine", "disperse.harness", "disperse.rng", "disperse.topology"]
    after_run, after_cli = proc.stdout.splitlines()
    assert after_run == f"{simulator} []"
    assert after_cli == f"{sorted(simulator + ['disperse.cli', 'disperse.oracles'])} []"


def test_a_closed_output_pipe_exits_141_and_prints_nothing():
    # The reader takes one line and closes the pipe, as `| head -1` does:
    # not an input error, so no message, and SIGPIPE's shell status.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    )}
    argv = ["run", "--family", "complete", "--n", "8", "--with-loops", "--particles", "5",
            "--replicas", "20000", "--seed", "1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "disperse.cli", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    header = json.loads(proc.stdout.readline())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""
    assert header["record"] == "header"


# -- error handling ----------------------------------------------------------------


def test_exit_2_on_unknown_subcommand():
    assert run_cli(["frobnicate"]) == 2


def test_exit_2_on_unknown_flag():
    assert run_cli(RUN_ARGS + ["--warp", "9"]) == 2


_TOPOLOGY_FLAGS = ["--dim", "--family", "--generators", "--k", "--leaf-depth", "--moduli", "--n",
                   "--no-with-loops", "--with-loops"]
_RUN_FLAGS = sorted(_TOPOLOGY_FLAGS + ["--budget", "--config", "--format", "--help", "--lazy-p",
                                       "--out", "--parallelism", "--particles",
                                       "--replicas", "--seed", "-h"])
_FLAGS = {
    "run": _RUN_FLAGS,
    "scan": sorted(_RUN_FLAGS + ["--axis", "--grid"]),
    "oracle": sorted(_TOPOLOGY_FLAGS + ["--E-empty", "--H", "--M", "--T", "--U", "--alpha", "--d",
                                        "--delta", "--eps", "--help", "--occupancies", "--out",
                                        "--p", "--r", "--s", "--t", "-h"]),
    "validate": ["--help", "--out", "--quick", "-h"],
}


def _subparser_actions(sub):
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices[sub]._actions


@pytest.mark.parametrize("sub", list(_FLAGS))
def test_subcommand_flags_are_fixed(sub):
    actions = _subparser_actions(sub)
    assert sorted(s for a in actions for s in a.option_strings) == _FLAGS[sub]


@pytest.mark.parametrize("sub", ["run", "scan"])
def test_output_formats_are_csv_and_ndjson(sub, no_work, capsys):
    fmt = next(a for a in _subparser_actions(sub) if "--format" in a.option_strings)
    assert sorted(fmt.choices) == ["csv", "ndjson"]
    for gone in ("json", "svg-summary"):
        assert run_cli({"run": RUN_ARGS, "scan": SCAN_ARGS}[sub] + ["--format", gone]) == 2
        assert "invalid choice" in capsys.readouterr().err


def test_exit_2_when_family_missing(capsys):
    assert run_cli(["run", "--particles", "5"]) == 2
    assert capsys.readouterr().err == "disperse: error: family: missing\n"


@pytest.mark.parametrize("args", [RUN_ARGS, SCAN_ARGS])
@pytest.mark.parametrize("parallelism", ["0", "-3"])
def test_exit_2_on_nonpositive_parallelism(args, parallelism, no_work, capsys):
    assert run_cli(args + ["--parallelism", parallelism]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"disperse: error: parallelism must be >= 1, got {parallelism}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "tree", [["--k", "3", "--leaf-depth", "0"], ["--k", "2"]], ids=["k3-depth0", "k2"]
)
def test_exit_2_on_density_scan_of_infinite_tree(tree, capsys):
    args = ["scan", "--family", "tree", *tree, "--particles", "10", "--replicas", "2"]
    assert run_cli(args + ["--axis", "density", "--grid", "0.1"]) == 2
    captured = capsys.readouterr()
    assert "disperse: error: density scan needs a finite vertex set" in captured.err
    assert captured.out == ""


def test_exit_2_on_bad_topology_parameters(capsys):
    assert run_cli(["run", "--family", "grid", "--particles", "5"]) == 2
    err = capsys.readouterr().err
    assert "dim" in err


def test_exit_2_on_vertex_count_past_int64(capsys):
    args = ["run", "--family", "complete", "--n", str(2**63 + 5), "--particles", "2"]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert f"disperse: error: complete: n <= {2**63 - 1}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "dim, particles",
    # The hypercube caps no particle count: 513 once exceeded
    # sqrt(2^20)/2 = 512 and exited 2. 2^1100 has no float form, and
    # nothing needs one.
    [("20", "513"), ("1100", "10")],
    ids=["dim-20-past-old-cap", "dim-1100"],
)
def test_hypercube_cap_takes_dimensions_past_float_range(capsys, dim, particles):
    args = ["run", "--family", "hypercube", "--dim", dim, "--particles", particles]
    assert run_cli(args) == 0
    captured = capsys.readouterr()
    assert '"status": "dispersed"' in captured.out and captured.err == ""


def test_exit_2_on_missing_config_file():
    assert run_cli(["run", "--config", "/nonexistent/x.ini"]) == 2


# -- input refused before any work ---------------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("work started on refused input")


@pytest.fixture
def no_work(monkeypatch):
    """Any replica pool or validation check run fails the test."""
    monkeypatch.setattr(harness, "lockstep_rows", _refuse)
    monkeypatch.setattr(validate, "validate_suite", _refuse)


NON_FINITE = {
    "run-lazy-p-inf": RUN_ARGS + ["--lazy-p", "inf"],
    "scan-density-inf": SCAN_ARGS[:-1] + ["inf"],
    "scan-tree-k-inf": [
        "scan", "--family", "tree", "--k", "3", "--particles", "5", "--axis", "tree-k", "--grid", "inf"
    ],
    "scan-grid-dim-inf": [
        "scan", "--family", "grid", "--dim", "2", "--particles", "5", "--axis", "grid-dim", "--grid", "inf"
    ],
    "oracle-tree-depth-eps-inf": ["oracle", "tree-depth", "--k", "3", "--M", "100", "--eps", "inf"],
    "oracle-kn-time-delta-inf": ["oracle", "kn-time", "--n", "1000", "--delta", "inf"],
    "oracle-lazy-time-alpha-inf": ["oracle", "lazy-time", "--n", "1000", "--p", "0.5", "--alpha", "inf"],
    "oracle-lazy-time-alpha-nan": ["oracle", "lazy-time", "--n", "1000", "--p", "0.5", "--alpha", "nan"],
    "oracle-path-bounds-eps-nan": ["oracle", "path-bounds", "--M", "100", "--eps", "nan"],
}


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("disperse: error: ")


@pytest.mark.parametrize("args", list(NON_FINITE.values()), ids=list(NON_FINITE))
def test_exit_2_on_non_finite_numbers(args, no_work, tmp_path, capsys):
    out = tmp_path / "o.ndjson"
    assert run_cli(args + ["--out", str(out)]) == 2
    _assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "sub, extra, named",
    [("run", "replica = 6\n", "replica"), ("run", "axis = density\n", "axis"),
     ("scan", "axis = density\ngrid = 0.2\nreplica = 6\n", "replica")],
    ids=["run-replica", "run-scan-key", "scan-replica"],
)
def test_exit_2_on_a_config_key_the_subcommand_does_not_take(
    sub, extra, named, no_work, tmp_path, capsys
):
    ini = tmp_path / "c.ini"
    ini.write_text("[disperse]\nfamily = complete\nn = 60\nparticles = 25\n" + extra)
    out = tmp_path / "o.ndjson"
    assert run_cli([sub, "--config", str(ini), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"disperse: error: config: not an experiment key: {named}\n"


_SMALL_RUN = ["run", "--family", "complete", "--n", "10", "--particles", "3", "--replicas", "2"]
REFUSED = {
    "cycle-n2": (["run", "--family", "cycle", "--n", "2", "--particles", "2"], "cycle: n >= 3 required"),
    "path-n": (
        ["run", "--family", "path", "--n", "7", "--particles", "2"],
        "path: parameters not valid for this family: ['n']",
    ),
    "complete-n1": (
        ["run", "--family", "complete", "--n", "1", "--particles", "1"],
        "complete without loops needs n >= 2 for positive degree",
    ),
    "particles-0": (_SMALL_RUN[:6] + ["0"] + _SMALL_RUN[7:], "need at least one particle"),
    "budget-0": (_SMALL_RUN + ["--budget", "0"], "budget must be >= 1"),
    "replicas-0": (_SMALL_RUN[:-1] + ["0"], "need at least one replica"),
    "lazy-p-decreasing": (
        ["scan", *_SMALL_RUN[1:], "--axis", "lazy-p", "--grid", "0.5,0.25"],
        "scan grid must be strictly increasing",
    ),
    "density-past-n": (
        ["scan", *_SMALL_RUN[1:], "--axis", "density", "--grid", "2"],
        "density 2.0 gives M=20 outside [1, 10]",
    ),
    "tree-k-fraction": (
        ["scan", "--family", "tree", "--k", "3", "--particles", "3", "--axis", "tree-k", "--grid", "3.5"],
        "tree-k grid values must be integers >= 3",
    ),
    "particles-missing": (_SMALL_RUN[:5], "config needs a particles count"),
    # A flag's value is its key's text, read as the key in a config file is.
    "particles-x": (
        _SMALL_RUN[:6] + ["x"] + _SMALL_RUN[7:],
        "particles: invalid literal for int() with base 10: 'x'",
    ),
    "n-1e3": (
        _SMALL_RUN[:4] + ["1e3"] + _SMALL_RUN[5:],
        "n: invalid literal for int() with base 10: '1e3'",
    ),
    "lazy-p-x": (_SMALL_RUN + ["--lazy-p", "x"], "lazy_p: could not convert string to float: 'x'"),
    "family-bogus": (_SMALL_RUN[:2] + ["bogus"] + _SMALL_RUN[3:], "family: unknown family 'bogus'"),
    "oracle-n-x": (
        ["oracle", "kn-time", "--n", "x", "--delta", "0.2"],
        "n: invalid literal for int() with base 10: 'x'",
    ),
    "axis-sideways": (
        ["scan", *_SMALL_RUN[1:], "--axis", "sideways", "--grid", "0.5"],
        "axis: 'sideways' is not a valid ScanAxis",
    ),
}


@pytest.mark.parametrize("args, message", list(REFUSED.values()), ids=list(REFUSED))
def test_refused_input_exits_2_with_one_named_line(args, message, no_work, tmp_path, capsys):
    out = tmp_path / "o.ndjson"
    assert run_cli(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"disperse: error: {message}\n"


def test_format_writes_non_finite_floats_as_repr():
    assert [cli._fmt(v) for v in (float("inf"), float("-inf"), float("nan"))] == ["inf", "-inf", "nan"]
    assert cli._fmt(20.0) == "20" and cli._fmt(0.25) == "0.25"


@pytest.mark.parametrize(
    "args",
    [RUN_ARGS, SCAN_ARGS, ["validate", "--quick"], ["oracle", "tree-ruin", "--k", "3", "--d", "2"]],
    ids=["run", "scan", "validate", "oracle"],
)
def test_exit_2_at_once_on_out_in_a_missing_directory(args, no_work, tmp_path, capsys):
    out = tmp_path / "missing" / "o.json"
    assert run_cli(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"disperse: error: --out {out}: directory {out.parent} does not exist\n"


@pytest.mark.parametrize(
    "args",
    [RUN_ARGS, SCAN_ARGS, ["validate", "--quick"], ["oracle", "tree-ruin", "--k", "3", "--d", "2"]],
    ids=["run", "scan", "validate", "oracle"],
)
def test_exit_2_at_once_on_out_naming_a_directory(args, no_work, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(oracles, "evaluate", _refuse)
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"disperse: error: --out {tmp_path}: is a directory\n"
    assert list(tmp_path.iterdir()) == []
