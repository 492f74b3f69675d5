"""Replay of the golden-result corpus (tests/golden/) on every kernel,
and of the golden CLI output digests."""

import argparse
import importlib.util
from pathlib import Path

import pytest

from disperse import cli, oracles

_GOLDEN = Path(__file__).resolve().parent / "golden"


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, _GOLDEN / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load("golden_corpus", "corpus.py")
golden_cli = _load("golden_cli", "cli.py")

STORED = golden.load()
STORED_CLI = golden_cli.load()


def test_corpus_covers_every_case():
    assert sorted(STORED) == sorted(golden.case_id(c) for c in golden.cases())


@pytest.mark.parametrize("kernel", ["harness", "pool", "single", "generic"])
@pytest.mark.parametrize("case", golden.cases(), ids=golden.case_id)
def test_golden_replay(case, kernel):
    assert golden.replay(case, kernel) == STORED[golden.case_id(case)]


def test_cli_digests_cover_every_invocation_and_oracle():
    assert sorted(STORED_CLI) == sorted(golden_cli.INVOCATIONS)
    called = {argv[1] for argv in golden_cli.INVOCATIONS.values() if argv[0] == "oracle"}
    assert called == set(oracles.ORACLES) | {"mixing-step"}
    run_scan = [argv for argv in golden_cli.INVOCATIONS.values() if argv[0] != "oracle"]
    for sub in ("run", "scan"):
        formats = {a[a.index("--format") + 1] for a in run_scan if a[0] == sub and "--format" in a}
        assert formats == {"ndjson", "csv"}
    runs = [argv for argv in run_scan if argv[0] == "run"]
    passed = {a for argv in runs for a in argv if a.startswith("--")}
    control = {"--config", "--parallelism", "--out", "--no-with-loops", "--help"}
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for a in sub.choices["run"]._actions for s in a.option_strings if s.startswith("--")}
    assert passed >= flags - control


@pytest.mark.parametrize("name", sorted(golden_cli.INVOCATIONS))
def test_cli_output_digest(name):
    assert golden_cli.replay(name) == STORED_CLI[name]
