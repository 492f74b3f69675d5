"""Replay of the golden-result corpus (tests/golden/) on every kernel."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_corpus", Path(__file__).resolve().parent / "golden" / "corpus.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

STORED = golden.load()


def test_corpus_covers_every_case():
    assert sorted(STORED) == sorted(golden.case_id(c) for c in golden.cases())


@pytest.mark.parametrize("kernel", ["harness", "pool", "single", "generic"])
@pytest.mark.parametrize("case", golden.cases(), ids=golden.case_id)
def test_golden_replay(case, kernel):
    assert golden.replay(case, kernel) == STORED[golden.case_id(case)]
