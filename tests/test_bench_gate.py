"""The benchmark's correctness gate as a unit test: any drift in report
lines, transcripts or verdict rows fails here without a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_digest_matches_expected(name):
    digest, wrong = workloads.gate_digest(workloads.build(name))
    assert wrong == 0
    assert digest == workloads.expected_digest(name)
