"""The benchmark's correctness gate and its tracer's patch points as unit
tests: any drift in report lines, transcripts or verdict rows, and any
rename of a name the tracer wraps, fails here without a benchmark run."""

import io
import sys

import pytest

from support import load_script

from btauthsim import cli
from btauthsim.adversary import IntruderMode
from btauthsim.cli import ScenarioConfig
from btauthsim.protocol import Variant

workloads = load_script("workloads", "perfbench", "perfbench_workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_digest_matches_expected(name):
    digest, wrong = workloads.gate_digest(workloads.build(name))
    assert wrong == 0
    assert digest == workloads.expected_digest(name)


def test_workloads_run_the_headline_table():
    # the benchmark keeps its own copy of the table, with the expected rows
    assert [(variant, mode, initiator) for variant, mode, initiator, _ in workloads.HEADLINE] == [
        (config.variant, config.intruder, config.initiator) for config in cli.HEADLINE
    ]


def test_tracer_patch_points_are_on_the_call_path(monkeypatch):
    # spans.py imports its sibling as plain `workloads`
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spans = load_script("spans", "perfbench", "perfbench_spans")
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in spans.POINTS]
    # one dh-improved relay run, its configuration built and validated
    # under the tracer (building it checks the group and calibrates), and
    # written as JSONL, reaches every point
    tracer = spans.Tracer()
    cli._prepared.cache_clear()
    tracer.install()
    try:
        for module, attr, original in originals:
            assert getattr(module, attr) is not original, attr
        config = ScenarioConfig(variant=Variant.DH_IMPROVED, intruder=IntruderMode.RELAY_ACTIVE)
        workload = workloads.Workload("jsonl", (config,), (), serialise=True)
        workloads.validate(config)
        workloads.step(workload, config, 0, io.StringIO())
    finally:
        tracer.uninstall()
    for module, attr, original in originals:
        assert getattr(module, attr) is original, attr
    summary = tracer.summary(-1, tracer.run + 1)
    # no run computes a bootstrap key, the judge, not cli, calls the delay
    # detector, and every digest a run takes is written out in its caller:
    # the tracer still patches those three names, and those three points
    # alone are never reached
    assert [name for name in spans.NAMES if summary.spans.get(name, (0,))[0] == 0] == [
        "crypto.init_key",
        "simnet.delay_detector",
        "crypto.mixhash128",
    ]
