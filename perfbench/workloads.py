"""Workloads of the btauthsim benchmark and its correctness gate.

A workload is a fixed list of scenario configurations. Runs go round-robin
over that list on consecutive seeds, one run at a time (a closed loop with a
single client), so a per-configuration cache sees the configurations
alternate. The program only ever receives ``ScenarioConfig`` values and
seeds, through ``cli.validate`` and ``cli.run_scenario``.

The gate holds the expected verdict row and message count of every scenario
(the attack matrix of the README) and a digest of the report lines and JSONL
transcripts of a fixed seed block per workload, in ``expected.json``.
"""

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# measure the sources of this checkout, never an installed copy
if not (SRC / "btauthsim").is_dir():
    raise SystemExit(f"no btauthsim sources under {SRC}")
sys.path.insert(0, str(SRC))

from btauthsim.adversary import IntruderMode  # noqa: E402
from btauthsim.cli import ScenarioConfig, report_line, run_scenario, validate  # noqa: E402
from btauthsim.protocol import Variant  # noqa: E402

__all__ = ["Workload", "WORKLOADS", "build", "step", "outcome_row", "gate_digest", "expected_digest"]

# (success, integrity, confidentiality, detection, messages), as in the README matrix
Row = tuple[bool, str, str, str, int]

# (variant, intruder, initiator, expected row) for the ten headline scenarios
HEADLINE: list[tuple[Variant, IntruderMode | None, str, Row]] = [
    (Variant.LEGACY, None, "A", (False, "Maintained", "Maintained", "None", 6)),
    (Variant.IMPROVED, None, "A", (False, "Maintained", "Maintained", "None", 6)),
    (Variant.DH_IMPROVED, None, "A", (False, "Maintained", "Maintained", "None", 8)),
    (Variant.LEGACY, IntruderMode.RELAY_ACTIVE, "A", (True, "Maintained", "Breached", "DelayFlagged", 12)),
    (Variant.LEGACY, IntruderMode.RELAY_PASSIVE, "A", (True, "Maintained", "Breached", "DelayFlagged", 12)),
    (Variant.LEGACY, IntruderMode.ORIGINATE_TO_A, "C", (False, "Broken", "Breached", "DelayFlagged", 10)),
    (Variant.IMPROVED, IntruderMode.RELAY_ACTIVE, "A", (True, "Maintained", "Breached", "DelayFlagged", 12)),
    (Variant.IMPROVED, IntruderMode.ORIGINATE_TO_A, "C", (False, "Broken", "Maintained", "None", 6)),
    (Variant.DH_IMPROVED, IntruderMode.RELAY_ACTIVE, "A", (False, "Broken", "Maintained", "DelayFlagged", 14)),
    (Variant.DH_IMPROVED, IntruderMode.RELAY_PASSIVE, "A", (True, "Maintained", "Maintained", "DelayFlagged", 16)),
]

# largest safe prime below 2**47 (under cli.DH_P_CAP); 2 generates its group
WIDE_P = 140737488353843
WIDE_ALPHA = 2

# the gate block: seeds 0 .. GATE_ROUNDS * len(configs) - 1, whatever the workload seed
GATE_ROUNDS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[ScenarioConfig, ...]
    expected: tuple[Row, ...]
    serialise: bool


def _workload(name: str, scenarios, serialise: bool = False, **group) -> Workload:
    configs = tuple(
        ScenarioConfig(variant=variant, intruder=mode, initiator=initiator, **group)
        for variant, mode, initiator, _ in scenarios
    )
    return Workload(name, configs, tuple(row for *_, row in scenarios), serialise)


def _matrix() -> Workload:
    return _workload("matrix", HEADLINE)


def _dh_wide() -> Workload:
    scenarios = [s for s in HEADLINE if s[0] is Variant.DH_IMPROVED]
    return _workload("dh-wide", scenarios, dh_p=WIDE_P, dh_alpha=WIDE_ALPHA)


def _transcript_jsonl() -> Workload:
    scenarios = [s for s in HEADLINE if s[0] is not Variant.DH_IMPROVED]
    return _workload("transcript-jsonl", scenarios, serialise=True)


WORKLOADS = {"matrix": _matrix, "dh-wide": _dh_wide, "transcript-jsonl": _transcript_jsonl}


def build(name: str) -> Workload:
    return WORKLOADS[name]()


def serialise(transcript) -> str:
    """The transcript as JSONL; the tracer wraps this name as ``simnet.serialise``."""
    return transcript.to_jsonl()


def step(workload: Workload, config: ScenarioConfig, seed: int, sink):
    """One run as a user makes it: the scenario and, for a serialising
    workload, its transcript and report line written to ``sink``, as
    ``btauthsim --transcript --output jsonl`` does."""
    result = run_scenario(config, seed)
    if workload.serialise:
        sink.write(serialise(result.transcript))
        sink.write(report_line(config, result) + "\n")
    return result


def outcome_row(result) -> Row:
    score = result.score
    return (
        score.attack_success,
        score.integrity.value,
        score.confidentiality.value,
        score.detection.value,
        len(result.transcript.events),
    )


def gate_digest(workload: Workload) -> tuple[str, int]:
    """SHA-256 over the report lines and JSONL transcripts of the gate block,
    and the number of runs in it whose row differs from the expected one."""
    digest = hashlib.sha256()
    wrong = 0
    n = len(workload.configs)
    for seed in range(GATE_ROUNDS * n):
        config = workload.configs[seed % n]
        result = run_scenario(config, seed)
        digest.update(report_line(config, result).encode() + b"\n")
        digest.update(result.transcript.to_jsonl().encode())
        wrong += outcome_row(result) != workload.expected[seed % n]
    return digest.hexdigest(), wrong


def expected_digest(name: str) -> str:
    return json.loads((HERE / "expected.json").read_text())["gate_digests"][name]


if __name__ == "__main__":
    # prints the gate digests of the current code, in the format of expected.json
    digests = {name: gate_digest(build(name))[0] for name in WORKLOADS}
    print(json.dumps({"gate_digests": digests}, indent=2))
