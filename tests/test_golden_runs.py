"""The outputs of a fixed sweep of runs, pinned by one digest.

The sweep covers the ten headline scenarios at three link timings that
ScenarioConfig accepts (the short one cuts some intruder runs before they end),
on 20 seeds, with the dh-improved rows at both p = 2^31-1 and the widest
group the benchmark runs. The digest is the SHA-256 over the report line,
the text transcript, the JSONL transcript and the link-key hex of every run,
so any change to a run's outputs, octet for octet, fails here. A second
sweep, pinned the same way, covers dh-improved+originate, the one intruder
scenario outside the headline and the only one that holds a message back.
"""

import dataclasses
import hashlib

from support import PARAMS, WIDE_P

from btauthsim.adversary import IntruderMode
from btauthsim.cli import HEADLINE, ScenarioConfig, report_line, run_scenario
from btauthsim.protocol import Variant

# (latency_ms, timeout_ms); at 3/40 the dh-improved passive relay times out
TIMINGS = [(10, 2000), (3, 40), (25, 1000)]
# the default group, then the largest safe prime below 2^47 with generator 2
GROUPS = [(PARAMS.p, PARAMS.alpha), (WIDE_P, 2)]
SEEDS = range(20)

# computed on the code before octets became plain bytes
EXPECTED = "f938ec89f76203631eaba83049362809ca513e8c888c4a4317f002083ec12643"
DH_ORIGINATE = ScenarioConfig(Variant.DH_IMPROVED, IntruderMode.ORIGINATE_TO_A, initiator="C")
# computed on the code before the intruder modes became scripts
EXPECTED_DH_ORIGINATE = "79abd52368e07d4b9aaa959f1ad103511479ead8c9c3dc9b1f524550da2bc5fc"


def sweep_configs(scenarios=HEADLINE) -> list[ScenarioConfig]:
    configs = []
    for latency_ms, timeout_ms in TIMINGS:
        for scenario in scenarios:
            groups = GROUPS if scenario.variant is Variant.DH_IMPROVED else GROUPS[:1]
            for dh_p, dh_alpha in groups:
                configs.append(
                    dataclasses.replace(
                        scenario,
                        latency_ms=latency_ms,
                        timeout_ms=timeout_ms,
                        dh_p=dh_p,
                        dh_alpha=dh_alpha,
                    )
                )
    return configs


def sweep_digest(configs: list[ScenarioConfig]) -> str:
    digest = hashlib.sha256()
    for config in configs:
        for seed in SEEDS:
            result = run_scenario(config, seed)
            for part in (
                report_line(config, result) + "\n",
                result.transcript.to_text(),
                result.transcript.to_jsonl(),
                result.link_key.hex() + "\n",
            ):
                digest.update(part.encode())
    return digest.hexdigest()


def test_the_sweep_covers_what_it_names():
    configs = sweep_configs()
    # 7 scenarios without a group and 3 dh-improved ones at two groups
    assert len(configs) == len(TIMINGS) * (7 + 3 * 2)
    short = [
        run_scenario(config, 0)
        for config in configs
        if (config.latency_ms, config.timeout_ms) == (3, 40)
        and config.intruder is IntruderMode.RELAY_PASSIVE
        and config.variant is Variant.DH_IMPROVED
    ]
    # the short timing ends the passive relay before its 16 hops
    assert short and all(len(result.transcript.events) < 16 for result in short)


def test_sweep_outputs_are_pinned():
    assert sweep_digest(sweep_configs()) == EXPECTED


def test_dh_originate_outputs_are_pinned():
    assert sweep_digest(sweep_configs([DH_ORIGINATE])) == EXPECTED_DH_ORIGINATE
