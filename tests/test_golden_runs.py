"""The outputs of a fixed sweep of runs, pinned by one digest.

The sweep covers the ten headline scenarios at three link timings that
validate accepts (the short one cuts some intruder runs before they end),
on 20 seeds, with the dh-improved rows at both p = 2^31-1 and the widest
group the benchmark runs. The digest is the SHA-256 over the report line,
the text transcript, the JSONL transcript and the link-key hex of every run,
so any change to a run's outputs, octet for octet, fails here.
"""

import hashlib

from test_scripts import load_script

from btauthsim.adversary import IntruderMode
from btauthsim.cli import ScenarioConfig, report_line, run_scenario
from btauthsim.protocol import Variant

# (variant, intruder mode, initiator) of the ten headline scenarios
HEADLINE = load_script("attack_matrix").SCENARIOS
# (latency_ms, timeout_ms); at 3/40 the dh-improved passive relay times out
TIMINGS = [(10, 2000), (3, 40), (25, 1000)]
# the default group, then the largest safe prime below 2^47 with generator 2
GROUPS = [(2147483647, 7), (140737488353843, 2)]
SEEDS = range(20)

# computed on the code before octets became plain bytes
EXPECTED = "f938ec89f76203631eaba83049362809ca513e8c888c4a4317f002083ec12643"


def sweep_configs() -> list[ScenarioConfig]:
    configs = []
    for latency_ms, timeout_ms in TIMINGS:
        for variant, mode, initiator in HEADLINE:
            groups = GROUPS if variant is Variant.DH_IMPROVED else GROUPS[:1]
            for dh_p, dh_alpha in groups:
                configs.append(
                    ScenarioConfig(
                        variant=variant,
                        intruder=mode,
                        initiator=initiator,
                        latency_ms=latency_ms,
                        timeout_ms=timeout_ms,
                        dh_p=dh_p,
                        dh_alpha=dh_alpha,
                    )
                )
    return configs


def sweep_digest() -> str:
    digest = hashlib.sha256()
    for config in sweep_configs():
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
    assert sweep_digest() == EXPECTED
