"""End-to-end acceptance checks, one test per criterion.

Each criterion is a single test function; ``pytest -v tests/test_acceptance.py``
therefore prints exactly one pass/fail line per criterion, and each test also
prints a ``[criterion N] PASS`` summary with its measured numbers (visible
under ``-s`` or in captured output).

The criteria:
  1. the legacy mutual scheme falls to a relaying intruder on every seed,
     with the canonical 12-hop interleaving, in under a second for 100 seeds
  2. the nested scheme deadlocks an originating intruder on every seed:
     no response octets ever cross the wire and both victims time out
  3. against the nested scheme a relaying intruder still succeeds and
     harvests a usable challenge/response pair for both victims
  4. key-agreement hardening blocks the active relay outright, and a
     passive relay never captures the shared secret or the session key
  5. modular exponentiation and key agreement are exact: exhaustive
     small-grid check, 1000 randomized agreement trials, worked instance
  6. brute-force discrete log over p=10007 costs ~(p-1)/2 tries on
     average (within 10%), measured over 200 exponents in under 5s
  7. round-trip delay doubling is detected: factor 1.5 flags every
     relayed run and no direct run, 100 seeds per scenario
  8. runs are reproducible octet for octet, and two independently
     written digest implementations agree with the frozen vectors
"""

import hashlib
import random
import statistics
import time
from pathlib import Path

from support import ADDR_A, ADDR_B, ADDR_C, PARAMS, attacked, captured, load_script, session_of
from test_mixhash import ref_mixhash128

from btauthsim.adversary import Confidentiality, Detection, Integrity, IntruderMode
from btauthsim.cli import ScenarioConfig, run_scenario
from btauthsim.crypto import (
    DhParams,
    dh_keypair,
    dh_shared,
    e1,
    modexp,
    session_key_from_shared,
)
from btauthsim.protocol import AuthStatus, MsgKind, Variant, encode_public

SEEDS = range(100)

VECTORS = Path(__file__).parent / "vectors" / "golden_vectors.txt"


def _report(n: int, text: str) -> None:
    print(f"[criterion {n}] PASS: {text}")


def attack_run(variant, mode, seed, key=None):
    """One intruder run outside the CLI wrapper, exposing all actor state,
    its pairing key (unless key is given) and the seeds of A, B and C drawn
    in that order from random.Random(seed). No caller reads its verdict's
    detection."""
    material = random.Random(seed)
    key = key if key is not None else material.randbytes(16)
    seeds = material.getrandbits(64), material.getrandbits(64), material.getrandbits(64)
    return attacked(variant, mode, seeds, key)


# relay interleaving for the legacy scheme: every hop touches the intruder,
# responder answers and counter-challenges in one step
RELAY_HOPS = (
    (MsgKind.AUTH_REQUEST, ADDR_A, ADDR_C),
    (MsgKind.CHALLENGE, ADDR_A, ADDR_C),
    (MsgKind.AUTH_REQUEST, ADDR_C, ADDR_B),
    (MsgKind.CHALLENGE, ADDR_C, ADDR_B),
    (MsgKind.RESPONSE, ADDR_B, ADDR_C),
    (MsgKind.CHALLENGE, ADDR_B, ADDR_C),
    (MsgKind.RESPONSE, ADDR_C, ADDR_A),
    (MsgKind.CHALLENGE, ADDR_C, ADDR_A),
    (MsgKind.RESPONSE, ADDR_A, ADDR_C),
    (MsgKind.RESPONSE, ADDR_C, ADDR_B),
    (MsgKind.AUTH_SUCCESS, ADDR_B, ADDR_C),
    (MsgKind.AUTH_SUCCESS, ADDR_C, ADDR_A),
)


def test_criterion_1_legacy_relay_compromise():
    config = ScenarioConfig(variant=Variant.LEGACY, intruder=IntruderMode.RELAY_ACTIVE)
    started = time.perf_counter()
    for seed in SEEDS:
        result = run_scenario(config, seed)
        assert result.score.attack_success is True, f"seed {seed}"
        hops = tuple((e.kind, e.from_id, e.to_id) for e in result.transcript.events)
        assert hops == RELAY_HOPS, f"seed {seed}"
        assert result.transcript.events[-1].time == 80
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _report(1, f"relay defeats legacy auth on {len(SEEDS)}/{len(SEEDS)} seeds, "
               f"canonical 12-hop order, {elapsed:.2f}s")


def test_criterion_2_nested_scheme_deadlocks_originator():
    config = ScenarioConfig(
        variant=Variant.IMPROVED, intruder=IntruderMode.ORIGINATE_TO_A, initiator="C"
    )
    started = time.perf_counter()
    for seed in SEEDS:
        result = run_scenario(config, seed)
        assert result.score.attack_success is False, f"seed {seed}"
        statuses = [o.status for o in result.outcomes.values()]
        assert statuses and all(s is AuthStatus.TIMED_OUT for s in statuses), f"seed {seed}"
        assert not any(e.kind is MsgKind.RESPONSE for e in result.transcript.events), (
            f"seed {seed}: a response crossed the wire"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _report(2, f"originate attack deadlocks on {len(SEEDS)}/{len(SEEDS)} seeds, "
               f"zero responses, both victims time out, {elapsed:.2f}s")


def test_criterion_3_nested_scheme_still_relayable():
    for seed in SEEDS:
        key = random.Random(seed ^ 0x5A5A).randbytes(16)
        _, _, _, transcript, outcomes, score = attack_run(
            Variant.IMPROVED, IntruderMode.RELAY_ACTIVE, seed, key=key
        )
        assert score.attack_success is True, f"seed {seed}"
        assert score.integrity is Integrity.MAINTAINED, f"seed {seed}"
        assert score.confidentiality is Confidentiality.BREACHED, f"seed {seed}"
        # a verifiable challenge/response pair for each victim, not just one
        knowledge = captured(transcript, outcomes)
        challenges = [k for k in knowledge if len(k) == 16]
        responses = {k for k in knowledge if len(k) == 4}
        for claimant in (ADDR_A, ADDR_B):
            matched = sum(
                e1(key, c, claimant) in responses for c in challenges
            )
            assert matched >= 1, f"seed {seed}: no usable pair for {claimant}"
    _report(3, f"relay beats nested auth on {len(SEEDS)}/{len(SEEDS)} seeds and "
               f"harvests a challenge/response pair per victim")


def test_criterion_4_key_agreement_blocks_active_relay():
    for seed in SEEDS:
        _, _, _, _, outcomes, score = attack_run(
            Variant.DH_IMPROVED, IntruderMode.RELAY_ACTIVE, seed
        )
        assert score.attack_success is False, f"seed {seed}"
        assert all(o.status is AuthStatus.FAILED for o in outcomes.values()), f"seed {seed}"

    for seed in SEEDS:
        # the pairing key attack_run draws by default
        key = random.Random(seed).randbytes(16)
        dev_a, dev_b, _, transcript, outcomes, score = attack_run(
            Variant.DH_IMPROVED, IntruderMode.RELAY_PASSIVE, seed, key=key
        )
        assert all(o.status is AuthStatus.MUTUAL_SUCCESS for o in outcomes.values())
        assert score.confidentiality is Confidentiality.MAINTAINED, f"seed {seed}"
        shared = dh_shared(PARAMS, dev_b.dh.s_public, dev_a.dh.r_private)
        session = session_of(dev_a, key)
        assert session == session_of(dev_b, key)
        knowledge = captured(transcript, outcomes)
        assert encode_public(shared) not in knowledge, f"seed {seed}"
        assert session not in knowledge, f"seed {seed}"
    _report(4, f"active relay fails on {len(SEEDS)}/{len(SEEDS)} seeds; passive relay "
               f"never sees the shared secret or session key")


def test_criterion_5_key_agreement_exactness():
    # exhaustive small grid against the schoolbook loop
    mismatches = 0
    for modulus in range(2, 50):
        for base in range(20):
            for exponent in range(20):
                expected = 1 % modulus
                for _ in range(exponent):
                    expected = (expected * base) % modulus
                if modexp(base, exponent, modulus) != expected:
                    mismatches += 1
    assert mismatches == 0

    # randomized agreement trials over a mix of group sizes
    rng = random.Random(0xD1A10)
    primes = [(23, 5), (997, 7), (10007, 5), (2147483647, 7)]
    for _ in range(1000):
        p, alpha = rng.choice(primes)
        params = DhParams(p=p, alpha=alpha)
        r1 = rng.randrange(1, p)
        r2 = rng.randrange(1, p)
        pair1 = dh_keypair(params, r1)
        pair2 = dh_keypair(params, r2)
        k1 = dh_shared(params, pair2.s_public, r1)
        k2 = dh_shared(params, pair1.s_public, r2)
        assert k1 == k2 == pow(alpha, r1 * r2, p)
        assert session_key_from_shared(k1, params) == session_key_from_shared(k2, params)

    # worked instance, small enough to verify by hand
    params = DhParams(p=23, alpha=5)
    assert dh_keypair(params, 6).s_public == 8
    assert dh_keypair(params, 15).s_public == 19
    assert dh_shared(params, 19, 6) == 2
    assert dh_shared(params, 8, 15) == 2
    _report(5, "modexp exhaustive grid clean, 1000/1000 agreement trials exact, "
               "worked instance reproduced")


def test_criterion_6_dlog_cost_tracks_group_size():
    params = DhParams(p=10007, alpha=5)
    costs, elapsed = load_script("dlog_cost").measure(params, 200, 0xC057)
    mean = statistics.fmean(costs)
    expected = (params.p - 1) / 2
    assert abs(mean - expected) <= 0.10 * expected, f"mean {mean:.1f} vs {expected:.1f}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    _report(6, f"mean dlog cost {mean:.1f} vs expected {expected:.1f} "
               f"(within 10%), 200 exponents in {elapsed:.2f}s")


def test_criterion_7_delay_detection_separates_relay_from_direct():
    direct = [
        ScenarioConfig(variant=v) for v in Variant
    ]
    relayed = [
        ScenarioConfig(variant=v, intruder=m)
        for v in Variant
        for m in (IntruderMode.RELAY_ACTIVE, IntruderMode.RELAY_PASSIVE)
    ]
    for config in direct:
        for seed in SEEDS:
            result = run_scenario(config, seed)
            assert result.score.detection is Detection.NONE, (
                f"{config.scenario_name} seed {seed} falsely flagged"
            )
    for config in relayed:
        for seed in SEEDS:
            result = run_scenario(config, seed)
            assert result.score.detection is Detection.DELAY_FLAGGED, (
                f"{config.scenario_name} seed {seed} not flagged"
            )
    _report(7, f"factor 1.5 flags all {len(relayed)}x{len(SEEDS)} relayed runs "
               f"and none of {len(direct)}x{len(SEEDS)} direct runs")


def test_criterion_8_reproducibility_and_frozen_vectors():
    # identical seeds give octet-identical transcripts
    for config in (
        ScenarioConfig(variant=Variant.LEGACY, intruder=IntruderMode.RELAY_ACTIVE),
        ScenarioConfig(variant=Variant.DH_IMPROVED, intruder=IntruderMode.RELAY_PASSIVE),
    ):
        first = run_scenario(config, 42).transcript
        second = run_scenario(config, 42).transcript
        digest_a = hashlib.sha256(first.to_text().encode()).hexdigest()
        digest_b = hashlib.sha256(second.to_text().encode()).hexdigest()
        assert digest_a == digest_b
        assert first.to_jsonl() == second.to_jsonl()

    # the frozen file is what the generator writes, and the reference
    # digest, written independently, agrees with each of its mixhash rows
    vectors = load_script("gen_golden_vectors")
    rows = vectors.build_rows()
    assert VECTORS.read_text() == vectors.render(rows)
    mixhash_rows = [row for row in rows if row[0].startswith("mixhash_")]
    for name, data, expected in mixhash_rows:
        assert ref_mixhash128(bytes.fromhex(data)).hex() == expected, name
    _report(8, f"identical seeds hash-equal; the frozen file equals the generator's "
               f"{len(rows)} vectors, and the reference digest matches its "
               f"{len(mixhash_rows)} mixhash rows")
