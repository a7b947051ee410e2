"""Intruder behavior, attack scorecards, and discrete-log cost."""

import random
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btauthsim import adversary, cli
from btauthsim.adversary import (
    AttackVerdict,
    Confidentiality,
    Integrity,
    IntruderMode,
    dlog_bruteforce,
    new_intruder,
    verdict,
)
from btauthsim.cli import ScenarioConfig, run_scenario
from btauthsim.crypto import Challenge, DeviceId, DhParams, LinkKey, e1
from btauthsim.protocol import AuthOutcome, AuthStatus, MsgKind, Variant, new_device
from btauthsim.simnet import Detection, LinkConfig, Transcript, TranscriptEvent, run

ADDR_A = DeviceId.from_hex("aa0000000001")
ADDR_B = DeviceId.from_hex("bb0000000002")
ADDR_C = DeviceId.from_hex("cc0000000003")
KEY = LinkKey(bytes(range(16)))
PARAMS = DhParams(p=2147483647, alpha=7)
LINKS = LinkConfig()


def attack_run(variant, mode, seeds=(1, 2, 3), key=KEY):
    params = PARAMS if variant is Variant.DH_IMPROVED else None
    dev_a = new_device(ADDR_A, variant, key, seeds[0], dh_params=params)
    dev_b = new_device(ADDR_B, variant, key, seeds[1], dh_params=params)
    intruder = new_intruder(
        ADDR_C, mode, variant, ADDR_A, ADDR_B, rng_seed=seeds[2], dh_params=params
    )
    initiator = ADDR_C if mode is IntruderMode.ORIGINATE_TO_A else ADDR_A
    transcript, outcomes = run([dev_a, dev_b], intruder, LINKS, initiator, ADDR_B)
    score = verdict(intruder, outcomes, transcript, Detection.NONE, key)
    return dev_a, dev_b, intruder, transcript, outcomes, score


class TestLegacyRelay:
    def test_full_attack_succeeds(self):
        _, _, _, _, outcomes, score = attack_run(Variant.LEGACY, IntruderMode.RELAY_ACTIVE)
        assert all(o.status is AuthStatus.MUTUAL_SUCCESS for o in outcomes.values())
        assert score.attack_success is True

    def test_relay_is_verbatim_so_integrity_holds(self):
        _, _, _, _, _, score = attack_run(Variant.LEGACY, IntruderMode.RELAY_ACTIVE)
        assert score.integrity is Integrity.MAINTAINED

    def test_plaintext_pairs_captured(self):
        _, _, intruder, _, _, score = attack_run(Variant.LEGACY, IntruderMode.RELAY_ACTIVE)
        assert score.confidentiality is Confidentiality.BREACHED
        # both challenge payloads crossed the intruder
        challenges = [k for k in intruder.knowledge if len(k) == 16]
        assert len(challenges) >= 2

    def test_knowledge_only_grows(self):
        _, _, intruder, transcript, _, _ = attack_run(Variant.LEGACY, IntruderMode.RELAY_ACTIVE)
        assert all(e.payload in intruder.knowledge for e in transcript.events)


class TestImprovedCaseOriginate:
    def test_deadlock_blocks_the_attack(self):
        _, _, _, transcript, outcomes, score = attack_run(
            Variant.IMPROVED, IntruderMode.ORIGINATE_TO_A
        )
        assert score.attack_success is False
        assert all(o.status is AuthStatus.TIMED_OUT for o in outcomes.values())
        assert not any(e.kind is MsgKind.RESPONSE for e in transcript.events)

    def test_nothing_confidential_leaks(self):
        _, _, _, _, _, score = attack_run(Variant.IMPROVED, IntruderMode.ORIGINATE_TO_A)
        assert score.confidentiality is Confidentiality.MAINTAINED


class TestImprovedCaseRelay:
    def test_split_verdict(self):
        _, _, intruder, _, outcomes, score = attack_run(
            Variant.IMPROVED, IntruderMode.RELAY_ACTIVE
        )
        assert all(o.status is AuthStatus.MUTUAL_SUCCESS for o in outcomes.values())
        assert score.attack_success is True
        assert score.integrity is Integrity.MAINTAINED
        assert score.confidentiality is Confidentiality.BREACHED

    def test_both_pairs_in_knowledge(self):
        _, _, intruder, transcript, _, _ = attack_run(Variant.IMPROVED, IntruderMode.RELAY_ACTIVE)
        challenges = [e.payload for e in transcript.events if e.kind is MsgKind.CHALLENGE]
        responses = [e.payload for e in transcript.events if e.kind is MsgKind.RESPONSE]
        for payload in challenges + responses:
            assert payload in intruder.knowledge
        # each captured challenge pairs with a captured valid answer
        matched = 0
        for raw in set(challenges):
            for claimant in (ADDR_A, ADDR_B):
                if e1(KEY, Challenge(raw), claimant).value in intruder.knowledge:
                    matched += 1
        assert matched == 2


class TestDhRelay:
    def test_substitution_breaks_the_handshake(self):
        _, _, _, _, outcomes, score = attack_run(Variant.DH_IMPROVED, IntruderMode.RELAY_ACTIVE)
        assert all(o.status is AuthStatus.FAILED for o in outcomes.values())
        assert score.attack_success is False
        assert score.integrity is Integrity.BROKEN

    def test_substituted_publics_differ_from_originals(self):
        _, _, _, transcript, _, _ = attack_run(Variant.DH_IMPROVED, IntruderMode.RELAY_ACTIVE)
        into_c = [e.payload for e in transcript.events if e.kind is MsgKind.DH_PUBLIC and e.to_id == ADDR_C]
        out_of_c = [e.payload for e in transcript.events if e.kind is MsgKind.DH_PUBLIC and e.from_id == ADDR_C]
        assert len(into_c) == 2 and len(out_of_c) == 2
        assert set(into_c).isdisjoint(out_of_c)

    def test_passive_relay_cannot_breach(self):
        dev_a, dev_b, intruder, _, outcomes, score = attack_run(
            Variant.DH_IMPROVED, IntruderMode.RELAY_PASSIVE
        )
        assert all(o.status is AuthStatus.MUTUAL_SUCCESS for o in outcomes.values())
        assert score.confidentiality is Confidentiality.MAINTAINED
        assert dev_a.session is not None
        assert dev_a.session.value not in intruder.knowledge
        assert dev_b.session.value not in intruder.knowledge

    def test_shared_secret_never_observed(self):
        dev_a, _, intruder, _, _, _ = attack_run(Variant.DH_IMPROVED, IntruderMode.RELAY_PASSIVE)
        # reconstruct the shared integer from the honest side and check the
        # intruder never saw any encoding of it
        shared_key = dev_a.session
        assert shared_key.value not in intruder.knowledge

    def test_active_intruder_needs_group_parameters(self):
        with pytest.raises(ValueError):
            new_intruder(ADDR_C, IntruderMode.RELAY_ACTIVE, Variant.DH_IMPROVED, ADDR_A, ADDR_B)


class TestLegacyOriginate:
    def test_one_sided_fooling(self):
        _, _, _, _, outcomes, score = attack_run(Variant.LEGACY, IntruderMode.ORIGINATE_TO_A)
        assert outcomes[ADDR_A].status is AuthStatus.MUTUAL_SUCCESS
        assert outcomes[ADDR_B].status is AuthStatus.TIMED_OUT
        assert score.attack_success is False

    def test_chosen_challenge_harvest(self):
        _, _, intruder, _, _, score = attack_run(Variant.LEGACY, IntruderMode.ORIGINATE_TO_A)
        assert intruder.own_challenge is not None
        assert intruder.own_challenge_answered
        assert score.confidentiality is Confidentiality.BREACHED


class TestDhOriginate:
    def test_deadlock_again(self):
        _, _, _, transcript, outcomes, score = attack_run(
            Variant.DH_IMPROVED, IntruderMode.ORIGINATE_TO_A
        )
        assert all(o.status is AuthStatus.TIMED_OUT for o in outcomes.values())
        assert not any(e.kind is MsgKind.RESPONSE for e in transcript.events)
        assert score.attack_success is False


class TestNoForgedResponses:
    @pytest.mark.parametrize(
        "variant,mode",
        [
            (Variant.LEGACY, IntruderMode.RELAY_ACTIVE),
            (Variant.IMPROVED, IntruderMode.RELAY_ACTIVE),
            (Variant.LEGACY, IntruderMode.ORIGINATE_TO_A),
            (Variant.DH_IMPROVED, IntruderMode.RELAY_PASSIVE),
        ],
        ids=["legacy-relay", "improved-relay", "legacy-originate", "dh-passive"],
    )
    def test_every_emitted_response_was_observed_first(self, variant, mode):
        _, _, _, transcript, _, _ = attack_run(variant, mode)
        seen = set()
        for event in transcript.events:
            if event.kind is MsgKind.RESPONSE and event.from_id == ADDR_C:
                assert event.payload in seen
            if event.kind is MsgKind.RESPONSE and event.to_id == ADDR_C:
                seen.add(event.payload)


class TestVerdictPlumbing:
    def test_detection_passthrough(self):
        _, _, intruder, transcript, outcomes, _ = attack_run(
            Variant.LEGACY, IntruderMode.RELAY_ACTIVE
        )
        flagged = verdict(intruder, outcomes, transcript, Detection.DELAY_FLAGGED, KEY)
        assert flagged.detection is Detection.DELAY_FLAGGED

    def test_mismatched_keys_defeat_relay(self):
        dev_a = new_device(ADDR_A, Variant.LEGACY, KEY, 1)
        dev_b = new_device(ADDR_B, Variant.LEGACY, LinkKey(b"\xff" * 16), 2)
        intruder = new_intruder(ADDR_C, IntruderMode.RELAY_ACTIVE, Variant.LEGACY, ADDR_A, ADDR_B)
        transcript, outcomes = run([dev_a, dev_b], intruder, LINKS, ADDR_A, ADDR_B)
        score = verdict(intruder, outcomes, transcript, Detection.NONE, KEY)
        assert score.attack_success is False


HEADLINE = [
    (Variant.LEGACY, None),
    (Variant.IMPROVED, None),
    (Variant.DH_IMPROVED, None),
    (Variant.LEGACY, IntruderMode.RELAY_ACTIVE),
    (Variant.LEGACY, IntruderMode.RELAY_PASSIVE),
    (Variant.LEGACY, IntruderMode.ORIGINATE_TO_A),
    (Variant.IMPROVED, IntruderMode.RELAY_ACTIVE),
    (Variant.IMPROVED, IntruderMode.ORIGINATE_TO_A),
    (Variant.DH_IMPROVED, IntruderMode.RELAY_ACTIVE),
    (Variant.DH_IMPROVED, IntruderMode.RELAY_PASSIVE),
]


def full_scan_confidentiality(intruder, outcomes, link_key):
    """Every captured 16-octet item against every honest claimant, with the
    unmemoised e1 and no early exit."""
    challenges = [item for item in intruder.knowledge if len(item) == 16]
    responses = {item for item in intruder.knowledge if len(item) == 4}
    confidentiality = Confidentiality.MAINTAINED
    for raw in challenges:
        for claimant in set(outcomes):
            if e1.__wrapped__(link_key, Challenge(raw), claimant).value in responses:
                confidentiality = Confidentiality.BREACHED
    return confidentiality


class TestConfidentialityScan:
    @pytest.mark.parametrize("latency_ms,timeout_ms", [(10, 2000), (1, 2000), (25, 400)])
    def test_first_match_agrees_with_full_scan(self, monkeypatch, latency_ms, timeout_ms):
        judged = []

        def checked(intruder, outcomes, transcript, detection, link_key):
            score = verdict(intruder, outcomes, transcript, detection, link_key)
            assert score.confidentiality is full_scan_confidentiality(intruder, outcomes, link_key)
            judged.append(score.confidentiality)
            return score

        monkeypatch.setattr(cli, "verdict", checked)
        for variant, mode in HEADLINE:
            initiator = "C" if mode is IntruderMode.ORIGINATE_TO_A else "A"
            config = ScenarioConfig(
                variant=variant,
                intruder=mode,
                initiator=initiator,
                latency_ms=latency_ms,
                timeout_ms=timeout_ms,
            )
            for seed in range(20):
                run_scenario(config, seed)
        assert len(judged) == 20 * sum(mode is not None for _, mode in HEADLINE)
        assert set(judged) == set(Confidentiality)

    def test_no_captured_response_means_no_scan(self, monkeypatch):
        e1_calls = []
        captured = []

        def counting_e1(*args):
            e1_calls.append(args)
            return e1(*args)

        def judged(intruder, *args):
            captured.append(intruder.knowledge)
            return verdict(intruder, *args)

        monkeypatch.setattr(adversary, "e1", counting_e1)
        monkeypatch.setattr(cli, "verdict", judged)
        config = ScenarioConfig(
            variant=Variant.IMPROVED, intruder=IntruderMode.ORIGINATE_TO_A, initiator="C"
        )
        scores = [run_scenario(config, seed).score for seed in range(20)]
        assert len(captured) == 20
        assert not any(len(item) == 4 for knowledge in captured for item in knowledge)
        assert all(score.confidentiality is Confidentiality.MAINTAINED for score in scores)
        assert e1_calls == []

    @given(
        st.lists(st.binary(min_size=16, max_size=16), min_size=1, max_size=5),
        st.lists(st.tuples(st.integers(min_value=0, max_value=4), st.booleans()), max_size=3),
        st.lists(st.binary(min_size=4, max_size=4), max_size=3),
    )
    @settings(deadline=None)
    def test_first_match_agrees_on_any_knowledge(self, challenges, answered, noise):
        # captured responses of either claimant to any of the challenges
        _, _, intruder, transcript, outcomes, _ = attack_run(
            Variant.LEGACY, IntruderMode.RELAY_PASSIVE
        )
        claimants = list(outcomes)
        intruder.knowledge = set(challenges) | set(noise)
        for index, second in answered:
            raw = challenges[index % len(challenges)]
            intruder.knowledge.add(e1(KEY, Challenge(raw), claimants[second]).value)
        score = verdict(intruder, outcomes, transcript, Detection.NONE, KEY)
        assert score.confidentiality is full_scan_confidentiality(intruder, outcomes, KEY)


def two_pass_verdict(intruder, outcomes, transcript, detection, link_key):
    """The judge as two passes over the events: one for direct hops, then
    one that checks every intruder-delivered hop against what the
    impersonated victim emitted before it."""
    honest = set(outcomes)
    all_success = all(o.status is AuthStatus.MUTUAL_SUCCESS for o in outcomes.values())
    direct_hops = any(e.from_id in honest and e.to_id in honest for e in transcript.events)
    attack_success = all_success and not direct_hops and len(transcript.events) > 0
    integrity = Integrity.MAINTAINED
    emitted = set()
    for event in transcript.events:
        if event.from_id == intruder.id and event.to_id in honest:
            impersonated = intruder.impersonating.get(event.to_id)
            if (impersonated, event.kind, event.payload) not in emitted:
                integrity = Integrity.BROKEN
        if event.from_id in honest:
            emitted.add((event.from_id, event.kind, event.payload))
    return AttackVerdict(
        attack_success=attack_success,
        integrity=integrity,
        confidentiality=full_scan_confidentiality(intruder, outcomes, link_key),
        detection=detection,
    )


_PARTY = st.sampled_from([ADDR_A, ADDR_B, ADDR_C])
# a few short payloads, so that a delivered hop often repeats an emitted one
_PAYLOAD = st.one_of(st.sampled_from([b"", b"\x01", b"\x02"]), st.binary(max_size=32))
_HOP = st.tuples(_PARTY, _PARTY, st.sampled_from(list(MsgKind)), _PAYLOAD)
_OUTCOME = st.sampled_from(list(AuthStatus))


class TestOnePassVerdict:
    @given(st.lists(_HOP, max_size=16), _OUTCOME, _OUTCOME, st.booleans(), st.sampled_from(list(Detection)))
    # every device succeeded, yet one hop ran directly between A and B
    @example(
        [(ADDR_A, ADDR_C, MsgKind.AUTH_REQUEST, b"\x01"), (ADDR_A, ADDR_B, MsgKind.AUTH_SUCCESS, b"")],
        AuthStatus.MUTUAL_SUCCESS,
        AuthStatus.MUTUAL_SUCCESS,
        False,
        Detection.NONE,
    )
    @settings(deadline=None)
    def test_agrees_with_the_two_pass_judge(self, hops, status_a, status_b, b_first, detection):
        transcript = Transcript(
            events=tuple(TranscriptEvent(seq, seq, *hop) for seq, hop in enumerate(hops)),
            links=LINKS,
            end_time=len(hops),
        )
        outcomes = {
            ADDR_A: AuthOutcome(status_a, ADDR_B),
            ADDR_B: AuthOutcome(status_b, ADDR_A),
        }
        if b_first:
            outcomes = dict(reversed(outcomes.items()))
        intruder = new_intruder(
            ADDR_C, IntruderMode.RELAY_ACTIVE, Variant.LEGACY, ADDR_A, ADDR_B
        )
        intruder.knowledge = {payload for *_, payload in hops}
        args = (intruder, outcomes, transcript, detection, KEY)
        assert verdict(*args) == two_pass_verdict(*args)


class TestIntruderRng:
    @pytest.mark.parametrize(
        "variant,mode",
        [(variant, IntruderMode.RELAY_PASSIVE) for variant in Variant]
        + [(variant, IntruderMode.RELAY_ACTIVE) for variant in (Variant.LEGACY, Variant.IMPROVED)],
        ids=lambda v: v.value,
    )
    def test_a_relay_that_never_draws_never_seeds(self, monkeypatch, variant, mode):
        seeded = []

        def counting_random(seed):
            seeded.append(seed)
            return random.Random(seed)

        monkeypatch.setattr(adversary, "random", types.SimpleNamespace(Random=counting_random))
        _, _, intruder, _, _, _ = attack_run(variant, mode)
        assert seeded == []
        # still readable, from the stream of its seed
        assert intruder.rng.getstate() == random.Random(3).getstate()
        assert seeded == [3]

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_originate_draws_follow_the_seeded_stream(self, variant):
        _, _, intruder, transcript, _, _ = attack_run(variant, IntruderMode.ORIGINATE_TO_A)
        stream = random.Random(3)
        if variant is Variant.DH_IMPROVED:
            assert intruder.dh_own.r_private == stream.randrange(1, PARAMS.p)
        challenge = stream.randbytes(16)
        assert intruder.own_challenge == Challenge(challenge)
        sent = [
            e.payload
            for e in transcript.events
            if e.from_id == ADDR_C and e.kind is MsgKind.CHALLENGE
        ]
        assert sent[0] == challenge

    def test_relay_active_keypair_follows_the_seeded_stream(self):
        _, _, intruder, _, _, _ = attack_run(Variant.DH_IMPROVED, IntruderMode.RELAY_ACTIVE)
        assert intruder.dh_own.r_private == random.Random(3).randrange(1, PARAMS.p)


class TestDlogBruteforce:
    P23 = DhParams(p=23, alpha=5)

    def test_worked_values(self):
        assert dlog_bruteforce(self.P23, 8) == (6, 6)
        assert dlog_bruteforce(self.P23, 5) == (1, 1)

    def test_mean_cost_over_full_group(self):
        total = 0
        for r in range(1, 23):
            s = pow(5, r, 23)
            found, iterations = dlog_bruteforce(self.P23, s)
            assert found == r
            assert iterations == r
            total += iterations
        assert total / 22 == pytest.approx(11.5)

    def test_larger_group_spot_check(self):
        params = DhParams(p=10007, alpha=5)
        s = pow(5, 100, 10007)
        assert dlog_bruteforce(params, s) == (100, 100)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dlog_bruteforce(self.P23, 0)
        with pytest.raises(ValueError):
            dlog_bruteforce(self.P23, 23)
