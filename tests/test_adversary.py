"""Intruder behavior, attack scorecards, and discrete-log cost."""

import copy
import dataclasses
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from support import (
    ADDR_A,
    ADDR_B,
    ADDR_C,
    BASELINES,
    FACTOR,
    KEY,
    PARAMS,
    WIDE_P,
    attacked,
    captured,
    intruder,
    oracle_rtt,
    recorded,
    run_of,
    session_of,
    transcript_of,
)

from btauthsim import adversary, cli
from btauthsim.adversary import (
    NONCE,
    PUBLIC,
    AttackVerdict,
    Confidentiality,
    Detection,
    Integrity,
    IntruderMode,
    IntruderState,
    dlog_bruteforce,
    transcript_rtt,
    verdict,
)
from btauthsim.cli import ConfigError, ScenarioConfig, run_scenario
from btauthsim.crypto import (
    DhParams,
    combination_link_key,
    dh_keypair,
    e1,
    init_key,
    prime_factors,
    session_key_from_shared,
    xor_bytes,
)
from btauthsim.draw import Stream, draw_octets
from btauthsim.protocol import (
    AuthOutcome,
    AuthStatus,
    Message,
    MsgKind,
    Variant,
    decode_public,
    encode_public,
    handle,
    new_device,
    start,
)
from btauthsim.simnet import LinkConfig


def keeping(built):
    """IntruderState, appending each intruder it builds to built: the
    stand-in for cli.IntruderState that keeps what run_scenario builds."""

    def build(*args, **kwargs):
        built.append(IntruderState(*args, **kwargs))
        return built[-1]

    return build


def loop_detection(transcript, baselines, threshold_factor):
    """Detection by the detector's rule, written out over the oracle's
    round trips: flagged when A's or B's exceeds threshold_factor x its
    baseline."""
    for device in (ADDR_A, ADDR_B):
        rtt = oracle_rtt(transcript, device)
        if rtt is not None and rtt > threshold_factor * baselines[device]:
            return Detection.DELAY_FLAGGED
    return Detection.NONE


class TestLegacyRelay:
    def test_full_attack_succeeds(self):
        _, _, _, _, outcomes, score = attacked(Variant.LEGACY, IntruderMode.RELAY_ACTIVE)
        assert all(o.status is AuthStatus.MUTUAL_SUCCESS for o in outcomes.values())
        assert score.attack_success is True

    def test_relay_is_verbatim_so_integrity_holds(self):
        _, _, _, _, _, score = attacked(Variant.LEGACY, IntruderMode.RELAY_ACTIVE)
        assert score.integrity is Integrity.MAINTAINED

    def test_plaintext_pairs_captured(self):
        _, _, _, transcript, outcomes, score = attacked(Variant.LEGACY, IntruderMode.RELAY_ACTIVE)
        assert score.confidentiality is Confidentiality.BREACHED
        # both challenge payloads crossed the intruder
        challenges = [k for k in captured(transcript, outcomes) if len(k) == 16]
        assert len(challenges) >= 2


class TestImprovedCaseOriginate:
    def test_deadlock_blocks_the_attack(self):
        _, _, _, transcript, outcomes, score = attacked(
            Variant.IMPROVED, IntruderMode.ORIGINATE_TO_A
        )
        assert score.attack_success is False
        assert all(o.status is AuthStatus.TIMED_OUT for o in outcomes.values())
        assert not any(e.kind is MsgKind.RESPONSE for e in transcript.events)

    def test_nothing_confidential_leaks(self):
        _, _, _, _, _, score = attacked(Variant.IMPROVED, IntruderMode.ORIGINATE_TO_A)
        assert score.confidentiality is Confidentiality.MAINTAINED


class TestImprovedCaseRelay:
    def test_split_verdict(self):
        _, _, _, _, outcomes, score = attacked(Variant.IMPROVED, IntruderMode.RELAY_ACTIVE)
        assert all(o.status is AuthStatus.MUTUAL_SUCCESS for o in outcomes.values())
        assert score.attack_success is True
        assert score.integrity is Integrity.MAINTAINED
        assert score.confidentiality is Confidentiality.BREACHED

    def test_both_pairs_in_knowledge(self):
        _, _, _, transcript, outcomes, _ = attacked(Variant.IMPROVED, IntruderMode.RELAY_ACTIVE)
        knowledge = captured(transcript, outcomes)
        challenges = [e.payload for e in transcript.events if e.kind is MsgKind.CHALLENGE]
        responses = [e.payload for e in transcript.events if e.kind is MsgKind.RESPONSE]
        for payload in challenges + responses:
            assert payload in knowledge
        # each captured challenge pairs with a captured valid answer
        matched = 0
        for raw in set(challenges):
            for claimant in (ADDR_A, ADDR_B):
                if e1(KEY, raw, claimant) in knowledge:
                    matched += 1
        assert matched == 2


class TestDhRelay:
    def test_substitution_breaks_the_handshake(self):
        _, _, _, _, outcomes, score = attacked(Variant.DH_IMPROVED, IntruderMode.RELAY_ACTIVE)
        assert all(o.status is AuthStatus.FAILED for o in outcomes.values())
        assert score.attack_success is False
        assert score.integrity is Integrity.BROKEN

    def test_substituted_publics_differ_from_originals(self):
        _, _, _, transcript, _, _ = attacked(Variant.DH_IMPROVED, IntruderMode.RELAY_ACTIVE)
        into_c = [e.payload for e in transcript.events if e.kind is MsgKind.DH_PUBLIC and e.to_id == ADDR_C]
        out_of_c = [e.payload for e in transcript.events if e.kind is MsgKind.DH_PUBLIC and e.from_id == ADDR_C]
        assert len(into_c) == 2 and len(out_of_c) == 2
        assert set(into_c).isdisjoint(out_of_c)

    def test_passive_relay_cannot_breach(self):
        dev_a, dev_b, _, transcript, outcomes, score = attacked(
            Variant.DH_IMPROVED, IntruderMode.RELAY_PASSIVE
        )
        assert all(o.status is AuthStatus.MUTUAL_SUCCESS for o in outcomes.values())
        assert score.confidentiality is Confidentiality.MAINTAINED
        assert dev_a.dh is not None
        knowledge = captured(transcript, outcomes)
        assert session_of(dev_a) not in knowledge
        assert session_of(dev_b) not in knowledge

    def test_shared_secret_never_observed(self):
        dev_a, _, _, transcript, outcomes, _ = attacked(
            Variant.DH_IMPROVED, IntruderMode.RELAY_PASSIVE
        )
        # reconstruct the shared integer from the honest side and check the
        # intruder never saw any encoding of it
        shared_key = session_of(dev_a)
        assert shared_key not in captured(transcript, outcomes)


class TestSmallOrderPublicValue:
    """A known hole, pinned as it stands: the relay-active intruder against
    dh-improved forwards a forged public value of small order, 1 or p-1,
    which check_public accepts, so each victim's shared value is that value
    raised to its own exponent, a constant the intruder knows. The verdict
    shows no harm: confidentiality reads Maintained. ROADMAP item 2 (close
    the small-subgroup hole) flips these assertions on purpose. Seeds 0-19
    each seed A and B with 2 x seed and 2 x seed + 1, and C with seed."""

    @staticmethod
    def forged_runs(public):
        """Each seed's (A, B, transcript, verdict) when C forges public,
        judged against the intruder-free round trips."""
        _, _, calibration, _ = run_of(Variant.DH_IMPROVED)
        baselines = {device: transcript_rtt(calibration, device) for device in (ADDR_A, ADDR_B)}
        for seed in range(20):
            dev_c = intruder(IntruderMode.RELAY_ACTIVE, Variant.DH_IMPROVED, seed)
            dev_c.values[PUBLIC] = encode_public(public)
            dev_a, dev_b, transcript, outcomes = run_of(
                Variant.DH_IMPROVED, dev_c, seeds=(2 * seed, 2 * seed + 1)
            )
            yield seed, dev_a, dev_b, transcript, verdict(outcomes, transcript, KEY, baselines, FACTOR)

    def test_public_value_one_wins_every_run(self):
        won = AttackVerdict(True, Integrity.BROKEN, Confidentiality.MAINTAINED, Detection.DELAY_FLAGGED)
        constant = session_key_from_shared(1, PARAMS)
        for seed, dev_a, dev_b, transcript, score in self.forged_runs(1):
            assert score == won, f"seed {seed}"
            assert len(transcript.events) == 16, f"seed {seed}"
            assert session_of(dev_a) == session_of(dev_b) == constant, f"seed {seed}"

    def test_public_value_p_minus_1_wins_when_the_exponents_share_parity(self):
        p = PARAMS.p
        for seed, dev_a, dev_b, _, score in self.forged_runs(p - 1):
            r_a, r_b = dev_a.dh.r_private, dev_b.dh.r_private
            assert score.attack_success is (r_a % 2 == r_b % 2), f"seed {seed}"
            for device, r in ((dev_a, r_a), (dev_b, r_b)):
                shared = 1 if r % 2 == 0 else p - 1
                assert session_of(device) == session_key_from_shared(shared, PARAMS), f"seed {seed}"


def pohlig_hellman(params, public):
    """The exponent x in [0, p-2] with alpha^x = public mod p, for a
    generator alpha, and the group operations spent: Pohlig-Hellman over
    crypto.prime_factors(p - 1), one base-q digit of x mod q^k at a time,
    each digit by baby-step giant-step in the subgroup of prime order q,
    the residues joined by the Chinese remainder theorem. A multiplication
    mod p is one operation, and an exponentiation twice its exponent's
    bits, as square-and-multiply spends at most."""
    p, alpha = params.p, params.alpha
    n = p - 1
    ops = 0

    def power(base, e):
        nonlocal ops
        ops += 2 * e.bit_length()
        return pow(base, e, p)

    x, modulus = 0, 1
    for q in prime_factors(n):
        k = 0
        while n % q ** (k + 1) == 0:
            k += 1
        gamma = power(alpha, n // q)
        m = math.isqrt(q - 1) + 1
        baby, step = {}, 1
        for j in range(m):
            baby[step] = j
            step = step * gamma % p
            ops += 1
        giant = power(gamma, -m % q)
        residue = 0
        for i in range(k):
            h = power(public * power(alpha, n - residue) % p, n // q ** (i + 1))
            ops += 1
            for t in range(m):
                if h in baby:
                    break
                h = h * giant % p
                ops += 1
            else:
                raise AssertionError(f"no digit of x mod {q}^{k}")
            residue += (t * m + baby[h]) * q**i
        qk = q**k
        x += modulus * ((residue - x) * pow(modulus, -1, qk) % qk)
        modulus *= qk
    return x, ops


class TestPassivePohligHellman:
    """A known hole, pinned as it stands: at the default group, p - 1 =
    2 x 3^2 x 7 x 11 x 31 x 151 x 331 has only small prime factors, so
    Pohlig-Hellman recovers A's exponent from the public values that a
    dh-improved+relay-passive transcript carries, within GROUP_OPS group
    operations where a linear scan may take p - 2 = 2^31 - 3. With the link
    key, which the intruder of ROADMAP item 16 holds, that is the session
    key both victims work with, yet confidentiality reads Maintained.
    ROADMAP items 2 (a prime-order subgroup, which removes the smooth
    order) and 13 (price each dh verdict by this attack) flip these
    assertions on purpose. Seeds 0-19 each seed A and B with 2 x seed and
    2 x seed + 1, and C with seed."""

    # eight digits (of 2, 3 twice, 7, 11, 31, 151 and 331), each at most
    # two exponentiations of 31 bits, one multiplication and 19 giant
    # steps; each of the seven primes at most two more exponentiations and
    # 19 baby steps: under 2,200 in all. The twenty seeds take at most 1,457
    GROUP_OPS = 2**12

    def test_the_session_key_falls_to_the_smooth_group_order(self):
        for seed in range(20):
            dev_a, dev_b, _, transcript, outcomes, score = attacked(
                Variant.DH_IMPROVED, IntruderMode.RELAY_PASSIVE, seeds=(2 * seed, 2 * seed + 1, seed)
            )
            publics = {
                e.from_id: decode_public(e.payload)
                for e in transcript.events
                if e.kind is MsgKind.DH_PUBLIC and e.from_id in outcomes
            }
            x, ops = pohlig_hellman(PARAMS, publics[ADDR_A])
            assert ops <= self.GROUP_OPS, f"seed {seed}"
            assert x == dev_a.dh.r_private % (PARAMS.p - 1), f"seed {seed}"
            shared = pow(publics[ADDR_B], x, PARAMS.p)
            session = session_key_from_shared(shared, PARAMS)
            assert xor_bytes(session, KEY) == dev_a.effective_key == dev_b.effective_key, f"seed {seed}"
            assert score.confidentiality is Confidentiality.MAINTAINED, f"seed {seed}"


class KeyHolder:
    """Intruder C that holds the link key and plays two honest devices,
    built by new_device with seeds drawn from C's own: B', which answers
    every message A sends B, and A', which opens toward B when A's
    AuthRequest arrives and answers every message B sends A. It has the
    whole interface simnet.run takes of an intruder."""

    def __init__(self, variant, seed):
        stream = Stream(seed)
        params = PARAMS if variant is Variant.DH_IMPROVED else None
        self.id = ADDR_C
        self.opening = ()
        self.as_a = new_device(ADDR_A, variant, KEY, stream.getrandbits(64), params)
        self.as_b = new_device(ADDR_B, variant, KEY, stream.getrandbits(64), params)

    def intercept(self, msg):
        if msg.sender == ADDR_B:
            return handle(self.as_a, msg)
        out = handle(self.as_b, msg)
        if msg.kind is MsgKind.AUTH_REQUEST:
            out += start(self.as_a, ADDR_B)
        return out


class TestKeyHolder:
    """A known hole, pinned as it stands: an intruder that holds the link
    key (KeyHolder) runs a separate honest handshake with each victim, so
    both reach mutual success on every variant, dh-improved included, and
    C's two devices hold the working keys A and B hold. Its hops take no
    longer than direct ones, so the delay detector does not flag it.
    ROADMAP item 16 (the key holder as an intruder kind, with a verdict
    that shows its harm) flips these assertions on purpose. Seeds 0-19 each
    seed A and B with 2 x seed and 2 x seed + 1, and C with seed."""

    # the verdict of every run: integrity is broken, since each victim
    # hears only C's devices, and a credential is captured wherever the
    # working key is the link key
    VERDICTS = {
        Variant.LEGACY: Confidentiality.BREACHED,
        Variant.IMPROVED: Confidentiality.BREACHED,
        Variant.DH_IMPROVED: Confidentiality.MAINTAINED,
    }

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_both_victims_succeed_and_c_holds_their_keys(self, variant):
        _, _, calibration, _ = run_of(variant)
        baselines = {device: transcript_rtt(calibration, device) for device in (ADDR_A, ADDR_B)}
        won = AttackVerdict(True, Integrity.BROKEN, self.VERDICTS[variant], Detection.NONE)
        for seed in range(20):
            dev_c = KeyHolder(variant, seed)
            dev_a, dev_b, transcript, outcomes = run_of(
                variant, dev_c, seeds=(2 * seed, 2 * seed + 1)
            )
            assert outcomes == {
                ADDR_A: AuthOutcome(AuthStatus.MUTUAL_SUCCESS, ADDR_B),
                ADDR_B: AuthOutcome(AuthStatus.MUTUAL_SUCCESS, ADDR_A),
            }, f"seed {seed}"
            assert dev_c.as_b.effective_key == dev_a.effective_key, f"seed {seed}"
            assert dev_c.as_a.effective_key == dev_b.effective_key, f"seed {seed}"
            assert verdict(outcomes, transcript, KEY, baselines, FACTOR) == won, f"seed {seed}"


class TestPinCrack:
    """A known hole, pinned as it stands: legacy PIN pairing, rebuilt from
    the package's functions, falls to an offline search of the PIN space.
    The wire carries IN_RAND, each side's link-key contribution masked by
    K_init = init_key(PIN, B's address, IN_RAND), then one challenge and
    B's response under the combination key. An eavesdropper tries every
    4-digit PIN in order until the response verifies, so it finds the PIN
    within 10^4 trials, whatever the time each takes. e1.__wrapped__ is the
    unmemoised e1, so the search fills no memo. ROADMAP item 17 (PIN
    pairing on the wire, and the crack as a judge fact) flips this on
    purpose. Seeds 0-4 each draw the PIN and every random value: a trial
    takes about 15 us, so a seed costs up to 0.15 s."""

    TRIALS = 10**4

    @staticmethod
    def paired(seed):
        """The 4-digit PIN, the link key and what the wire carried."""
        stream = Stream(seed)
        pin = b"%04d" % (stream.getrandbits(32) % 10**4)
        in_rand, rand_a, rand_b, challenge = (draw_octets(stream) for _ in range(4))
        k_init = init_key(pin, ADDR_B, in_rand)
        link_key = combination_link_key(rand_a, ADDR_A, rand_b, ADDR_B)
        response = e1.__wrapped__(link_key, challenge, ADDR_B)
        wire = (in_rand, xor_bytes(rand_a, k_init), xor_bytes(rand_b, k_init), challenge, response)
        return pin, link_key, wire

    @classmethod
    def crack(cls, in_rand, masked_a, masked_b, challenge, response):
        """The first PIN, in ascending order, whose link key verifies the
        response, that link key and the trials it took; None if none does."""
        for trial in range(cls.TRIALS):
            pin = b"%04d" % trial
            k_init = init_key(pin, ADDR_B, in_rand)
            link_key = combination_link_key(
                xor_bytes(masked_a, k_init), ADDR_A, xor_bytes(masked_b, k_init), ADDR_B
            )
            if e1.__wrapped__(link_key, challenge, ADDR_B) == response:
                return pin, link_key, trial + 1
        return None

    def test_a_four_digit_pin_falls_within_ten_thousand_trials(self):
        for seed in range(5):
            pin, link_key, wire = self.paired(seed)
            assert self.crack(*wire) == (pin, link_key, int(pin) + 1), f"seed {seed}"


class TestHonestEmissions:
    @pytest.mark.parametrize("mode", [None, *IntruderMode], ids=lambda m: m.value if m else "none")
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_at_most_one_challenge_and_public_per_device(self, variant, mode):
        # the originate intruder forwards or forges at most once per
        # message an honest device emits, because each emits at most one
        # ChallengeMsg and at most one DhPublicMsg in a run
        timings = [(10, 2000), (1, 2000), (25, 400), (10, 45), (7, 30), (3, 7), (2, 5), (1, 2)]
        for latency_ms, timeout_ms in timings:
            for seed in range(8):
                seeds, links = (3 * seed, 3 * seed + 1), LinkConfig(latency_ms, timeout_ms)
                dev_c = intruder(mode, variant, 3 * seed + 2)
                _, _, transcript, _ = run_of(variant, dev_c, seeds=seeds, links=links)
                for device in (ADDR_A, ADDR_B):
                    kinds = [e.kind for e in transcript.events if e.from_id == device]
                    assert kinds.count(MsgKind.CHALLENGE) <= 1, (latency_ms, timeout_ms, seed)
                    assert kinds.count(MsgKind.DH_PUBLIC) <= 1, (latency_ms, timeout_ms, seed)


class TestLegacyOriginate:
    def test_one_sided_fooling(self):
        _, _, _, _, outcomes, score = attacked(Variant.LEGACY, IntruderMode.ORIGINATE_TO_A)
        assert outcomes[ADDR_A].status is AuthStatus.MUTUAL_SUCCESS
        assert outcomes[ADDR_B].status is AuthStatus.TIMED_OUT
        assert score.attack_success is False

    def test_chosen_challenge_harvest(self):
        _, _, dev_c, transcript, _, score = attacked(Variant.LEGACY, IntruderMode.ORIGINATE_TO_A)
        assert NONCE in dev_c.values
        # a's answer to c's own challenge reaches c and goes no further
        events = transcript.events
        answer = next(
            i for i, e in enumerate(events) if e.kind is MsgKind.RESPONSE and e.from_id == ADDR_A
        )
        assert events[answer].to_id == ADDR_C
        assert all(e.payload != events[answer].payload for e in events[answer + 1 :])
        assert score.confidentiality is Confidentiality.BREACHED


class TestDhOriginate:
    def test_deadlock_again(self):
        _, _, _, transcript, outcomes, score = attacked(
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
        _, _, _, transcript, _, _ = attacked(variant, mode)
        seen = set()
        for event in transcript.events:
            if event.kind is MsgKind.RESPONSE and event.from_id == ADDR_C:
                assert event.payload in seen
            if event.kind is MsgKind.RESPONSE and event.to_id == ADDR_C:
                seen.add(event.payload)


class ReflectingIntruder(IntruderState):
    """Returns victim_a's own challenge to it as a counter-challenge, under
    victim_b's address, and drops every other message."""

    def intercept(self, msg):
        if msg.kind is MsgKind.CHALLENGE and msg.sender == self.victim_a:
            return [Message(MsgKind.CHALLENGE, self.victim_b, self.victim_a, msg.payload)]
        return []


class TestReflection:
    @pytest.mark.parametrize("variant", [Variant.LEGACY, Variant.IMPROVED], ids=lambda v: v.value)
    def test_a_reflected_challenge_breaches_confidentiality(self, monkeypatch, variant):
        # A answers a counter-challenge before it has verified its peer, so
        # its answer to its own challenge is a credential the intruder
        # captured: c delivered to A, e1(K, c, A) sent by A
        monkeypatch.setattr(cli, "IntruderState", ReflectingIntruder)
        config = ScenarioConfig(variant=variant, intruder=IntruderMode.RELAY_PASSIVE)
        for seed in range(20):
            result = run_scenario(config, seed)
            kinds = [(e.from_id, e.to_id, e.kind) for e in result.transcript.events]
            assert kinds == [
                (ADDR_A, ADDR_C, MsgKind.AUTH_REQUEST),
                (ADDR_A, ADDR_C, MsgKind.CHALLENGE),
                (ADDR_C, ADDR_A, MsgKind.CHALLENGE),
                (ADDR_A, ADDR_C, MsgKind.RESPONSE),
            ], f"seed {seed}"
            score = result.score
            assert score.attack_success is False
            assert score.integrity is Integrity.BROKEN, f"seed {seed}"
            assert score.confidentiality is Confidentiality.BREACHED, f"seed {seed}"
            # and the delay detector sees nothing: the challenge C returns
            # to A is not a send of A's, and no response reaches A, so
            # neither device has a round trip to measure
            assert score.detection is Detection.NONE, f"seed {seed}"
            for device in (ADDR_A, ADDR_B):
                assert transcript_rtt(result.transcript, device) is None, f"seed {seed}"


def report(config, seed):
    """The verdict columns of a run and its count of messages."""
    result = run_scenario(config, seed)
    score = result.score
    return (
        score.attack_success,
        score.integrity,
        score.confidentiality,
        score.detection,
        len(result.transcript.events),
    )


# the rows that a 2000 ms timeout cuts short at 250 ms a hop, as they read
SLOW_ROWS = {
    "improved+relay-active": (
        False, Integrity.MAINTAINED, Confidentiality.BREACHED, Detection.DELAY_FLAGGED, 10
    ),
    "dh-improved+relay-active": (
        False, Integrity.BROKEN, Confidentiality.MAINTAINED, Detection.NONE, 10
    ),
    "dh-improved+relay-passive": (
        False, Integrity.MAINTAINED, Confidentiality.MAINTAINED, Detection.NONE, 10
    ),
}


class TestTimeoutLimit:
    def test_a_slow_link_cuts_three_relayed_runs_short(self):
        # a known limit, pinned as it reads: ScenarioConfig accepts 250 ms
        # a hop with the default 2000 ms timeout, since the intruder-free
        # handshake completes within it, but on the nested variants A's
        # relayed round trip takes 8L = 2000 ms, so the timeout cuts three
        # relayed runs short; every other headline row reads as at 10 ms
        for config in cli.HEADLINE:
            slow = dataclasses.replace(config, latency_ms=250)
            assert slow.timeout_ms == 2000
            for seed in range(20):
                expected = SLOW_ROWS.get(config.scenario_name) or report(config, seed)
                assert report(slow, seed) == expected, f"{config.scenario_name} seed {seed}"


class BytearrayRelay(IntruderState):
    """A passive relay that re-sends each payload as a bytearray."""

    def intercept(self, msg):
        relayed = super().intercept(msg)
        return [Message(m.kind, m.sender, m.receiver, bytearray(m.payload)) for m in relayed]


class TestWirePayloadsAreBytes:
    def test_a_relay_of_bytearray_payloads_fails_at_its_own_message(self):
        # were it let through, both victims would finish and the judge
        # would meet an unhashable payload
        relay = BytearrayRelay(
            ADDR_C, IntruderMode.RELAY_PASSIVE, Variant.LEGACY, ADDR_A, ADDR_B, rng_seed=3
        )
        with pytest.raises(TypeError, match="^AuthRequest payload must be bytes, got bytearray$") as err:
            run_of(Variant.LEGACY, relay)
        # raised by Message's check, called from the intruder's intercept
        names = [entry.name for entry in err.traceback]
        assert names[-2:] == ["__init__", "check_octets"] and "intercept" in names


class TestVerdictPlumbing:
    @pytest.mark.parametrize(
        "factor,expected",
        [(1.5, Detection.DELAY_FLAGGED), (2.0, Detection.NONE)],
        ids=["flagged-at-1.5", "passed-at-2"],
    )
    def test_the_threshold_decides_detection(self, factor, expected):
        # the relay exactly doubles each round trip, 20 to 40 ms, and the
        # rule is a strict >
        _, _, _, transcript, outcomes, _ = attacked(Variant.LEGACY, IntruderMode.RELAY_ACTIVE)
        assert [transcript_rtt(transcript, device) for device in outcomes] == [40, 40]
        score = verdict(outcomes, transcript, KEY, BASELINES, factor)
        assert score.detection is expected

    @pytest.mark.parametrize("missing", [ADDR_A, ADDR_B], ids=["A", "B"])
    def test_baselines_must_cover_both_devices(self, missing):
        _, _, _, transcript, outcomes, _ = attacked(Variant.LEGACY, IntruderMode.RELAY_ACTIVE)
        baselines = {device: 20 for device in BASELINES if device != missing}
        with pytest.raises(ValueError, match="baselines"):
            verdict(outcomes, transcript, KEY, baselines, FACTOR)

    def test_mismatched_keys_defeat_relay(self):
        dev_c = intruder(IntruderMode.RELAY_ACTIVE, Variant.LEGACY, seed_c=0)
        _, _, transcript, outcomes = run_of(Variant.LEGACY, dev_c, key_b=b"\xff" * 16)
        score = verdict(outcomes, transcript, KEY, BASELINES, FACTOR)
        assert score.attack_success is False

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_outcomes_must_name_two_devices(self, count):
        _, _, _, transcript, outcomes, _ = attacked(Variant.LEGACY, IntruderMode.RELAY_ACTIVE)
        parties = [ADDR_A, ADDR_B, ADDR_C][:count]
        outcome = next(iter(outcomes.values()))
        with pytest.raises(ValueError):
            verdict(dict.fromkeys(parties, outcome), transcript, KEY, BASELINES, FACTOR)


def full_scan_confidentiality(challenges, responses, outcomes, link_key):
    """Every 16-octet item of challenges against every honest claimant, with
    the unmemoised e1 and no early exit, matched among the 4-octet items of
    responses."""
    responses = {item for item in responses if len(item) == 4}
    confidentiality = Confidentiality.MAINTAINED
    for raw in (item for item in challenges if len(item) == 16):
        for claimant in set(outcomes):
            if e1.__wrapped__(link_key, raw, claimant) in responses:
                confidentiality = Confidentiality.BREACHED
    return confidentiality


def answered_credential_confidentiality(transcript, outcomes, link_key):
    """For each honest claimant X, every 16-octet CHALLENGE payload the
    intruder delivered to X against the RESPONSE payloads X sent the
    intruder, with the unmemoised e1 and no early exit."""
    confidentiality = Confidentiality.MAINTAINED
    for claimant in outcomes:
        delivered = {
            e.payload
            for e in transcript.events
            if e.kind is MsgKind.CHALLENGE
            and e.to_id == claimant
            and e.from_id not in outcomes
            and len(e.payload) == 16
        }
        sent = {
            e.payload
            for e in transcript.events
            if e.kind is MsgKind.RESPONSE and e.from_id == claimant and e.to_id not in outcomes
        }
        for raw in delivered:
            if e1.__wrapped__(link_key, raw, claimant) in sent:
                confidentiality = Confidentiality.BREACHED
    return confidentiality


# the hops that cross the intruder, into it or out of it
INTRUDER_ROUTES = [(ADDR_A, ADDR_C), (ADDR_C, ADDR_A), (ADDR_B, ADDR_C), (ADDR_C, ADDR_B)]


def captured_of_kind(transcript, outcomes, kind):
    """The payloads of the captured hops of one message kind."""
    return {
        e.payload
        for e in transcript.events
        if e.kind is kind and (e.from_id not in outcomes or e.to_id not in outcomes)
    }


_PUBLIC = bytes(range(100, 116))
_ANSWER = e1(KEY, _PUBLIC, ADDR_A)
# a DhPublicMsg relayed by the intruder, then answered as if a challenge
ANSWERED_PUBLIC_HOPS = [
    (ADDR_A, ADDR_C, MsgKind.DH_PUBLIC, _PUBLIC),
    (ADDR_C, ADDR_B, MsgKind.DH_PUBLIC, _PUBLIC),
    (ADDR_A, ADDR_C, MsgKind.RESPONSE, _ANSWER),
    (ADDR_C, ADDR_B, MsgKind.RESPONSE, _ANSWER),
]


# a challenge and A's credential over it, e1(KEY, c, A)
_CHALLENGE = bytes(range(32, 48))
_CREDENTIAL_A = e1(KEY, _CHALLENGE, ADDR_A)
# A's challenge delivered at 1 ms, after a response to A delivered at 0 ms
EARLY_RESPONSE_HOPS = [
    (ADDR_C, ADDR_A, MsgKind.RESPONSE, _CREDENTIAL_A),
    (ADDR_A, ADDR_C, MsgKind.CHALLENGE, _CHALLENGE),
]


class TestConfidentialityScan:
    @pytest.mark.parametrize(
        "latency_ms,timeout_ms,dh_p,dh_alpha",
        [
            (10, 2000, 2147483647, 7),
            (1, 2000, 2147483647, 7),
            (25, 400, 2147483647, 7),
            (10, 2000, WIDE_P, 2),
        ],
        ids=["10-2000", "1-2000", "25-400", "10-2000-dh-wide"],
    )
    def test_first_match_agrees_with_full_scan(
        self, monkeypatch, latency_ms, timeout_ms, dh_p, dh_alpha
    ):
        # the oracle tries every captured 16-octet item as a challenge,
        # whatever its kind: on every run, leaving out the other kinds
        # changes no verdict; and the judge's detection is the one
        # run_scenario once computed itself
        judged = []

        def checked(outcomes, transcript, link_key, baselines, threshold_factor):
            score = verdict(outcomes, transcript, link_key, baselines, threshold_factor)
            knowledge = captured(transcript, outcomes)
            expected = full_scan_confidentiality(knowledge, knowledge, outcomes, link_key)
            assert score.confidentiality is expected
            assert score.detection is loop_detection(transcript, baselines, threshold_factor)
            judged.append(score.confidentiality)
            return score

        monkeypatch.setattr(cli, "verdict", checked)
        for headline in cli.HEADLINE:
            config = dataclasses.replace(
                headline,
                latency_ms=latency_ms,
                timeout_ms=timeout_ms,
                dh_p=dh_p,
                dh_alpha=dh_alpha,
            )
            for seed in range(20):
                run_scenario(config, seed)
        # intruder-free runs go through the same judge
        assert len(judged) == 20 * len(cli.HEADLINE)
        assert set(judged) == set(Confidentiality)

    def test_no_captured_response_means_no_scan(self, monkeypatch):
        knowledges = []

        def judged(outcomes, transcript, *args):
            knowledges.append(captured(transcript, outcomes))
            return verdict(outcomes, transcript, *args)

        monkeypatch.setattr(cli, "verdict", judged)
        config = ScenarioConfig(
            variant=Variant.IMPROVED, intruder=IntruderMode.ORIGINATE_TO_A, initiator="C"
        )
        with recorded(adversary, "e1") as e1_calls:
            scores = [run_scenario(config, seed).score for seed in range(20)]
        assert len(knowledges) == 20
        assert not any(len(item) == 4 for knowledge in knowledges for item in knowledge)
        assert all(score.confidentiality is Confidentiality.MAINTAINED for score in scores)
        assert e1_calls == []

    @given(
        st.lists(
            st.tuples(st.binary(min_size=16, max_size=16), st.sampled_from(INTRUDER_ROUTES)),
            min_size=1,
            max_size=5,
        ),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.sampled_from([ADDR_A, ADDR_B]),
                st.sampled_from(INTRUDER_ROUTES),
            ),
            max_size=3,
        ),
        st.lists(
            st.tuples(st.binary(min_size=4, max_size=4), st.sampled_from(INTRUDER_ROUTES)),
            max_size=3,
        ),
    )
    # A's challenge, delivered to A and answered by A
    @example([(bytes(16), (ADDR_C, ADDR_A))], [(0, ADDR_A, (ADDR_A, ADDR_C))], [])
    @settings(deadline=None)
    def test_first_match_agrees_on_any_knowledge(self, challenges, answered, noise):
        # challenges and responses cross the intruder, each into it or out
        # of it, and the responses include credentials of either claimant to
        # any of the challenges
        hops = [(*route, MsgKind.CHALLENGE, raw) for raw, route in challenges]
        hops += [(*route, MsgKind.RESPONSE, raw) for raw, route in noise]
        for index, claimant, route in answered:
            raw = challenges[index % len(challenges)][0]
            hops.append((*route, MsgKind.RESPONSE, e1(KEY, raw, claimant)))
        transcript = transcript_of(hops)
        outcomes = {
            ADDR_A: AuthOutcome(AuthStatus.MUTUAL_SUCCESS, ADDR_B),
            ADDR_B: AuthOutcome(AuthStatus.MUTUAL_SUCCESS, ADDR_A),
        }
        assert captured(transcript, outcomes) == {payload for *_, payload in hops}
        score = verdict(outcomes, transcript, KEY, BASELINES, FACTOR)
        assert score.confidentiality is answered_credential_confidentiality(
            transcript, outcomes, KEY
        )

    @pytest.mark.parametrize(
        "mode,calls",
        [
            pytest.param(mode, calls, id=mode.value)
            for mode, calls in [(IntruderMode.RELAY_ACTIVE, 1), (IntruderMode.RELAY_PASSIVE, 2)]
        ],
    )
    def test_dh_public_values_are_not_tried_as_challenges(self, mode, calls):
        # no relayed dh-improved run verifies under the link key, so the scan
        # runs in full, one call for each challenge a device answered: on
        # relay-active only A answers (B's check of A's answer fails, so B
        # withholds its own), on relay-passive both do
        config = ScenarioConfig(variant=Variant.DH_IMPROVED, intruder=mode)
        for seed in range(10):
            with recorded(adversary, "e1") as e1_calls:
                result = run_scenario(config, seed)
            events = result.transcript.events
            delivered = {e.to_id: e.payload for e in events if e.kind is MsgKind.CHALLENGE}
            answering = {e.from_id for e in events if e.kind is MsgKind.RESPONSE}
            assert delivered.keys() == {ADDR_A, ADDR_B, ADDR_C}
            assert result.score.confidentiality is Confidentiality.MAINTAINED
            # claimants in the order of outcomes, each with the challenge
            # delivered to it
            assert e1_calls == [
                (result.link_key, delivered[claimant], claimant)
                for claimant in result.outcomes
                if claimant in answering
            ], f"seed {seed}"
            assert len(e1_calls) == calls, f"seed {seed}"

    @pytest.mark.parametrize(
        "hops,expected",
        [
            # A's credential, sent by A, to a challenge delivered only to B
            (
                [(ADDR_C, ADDR_B, MsgKind.CHALLENGE), (ADDR_A, ADDR_C, MsgKind.RESPONSE)],
                Confidentiality.MAINTAINED,
            ),
            # A's credential to a challenge delivered to A, sent only by C
            (
                [(ADDR_C, ADDR_A, MsgKind.CHALLENGE), (ADDR_C, ADDR_B, MsgKind.RESPONSE)],
                Confidentiality.MAINTAINED,
            ),
            # a challenge delivered to A and answered by A
            (
                [(ADDR_C, ADDR_A, MsgKind.CHALLENGE), (ADDR_A, ADDR_C, MsgKind.RESPONSE)],
                Confidentiality.BREACHED,
            ),
        ],
        ids=["delivered-to-the-other", "sent-by-the-intruder", "answered"],
    )
    def test_only_a_credential_the_claimant_answered_counts(self, hops, expected):
        # the claimant-blind scan of every captured challenge against every
        # captured response breaches on all three
        payloads = (_CHALLENGE, _CREDENTIAL_A)
        transcript = transcript_of([(*hop, payload) for hop, payload in zip(hops, payloads)])
        outcomes = {
            ADDR_A: AuthOutcome(AuthStatus.FAILED, None),
            ADDR_B: AuthOutcome(AuthStatus.FAILED, None),
        }
        challenges = captured_of_kind(transcript, outcomes, MsgKind.CHALLENGE)
        responses = captured_of_kind(transcript, outcomes, MsgKind.RESPONSE)
        blind = full_scan_confidentiality(challenges, responses, outcomes, KEY)
        assert blind is Confidentiality.BREACHED
        score = verdict(outcomes, transcript, KEY, BASELINES, FACTOR)
        assert score.confidentiality is expected

    def test_challenges_are_tried_in_ascending_order(self):
        # two challenges delivered to A, A answering neither, and one to B,
        # which sent no response: the scan hashes A's two, smaller first,
        # whatever order the hash seed gives the set that holds them (under
        # PYTHONHASHSEED=12345, Python 3.11, that set yields the larger first)
        low, high, other = bytes(16), b"\xff" * 16, b"\x07" * 16
        hops = [
            (ADDR_C, ADDR_A, MsgKind.CHALLENGE, high),
            (ADDR_C, ADDR_B, MsgKind.CHALLENGE, other),
            (ADDR_C, ADDR_A, MsgKind.CHALLENGE, low),
            (ADDR_A, ADDR_C, MsgKind.RESPONSE, b"\x00" * 4),
        ]
        transcript = transcript_of(hops)
        outcomes = {
            ADDR_B: AuthOutcome(AuthStatus.TIMED_OUT, None),
            ADDR_A: AuthOutcome(AuthStatus.TIMED_OUT, None),
        }
        with recorded(adversary, "e1") as e1_calls:
            score = verdict(outcomes, transcript, KEY, BASELINES, FACTOR)
        assert score.confidentiality is Confidentiality.MAINTAINED
        assert e1_calls == [(KEY, low, ADDR_A), (KEY, high, ADDR_A)]

    def test_the_scan_stops_at_the_first_match(self):
        # A answered its lower challenge, and B its own: only A's lower
        # challenge is hashed, neither A's higher one nor any of B's
        low, high, other = bytes(16), b"\xff" * 16, b"\x07" * 16
        hops = [
            (ADDR_C, ADDR_A, MsgKind.CHALLENGE, high),
            (ADDR_C, ADDR_A, MsgKind.CHALLENGE, low),
            (ADDR_A, ADDR_C, MsgKind.RESPONSE, e1(KEY, low, ADDR_A)),
            (ADDR_C, ADDR_B, MsgKind.CHALLENGE, other),
            (ADDR_B, ADDR_C, MsgKind.RESPONSE, e1(KEY, other, ADDR_B)),
        ]
        transcript = transcript_of(hops)
        outcomes = {
            ADDR_A: AuthOutcome(AuthStatus.TIMED_OUT, None),
            ADDR_B: AuthOutcome(AuthStatus.TIMED_OUT, None),
        }
        with recorded(adversary, "e1") as e1_calls:
            score = verdict(outcomes, transcript, KEY, BASELINES, FACTOR)
        assert score.confidentiality is Confidentiality.BREACHED
        assert e1_calls == [(KEY, low, ADDR_A)]

    def test_a_response_to_a_public_value_is_no_credential(self):
        """A transcript that no run can produce: the intruder relays a
        DhPublicMsg whose payload X is then answered, as if a challenge, by
        a relayed ResponseMsg e1(K, X, A). A device computes e1 only on the
        payload of a ChallengeMsg delivered to it, and in an intruder run
        every hop into a device comes from the intruder, so a challenge a
        device answered is always captured as a ChallengeMsg. Here X never
        crossed as one, so the pair is no credential the intruder saw and
        the judge does not try X; the kind-blind scan would."""
        hops = ANSWERED_PUBLIC_HOPS
        transcript = transcript_of(hops)
        outcomes = {
            ADDR_A: AuthOutcome(AuthStatus.FAILED, ADDR_B),
            ADDR_B: AuthOutcome(AuthStatus.FAILED, ADDR_A),
        }
        knowledge = captured(transcript, outcomes)
        blind = full_scan_confidentiality(knowledge, knowledge, outcomes, KEY)
        assert blind is Confidentiality.BREACHED
        score = verdict(outcomes, transcript, KEY, BASELINES, FACTOR)
        assert score.confidentiality is Confidentiality.MAINTAINED
        assert score.integrity is Integrity.MAINTAINED


def two_pass_verdict(outcomes, transcript, link_key, baselines, threshold_factor):
    """The judge by its record-only definition, one fact per pass: direct
    hops between the honest devices; each hop that another party delivered
    to an honest device, checked against what the other honest device
    emitted before it; for each honest device, the CHALLENGE payloads
    another party delivered to it, tried against the RESPONSE payloads it
    sent another party; and detection by loop_detection, the detector's
    rule over the round-trip oracle."""
    a, b = outcomes
    other = {a: b, b: a}
    honest = set(outcomes)
    all_success = all(o.status is AuthStatus.MUTUAL_SUCCESS for o in outcomes.values())
    direct_hops = any(e.from_id in honest and e.to_id in honest for e in transcript.events)
    attack_success = all_success and not direct_hops and len(transcript.events) > 0
    integrity = Integrity.MAINTAINED
    emitted = set()
    for event in transcript.events:
        if event.from_id not in honest and event.to_id in honest:
            if (other[event.to_id], event.kind, event.payload) not in emitted:
                integrity = Integrity.BROKEN
        if event.from_id in honest:
            emitted.add((event.from_id, event.kind, event.payload))
    return AttackVerdict(
        attack_success=attack_success,
        integrity=integrity,
        confidentiality=answered_credential_confidentiality(transcript, outcomes, link_key),
        detection=loop_detection(transcript, baselines, threshold_factor),
    )


_PARTY = st.sampled_from([ADDR_A, ADDR_B, ADDR_C])
# a few short payloads, so that a delivered hop often repeats an emitted one
_PAYLOAD = st.one_of(st.sampled_from([b"", b"\x01", b"\x02"]), st.binary(max_size=32))
_KIND = st.sampled_from(list(MsgKind))
_HOP = st.tuples(_PARTY, _PARTY, _KIND, _PAYLOAD)
_OUTCOME = st.sampled_from(list(AuthStatus))
# hops fall due at their sequence numbers, so round trips stay small
_BASELINE = st.integers(min_value=1, max_value=40)
_FACTOR = st.floats(min_value=1, max_value=10, exclude_min=True)


@st.composite
def _hops(draw):
    """Arbitrary hops, plus both halves of a few real credentials: a
    challenge c and e1(KEY, c, claimant) for an honest claimant, all in any
    order. Each half crosses either as the claimant answered it (c from the
    intruder to the claimant as a ChallengeMsg, the response from the
    claimant to the intruder as a ResponseMsg) or under any kind between
    any parties. Random payloads alone almost never hold a credential, and
    random placements seldom put one where it was answered, so they could
    not tell a judge that reads the kind, the receiver or the sender of a
    hop from one that ignores it."""
    hops = draw(st.lists(_HOP, max_size=12))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        challenge = draw(st.binary(min_size=16, max_size=16))
        claimant = draw(st.sampled_from([ADDR_A, ADDR_B]))
        answered = [
            (ADDR_C, claimant, MsgKind.CHALLENGE, challenge),
            (claimant, ADDR_C, MsgKind.RESPONSE, e1(KEY, challenge, claimant)),
        ]
        for hop in answered:
            if draw(st.booleans()):
                hop = (draw(_PARTY), draw(_PARTY), draw(_KIND), hop[3])
            hops.append(hop)
    return draw(st.permutations(hops))


class TestOnePassVerdict:
    @given(_hops(), _OUTCOME, _OUTCOME, st.booleans(), _BASELINE, _BASELINE, _FACTOR)
    # every device succeeded, yet one hop ran directly between A and B
    @example(
        [(ADDR_A, ADDR_C, MsgKind.AUTH_REQUEST, b"\x01"), (ADDR_A, ADDR_B, MsgKind.AUTH_SUCCESS, b"")],
        AuthStatus.MUTUAL_SUCCESS,
        AuthStatus.MUTUAL_SUCCESS,
        False,
        20,
        20,
        FACTOR,
    )
    # a response to a value that crossed only as a public value
    @example(ANSWERED_PUBLIC_HOPS, AuthStatus.FAILED, AuthStatus.FAILED, False, 20, 20, FACTOR)
    # A's credential, sent by A, to a challenge delivered only to B
    @example(
        [(ADDR_C, ADDR_B, MsgKind.CHALLENGE, _CHALLENGE), (ADDR_A, ADDR_C, MsgKind.RESPONSE, _CREDENTIAL_A)],
        AuthStatus.FAILED,
        AuthStatus.FAILED,
        False,
        20,
        20,
        FACTOR,
    )
    # A's credential to a challenge delivered to A, sent only by the intruder
    @example(
        [(ADDR_C, ADDR_A, MsgKind.CHALLENGE, _CHALLENGE), (ADDR_C, ADDR_B, MsgKind.RESPONSE, _CREDENTIAL_A)],
        AuthStatus.FAILED,
        AuthStatus.FAILED,
        True,
        20,
        20,
        FACTOR,
    )
    # A's credential to a challenge delivered to A, sent by A
    @example(
        [(ADDR_C, ADDR_A, MsgKind.CHALLENGE, _CHALLENGE), (ADDR_A, ADDR_C, MsgKind.RESPONSE, _CREDENTIAL_A)],
        AuthStatus.TIMED_OUT,
        AuthStatus.TIMED_OUT,
        False,
        20,
        20,
        FACTOR,
    )
    # B's challenge goes out at -10 ms and its response is in at 1 ms: 11 ms
    # is flagged against 5 ms at factor 2 and not against 6 ms
    @example(
        [(ADDR_B, ADDR_C, MsgKind.CHALLENGE, _CHALLENGE), (ADDR_C, ADDR_B, MsgKind.RESPONSE, _CREDENTIAL_A)],
        AuthStatus.FAILED,
        AuthStatus.FAILED,
        False,
        20,
        5,
        2.0,
    )
    @example(
        [(ADDR_B, ADDR_C, MsgKind.CHALLENGE, _CHALLENGE), (ADDR_C, ADDR_B, MsgKind.RESPONSE, _CREDENTIAL_A)],
        AuthStatus.FAILED,
        AuthStatus.FAILED,
        True,
        20,
        6,
        2.0,
    )
    # B emitted the payload as a challenge, and C delivers it to A as a
    # response: a hop B never emitted, so integrity is broken
    @example(
        [(ADDR_B, ADDR_C, MsgKind.CHALLENGE, b"\x01"), (ADDR_C, ADDR_A, MsgKind.RESPONSE, b"\x01")],
        AuthStatus.FAILED,
        AuthStatus.FAILED,
        False,
        20,
        20,
        FACTOR,
    )
    # a response to A listed before A's first challenge, yet at or after
    # its send: the challenge is delivered at 1 ms, so sent at -9 ms, and
    # the response at 0 ms gives 9 ms, flagged against 5 ms at factor 1.5
    # and not against 6 ms
    @example(EARLY_RESPONSE_HOPS, AuthStatus.FAILED, AuthStatus.FAILED, False, 5, 20, 1.5)
    @example(EARLY_RESPONSE_HOPS, AuthStatus.FAILED, AuthStatus.FAILED, False, 6, 20, 1.5)
    # a response to A listed before A's challenge and before its send at
    # 1 ms does not count; the one at 12 ms does: 11 ms, over 7 x 1.5
    @example(
        [
            (ADDR_C, ADDR_A, MsgKind.RESPONSE, b"\x01"),
            *[(ADDR_C, ADDR_B, MsgKind.AUTH_REQUEST, ADDR_A)] * 10,
            (ADDR_A, ADDR_C, MsgKind.CHALLENGE, _CHALLENGE),
            (ADDR_C, ADDR_A, MsgKind.RESPONSE, _CREDENTIAL_A),
        ],
        AuthStatus.FAILED,
        AuthStatus.FAILED,
        False,
        7,
        20,
        1.5,
    )
    # A's second challenge, sent at -6 ms, is ignored: the round trip runs
    # from the first, sent at -10 ms, to the response at 5 ms, 15 ms, over
    # 8 x 1.5, where the second's 11 ms is not
    @example(
        [
            (ADDR_A, ADDR_C, MsgKind.CHALLENGE, _CHALLENGE),
            *[(ADDR_C, ADDR_B, MsgKind.AUTH_REQUEST, ADDR_A)] * 3,
            (ADDR_A, ADDR_C, MsgKind.CHALLENGE, bytes(16)),
            (ADDR_C, ADDR_A, MsgKind.RESPONSE, _CREDENTIAL_A),
        ],
        AuthStatus.FAILED,
        AuthStatus.FAILED,
        False,
        8,
        20,
        1.5,
    )
    # a response to A, which sent no challenge: no round trip, so nothing
    # is flagged, however low the baseline
    @example(
        [(ADDR_C, ADDR_A, MsgKind.RESPONSE, _CREDENTIAL_A)],
        AuthStatus.FAILED,
        AuthStatus.FAILED,
        False,
        1,
        1,
        1.01,
    )
    @settings(deadline=None)
    def test_agrees_with_the_two_pass_judge(
        self, hops, status_a, status_b, b_first, baseline_a, baseline_b, factor
    ):
        transcript = transcript_of(hops)
        outcomes = {
            ADDR_A: AuthOutcome(status_a, ADDR_B),
            ADDR_B: AuthOutcome(status_b, ADDR_A),
        }
        if b_first:
            outcomes = dict(reversed(outcomes.items()))
        args = (outcomes, transcript, KEY, {ADDR_A: baseline_a, ADDR_B: baseline_b}, factor)
        assert verdict(*args) == two_pass_verdict(*args)


def honest_verdict(detection):
    """The verdict an intruder-free run scores, as run_scenario once built
    it by hand."""
    return AttackVerdict(False, Integrity.MAINTAINED, Confidentiality.MAINTAINED, detection)


class TestHonestRunsAreJudged:
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_one_verdict_and_no_scan(self, monkeypatch, variant):
        judged = []

        def judging(outcomes, transcript, link_key, baselines, threshold_factor):
            score = verdict(outcomes, transcript, link_key, baselines, threshold_factor)
            judged.append((loop_detection(transcript, baselines, threshold_factor), score))
            return score

        monkeypatch.setattr(cli, "verdict", judging)
        config = ScenarioConfig(variant=variant)
        with recorded(adversary, "e1") as e1_calls:
            for seed in range(20):
                result = run_scenario(config, seed)
                assert len(judged) == 1, f"seed {seed}"
                detection, score = judged.pop()
                assert result.score is score
                assert score == honest_verdict(detection), f"seed {seed}"
        assert e1_calls == []


def knowledge_set_verdict(knowledge, outcomes, transcript, link_key, baselines, threshold_factor):
    """The judge that verdict replaced, as it scored an intruder run: from
    the intruder's own grow-only record of the payloads it received and
    sent and the addresses on what it received, with the intruder at C
    impersonating B toward A and A toward B, and detection by
    loop_detection."""
    honest = outcomes.keys()
    impersonating = {cli.ADDR_A: cli.ADDR_B, cli.ADDR_B: cli.ADDR_A}
    all_success = all(o.status is AuthStatus.MUTUAL_SUCCESS for o in outcomes.values())
    direct_hops = forged = False
    emitted = set()
    for event in transcript.events:
        from_id = event.from_id
        if (
            from_id == cli.ADDR_C
            and not forged
            and event.to_id in honest
            and (impersonating.get(event.to_id), event.kind, event.payload) not in emitted
        ):
            forged = True
        if from_id in honest:
            if event.to_id in honest:
                direct_hops = True
            emitted.add((from_id, event.kind, event.payload))
    challenges = sorted(item for item in knowledge if len(item) == 16)
    responses = {item for item in knowledge if len(item) == 4}
    breached = bool(responses) and any(
        e1(link_key, challenge, claimant) in responses
        for challenge in challenges
        for claimant in outcomes
    )
    return AttackVerdict(
        attack_success=all_success and not direct_hops and len(transcript.events) > 0,
        integrity=Integrity.BROKEN if forged else Integrity.MAINTAINED,
        confidentiality=Confidentiality.BREACHED if breached else Confidentiality.MAINTAINED,
        detection=loop_detection(transcript, baselines, threshold_factor),
    )


class TestRecordOnlyJudge:
    @given(
        st.sampled_from(list(Variant)),
        st.sampled_from([None, *IntruderMode]),
        st.integers(min_value=1, max_value=30),
        # the timeout in whole hops, plus part of one
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=0, max_value=29),
        st.integers(min_value=0, max_value=1 << 32),
    )
    @settings(deadline=None, max_examples=300)
    def test_agrees_with_the_knowledge_set_judge(self, variant, mode, latency_ms, hops, part, seed):
        try:
            config = ScenarioConfig(
                variant=variant,
                intruder=mode,
                initiator="C" if mode is IntruderMode.ORIGINATE_TO_A else "A",
                latency_ms=latency_ms,
                timeout_ms=hops * latency_ms + part % latency_ms,
            )
        except ConfigError:
            assume(False)

        payloads, addresses, judged, built = set(), set(), [], []
        intercept = adversary.intercept

        def recording_intercept(dev_c, msg):
            payloads.add(msg.payload)
            addresses.update((msg.sender, msg.receiver))
            out = intercept(dev_c, msg)
            payloads.update(m.payload for m in out)
            return out

        def judging(*args):
            score = verdict(*args)
            judged.append((args, score))
            return score

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adversary, "intercept", recording_intercept)
            patch.setattr(cli, "IntruderState", keeping(built))
            patch.setattr(cli, "verdict", judging)
            result = run_scenario(config, seed)
        # what C sent first: the opening it was built with
        for dev_c in built:
            payloads.update(m.payload for m in dev_c.opening)

        [(args, score)] = judged
        outcomes, transcript, link_key, baselines, factor = args
        assert result.score is score
        assert captured(transcript, outcomes) == payloads
        if mode is None:
            expected = honest_verdict(loop_detection(transcript, baselines, factor))
        else:
            knowledge = payloads | addresses
            expected = knowledge_set_verdict(knowledge, *args)
        assert score == expected


class TestIntruderRng:
    @pytest.mark.parametrize(
        "variant,mode",
        [(variant, IntruderMode.RELAY_PASSIVE) for variant in Variant]
        + [(variant, IntruderMode.RELAY_ACTIVE) for variant in (Variant.LEGACY, Variant.IMPROVED)],
        ids=lambda v: v.value,
    )
    def test_a_relay_that_never_draws_never_seeds(self, variant, mode):
        with recorded(adversary, "Stream") as seeded:
            _, _, dev_c, _, _, _ = attacked(variant, mode)
        assert seeded == []
        assert PUBLIC not in dev_c.values
        assert NONCE not in dev_c.values

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_originate_draws_follow_the_seeded_stream(self, variant):
        # alpha 7 generates the group mod 2^31 - 1, so each public value
        # names one exponent
        with recorded(adversary, "Stream") as seeded:
            _, _, dev_c, transcript, _, _ = attacked(variant, IntruderMode.ORIGINATE_TO_A)
        assert seeded == [(3,)]
        stream = random.Random(3)
        if variant is Variant.DH_IMPROVED:
            drawn = dh_keypair(PARAMS, stream.randrange(1, PARAMS.p))
            assert dev_c.values[PUBLIC] == encode_public(drawn.s_public)
        else:
            assert PUBLIC not in dev_c.values
        challenge = stream.randbytes(16)
        assert dev_c.values[NONCE] == challenge
        sent = [
            e.payload
            for e in transcript.events
            if e.from_id == ADDR_C and e.kind is MsgKind.CHALLENGE
        ]
        assert sent[0] == challenge

    def test_relay_active_keypair_follows_the_seeded_stream(self):
        with recorded(adversary, "Stream") as seeded:
            _, _, dev_c, _, _, _ = attacked(Variant.DH_IMPROVED, IntruderMode.RELAY_ACTIVE)
        assert seeded == [(3,)]
        drawn = dh_keypair(PARAMS, random.Random(3).randrange(1, PARAMS.p))
        assert dev_c.values[PUBLIC] == encode_public(drawn.s_public)
        assert NONCE not in dev_c.values

    @pytest.mark.parametrize("variant", [Variant.LEGACY, Variant.IMPROVED], ids=lambda v: v.value)
    def test_no_public_value_to_forge_outside_the_dh_variant(self, variant):
        # the group parameters alone give an intruder against these
        # variants no key pair: it drew none when it was built
        dev_c = IntruderState(
            ADDR_C, IntruderMode.RELAY_ACTIVE, variant, ADDR_A, ADDR_B, rng_seed=3, dh_params=PARAMS
        )
        public = Message(MsgKind.DH_PUBLIC, ADDR_A, ADDR_B, bytes(16))
        with pytest.raises(ValueError, match="forges public values"):
            dev_c.intercept(public)


class TestScripts:
    def test_every_row_of_every_script_fires(self):
        # over the headline scenarios, and dh-improved+originate, whose
        # script is the one no headline scenario runs, at seeds 0-19; a row
        # that ORIGINATE_DH takes from ORIGINATE unchanged is one row, which
        # fires on legacy (B never answers on dh-improved)
        dh_originate = ScenarioConfig(
            Variant.DH_IMPROVED, IntruderMode.ORIGINATE_TO_A, initiator="C"
        )
        with recorded(adversary, "_act") as acted:
            for config in (*cli.HEADLINE, dh_originate):
                for seed in range(20):
                    run_scenario(config, seed)
        fired = {id(row) for _, row, _ in acted}
        for (mode, variant), script in adversary.SCRIPTS.items():
            for key, row in script.items():
                assert id(row) in fired, (mode.value, variant.value, key)

    def test_the_opening_is_built_with_the_intruder_and_sent_first(self, monkeypatch):
        # the hops C sends before anything reaches it, all delivered at
        # t = L, are its opening as it was built, and a relay has none
        for mode, variant in adversary.SCRIPTS:
            originate = mode is IntruderMode.ORIGINATE_TO_A
            config = ScenarioConfig(variant, mode, initiator="C" if originate else "A")
            for seed in range(20):
                built = []
                monkeypatch.setattr(cli, "IntruderState", keeping(built))
                result = run_scenario(config, seed)
                [dev_c] = built
                opening = [(m.kind, m.receiver, m.payload) for m in dev_c.opening]
                sent_first = [
                    (e.kind, e.to_id, e.payload)
                    for e in result.transcript.events
                    if e.from_id == ADDR_C and e.time == config.latency_ms
                ]
                assert opening == sent_first, (mode.value, variant.value, seed)
                assert bool(dev_c.opening) is originate, (mode.value, variant.value, seed)

    @pytest.mark.parametrize("variant", [Variant.LEGACY, Variant.IMPROVED], ids=lambda v: v.value)
    def test_relay_active_without_public_values_is_a_passive_relay(self, variant):
        # its only rows are for DhPublicMsg, which neither variant sends
        active = ScenarioConfig(variant, IntruderMode.RELAY_ACTIVE)
        passive = ScenarioConfig(variant, IntruderMode.RELAY_PASSIVE)
        for seed in range(200):
            got, want = run_scenario(active, seed), run_scenario(passive, seed)
            assert got.transcript.to_jsonl() == want.transcript.to_jsonl(), f"seed {seed}"
            assert got.score == want.score, f"seed {seed}"

    def test_originate_holds_a_counter_challenge_until_b_answers_its_public(self):
        _, _, dev_c, transcript, _, _ = attacked(Variant.DH_IMPROVED, IntruderMode.ORIGINATE_TO_A)
        hops = [(e.from_id, e.to_id, e.kind) for e in transcript.events]
        # A's counter-challenge reaches C, then B's public does, and only
        # then does the counter-challenge go on to B, under A's address
        hold = hops.index((ADDR_A, ADDR_C, MsgKind.CHALLENGE))
        release = hops.index((ADDR_C, ADDR_B, MsgKind.CHALLENGE))
        assert hold < hops.index((ADDR_B, ADDR_C, MsgKind.DH_PUBLIC)) < release
        held = transcript.events[hold].payload
        assert transcript.events[release].payload == held
        assert dev_c.held == held

    def test_a_copy_is_a_snapshot(self):
        # a copy taken before the hold keeps nothing held, and the original
        # releases what it holds
        dev_c = intruder(IntruderMode.ORIGINATE_TO_A, Variant.DH_IMPROVED)
        before = copy.copy(dev_c)
        counter = Message(MsgKind.CHALLENGE, ADDR_A, ADDR_B, bytes(range(16)))
        dev_c.intercept(counter)
        public = Message(MsgKind.DH_PUBLIC, ADDR_B, ADDR_A, bytes(16))
        assert dev_c.intercept(public) == [counter]
        assert before.held is None

    @pytest.mark.parametrize("mode", list(IntruderMode), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "id_,victim_a,victim_b",
        [(ADDR_A, ADDR_A, ADDR_B), (ADDR_B, ADDR_A, ADDR_B), (ADDR_C, ADDR_A, ADDR_A)],
        ids=["id-is-victim-a", "id-is-victim-b", "equal-victims"],
    )
    def test_addresses_must_be_distinct(self, mode, id_, victim_a, victim_b):
        # an intruder under a victim's address received the hops it sent to
        # that victim, so A's messages bounced until the run timed out
        with pytest.raises(ValueError, match="^id, victim_a and victim_b must be distinct"):
            IntruderState(id_, mode, Variant.DH_IMPROVED, victim_a, victim_b, 3, PARAMS)
        # equal bytes that are distinct objects are still equal addresses
        with pytest.raises(ValueError, match="^id, victim_a and victim_b must be distinct"):
            IntruderState(bytes(bytearray(id_)), mode, Variant.LEGACY, victim_a, victim_b, 3)


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
