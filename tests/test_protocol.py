"""Handshake state machines: flows, orderings, failures, determinism."""

import copy
import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import ADDR_A, ADDR_B, ADDR_C, KEY, PARAMS, pair, recorded, run_of

from btauthsim import protocol, simnet
from btauthsim.adversary import transcript_rtt
from btauthsim.crypto import dh_shared, e1, session_key_from_shared, xor_bytes
from btauthsim.protocol import (
    AuthStatus,
    Message,
    MsgKind,
    Phase,
    ProtocolError,
    Role,
    Variant,
    encode_public,
    handle,
    new_device,
    outcome_of,
    start,
)
from btauthsim.values import check_octets

KEY2 = bytes(range(16, 32))


class TestLegacyHonest:
    def test_flow_and_outcome(self):
        dev_a, dev_b, transcript, _ = run_of(Variant.LEGACY)
        kinds = [e.kind for e in transcript.events]
        assert kinds == [
            MsgKind.AUTH_REQUEST,
            MsgKind.CHALLENGE,
            MsgKind.RESPONSE,
            MsgKind.CHALLENGE,
            MsgKind.RESPONSE,
            MsgKind.AUTH_SUCCESS,
        ]
        assert transcript.events[-1].time == 40
        for dev in (dev_a, dev_b):
            out = outcome_of(dev)
            assert out.status is AuthStatus.MUTUAL_SUCCESS
        assert outcome_of(dev_a).authenticated_with == ADDR_B
        assert outcome_of(dev_b).authenticated_with == ADDR_A

    def test_round_trip_times(self):
        _, _, transcript, outcomes = run_of(Variant.LEGACY)
        assert [transcript_rtt(transcript, device) for device in outcomes] == [20, 20]

    def test_responder_answers_immediately(self):
        dev_a, dev_b = pair(Variant.LEGACY)
        first = start(dev_a, ADDR_B)
        assert handle(dev_b, first[0]) == []
        replies = handle(dev_b, first[1])
        assert [m.kind for m in replies] == [MsgKind.RESPONSE, MsgKind.CHALLENGE]


class TestImprovedHonest:
    def test_flow_and_outcome(self):
        dev_a, dev_b, transcript, _ = run_of(Variant.IMPROVED)
        kinds = [e.kind for e in transcript.events]
        assert kinds == [
            MsgKind.AUTH_REQUEST,
            MsgKind.CHALLENGE,
            MsgKind.CHALLENGE,
            MsgKind.RESPONSE,
            MsgKind.RESPONSE,
            MsgKind.AUTH_SUCCESS,
        ]
        assert transcript.events[-1].time == 50
        assert outcome_of(dev_a).status is AuthStatus.MUTUAL_SUCCESS
        assert outcome_of(dev_b).status is AuthStatus.MUTUAL_SUCCESS

    def test_responder_response_strictly_after_initiator_response(self):
        _, _, transcript, _ = run_of(Variant.IMPROVED)
        senders = [e.from_id for e in transcript.events if e.kind is MsgKind.RESPONSE]
        assert senders == [ADDR_A, ADDR_B]

    def test_responder_withholds_on_first_challenge(self):
        dev_a, dev_b = pair(Variant.IMPROVED)
        first = start(dev_a, ADDR_B)
        handle(dev_b, first[0])
        replies = handle(dev_b, first[1])
        assert [m.kind for m in replies] == [MsgKind.CHALLENGE]

    def test_withheld_answer_released_by_valid_response(self):
        dev_a, dev_b = pair(Variant.IMPROVED)
        first = start(dev_a, ADDR_B)
        handle(dev_b, first[0])
        (counter,) = handle(dev_b, first[1])
        (answer,) = handle(dev_a, counter)
        assert answer.kind is MsgKind.RESPONSE
        released = handle(dev_b, answer)
        assert [m.kind for m in released] == [MsgKind.RESPONSE]
        expected = e1(KEY, first[1].payload, ADDR_B)
        assert released[0].payload == expected

    def test_round_trip_times(self):
        _, _, transcript, outcomes = run_of(Variant.IMPROVED)
        assert [transcript_rtt(transcript, device) for device in outcomes] == [40, 20]


class TestDhImprovedHonest:
    def test_flow_and_outcome(self):
        dev_a, dev_b, transcript, _ = run_of(Variant.DH_IMPROVED)
        kinds = [e.kind for e in transcript.events]
        assert kinds == [
            MsgKind.AUTH_REQUEST,
            MsgKind.DH_PUBLIC,
            MsgKind.DH_PUBLIC,
            MsgKind.CHALLENGE,
            MsgKind.CHALLENGE,
            MsgKind.RESPONSE,
            MsgKind.RESPONSE,
            MsgKind.AUTH_SUCCESS,
        ]
        assert transcript.events[-1].time == 70
        assert outcome_of(dev_a).status is AuthStatus.MUTUAL_SUCCESS
        assert outcome_of(dev_b).status is AuthStatus.MUTUAL_SUCCESS

    def test_session_keys_agree_and_shift_the_auth_key(self):
        dev_a, dev_b, _, _ = run_of(Variant.DH_IMPROVED)
        # a session key is the working key XOR the pairing key
        session_a = xor_bytes(dev_a.effective_key, KEY)
        shared = dh_shared(PARAMS, dev_b.dh.s_public, dev_a.dh.r_private)
        assert session_a == session_key_from_shared(shared, PARAMS)
        assert session_a == xor_bytes(dev_b.effective_key, KEY)
        assert dev_a.effective_key == dev_b.effective_key
        assert dev_a.effective_key != KEY

    def test_public_values_in_group_range(self):
        _, _, transcript, _ = run_of(Variant.DH_IMPROVED)
        publics = [
            int.from_bytes(e.payload, "big")
            for e in transcript.events
            if e.kind is MsgKind.DH_PUBLIC
        ]
        assert len(publics) == 2
        assert all(1 <= s <= PARAMS.p - 1 for s in publics)

    def test_round_trip_times(self):
        _, _, transcript, outcomes = run_of(Variant.DH_IMPROVED)
        assert [transcript_rtt(transcript, device) for device in outcomes] == [40, 20]


class TestFailures:
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_mismatched_link_keys_fail(self, variant):
        dev_a, dev_b, _, _ = run_of(variant, key_a=KEY, key_b=KEY2)
        assert outcome_of(dev_a).status is AuthStatus.FAILED
        assert outcome_of(dev_b).status is AuthStatus.FAILED

    def test_wrong_response_rejected(self):
        dev_a, dev_b = pair(Variant.LEGACY)
        start(dev_a, ADDR_B)
        forged = Message(MsgKind.RESPONSE, ADDR_B, ADDR_A, b"\x00\x00\x00\x00")
        out = handle(dev_a, forged)
        assert [m.kind for m in out] == [MsgKind.AUTH_FAIL]
        assert dev_a.phase is Phase.FAILED

    def test_illegal_kind_in_phase(self):
        dev_b = new_device(ADDR_B, Variant.LEGACY, KEY, 2)
        stray = Message(MsgKind.CHALLENGE, ADDR_A, ADDR_B, b"\x00" * 16)
        out = handle(dev_b, stray)
        assert [m.kind for m in out] == [MsgKind.AUTH_FAIL]
        assert dev_b.phase is Phase.FAILED

    def test_auth_fail_is_terminal_and_silent(self):
        dev_a, dev_b = pair(Variant.LEGACY)
        start(dev_a, ADDR_B)
        assert handle(dev_a, Message(MsgKind.AUTH_FAIL, ADDR_B, ADDR_A)) == []
        assert dev_a.phase is Phase.FAILED

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_auth_request_announcing_the_receiver_fails(self, variant):
        # the announced address would make the device its own peer
        _, dev_b = pair(variant)
        forged = Message(MsgKind.AUTH_REQUEST, ADDR_C, ADDR_B, ADDR_B)
        assert handle(dev_b, forged) == [Message(MsgKind.AUTH_FAIL, ADDR_B, ADDR_C)]
        assert dev_b.phase is Phase.FAILED
        assert dev_b.peer is None
        # a failed device absorbs what follows
        follow = Message(MsgKind.CHALLENGE, ADDR_C, ADDR_B, b"\x07" * 16)
        assert handle(dev_b, follow) == []

    def test_terminal_phases_absorb(self):
        dev_a, _, _, _ = run_of(Variant.LEGACY)
        stray = Message(MsgKind.CHALLENGE, ADDR_B, ADDR_A, b"\x07" * 16)
        assert handle(dev_a, stray) == []
        assert dev_a.phase is Phase.DONE


class TestDriverContract:
    def test_start_twice_rejected(self):
        dev_a = new_device(ADDR_A, Variant.LEGACY, KEY, 1)
        start(dev_a, ADDR_B)
        with pytest.raises(ProtocolError):
            start(dev_a, ADDR_B)

    def test_misrouted_message_rejected(self):
        dev_a = new_device(ADDR_A, Variant.LEGACY, KEY, 1)
        msg = Message(MsgKind.AUTH_REQUEST, ADDR_B, b"\xcc" * 6, ADDR_B)
        with pytest.raises(ProtocolError):
            handle(dev_a, msg)

    def test_fresh_device_state(self):
        dev = new_device(ADDR_A, Variant.LEGACY, KEY, 1)
        assert dev.phase is Phase.IDLE
        assert dev.dh is None

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_draws_the_key_pair_then_the_challenge(self, variant):
        dev_a, dev_b, transcript, _ = run_of(variant, seeds=(5, 6))
        for dev, seed in ((dev_a, 5), (dev_b, 6)):
            stream = random.Random(seed)
            if variant is Variant.DH_IMPROVED:
                assert dev.dh.r_private == stream.randrange(1, PARAMS.p)
            else:
                assert dev.dh is None
            assert dev.challenge == stream.randbytes(16)
        # and each sent the challenge it was built with
        sent = [
            (e.from_id, e.to_id, e.payload)
            for e in transcript.events
            if e.kind is MsgKind.CHALLENGE
        ]
        assert sent == [(ADDR_A, ADDR_B, dev_a.challenge), (ADDR_B, ADDR_A, dev_b.challenge)]

    def test_same_seed_same_first_challenge(self):
        one = new_device(ADDR_A, Variant.LEGACY, KEY, 42)
        two = new_device(ADDR_B, Variant.LEGACY, KEY, 42)
        c1 = start(one, ADDR_B)[1].payload
        c2 = start(two, ADDR_A)[1].payload
        assert c1 == c2

    def test_seed_zero_draws_as_random_random(self):
        device = new_device(ADDR_A, Variant.LEGACY, KEY, 0)
        assert device.challenge == random.Random(0).randbytes(16)


class TestMessageValidation:

    def test_no_device_is_handed_a_sender_that_is_text(self):
        # an AuthRequest announcing the receiver's own address fails the
        # handshake toward the claimed sender, which must be an address
        claimed = "bb0000000002"
        with pytest.raises(TypeError, match="^message sender must be bytes, got str$"):
            Message(MsgKind.AUTH_REQUEST, claimed, ADDR_A, ADDR_A)
        valid = Message(MsgKind.AUTH_REQUEST, ADDR_B, ADDR_A, ADDR_A)
        with pytest.raises(TypeError, match="^message sender must be bytes, got str$"):
            dataclasses.replace(valid, sender=claimed)
        dev = new_device(ADDR_A, Variant.LEGACY, KEY, 1)
        assert handle(dev, valid) == [Message(MsgKind.AUTH_FAIL, ADDR_A, ADDR_B)]

    def test_payload_width_enforced(self):
        with pytest.raises(ValueError):
            Message(MsgKind.CHALLENGE, ADDR_A, ADDR_B, b"\x00" * 15)
        with pytest.raises(ValueError):
            Message(MsgKind.RESPONSE, ADDR_A, ADDR_B, b"\x00" * 16)
        with pytest.raises(ValueError):
            Message(MsgKind.AUTH_SUCCESS, ADDR_A, ADDR_B, b"\x00")

    def test_self_addressed_rejected(self):
        with pytest.raises(ValueError):
            Message(MsgKind.AUTH_SUCCESS, ADDR_A, ADDR_A)


class TestDeterminism:
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_identical_seeds_identical_logs(self, variant):
        _, _, first, _ = run_of(variant, seeds=(7, 9))
        _, _, second, _ = run_of(variant, seeds=(7, 9))
        assert [(e.time, e.kind, e.from_id, e.to_id, e.payload) for e in first.events] == (
            [(e.time, e.kind, e.from_id, e.to_id, e.payload) for e in second.events]
        )

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_honest_runs_always_succeed(self, seed_a, seed_b):
        for variant, expected_len in [
            (Variant.LEGACY, 6),
            (Variant.IMPROVED, 6),
            (Variant.DH_IMPROVED, 8),
        ]:
            dev_a, dev_b, transcript, _ = run_of(variant, seeds=(seed_a, seed_b))
            assert outcome_of(dev_a).status is AuthStatus.MUTUAL_SUCCESS
            assert outcome_of(dev_b).status is AuthStatus.MUTUAL_SUCCESS
            assert len(transcript.events) == expected_len

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_nested_ordering_invariant(self, seed):
        for variant in (Variant.IMPROVED, Variant.DH_IMPROVED):
            _, _, transcript, _ = run_of(variant, seeds=(seed, seed + 1))
            first_responder_resp = None
            first_initiator_resp = None
            for i, e in enumerate(transcript.events):
                if e.kind is MsgKind.RESPONSE and e.from_id == ADDR_B:
                    first_responder_resp = first_responder_resp or i
                if e.kind is MsgKind.RESPONSE and e.from_id == ADDR_A:
                    first_initiator_resp = first_initiator_resp or i
            assert first_initiator_resp is not None
            assert first_responder_resp is not None
            assert first_responder_resp > first_initiator_resp


# the (phase, kind) pairs a live device steps on, besides the AuthFail that
# every live phase takes; written out here, not read from the module
LEGAL = {
    (Phase.IDLE, MsgKind.AUTH_REQUEST),
    (Phase.DH_EXCHANGE, MsgKind.DH_PUBLIC),
    (Phase.AWAIT_EITHER, MsgKind.CHALLENGE),
    (Phase.AWAIT_EITHER, MsgKind.RESPONSE),
    (Phase.AWAIT_CHALLENGE, MsgKind.CHALLENGE),
    (Phase.AWAIT_RESPONSE, MsgKind.RESPONSE),
    (Phase.AWAIT_CONFIRM, MsgKind.AUTH_SUCCESS),
}
TERMINAL = {Phase.DONE, Phase.FAILED}
WIDTH = {
    MsgKind.AUTH_REQUEST: 6,
    MsgKind.CHALLENGE: 16,
    MsgKind.RESPONSE: 4,
    MsgKind.DH_PUBLIC: 16,
    MsgKind.AUTH_SUCCESS: 0,
    MsgKind.AUTH_FAIL: 0,
}


def honest_steps():
    """Every delivery of an honest run of each variant, as (a copy of the
    receiving device just before it, the message), and the final devices."""
    finals = []
    with recorded(simnet, "handle", deep=True) as steps:
        for variant in Variant:
            dev_a, dev_b, _, _ = run_of(variant)
            finals += [dev_a, dev_b]
    return steps, finals


STEPS, FINALS = honest_steps()


def snapshot(dev):
    """Every field of a device."""
    return {f.name: getattr(dev, f.name) for f in dataclasses.fields(dev)}


def first_per_role(steps):
    """A fresh copy of the first of the steps for each role of the
    receiving device."""
    firsts = {}
    for dev, msg in steps:
        firsts.setdefault(dev.role, (dev, msg))
    return [(copy.deepcopy(dev), msg) for dev, msg in firsts.values()]


def devices_in(phase):
    """A fresh copy of a device in the given phase for each role that
    reaches it."""
    if phase is Phase.DONE:
        return [copy.deepcopy(FINALS[0])]
    if phase is Phase.FAILED:
        dev_a, _ = pair(Variant.LEGACY)
        start(dev_a, ADDR_B)
        handle(dev_a, Message(MsgKind.AUTH_FAIL, ADDR_B, ADDR_A))
        return [dev_a]
    return [dev for dev, _ in first_per_role((d, m) for d, m in STEPS if d.phase is phase)]


# the roles an honest run brings to each live phase; an initiator awaits
# the counter-challenge after verifying first, and the response after
# answering first
ROLES = {
    Phase.IDLE: {None},
    Phase.DH_EXCHANGE: {Role.INITIATOR, Role.RESPONDER},
    Phase.AWAIT_EITHER: {Role.INITIATOR},
    Phase.AWAIT_CHALLENGE: {Role.INITIATOR, Role.RESPONDER},
    Phase.AWAIT_RESPONSE: {Role.INITIATOR, Role.RESPONDER},
    Phase.AWAIT_CONFIRM: {Role.INITIATOR, Role.RESPONDER},
}


class TestTransitionTable:
    def test_honest_runs_step_on_every_legal_pair(self):
        assert {(dev.phase, msg.kind) for dev, msg in STEPS} == LEGAL

    def test_roles_in_each_live_phase(self):
        assert {phase: {dev.role for dev in devices_in(phase)} for phase in ROLES} == ROLES

    def test_a_copy_is_a_snapshot(self):
        # a device holds only values, so a shallow copy steps on its own
        # exactly as a deep one does, and neither touches the original
        for dev, msg in STEPS:
            before = snapshot(dev)
            shallow, deep = copy.copy(dev), copy.deepcopy(dev)
            assert handle(shallow, msg) == handle(deep, msg)
            assert snapshot(shallow) == snapshot(deep)
            assert snapshot(dev) == before

    def test_no_step_reads_the_claimed_sender(self):
        for dev, msg in STEPS:
            claimed, forged = copy.copy(dev), copy.copy(dev)
            assert handle(claimed, msg) == handle(forged, dataclasses.replace(msg, sender=ADDR_C))
            assert snapshot(claimed) == snapshot(forged)

    @pytest.mark.parametrize(
        "phase,kind",
        list(itertools.product(Phase, MsgKind)),
        ids=[f"{p.value}-{k.value}" for p, k in itertools.product(Phase, MsgKind)],
    )
    def test_step(self, phase, kind):
        if (phase, kind) in LEGAL:
            steps = first_per_role(
                (d, m) for d, m in STEPS if (d.phase, m.kind) == (phase, kind)
            )
            # every role that reaches the phase steps on the pair
            assert {dev.role for dev, _ in steps} == ROLES[phase]
            for dev, msg in steps:
                out = handle(dev, msg)
                assert MsgKind.AUTH_FAIL not in [m.kind for m in out]
                assert dev.phase is not Phase.FAILED
            return
        for dev in devices_in(phase):
            before = snapshot(dev)
            out = handle(dev, Message(kind, ADDR_C, dev.id, bytes(WIDTH[kind])))
            if phase in TERMINAL:
                # absorbed: no field changes
                assert out == []
                assert snapshot(dev) == before
            elif kind is MsgKind.AUTH_FAIL:
                assert out == []
                assert dev.phase is Phase.FAILED
            else:
                # the peer hears of the failure, or the sender while no
                # peer is set
                target = ADDR_C if phase is Phase.IDLE else before["peer"]
                assert target is not None
                assert out == [Message(MsgKind.AUTH_FAIL, dev.id, target)]
                assert dev.phase is Phase.FAILED


def walk_inputs(dev, other):
    """The messages the walk offers dev, built from its current state;
    other is the honest device it pairs with, and the sender is dev's peer,
    or other while dev has none."""
    peer = dev.peer if dev.peer is not None else other.id
    inputs = [
        Message(kind, sender, dev.id)
        for kind in (MsgKind.AUTH_FAIL, MsgKind.AUTH_SUCCESS)
        for sender in (peer, ADDR_C)
    ]
    inputs += [Message(MsgKind.AUTH_REQUEST, peer, dev.id, a) for a in (ADDR_A, ADDR_B, ADDR_C)]
    inputs += [
        Message(MsgKind.CHALLENGE, peer, dev.id, c)
        for c in (dev.challenge, other.challenge, bytes(16))
    ]
    answers = [
        e1(dev.effective_key, dev.challenge, peer),
        e1(KEY, dev.challenge, ADDR_A),
        e1(KEY, dev.challenge, ADDR_B),
        bytes(4),
    ]
    inputs += [Message(MsgKind.RESPONSE, peer, dev.id, r) for r in answers]
    if dev.variant is Variant.DH_IMPROVED:
        publics = [other.dh.s_public, dev.dh.s_public, 1, PARAMS.p - 1, PARAMS.p]
        inputs += [Message(MsgKind.DH_PUBLIC, peer, dev.id, encode_public(s)) for s in publics]
    return inputs


def walk_starts():
    """Each device of each variant, idle or just after start toward the
    other, with the other device and what start emitted."""
    for variant in Variant:
        for started in (False, True):
            dev_a, dev_b = pair(variant)
            for dev, other in ((dev_a, dev_b), (dev_b, dev_a)):
                dev = copy.copy(dev)
                sent = start(dev, other.id) if started else []
                yield f"{variant.value}/{dev.id.hex()}/{started}", dev, other, sent


def check_path(dev, received, sent):
    """The safety properties of one path: what dev received and sent on it."""
    kinds = [m.kind for m in sent]
    for kind in (MsgKind.CHALLENGE, MsgKind.RESPONSE, MsgKind.DH_PUBLIC):
        assert kinds.count(kind) <= 1
    if dev.peer is None:
        return
    answer = e1(dev.effective_key, dev.challenge, dev.peer)
    verified = any(m.kind is MsgKind.RESPONSE and m.payload == answer for m in received)
    if dev.phase is Phase.DONE:
        assert MsgKind.RESPONSE in kinds
        assert verified
    if MsgKind.RESPONSE in kinds and dev.variant is not Variant.LEGACY and dev.role is Role.RESPONDER:
        assert verified


def walk():
    """Deliver every input of walk_inputs, in every order, to each start,
    expanding only devices still short of a terminal outcome. Returns the
    number of steps and the sha256 of each step's path of input indices,
    outputs and outcome status."""
    digest = hashlib.sha256()
    steps = 0
    for label, dev, other, sent in walk_starts():
        stack = [(dev, (), (), tuple(sent))]
        while stack:
            dev, path, received, sent = stack.pop()
            for index, msg in enumerate(walk_inputs(dev, other)):
                child = copy.copy(dev)
                out = handle(child, msg)
                status = outcome_of(child).status
                steps += 1
                line = ";".join(
                    f"{m.kind.value},{m.sender.hex()},{m.receiver.hex()},{m.payload.hex()}"
                    for m in out
                )
                digest.update(f"{label}:{path + (index,)}:{line}:{status.value}\n".encode())
                child_received, child_sent = received + (msg,), sent + tuple(out)
                check_path(child, child_received, child_sent)
                if status is AuthStatus.TIMED_OUT:
                    stack.append((child, path + (index,), child_received, child_sent))
    return steps, digest.hexdigest()


# the walk's step count and digest: any change to what a device emits, or
# to where it ends, on any input path moves the digest
EXPECTED_WALK = (4924, "cba83c7bea968b8bb397183a6ac6549c0e828f22dea5230ac28242897fe2d680")


class TestExhaustiveWalk:
    def test_every_input_path_of_one_device(self):
        # pins each device's input/output behaviour, whatever order the
        # network delivers in, and checks on every path that it emits at
        # most one challenge, one response and one public value, finishes
        # only after answering and receiving the answer to its own
        # challenge, and, nested, answers as a responder only after that
        assert walk() == EXPECTED_WALK


@dataclasses.dataclass(frozen=True)
class MessageTwin:
    """Message as a plain frozen dataclass, with the checks Message makes."""

    kind: MsgKind
    sender: bytes
    receiver: bytes
    payload: bytes = b""

    def __post_init__(self):
        if not isinstance(self.kind, MsgKind):
            raise TypeError(f"message kind must be a MsgKind, got {type(self.kind).__name__}")
        for role in ("sender", "receiver"):
            check_octets(f"message {role}", getattr(self, role), 6)
        if self.sender == self.receiver:
            raise ValueError("message sender and receiver must differ")
        check_octets(f"{self.kind.value} payload", self.payload, WIDTH[self.kind])


def build(cls, *args, **kwargs):
    """An instance, or the type and message of the error construction raised."""
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError) as err:
        return f"{type(err).__name__}: {err}"


def values(record):
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def as_str(raw: bytes) -> str:
    return "0" * len(raw)


# payload types with a len() that are not bytes
NOT_BYTES = [bytearray, memoryview, as_str, tuple]


# kinds that are not a MsgKind, the text of one and None, and parties that
# are not a 6-octet address: its text, a mutable copy, 5 of its octets and None
NOT_KINDS = ["ChallengeMsg", None]
NOT_PARTIES = [ADDR_B.hex(), bytearray(ADDR_B), ADDR_B[:5], None]


@st.composite
def message_args(draw):
    kind = draw(st.sampled_from(list(MsgKind)) | st.sampled_from(NOT_KINDS))
    addresses = st.sampled_from([ADDR_A, ADDR_B, ADDR_C]) | st.sampled_from(NOT_PARTIES)
    width = WIDTH.get(kind, 16)
    payload = draw(st.binary(min_size=width, max_size=width) | st.binary(max_size=20))
    convert = draw(st.sampled_from([bytes, *NOT_BYTES]))
    return kind, draw(addresses), draw(addresses), convert(payload)


class TestMessageRecord:
    def test_fields_match_the_twin(self):
        assert [(f.name, f.default) for f in dataclasses.fields(Message)] == [
            (f.name, f.default) for f in dataclasses.fields(MessageTwin)
        ]

    @given(message_args(), message_args())
    @settings(max_examples=300)
    def test_behaves_like_a_plain_frozen_dataclass(self, args, other):
        msg, twin = build(Message, *args), build(MessageTwin, *args)
        if isinstance(twin, str):
            # the same checks, in the same order, with the same messages
            assert msg == twin
            return
        assert values(msg) == values(twin) == args
        assert repr(msg) == repr(twin).replace("MessageTwin(", "Message(", 1)
        assert hash(msg) == hash(twin)
        assert msg == Message(**dict(zip(("kind", "sender", "receiver", "payload"), args)))
        assert (msg == build(Message, *other)) == (twin == build(MessageTwin, *other))
        if args[3] == b"":
            assert Message(*args[:3]) == msg
        for name, value in zip(("kind", "sender", "receiver", "payload"), other):
            replaced = build(dataclasses.replace, msg, **{name: value})
            replaced_twin = build(dataclasses.replace, twin, **{name: value})
            if isinstance(replaced_twin, str):
                assert replaced == replaced_twin
            else:
                assert values(replaced) == values(replaced_twin)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(msg, name, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(msg, name)


def distinct_addresses(n: int) -> list[tuple[bytes, bytes]]:
    """n distinct pairs of distinct 6-octet addresses."""
    return [((2 * i).to_bytes(6, "big"), (2 * i + 1).to_bytes(6, "big")) for i in range(n)]


# each interned constructor: the class it interns, valid arguments, bad
# ones (each hashable, as every argument a run hands it is), and the
# arguments it takes for a pair of addresses
INTERNED = {
    "message": (
        protocol.control_message,
        Message,
        [
            (MsgKind.AUTH_REQUEST, ADDR_A, ADDR_B, ADDR_A),
            (MsgKind.AUTH_SUCCESS, ADDR_B, ADDR_A),
            (MsgKind.AUTH_FAIL, ADDR_A, ADDR_C),
        ],
        [
            ("AuthFail", ADDR_A, ADDR_B),
            (MsgKind.AUTH_FAIL, ADDR_A.hex(), ADDR_B),
            (MsgKind.AUTH_FAIL, ADDR_A, ADDR_B[:5]),
            (MsgKind.AUTH_FAIL, ADDR_A, ADDR_A),
            (MsgKind.AUTH_REQUEST, ADDR_A, ADDR_B),
            (MsgKind.AUTH_SUCCESS, ADDR_A, ADDR_B, ADDR_A),
            (MsgKind.AUTH_FAIL, ADDR_A),
        ],
        lambda a, b: (MsgKind.AUTH_FAIL, a, b),
    ),
}


@pytest.mark.parametrize("name", INTERNED)
class TestInternedValues:
    """The messages that runs share are the values their plain
    constructor builds, one object per value, with the same errors, and
    their cache stays within its bound."""

    def test_equals_a_fresh_construction(self, name):
        interned, cls, valid, _, _ = INTERNED[name]
        for args in valid:
            value, fresh = interned(*args), cls(*args)
            assert type(value) is cls
            assert value == fresh
            assert list(vars(value).items()) == list(vars(fresh).items())

    def test_a_repeated_call_returns_the_same_object(self, name):
        interned, _, valid, _, _ = INTERNED[name]
        for args in valid:
            assert interned(*args) is interned(*args)

    def test_bad_arguments_raise_the_constructors_error_and_cache_nothing(self, name):
        interned, cls, _, bad, _ = INTERNED[name]
        for args in bad:
            before = interned.cache_info().currsize
            error = build(cls, *args)
            assert isinstance(error, str), args
            assert build(interned, *args) == error
            assert interned.cache_info().currsize == before

    def test_more_values_than_maxsize_stay_at_maxsize(self, name):
        interned, _, _, _, args_of = INTERNED[name]
        maxsize = interned.cache_info().maxsize
        for a, b in distinct_addresses(maxsize + 5):
            interned(*args_of(a, b))
        assert interned.cache_info().currsize == maxsize


def test_start_refuses_a_peer_that_is_not_bytes_as_message_does():
    # the interned AuthRequest hashes its receiver, so start checks it first
    for peer in (bytearray(ADDR_B), memoryview(ADDR_B), ADDR_B.hex(), None):
        dev = new_device(ADDR_A, Variant.LEGACY, KEY, 1)
        error = build(Message, MsgKind.AUTH_REQUEST, ADDR_A, peer, ADDR_A)
        assert isinstance(error, str)
        assert build(start, dev, peer) == error
