"""Event-driven device state machines for three mutual authentication handshakes.

Variants:
  legacy       both sides challenge; the responder answers immediately and
               issues its counter-challenge in the same step
  improved     the responder withholds its answer until its own
               counter-challenge has been answered (nested ordering)
  dh-improved  a public-value exchange runs first and the agreed session key
               is folded into the challenge-response key

The legal steps are data: _TRANSITIONS maps each (phase, message kind) pair
that a device accepts to its handler, and it is every legal step, because a
device's phase is all of its progress. A handler checks only the payload it
is handed. The terminal phases absorb every message; any other pair fails
the handshake with an AuthFail.

A device holds only values: what its handshake reads, including its own
challenge and, on dh-improved, its key pair, both drawn when the device is
built, so a copy of a device is a snapshot of it. Devices take no
time input and never self-transition on time: delivery times, timeouts and
round-trip measurement belong to the network loop driving them and to its
transcript. Each state machine is single-owner: one driving loop mutates it,
and devices share nothing but messages.

Every octet string is plain bytes: each address, the link key, both
challenges and each message payload. new_device checks the address and the
link key it takes, that its variant is a Variant, its group a DhParams or
None and its seed a non-negative int, Message refuses a kind that is not a
MsgKind, parties that are not 6-octet bytes and a payload that is not bytes
of its kind's width, and e1 checks the octets it takes, so handlers pass
payloads and claimed senders on as they arrive. Addresses compare by value.

Runs share the messages that their inputs fix. The fields of an
AuthRequest, AuthSuccess or AuthFail are fixed by its kind and two
parties; each comes from a bounded, typed lru_cache over Message,
control_message, so each distinct message is built and checked once.
The intruder's AuthRequests come from the same cache as start's.
The cache stores no exception, so a bad argument raises Message's own
error on every call; start checks that its peer is bytes before the
cache hashes it.
"""

from collections import namedtuple
from dataclasses import field
import functools

from .crypto import DhKeyPair, DhParams, dh_keypair, e1, session_key, xor_bytes
from .draw import Stream, draw_exponent, draw_octets
from .values import IdentityEnum, check_octets, check_type, value_class

__all__ = [
    "ProtocolError",
    "Variant",
    "MsgKind",
    "Message",
    "Role",
    "Phase",
    "AuthStatus",
    "AuthOutcome",
    "DeviceState",
    "new_device",
    "start",
    "handle",
    "outcome_of",
    "encode_public",
    "decode_public",
    "control_message",
]


class ProtocolError(Exception):
    """Driver misuse of a state machine (not a wire-data failure)."""


class Variant(IdentityEnum):
    LEGACY = "legacy"
    IMPROVED = "improved"
    DH_IMPROVED = "dh-improved"


class MsgKind(IdentityEnum):
    AUTH_REQUEST = "AuthRequest"
    CHALLENGE = "ChallengeMsg"
    RESPONSE = "ResponseMsg"
    DH_PUBLIC = "DhPublicMsg"
    AUTH_SUCCESS = "AuthSuccess"
    AUTH_FAIL = "AuthFail"


_PAYLOAD_WIDTH = {
    MsgKind.AUTH_REQUEST: 6,
    MsgKind.CHALLENGE: 16,
    MsgKind.RESPONSE: 4,
    MsgKind.DH_PUBLIC: 16,
    MsgKind.AUTH_SUCCESS: 0,
    MsgKind.AUTH_FAIL: 0,
}


@value_class(frozen=True)
class Message:
    """One protocol message. sender is the claimed originator address; who
    physically transmitted it is the network's business, not the message's.
    kind is a MsgKind, sender and receiver are distinct 6-octet addresses
    in bytes, and payload is bytes of the width its kind fixes (TypeError,
    ValueError)."""

    kind: MsgKind
    sender: bytes
    receiver: bytes
    payload: bytes = b""

    # it checks first, then stores every field in one step instead of one
    # object.__setattr__ call per field
    def __init__(
        self, kind: MsgKind, sender: bytes, receiver: bytes, payload: bytes = b""
    ) -> None:
        if type(kind) is not MsgKind:
            check_type("message kind", kind, MsgKind)
        # a well-formed party costs no call
        if type(sender) is not bytes or len(sender) != 6:
            check_octets("message sender", sender, 6)
        if type(receiver) is not bytes or len(receiver) != 6:
            check_octets("message receiver", receiver, 6)
        if sender == receiver:
            raise ValueError("message sender and receiver must differ")
        want = _PAYLOAD_WIDTH[kind]
        if type(payload) is not bytes or len(payload) != want:
            check_octets(f"{kind.value} payload", payload, want)
        self.__dict__.update(kind=kind, sender=sender, receiver=receiver, payload=payload)


# the messages whose every field their kind and parties fix, each built
# and checked once; called positionally, so each value has one key
control_message = functools.lru_cache(maxsize=64, typed=True)(Message)


def encode_public(value: int) -> bytes:
    return value.to_bytes(16, "big")


def decode_public(payload: bytes) -> int:
    return int.from_bytes(payload, "big")


class Role(IdentityEnum):
    INITIATOR = "Initiator"
    RESPONDER = "Responder"


class Phase(IdentityEnum):
    IDLE = "Idle"
    DH_EXCHANGE = "DhExchange"
    # an initiator whose challenge is out takes either message next: the
    # peer's counter-challenge, which it answers before it has verified the
    # peer, or the peer's response, which it verifies before it answers
    AWAIT_EITHER = "AwaitEither"
    # a responder awaits the first challenge, an initiator that has
    # verified its peer the counter-challenge
    AWAIT_CHALLENGE = "AwaitChallenge"
    # only the peer's response
    AWAIT_RESPONSE = "AwaitResponse"
    AWAIT_CONFIRM = "AwaitConfirm"
    DONE = "Done"
    FAILED = "Failed"


class AuthStatus(IdentityEnum):
    MUTUAL_SUCCESS = "MutualSuccess"
    FAILED = "Failed"
    TIMED_OUT = "TimedOut"


class AuthOutcome(namedtuple("AuthOutcome", "status authenticated_with")):
    """How a device's handshake ended, and the peer address it
    authenticated, or None when it did not succeed."""

    __slots__ = ()


@value_class
class DeviceState:
    """One honest device's handshake state, which handle advances in
    place; new_device builds it, checked, with every value it may send."""

    id: bytes
    variant: Variant
    # effective_key is the one key e1 runs with: the pairing link key, XORed
    # with the session key once a public-value exchange has completed
    effective_key: bytes
    # the one challenge this device sends, drawn when it was built
    challenge: bytes
    dh_params: DhParams | None = None
    role: Role | None = field(default=None, init=False)
    peer: bytes | None = field(default=None, init=False)
    phase: Phase = field(default=Phase.IDLE, init=False)
    # the challenge a nested responder answers once its own is answered
    pending_challenge_received: bytes | None = field(default=None, init=False)
    dh: DhKeyPair | None = field(default=None, init=False)

    def __init__(
        self,
        id: bytes,
        variant: Variant,
        effective_key: bytes,
        challenge: bytes,
        dh_params: DhParams | None = None,
    ) -> None:
        # as under dataclass, an init=False field reads its class default
        # until handle first stores it
        self.id = id
        self.variant = variant
        self.effective_key = effective_key
        self.challenge = challenge
        self.dh_params = dh_params


def new_device(
    id: bytes,
    variant: Variant,
    link_key: bytes,
    rng_seed: int,
    dh_params: DhParams | None = None,
) -> DeviceState:
    """Fresh idle device of 6-octet address id, holding its 16-octet link
    key and every random value it may send, drawn from Stream(rng_seed):
    on dh-improved its key pair (draw_exponent) first, then its challenge
    (draw_octets). variant must be a Variant,
    dh_params a DhParams or None, and rng_seed exactly an int
    (TypeError naming the field otherwise), and rng_seed non-negative
    (ValueError), as Stream requires: random.Random would take a bool, a
    float or a negative int as the int or the absolute value it stands for."""
    # a well-formed address and key cost no call, as in Message
    if type(id) is not bytes or len(id) != 6:
        check_octets("id", id, 6)
    if type(link_key) is not bytes or len(link_key) != 16:
        check_octets("link_key", link_key, 16)
    # every branch tests the variant by identity
    if type(variant) is not Variant:
        check_type("variant", variant, Variant)
    if type(dh_params) is not DhParams and dh_params is not None:
        check_type("dh_params", dh_params, DhParams, none=True)
    if type(rng_seed) is not int:
        check_type("rng_seed", rng_seed, int)
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be non-negative, got {rng_seed}")
    rng = Stream(rng_seed)
    dh = None
    if variant is Variant.DH_IMPROVED:
        if dh_params is None:
            raise ValueError("dh-improved devices need group parameters")
        dh = dh_keypair(dh_params, draw_exponent(rng, dh_params.p))
    device = DeviceState(id, variant, link_key, draw_octets(rng), dh_params)
    device.dh = dh
    return device


def start(device: DeviceState, peer: bytes) -> list[Message]:
    """Open the handshake toward peer: address announcement plus either the
    first challenge (legacy, improved) or this side's public value. peer is
    the announcement's receiver, checked as Message checks it."""
    if device.phase is not Phase.IDLE:
        raise ProtocolError("start on a device that already left Idle")
    # the interned message hashes peer, so a value that is not bytes meets
    # Message's own check first
    if type(peer) is not bytes:
        check_octets("message receiver", peer, 6)
    device.role = Role.INITIATOR
    device.peer = peer
    out = [control_message(MsgKind.AUTH_REQUEST, device.id, peer, device.id)]
    if device.variant is Variant.DH_IMPROVED:
        out.append(Message(MsgKind.DH_PUBLIC, device.id, peer, encode_public(device.dh.s_public)))
        device.phase = Phase.DH_EXCHANGE
    else:
        out.append(_issue_challenge(device))
        device.phase = Phase.AWAIT_EITHER
    return out


def handle(device: DeviceState, msg: Message) -> list[Message]:
    """Advance the state machine on one delivered message.

    Returns the messages to transmit in response. The terminal phases
    absorb everything silently; otherwise _TRANSITIONS names the handler of
    the pair (phase, message kind), and a pair it lacks fails the handshake
    with an AuthFail. The table is every legal step: a handler checks only
    the payload, and fails the handshake only on a payload it rejects. No
    handler reads the claimed sender of msg, except that a failure goes to
    it while the device has no peer yet.
    """
    if msg.receiver != device.id:
        raise ProtocolError(f"message for {msg.receiver.hex()} delivered to {device.id.hex()}")
    if device.phase in _TERMINAL:
        return []
    return _TRANSITIONS.get((device.phase, msg.kind), _fail)(device, msg)


def _issue_challenge(device: DeviceState) -> Message:
    assert device.peer is not None
    return Message(MsgKind.CHALLENGE, device.id, device.peer, device.challenge)


def _answer(device: DeviceState, challenge: bytes) -> Message:
    sres = e1(device.effective_key, challenge, device.id)
    assert device.peer is not None
    return Message(MsgKind.RESPONSE, device.id, device.peer, sres)


def _fail(device: DeviceState, msg: Message) -> list[Message]:
    device.phase = Phase.FAILED
    target = device.peer if device.peer is not None else msg.sender
    return [control_message(MsgKind.AUTH_FAIL, device.id, target)]


def _on_auth_success(device: DeviceState, msg: Message) -> list[Message]:
    device.phase = Phase.DONE
    return []


def _on_auth_fail(device: DeviceState, msg: Message) -> list[Message]:
    device.phase = Phase.FAILED
    return []


def _on_auth_request(device: DeviceState, msg: Message) -> list[Message]:
    peer = msg.payload
    if peer == device.id:  # it could address no message to itself
        return _fail(device, msg)
    device.role = Role.RESPONDER
    device.peer = peer
    device.phase = (
        Phase.DH_EXCHANGE if device.variant is Variant.DH_IMPROVED else Phase.AWAIT_CHALLENGE
    )
    return []


def _on_dh_public(device: DeviceState, msg: Message) -> list[Message]:
    params = device.dh_params
    assert params is not None
    out = []
    if device.role is Role.RESPONDER:
        assert device.peer is not None
        out.append(Message(MsgKind.DH_PUBLIC, device.id, device.peer, encode_public(device.dh.s_public)))
    try:
        session = session_key(params, device.dh, decode_public(msg.payload))
    except ValueError:
        return _fail(device, msg)
    # success leaves DhExchange, so effective_key is still the pairing key
    device.effective_key = xor_bytes(device.effective_key, session)
    if device.role is Role.INITIATOR:
        out.append(_issue_challenge(device))
        device.phase = Phase.AWAIT_EITHER
    else:
        device.phase = Phase.AWAIT_CHALLENGE
    return out


def _on_challenge(device: DeviceState, msg: Message) -> list[Message]:
    if device.role is Role.INITIATOR:
        # the peer is verified already; this answer completes our side
        device.phase = Phase.AWAIT_CONFIRM
        return [_answer(device, msg.payload)]
    if device.variant is Variant.LEGACY:
        # answer at once, then counter-challenge in the same step
        out = [_answer(device, msg.payload), _issue_challenge(device)]
    else:
        # withhold the answer until our own challenge has been answered
        device.pending_challenge_received = msg.payload
        out = [_issue_challenge(device)]
    device.phase = Phase.AWAIT_RESPONSE
    return out


def _on_counter_challenge(device: DeviceState, msg: Message) -> list[Message]:
    device.phase = Phase.AWAIT_RESPONSE
    return [_answer(device, msg.payload)]


def _on_early_response(device: DeviceState, msg: Message) -> list[Message]:
    if msg.payload != e1(device.effective_key, device.challenge, device.peer):
        return _fail(device, msg)
    # the peer is verified before its counter-challenge came; await that
    device.phase = Phase.AWAIT_CHALLENGE
    return []


def _on_response(device: DeviceState, msg: Message) -> list[Message]:
    if msg.payload != e1(device.effective_key, device.challenge, device.peer):
        return _fail(device, msg)
    if device.role is Role.RESPONDER and device.variant is not Variant.LEGACY:
        # nested ordering: the withheld answer goes out only now
        out = [_answer(device, device.pending_challenge_received)]
        device.phase = Phase.AWAIT_CONFIRM
        return out
    # our earlier answer plus this verification closes the loop; tell the
    # peer and finish
    device.phase = Phase.DONE
    return [control_message(MsgKind.AUTH_SUCCESS, device.id, device.peer)]


_TERMINAL = frozenset((Phase.DONE, Phase.FAILED))

# every legal step: (phase, kind of the delivered message) -> handler
_TRANSITIONS = {
    (Phase.IDLE, MsgKind.AUTH_REQUEST): _on_auth_request,
    (Phase.DH_EXCHANGE, MsgKind.DH_PUBLIC): _on_dh_public,
    (Phase.AWAIT_EITHER, MsgKind.CHALLENGE): _on_counter_challenge,
    (Phase.AWAIT_EITHER, MsgKind.RESPONSE): _on_early_response,
    (Phase.AWAIT_CHALLENGE, MsgKind.CHALLENGE): _on_challenge,
    (Phase.AWAIT_RESPONSE, MsgKind.RESPONSE): _on_response,
    (Phase.AWAIT_CONFIRM, MsgKind.AUTH_SUCCESS): _on_auth_success,
    # a peer's AuthFail ends the handshake silently in every live phase
    **{(phase, MsgKind.AUTH_FAIL): _on_auth_fail for phase in Phase if phase not in _TERMINAL},
}


def outcome_of(device: DeviceState) -> AuthOutcome:
    """Summarize a device's terminal result after its driving loop stopped."""
    # one tuple.__new__ call, as simnet builds its records
    if device.phase is Phase.DONE:
        return tuple.__new__(AuthOutcome, (AuthStatus.MUTUAL_SUCCESS, device.peer))
    if device.phase is Phase.FAILED:
        return tuple.__new__(AuthOutcome, (AuthStatus.FAILED, None))
    return tuple.__new__(AuthOutcome, (AuthStatus.TIMED_OUT, None))
