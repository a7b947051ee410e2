"""Man-in-the-middle intruder and attack judgment.

The intruder sits between two victims, playing each victim's peer toward the
other. It can relay traffic verbatim, relay while substituting its own
public values, or originate a handshake toward one victim under the other's
address. It holds only values: the key pair and the challenge its mode
sends, drawn when it is built, and what its origination holds back. It
keeps no record of what it saw: every hop it sends or receives is in the
run's transcript, and verdict scores a run from the outcomes and that
transcript alone.
"""

import random
from dataclasses import dataclass, field
from enum import Enum

from .crypto import DhKeyPair, DhParams, check_octets, dh_keypair, e1
from .protocol import (
    AuthOutcome,
    AuthStatus,
    Message,
    MsgKind,
    Variant,
    encode_public,
)
from .simnet import Detection, Transcript

__all__ = [
    "IntruderMode",
    "IntruderState",
    "Integrity",
    "Confidentiality",
    "AttackVerdict",
    "start_attack",
    "intercept",
    "verdict",
    "dlog_bruteforce",
]


class IntruderMode(Enum):
    RELAY_ACTIVE = "relay-active"
    RELAY_PASSIVE = "relay-passive"
    ORIGINATE_TO_A = "originate"


class Integrity(Enum):
    MAINTAINED = "Maintained"
    BROKEN = "Broken"


class Confidentiality(Enum):
    MAINTAINED = "Maintained"
    BREACHED = "Breached"


@dataclass(frozen=True)
class AttackVerdict:
    attack_success: bool
    integrity: Integrity
    confidentiality: Confidentiality
    detection: Detection


@dataclass
class IntruderState:
    """Outsider intruder between victim_a and victim_b. It holds no link key
    and keeps no record of the traffic: what it captured is read from the
    run's transcript by verdict.

    In originate mode the attack direction is fixed: the intruder opens
    toward victim_a under victim_b's address. An active intruder against
    the dh variant needs the group parameters (ValueError otherwise).
    It draws from random.Random(rng_seed), when built, only what its mode
    sends: an active one against the dh variant its key pair first, and an
    originating one then its challenge. id, victim_a and victim_b are
    6-octet addresses (TypeError, ValueError otherwise).
    """

    id: bytes
    mode: IntruderMode
    variant: Variant
    victim_a: bytes
    victim_b: bytes
    rng_seed: int
    dh_params: DhParams | None = None
    dh_own: DhKeyPair | None = field(default=None, init=False)
    # origination bookkeeping
    own_challenge: bytes | None = field(default=None, init=False)
    held_challenge: Message | None = field(default=None, init=False)

    def __post_init__(self):
        check_octets("id", self.id, 6)
        check_octets("victim_a", self.victim_a, 6)
        check_octets("victim_b", self.victim_b, 6)
        forges_publics = (
            self.variant is Variant.DH_IMPROVED and self.mode is not IntruderMode.RELAY_PASSIVE
        )
        if forges_publics and self.dh_params is None:
            raise ValueError("an active intruder against the dh variant needs the group parameters")
        originates = self.mode is IntruderMode.ORIGINATE_TO_A
        if forges_publics or originates:
            rng = random.Random(self.rng_seed)
            if forges_publics:
                self.dh_own = dh_keypair(self.dh_params, rng.randrange(1, self.dh_params.p))
            if originates:
                self.own_challenge = rng.randbytes(16)

    def intercept(self, msg: Message) -> list[Message]:
        return intercept(self, msg)

    def start_attack(self) -> list[Message]:
        return start_attack(self)


def _own_keypair(intruder: IntruderState) -> DhKeyPair:
    if intruder.dh_own is None:
        raise ValueError("only an active intruder against the dh variant forges public values")
    return intruder.dh_own


def start_attack(intruder: IntruderState) -> list[Message]:
    """Kickoff messages; non-empty only for the originating mode."""
    if intruder.mode is not IntruderMode.ORIGINATE_TO_A:
        return []
    victim, fake = intruder.victim_a, intruder.victim_b
    out = [Message(MsgKind.AUTH_REQUEST, fake, victim, fake)]
    if intruder.variant is Variant.DH_IMPROVED:
        pair = _own_keypair(intruder)
        out.append(Message(MsgKind.DH_PUBLIC, fake, victim, encode_public(pair.s_public)))
    else:
        out.append(_issue_own_challenge(intruder, victim, fake))
    return out


def _issue_own_challenge(intruder: IntruderState, victim: bytes, fake: bytes) -> Message:
    assert intruder.own_challenge is not None
    return Message(MsgKind.CHALLENGE, fake, victim, intruder.own_challenge)


def intercept(intruder: IntruderState, msg: Message) -> list[Message]:
    """React to one message that physically arrived at the intruder."""
    if intruder.mode is IntruderMode.RELAY_PASSIVE:
        return [msg]
    if intruder.mode is IntruderMode.RELAY_ACTIVE:
        if msg.kind is MsgKind.DH_PUBLIC:
            pair = _own_keypair(intruder)
            swapped = Message(
                MsgKind.DH_PUBLIC, msg.sender, msg.receiver, encode_public(pair.s_public)
            )
            return [swapped]
        return [msg]
    return _originate_step(intruder, msg)


def _originate_step(intruder: IntruderState, msg: Message) -> list[Message]:
    # responder a emits one ChallengeMsg and at most one DhPublicMsg, and b
    # at most one DhPublicMsg, so no branch below acts twice in a run; the
    # exhaustive walk in tests/test_protocol.py checks both bounds on every
    # order of delivery
    a, b = intruder.victim_a, intruder.victim_b
    source = msg.sender

    if msg.kind is MsgKind.DH_PUBLIC:
        if source == a:
            # a's public answered ours; now the challenge leg can start
            return [_issue_own_challenge(intruder, a, b)]
        # b's public answered ours: release a's held counter-challenge
        return [intruder.held_challenge]

    if msg.kind is MsgKind.CHALLENGE:
        if source == a:
            # a's counter-challenge becomes a fresh handshake toward b under
            # a's address; b's own counter-challenge will be dropped, so
            # nothing downstream can ever be answered
            out = [Message(MsgKind.AUTH_REQUEST, a, b, a)]
            if intruder.variant is Variant.DH_IMPROVED:
                pair = _own_keypair(intruder)
                out.append(Message(MsgKind.DH_PUBLIC, a, b, encode_public(pair.s_public)))
                intruder.held_challenge = msg
            else:
                out.append(msg)
            return out
        return []

    if msg.kind is MsgKind.RESPONSE:
        # a's answers are the harvest, answers to challenges we chose; b's
        # answers go on to a
        if source == a:
            return []
        return [msg]

    # confirmations and failures die here; the stalled victim is left to
    # its timeout
    return []


def verdict(
    outcomes: dict[bytes, AuthOutcome],
    transcript: Transcript,
    detection: Detection,
    link_key: bytes,
) -> AttackVerdict:
    """Score a run from its record alone. outcomes names the two honest
    devices, each the other's peer (ValueError for any other count); every
    other party in the transcript is the intruder, which captured the
    payload of every hop it sent or received. In an intruder-free run every
    hop is direct, so nothing is captured. link_key, 16 octets, is judge-side
    knowledge: it identifies which captured challenge-response pairs are
    the victims' real credentials, and is never given to the intruder.

    Integrity is broken when the intruder delivered to an honest device a
    hop that the other honest device had not emitted before it.
    Confidentiality is breached when some honest device X answered a
    challenge the intruder delivered to it: for some captured 16-octet
    ChallengeMsg payload c delivered to X, e1(link_key, c, X) is among the
    captured ResponseMsg payloads X sent. The scan takes the claimants in
    the order of outcomes and, for each, its challenges in ascending octet
    order, and stops at the first match; the order is fixed, whatever the
    hash seed, so the e1 calls a run makes are too. A device that sent no
    response is not scanned, so its challenges cost no e1 call.

    Reading only these pairs changes no verdict a run can produce. The
    intruder holds no key, so every response in a run is one an honest
    device X emitted, and X emits e1 under its own working key and address
    only over the payload of a ChallengeMsg delivered to it; in an intruder
    run both of those hops cross the intruder. Barring a 32-bit collision,
    a captured response equal to e1(link_key, c, Y) is therefore Y's own
    answer to c, delivered to Y as a ChallengeMsg, so pairing it with
    another claimant, another receiver of c or another kind of hop finds
    nothing more. The width check on challenges stays, because a
    hand-built transcript may carry any payload under any kind; a response
    of another width never equals the 4 octets of e1."""
    check_octets("link_key", link_key, 16)
    a, b = outcomes
    peer = {a: b, b: a}
    all_success = all(o.status is AuthStatus.MUTUAL_SUCCESS for o in outcomes.values())

    # one pass finds every fact: whether any hop ran between the honest
    # devices, the first forged hop, and for each honest device the
    # challenges the intruder delivered to it and the responses it sent
    direct_hops = forged = False
    emitted: set[tuple[bytes, MsgKind, bytes]] = set()
    delivered: dict[bytes, set[bytes]] = {a: set(), b: set()}
    answered: dict[bytes, set[bytes]] = {a: set(), b: set()}
    for event in transcript.events:
        from_id, to_id, kind, payload = event.from_id, event.to_id, event.kind, event.payload
        if from_id in peer:
            emitted.add((from_id, kind, payload))
            if to_id in peer:
                direct_hops = True
            elif kind is MsgKind.RESPONSE:
                answered[from_id].add(payload)
        elif to_id in peer:
            if not forged and (peer[to_id], kind, payload) not in emitted:
                forged = True
            if kind is MsgKind.CHALLENGE and len(payload) == 16:
                delivered[to_id].add(payload)
    attack_success = all_success and not direct_hops and len(transcript.events) > 0
    integrity = Integrity.BROKEN if forged else Integrity.MAINTAINED

    breached = any(
        e1(link_key, challenge, claimant) in answered[claimant]
        for claimant in outcomes
        if answered[claimant]
        for challenge in sorted(delivered[claimant])
    )
    confidentiality = Confidentiality.BREACHED if breached else Confidentiality.MAINTAINED

    return AttackVerdict(
        attack_success=attack_success,
        integrity=integrity,
        confidentiality=confidentiality,
        detection=detection,
    )


def dlog_bruteforce(params: DhParams, s_public: int) -> tuple[int, int]:
    """Ascending-scan discrete logarithm: the exponent and the trial count.

    Cost grows linearly in the recovered exponent, which is the whole point
    measured by the experiment scripts.
    """
    if not 1 <= s_public <= params.p - 1:
        raise ValueError(f"public value must be in [1, p-1], got {s_public}")
    acc = 1
    for r in range(1, params.p):
        acc = acc * params.alpha % params.p
        if acc == s_public:
            return r, r
    raise ValueError("value is outside the generator's image")
