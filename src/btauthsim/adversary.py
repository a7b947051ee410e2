"""Man-in-the-middle intruder and attack judgment.

The intruder sits between two victims, A and B, playing each victim's peer
toward the other. Each intruder mode is a script, a table from what arrives
to what the intruder sends in answer, and one interpreter runs them all.
The intruder holds only values: the public value and the nonce its
script sends, drawn when it is built, and the one payload a script holds
back. It keeps no record of what it saw: every hop it sends or receives
is in the run's transcript, and verdict scores a run from the outcomes
and that transcript alone, with the detector's baselines and threshold.

The judge is all here. One pass over a transcript's events, _one_pass,
is the one reconstruction of a round trip and reads every hop fact the
verdict reads; transcript_rtt reads one device's round trip through it,
and _detection holds the detector's checks and its strict > rule, which
delay_detector and verdict both apply.
"""

from collections import namedtuple
from dataclasses import field
import math

from .crypto import DhParams, check_public, dh_keypair, e1
from .draw import party_draws
from .protocol import (
    AuthOutcome,
    AuthStatus,
    Message,
    MsgKind,
    Variant,
    control_message,
    encode_public,
)
from .simnet import Transcript, TranscriptEvent
from .values import IdentityEnum, check_octets, check_type, value_class

__all__ = [
    "IntruderMode",
    "IntruderState",
    "Integrity",
    "Confidentiality",
    "Detection",
    "AttackVerdict",
    "intercept",
    "transcript_rtt",
    "delay_detector",
    "verdict",
    "dlog_bruteforce",
]


class IntruderMode(IdentityEnum):
    RELAY_ACTIVE = "relay-active"
    RELAY_PASSIVE = "relay-passive"
    ORIGINATE_TO_A = "originate"


class Integrity(IdentityEnum):
    MAINTAINED = "Maintained"
    BROKEN = "Broken"


class Confidentiality(IdentityEnum):
    MAINTAINED = "Maintained"
    BREACHED = "Breached"


class Detection(IdentityEnum):
    NONE = "None"
    DELAY_FLAGGED = "DelayFlagged"


class AttackVerdict(
    namedtuple("AttackVerdict", "attack_success integrity confidentiality detection")
):
    """The score of one run, as verdict judges it from the run's record:
    whether both devices authenticated with every hop through the intruder,
    and the run's integrity, confidentiality and detection."""

    __slots__ = ()


# A script maps OPEN, the opening C sends before anything arrives, and the
# (kind, victim) of an arriving message, the victim being the one that
# claims to have sent it, to the actions sent in answer. An action is
# (kind, claimed sender, receiver, payload source); the source is a victim,
# standing for its address as the parties do, the ARRIVING or the HELD
# payload, or C's NONCE or PUBLIC. HOLD, in place of an action, holds the
# arriving payload. A message that no row names is dropped by an intruder
# that opened the run and forwarded by a relay.
A, B = "A", "B"
ARRIVING, HELD, NONCE, PUBLIC = "arriving", "held", "nonce", "public"
OPEN, HOLD = "open", "hold"
AUTH_REQUEST, CHALLENGE = MsgKind.AUTH_REQUEST, MsgKind.CHALLENGE
RESPONSE, DH_PUBLIC = MsgKind.RESPONSE, MsgKind.DH_PUBLIC

RELAY_PASSIVE: dict = {}

RELAY_ACTIVE = {
    (DH_PUBLIC, A): [(DH_PUBLIC, A, B, PUBLIC)],
    (DH_PUBLIC, B): [(DH_PUBLIC, B, A, PUBLIC)],
}

# Responder A emits one ChallengeMsg and at most one DhPublicMsg, and B at
# most one DhPublicMsg, so no row of an originate script fires twice in a
# run; the exhaustive walk in tests/test_protocol.py checks both bounds on
# every order of delivery.
ORIGINATE = {
    OPEN: [(AUTH_REQUEST, B, A, B), (CHALLENGE, B, A, NONCE)],
    # A's counter-challenge becomes a fresh handshake toward B under A's
    # address; B's own counter-challenge is dropped, so nothing downstream
    # can ever be answered
    (CHALLENGE, A): [(AUTH_REQUEST, A, B, A), (CHALLENGE, A, B, ARRIVING)],
    # B's answers go on to A; A's are the harvest, answers to challenges C
    # chose, and die here, as do confirmations and failures
    (RESPONSE, B): [(RESPONSE, B, A, ARRIVING)],
}

ORIGINATE_DH = {
    **ORIGINATE,
    OPEN: [(AUTH_REQUEST, B, A, B), (DH_PUBLIC, B, A, PUBLIC)],
    # A's public answered C's; now the challenge leg can start
    (DH_PUBLIC, A): [(CHALLENGE, B, A, NONCE)],
    (CHALLENGE, A): [(AUTH_REQUEST, A, B, A), (DH_PUBLIC, A, B, PUBLIC), HOLD],
    # B's public answered C's: release A's held counter-challenge
    (DH_PUBLIC, B): [(CHALLENGE, A, B, HELD)],
}

# the script of each mode against each variant
SCRIPTS = {
    **{(IntruderMode.RELAY_PASSIVE, variant): RELAY_PASSIVE for variant in Variant},
    **{(IntruderMode.RELAY_ACTIVE, variant): RELAY_ACTIVE for variant in Variant},
    **{(IntruderMode.ORIGINATE_TO_A, variant): ORIGINATE for variant in Variant},
    (IntruderMode.ORIGINATE_TO_A, Variant.DH_IMPROVED): ORIGINATE_DH,
}
# each script, whether it draws a key pair and whether it draws a nonce,
# worked out once from the sources it sends
_PLANS = {
    (mode, variant): (script, PUBLIC in sent and variant is Variant.DH_IMPROVED, NONCE in sent)
    for (mode, variant), script in SCRIPTS.items()
    for sent in [{action[3] for row in script.values() for action in row if action != HOLD}]
}


@value_class
class IntruderState:
    """Outsider intruder between victim_a, A in its script, and victim_b, B.
    It holds no link key and keeps no record of the traffic: what it
    captured is read from the run's transcript by verdict.

    It runs SCRIPTS[mode, variant], with A and B resolved to addresses once,
    when it is built. When built, it draws by party_draws(rng_seed) only
    what its script sends: against the dh variant a key pair, if the
    script sends PUBLIC (so it needs the group parameters; ValueError
    otherwise), and a challenge, if it sends NONCE. Last it puts together
    opening, the messages of the script's OPEN row, with which simnet.run
    opens the run: originate's open toward victim_a under victim_b's
    address, and a relay's is empty. id, victim_a and victim_b are
    three distinct 6-octet addresses, mode an IntruderMode, variant a
    Variant, dh_params a DhParams or None and rng_seed a non-negative int,
    as new_device takes them (TypeError naming the field, or ValueError,
    otherwise).
    """

    id: bytes
    mode: IntruderMode
    variant: Variant
    victim_a: bytes
    victim_b: bytes
    rng_seed: int
    dh_params: DhParams | None = None
    held: bytes | None = field(default=None, init=False)
    # the script, the victims' addresses, the drawn payload sources and the
    # opening are not changed once built, so a copy is a snapshot
    script: dict = field(init=False, repr=False, compare=False)
    values: dict[str, bytes] = field(init=False, repr=False, compare=False)
    victim_of: dict[bytes, str] = field(init=False, repr=False, compare=False)
    opening: tuple[Message, ...] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        id: bytes,
        mode: IntruderMode,
        variant: Variant,
        victim_a: bytes,
        victim_b: bytes,
        rng_seed: int,
        dh_params: DhParams | None = None,
    ) -> None:
        # pre-tested, as in new_device
        if type(id) is not bytes or len(id) != 6:
            check_octets("id", id, 6)
        if type(victim_a) is not bytes or len(victim_a) != 6:
            check_octets("victim_a", victim_a, 6)
        if type(victim_b) is not bytes or len(victim_b) != 6:
            check_octets("victim_b", victim_b, 6)
        if len({id, victim_a, victim_b}) < 3:
            raise ValueError("id, victim_a and victim_b must be distinct addresses")
        if type(mode) is not IntruderMode:
            check_type("mode", mode, IntruderMode)
        if type(variant) is not Variant:
            check_type("variant", variant, Variant)
        if type(dh_params) is not DhParams and dh_params is not None:
            check_type("dh_params", dh_params, DhParams, none=True)
        script, forges_publics, sends_nonce = _PLANS[mode, variant]
        if forges_publics and dh_params is None:
            raise ValueError("an active intruder against the dh variant needs the group parameters")
        # as under dataclass, held reads its class default until first stored
        self.id = id
        self.mode = mode
        self.variant = variant
        self.victim_a = victim_a
        self.victim_b = victim_b
        self.rng_seed = rng_seed
        self.dh_params = dh_params
        self.script = script
        self.values = {A: victim_a, B: victim_b}
        self.victim_of = {victim_a: A, victim_b: B}
        exponent, nonce = party_draws(rng_seed, dh_params.p if forges_publics else None, sends_nonce)
        if forges_publics:
            self.values[PUBLIC] = encode_public(dh_keypair(dh_params, exponent).s_public)
        if sends_nonce:
            self.values[NONCE] = nonce
        self.opening = tuple(_act(self, script.get(OPEN, ()), None))

    # a forwarder only because perfbench's tracer patches the module-level
    # adversary.intercept; it goes when that patch point moves here
    def intercept(self, msg: Message) -> list[Message]:
        return intercept(self, msg)


def intercept(intruder: IntruderState, msg: Message) -> list[Message]:
    """React to one message that physically arrived at the intruder: its
    script's row, or for a message no row names, nothing from an intruder
    that opened the run and the message itself from a relay."""
    row = intruder.script.get((msg.kind, intruder.victim_of.get(msg.sender)))
    if row is None:
        return [] if intruder.opening else [msg]
    return _act(intruder, row, msg.payload)


def _act(intruder: IntruderState, row, arriving: bytes | None) -> list[Message]:
    values, out = intruder.values, []
    for action in row:
        if action == HOLD:
            intruder.held = arriving
            continue
        kind, sender, receiver, source = action
        if source == ARRIVING:
            payload = arriving
        elif source == HELD:
            payload = intruder.held
        elif source == PUBLIC and PUBLIC not in values:
            raise ValueError("only an active intruder against the dh variant forges public values")
        else:
            payload = values[source]
        if kind is AUTH_REQUEST:
            # its kind and parties fix every field, as in protocol.start
            out.append(control_message(kind, values[sender], values[receiver], payload))
        else:
            out.append(Message(kind, values[sender], values[receiver], payload))
    return out


def _one_pass(transcript: Transcript, a: bytes, b: bytes) -> tuple:
    """Everything the judge reads of a run, in one pass over the events:
    the round trips of devices a and b, whether any hop ran directly
    between them, whether a party other than a and b delivered either of
    them a hop that the other had not emitted before it (a forged hop),
    and for each of a and b the ChallengeMsg payloads of 16 octets such a
    party delivered to it and the ResponseMsg payloads it sent such a
    party, each a dict of sets by device. a may equal b.

    A device's round trip runs from its send (the delivery of its first
    ChallengeMsg, minus one hop) to the first ResponseMsg delivered to it
    at or after that send, in list order, a response listed before the
    challenge included; None when either is missing. The caller checks
    the arguments."""
    latency = transcript.links.latency_ms
    peer = {a: b, b: a}
    # the times of the responses delivered to a device before its first
    # challenge, while that challenge is unseen (a tuple, as such a response
    # is rare); then the challenge's send time, until a response meets it
    early: dict[bytes, tuple[int, ...]] = {a: (), b: ()}
    sent: dict[bytes, int] = {}
    rtt: dict[bytes, int | None] = {a: None, b: None}
    # each device's hops, kept as the events themselves
    emitted: dict[bytes, list[TranscriptEvent]] = {a: [], b: []}
    delivered: dict[bytes, set[bytes]] = {a: set(), b: set()}
    answered: dict[bytes, set[bytes]] = {a: set(), b: set()}
    challenge, response = MsgKind.CHALLENGE, MsgKind.RESPONSE
    direct_hops = forged = False
    for event in transcript.events:
        _, time, from_id, to_id, kind, payload = event
        if kind is response:
            if to_id in sent:
                if time >= sent[to_id]:
                    rtt[to_id] = time - sent.pop(to_id)
            elif to_id in early:
                early[to_id] += (time,)
        elif kind is challenge and from_id in early:
            start = sent[from_id] = time - latency
            for arrived in early.pop(from_id):
                if arrived >= start:
                    rtt[from_id] = arrived - sent.pop(from_id)
                    break
        if from_id in peer:
            emitted[from_id].append(event)
            if to_id in peer:
                direct_hops = True
            elif kind is response:
                answered[from_id].add(payload)
        elif to_id in peer:
            if not forged:
                for hop in emitted[peer[to_id]]:
                    if hop[4] is kind and hop[5] == payload:
                        break
                else:
                    forged = True
            if kind is challenge and len(payload) == 16:
                delivered[to_id].add(payload)
    return rtt[a], rtt[b], direct_hops, forged, delivered, answered


def transcript_rtt(transcript: Transcript, device: bytes) -> int | None:
    """Round trip of the one challenge a device sends, reconstructed from
    delivery times alone: from its send (the delivery of the device's first
    ChallengeMsg, minus one hop) to the first ResponseMsg delivered to the
    device at or after that send, wherever it is listed. None when either
    is missing. transcript is a Transcript and device a 6-octet address
    (TypeError, ValueError otherwise). The judge reads both honest
    devices' round trips in the same pass, _one_pass."""
    check_type("transcript", transcript, Transcript)
    check_octets("device", device, 6)
    return _one_pass(transcript, device, device)[0]


def _detection(observed: int | None, baseline_rtt: int, threshold_factor: float) -> Detection:
    """The detector's rule, which the judge applies too: flagged when the
    observed round trip exceeds threshold_factor x baseline_rtt, after the
    detector's checks of both."""
    # a valid baseline costs no call, as in protocol.new_device
    if type(baseline_rtt) is not int:
        check_type("baseline_rtt", baseline_rtt, int)
    if baseline_rtt <= 0:
        raise ValueError("baseline rtt must be positive")
    try:
        if not 1 < threshold_factor < math.inf:
            raise ValueError(f"threshold factor must be finite and exceed 1, got {threshold_factor}")
    except TypeError:
        kind = type(threshold_factor).__name__
        raise TypeError(f"threshold_factor must be a real number, got {kind}") from None
    if observed is not None and observed > threshold_factor * baseline_rtt:
        return Detection.DELAY_FLAGGED
    return Detection.NONE


def delay_detector(
    transcript: Transcript,
    baseline_rtt: int,
    threshold_factor: float,
    device: bytes,
) -> Detection:
    """Flag a device whose observed round trip, by transcript_rtt, exceeds
    factor x baseline. transcript and device are checked by transcript_rtt;
    then baseline_rtt must be exactly an int and threshold_factor a real
    number (TypeError naming it otherwise), the baseline positive and the
    factor finite and above 1 (ValueError)."""
    return _detection(transcript_rtt(transcript, device), baseline_rtt, threshold_factor)


def verdict(
    outcomes: dict[bytes, AuthOutcome],
    transcript: Transcript,
    link_key: bytes,
    baselines: dict[bytes, int],
    threshold_factor: float,
) -> AttackVerdict:
    """Score a run from its record alone. outcomes is a dict of the 6-octet
    addresses of the two honest devices, each the other's peer, to their
    AuthOutcomes (TypeError or ValueError naming it otherwise); every other
    party in the transcript is the intruder, which captured the payload of
    every hop it sent or received. In an intruder-free run every hop is
    direct, so nothing is captured. link_key, 16 octets, is judge-side
    knowledge: it identifies which captured challenge-response pairs are
    the victims' real credentials, and is never given to the intruder.

    One pass over the events (_one_pass) reads every fact below and both
    honest devices' round trips, as transcript_rtt reads them. Detection
    is flagged by delay_detector's rule and checks (_detection), when either
    round trip exceeds threshold_factor x the device's entry of baselines,
    a dict (TypeError naming baselines otherwise, and ValueError when an
    entry is missing).

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
    # pre-tested, as in new_device
    if type(link_key) is not bytes or len(link_key) != 16:
        check_octets("link_key", link_key, 16)
    if type(baselines) is not dict:
        check_type("baselines", baselines, dict)
    if type(outcomes) is not dict:
        check_type("outcomes", outcomes, dict)
    if len(outcomes) != 2:
        raise ValueError(f"outcomes must hold exactly 2 devices, got {len(outcomes)}")
    for device, outcome in outcomes.items():
        if type(device) is not bytes or len(device) != 6:
            check_octets("outcomes key", device, 6)
        if type(outcome) is not AuthOutcome:
            check_type("outcomes value", outcome, AuthOutcome)
    a, b = outcomes
    if a not in baselines or b not in baselines:
        raise ValueError("baselines must hold a round trip for each device of outcomes")
    if type(transcript) is not Transcript:
        check_type("transcript", transcript, Transcript)
    rtt_a, rtt_b, direct_hops, forged, delivered, answered = _one_pass(transcript, a, b)
    detection = _detection(rtt_a, baselines[a], threshold_factor)
    if _detection(rtt_b, baselines[b], threshold_factor) is Detection.DELAY_FLAGGED:
        detection = Detection.DELAY_FLAGGED
    all_success = outcomes[a].status is outcomes[b].status is AuthStatus.MUTUAL_SUCCESS
    attack_success = all_success and not direct_hops and len(transcript.events) > 0
    integrity = Integrity.BROKEN if forged else Integrity.MAINTAINED

    # plain loops, as a generator would cost a frame and a resumption per
    # step: claimants A then B, challenges ascending, first match stops
    breached = False
    for claimant in a, b:
        responses = answered[claimant]
        if responses:
            for challenge in sorted(delivered[claimant]):
                if e1(link_key, challenge, claimant) in responses:
                    breached = True
                    break
            if breached:
                break
    confidentiality = Confidentiality.BREACHED if breached else Confidentiality.MAINTAINED

    # one tuple.__new__ call, as simnet builds its records
    return tuple.__new__(AttackVerdict, (attack_success, integrity, confidentiality, detection))


def dlog_bruteforce(params: DhParams, s_public: int) -> tuple[int, int]:
    """Ascending-scan discrete logarithm: the exponent and the trial count.

    Cost grows linearly in the recovered exponent, which is the whole point
    measured by the experiment scripts.
    """
    check_public(params, s_public)
    acc = 1
    for r in range(1, params.p):
        acc = acc * params.alpha % params.p
        if acc == s_public:
            return r, r
    raise ValueError("value is outside the generator's image")
