"""Deterministic discrete-event network for driving handshake runs.

Every hop takes the same fixed latency, so each message falls due one hop
after the delivery that caused it, never before anything already queued:
delivery is first in, first out, in the order messages were sent. When an
intruder is registered, the topology is a chain: honest devices have no
direct link, so every honest transmission physically arrives at the
intruder, whatever the message claims. The transcript records
physical transmitter and receiver per hop; claimed identities live inside
the messages. Addresses are plain bytes and compare by value: equal
addresses need not be one object.
"""

import math
from collections import deque
from enum import Enum

from .crypto import check_octets, check_type, record, value_class
from .protocol import (
    AuthOutcome,
    AuthStatus,
    DeviceState,
    Message,
    MsgKind,
    handle,
    outcome_of,
    start as protocol_start,
)

__all__ = [
    "LinkConfig",
    "TranscriptEvent",
    "Transcript",
    "Detection",
    "run",
    "delay_detector",
    "transcript_rtt",
]


class Detection(Enum):
    NONE = "None"
    DELAY_FLAGGED = "DelayFlagged"


@value_class(frozen=True)
class LinkConfig:
    latency_ms: int = 10
    timeout_ms: int = 2000

    def __post_init__(self):
        # a bool or a float would put non-integer times in the transcript
        check_type("latency_ms", self.latency_ms, int)
        check_type("timeout_ms", self.timeout_ms, int)
        if self.latency_ms <= 0:
            raise ValueError("latency must be positive")
        if self.timeout_ms <= self.latency_ms:
            raise ValueError("timeout must exceed the single-hop latency")


@record
class TranscriptEvent:
    seq: int
    time: int
    from_id: bytes
    to_id: bytes
    kind: MsgKind
    payload: bytes


# the text of each message kind, read once here rather than through the
# enum's value property on every line
_KIND_TEXT = {kind: kind.value for kind in MsgKind}


@record
class Transcript:
    events: tuple[TranscriptEvent, ...]
    links: LinkConfig
    end_time: int

    # Each format is one comprehension over the events, each line ended by
    # a newline and the lines joined in one step, with no call per line.
    def to_text(self) -> str:
        return "".join([
            f"seq={e.seq} t={e.time} from={e.from_id.hex()} to={e.to_id.hex()} "
            f"kind={_KIND_TEXT[e.kind]} payload={e.payload.hex()}\n"
            for e in self.events
        ])

    def to_jsonl(self) -> str:
        # every value is an int, a hex string or a MsgKind name, none of which
        # JSON needs to escape; each line is the compact json.dumps
        return "".join([
            f'{{"seq":{e.seq},"t":{e.time},"from":"{e.from_id.hex()}","to":"{e.to_id.hex()}",'
            f'"kind":"{_KIND_TEXT[e.kind]}","payload":"{e.payload.hex()}"}}\n'
            for e in self.events
        ])


def run(
    dev_a: DeviceState,
    dev_b: DeviceState,
    intruder,
    links: LinkConfig,
) -> tuple[Transcript, dict[bytes, AuthOutcome]]:
    """Drive one handshake to quiescence or timeout.

    dev_a and dev_b are the honest endpoints; the outcomes come back in that
    order. intruder (optional) is any object with the loop's whole intruder
    interface: an id, an opening, the sequence of Messages it sends before
    anything arrives, and an intercept(msg) -> [Message] method. The run
    opens with the intruder's opening when that is non-empty, else with
    dev_a's request toward dev_b. Time lives only here: neither the devices
    nor the intruder see it. Raises ValueError when the intruder addresses
    a device that is not registered, in its opening or in a reply.
    """
    registry: dict[bytes, DeviceState] = {dev_a.id: dev_a, dev_b.id: dev_b}
    intruder_id = intruder.id if intruder is not None else None

    latency, timeout = links.latency_ms, links.timeout_ms
    queue: deque[tuple[int, Message, bytes, bytes]] = deque()

    def send(replies: list[Message], sender: bytes, now: int) -> None:
        """Queue the messages one step emitted, all due one hop after now.
        With an intruder registered, an honest sender's messages physically
        reach the intruder; the intruder's own go to their receivers."""
        due = now + latency
        if intruder_id is None or sender == intruder_id:
            for msg in replies:
                physical_to = msg.receiver
                if physical_to not in registry and physical_to != intruder_id:
                    raise ValueError(f"unregistered device referenced: {physical_to.hex()}")
                queue.append((due, msg, sender, physical_to))
        else:
            for msg in replies:
                queue.append((due, msg, sender, intruder_id))

    if intruder is not None and intruder.opening:
        send(intruder.opening, intruder_id, 0)
    else:
        send(protocol_start(dev_a, dev_b.id), dev_a.id, 0)

    events: list[TranscriptEvent] = []
    last_time = 0
    while queue:
        time, msg, physical_from, physical_to = queue.popleft()
        if time > timeout:
            last_time = timeout
            break
        last_time = time
        events.append(
            TranscriptEvent(len(events), time, physical_from, physical_to, msg.kind, msg.payload)
        )
        if physical_to == intruder_id:
            send(intruder.intercept(msg), physical_to, time)
        else:
            send(handle(registry[physical_to], msg), physical_to, time)

    # a plain loop: a comprehension or a generator would cost a frame per run
    outcomes = {}
    finished = True
    for dev_id, dev in registry.items():
        outcomes[dev_id] = outcome = outcome_of(dev)
        finished = finished and outcome.status is not AuthStatus.TIMED_OUT
    end_time = last_time if finished else timeout
    return Transcript(events=tuple(events), links=links, end_time=end_time), outcomes


def transcript_rtt(transcript: Transcript, device: bytes) -> int | None:
    """Round trip of the one challenge a device sends, reconstructed from
    delivery times alone: from its send (the delivery of the device's first
    ChallengeMsg, minus one hop) to the first ResponseMsg delivered to the
    device at or after that send. None when either is missing. transcript
    is a Transcript and device a 6-octet address (TypeError, ValueError
    otherwise)."""
    # pre-tested, as in new_device
    if type(transcript) is not Transcript:
        check_type("transcript", transcript, Transcript)
    if type(device) is not bytes or len(device) != 6:
        check_octets("device", device, 6)
    challenge, response = MsgKind.CHALLENGE, MsgKind.RESPONSE
    for e in transcript.events:
        if e.kind is challenge and e.from_id == device:
            sent = e.time - transcript.links.latency_ms
            break
    else:
        return None
    for e in transcript.events:
        if e.kind is response and e.to_id == device and e.time >= sent:
            return e.time - sent
    return None


def delay_detector(
    transcript: Transcript,
    baseline_rtt: int,
    threshold_factor: float,
    device: bytes,
) -> Detection:
    """Flag a device whose observed round trip exceeds factor x baseline.
    baseline_rtt must be exactly an int and threshold_factor a real number
    (TypeError naming it otherwise), the baseline positive and the factor
    finite and above 1 (ValueError); device is checked by transcript_rtt."""
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
    observed = transcript_rtt(transcript, device)
    if observed is not None and observed > threshold_factor * baseline_rtt:
        return Detection.DELAY_FLAGGED
    return Detection.NONE
