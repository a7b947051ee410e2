"""Deterministic discrete-event network for driving handshake runs.

Every hop takes the same fixed latency, so each message falls due exactly
one hop after the delivery that caused it, never before anything already
queued: run delivers in waves, each wave the messages that the steps of
the last one sent, in the order sent, one time step and one timeout check
per wave, which is first in, first out in the order messages were sent
(a calendar queue with only the current bucket and the next). When an
intruder is registered, the topology is a chain: honest devices have no
direct link, so every honest transmission physically arrives at the
intruder, whatever the message claims. The transcript records
physical transmitter and receiver per hop; claimed identities live inside
the messages. Addresses are plain bytes and compare by value: equal
addresses need not be one object. The network only records: reading a
transcript, for round trips, detection and the verdict, is adversary's.
"""

import functools
from collections import namedtuple

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
from .values import check_type, value_class

__all__ = ["LinkConfig", "TranscriptEvent", "Transcript", "run"]


@value_class(frozen=True)
class LinkConfig:
    """The timing of every hop of a run, in milliseconds: each message
    arrives latency_ms after it is sent, and none is delivered after
    timeout_ms. Both must be exactly ints (TypeError naming the field),
    latency_ms positive and timeout_ms above it (ValueError)."""

    latency_ms: int = 10
    timeout_ms: int = 2000

    def __init__(self, latency_ms: int = 10, timeout_ms: int = 2000) -> None:
        # a bool or a float would put non-integer times in the transcript
        check_type("latency_ms", latency_ms, int)
        check_type("timeout_ms", timeout_ms, int)
        if latency_ms <= 0:
            raise ValueError("latency must be positive")
        if timeout_ms <= latency_ms:
            raise ValueError("timeout must exceed the single-hop latency")
        self.__dict__.update(latency_ms=latency_ms, timeout_ms=timeout_ms)


class TranscriptEvent(namedtuple("TranscriptEvent", "seq time from_id to_id kind payload")):
    """The seq-th delivery of a run, at time: the physical hop from from_id
    to to_id of a message of kind with its payload."""

    __slots__ = ()


# The text of a line up to its payload's hex, built once per hop: a
# configuration's runs deliver the same (seq, time, from, to, kind) hops at
# every seed, so each head is formatted once and then shared. 256 entries
# hold the 67 distinct heads of the ten headline scenarios with room to
# spare. Typed, so that a time 10.0 or a seq True, which equal and hash as
# the ints 10 and 1, print as themselves, not as the int's cached head.
@functools.lru_cache(maxsize=256, typed=True)
def _text_head(seq: int, time: int, from_id: bytes, to_id: bytes, kind: MsgKind) -> str:
    return f"seq={seq} t={time} from={from_id.hex()} to={to_id.hex()} kind={kind.value} payload="


@functools.lru_cache(maxsize=256, typed=True)
def _jsonl_head(seq: int, time: int, from_id: bytes, to_id: bytes, kind: MsgKind) -> str:
    # every value is an int, a hex string or a MsgKind name, none of which
    # JSON needs to escape; each line is the compact json.dumps
    return (
        f'{{"seq":{seq},"t":{time},"from":"{from_id.hex()}","to":"{to_id.hex()}",'
        f'"kind":"{kind.value}","payload":"'
    )


class Transcript(namedtuple("Transcript", "events links end_time")):
    """Every delivery of a run in order, the links it ran on, and end_time:
    the time of the last delivery, or the timeout when a device timed out.

    to_text and to_jsonl write each event as one line: its head, the text
    before the payload, from the cache of _text_head or _jsonl_head, then
    the payload's hex. The addresses are cache keys, so an unhashable one
    (a bytearray) raises TypeError; every transcript a run builds holds
    bytes."""

    __slots__ = ()

    # Each format is one comprehension over the unpacked events, whose
    # lines are joined in one step.
    def to_text(self) -> str:
        return "".join([
            f"{_text_head(seq, time, from_id, to_id, kind)}{payload.hex()}\n"
            for seq, time, from_id, to_id, kind, payload in self.events
        ])

    def to_jsonl(self) -> str:
        return "".join([
            f'{_jsonl_head(seq, time, from_id, to_id, kind)}{payload.hex()}"}}\n'
            for seq, time, from_id, to_id, kind, payload in self.events
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

    # the wave due at time: (message, physical sender, physical receiver)
    # in the order sent. With an intruder registered, an honest sender's
    # messages physically reach the intruder; the intruder's own go to
    # their receivers, which must be registered.
    wave: list[tuple[Message, bytes, bytes]]
    if intruder is not None and intruder.opening:
        wave = [(msg, intruder_id, msg.receiver) for msg in intruder.opening]
    else:
        wave = [
            (msg, dev_a.id, msg.receiver if intruder is None else intruder_id)
            for msg in protocol_start(dev_a, dev_b.id)
        ]
    for _, _, physical_to in wave:
        if physical_to not in registry and physical_to != intruder_id:
            raise ValueError(f"unregistered device referenced: {physical_to.hex()}")

    events: list[TranscriptEvent] = []
    time = last_time = 0
    while wave:
        # every message a step sends falls due one hop later, in the next wave
        time += latency
        if time > timeout:
            last_time = timeout
            break
        last_time = time
        upcoming = []
        for msg, physical_from, physical_to in wave:
            # each record by tuple.__new__ of its class: its own __new__, less that frame
            events.append(
                tuple.__new__(
                    TranscriptEvent,
                    (len(events), time, physical_from, physical_to, msg.kind, msg.payload),
                )
            )
            if physical_to == intruder_id:
                replies = intruder.intercept(msg)
            else:
                replies = handle(registry[physical_to], msg)
                if intruder_id is not None:
                    for reply in replies:
                        upcoming.append((reply, physical_to, intruder_id))
                    continue
            for reply in replies:
                receiver = reply.receiver
                if receiver not in registry and receiver != intruder_id:
                    raise ValueError(f"unregistered device referenced: {receiver.hex()}")
                upcoming.append((reply, physical_to, receiver))
        wave = upcoming

    # a plain loop: a comprehension or a generator would cost a frame per run
    outcomes = {}
    finished = True
    for dev_id, dev in registry.items():
        outcomes[dev_id] = outcome = outcome_of(dev)
        finished = finished and outcome.status is not AuthStatus.TIMED_OUT
    end_time = last_time if finished else timeout
    return tuple.__new__(Transcript, (tuple(events), links, end_time)), outcomes
