"""Event loop, routing topology, transcripts, timeout, delay detection."""

import dataclasses
import hashlib
import inspect
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import ADDR_A, ADDR_B, ADDR_C, LINKS, PARAMS, WIDE_P, intruder, run_of

from btauthsim import adversary, cli, crypto, simnet
from btauthsim.adversary import (
    AttackVerdict,
    Confidentiality,
    Integrity,
    IntruderMode,
    IntruderState,
)
from btauthsim.cli import ScenarioConfig, ScenarioResult, run_scenario
from btauthsim.crypto import DhKeyPair, DhParams
from btauthsim.protocol import AuthOutcome, AuthStatus, DeviceState, Message, MsgKind, Variant
from btauthsim.simnet import (
    Detection,
    LinkConfig,
    Transcript,
    TranscriptEvent,
    delay_detector,
    transcript_rtt,
)


class TestDirectRuns:
    def test_legacy_timeline(self):
        _, _, transcript, outcomes = run_of(Variant.LEGACY)
        assert [e.kind for e in transcript.events] == [
            MsgKind.AUTH_REQUEST,
            MsgKind.CHALLENGE,
            MsgKind.RESPONSE,
            MsgKind.CHALLENGE,
            MsgKind.RESPONSE,
            MsgKind.AUTH_SUCCESS,
        ]
        assert transcript.events[-1].time == 40
        assert transcript.end_time == 40
        assert all(o.status is AuthStatus.MUTUAL_SUCCESS for o in outcomes.values())

    def test_seq_dense_and_time_monotone(self):
        _, _, transcript, _ = run_of(Variant.DH_IMPROVED)
        assert [e.seq for e in transcript.events] == list(range(len(transcript.events)))
        times = [e.time for e in transcript.events]
        assert times == sorted(times)

    def test_physical_endpoints_match_claims_without_intruder(self):
        _, _, transcript, _ = run_of(Variant.IMPROVED)
        assert {(e.from_id, e.to_id) for e in transcript.events} <= {
            (ADDR_A, ADDR_B),
            (ADDR_B, ADDR_A),
        }


class TestRelayedRuns:
    def test_legacy_relay_hop_pattern(self):
        dev_c = intruder(IntruderMode.RELAY_ACTIVE, Variant.LEGACY)
        _, _, transcript, outcomes = run_of(Variant.LEGACY, dev_c)
        assert len(transcript.events) == 12
        assert all(o.status is AuthStatus.MUTUAL_SUCCESS for o in outcomes.values())
        # chain topology: every hop touches the intruder
        for event in transcript.events:
            assert ADDR_C in (event.from_id, event.to_id)
        assert not any(
            e.from_id in (ADDR_A, ADDR_B) and e.to_id in (ADDR_A, ADDR_B)
            for e in transcript.events
        )

    def test_legacy_relay_timeline_doubles(self):
        dev_c = intruder(IntruderMode.RELAY_ACTIVE, Variant.LEGACY)
        _, _, transcript, _ = run_of(Variant.LEGACY, dev_c)
        assert transcript.events[-1].time == 80
        assert transcript.events[-1].kind is MsgKind.AUTH_SUCCESS

    def test_relay_preserves_payloads(self):
        dev_c = intruder(IntruderMode.RELAY_ACTIVE, Variant.IMPROVED)
        _, _, transcript, _ = run_of(Variant.IMPROVED, dev_c)
        inbound = [(e.kind, e.payload) for e in transcript.events if e.to_id == ADDR_C]
        outbound = [(e.kind, e.payload) for e in transcript.events if e.from_id == ADDR_C]
        assert outbound == inbound

    def test_originate_deadlock(self):
        dev_c = intruder(IntruderMode.ORIGINATE_TO_A, Variant.IMPROVED)
        _, _, transcript, outcomes = run_of(Variant.IMPROVED, dev_c)
        assert len(transcript.events) == 6
        assert not any(e.kind is MsgKind.RESPONSE for e in transcript.events)
        assert all(o.status is AuthStatus.TIMED_OUT for o in outcomes.values())
        assert transcript.end_time == LINKS.timeout_ms


class TestTimeout:
    def test_short_timeout_cuts_run(self):
        links = LinkConfig(latency_ms=10, timeout_ms=25)
        _, _, transcript, outcomes = run_of(Variant.LEGACY, links=links)
        assert all(e.time <= 25 for e in transcript.events)
        assert len(transcript.events) == 4
        assert all(o.status is AuthStatus.TIMED_OUT for o in outcomes.values())
        assert transcript.end_time == 25


class TestOpening:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("mode", [None, *IntruderMode], ids=lambda m: getattr(m, "value", "none"))
    def test_originate_alone_opens_with_the_intruder(self, variant, mode):
        _, _, transcript, outcomes = run_of(variant, intruder(mode, variant))
        assert list(outcomes) == [ADDR_A, ADDR_B]
        first = transcript.events[0]
        if mode is IntruderMode.ORIGINATE_TO_A:
            assert first.from_id == ADDR_C
        else:
            assert (first.from_id, first.kind, first.payload) == (
                ADDR_A,
                MsgKind.AUTH_REQUEST,
                ADDR_A,
            )
            assert first.to_id == (ADDR_B if mode is None else ADDR_C)
        if mode in (IntruderMode.RELAY_ACTIVE, IntruderMode.RELAY_PASSIVE):
            # the request claims b as its receiver, so c's first hop takes it there
            relayed = next(e for e in transcript.events if e.from_id == ADDR_C)
            assert (relayed.to_id, relayed.kind) == (ADDR_B, MsgKind.AUTH_REQUEST)

    def test_intruder_addressing_an_unregistered_device(self):
        stray = bytes.fromhex("dd0000000004")

        class StrayIntruder:
            id = ADDR_C
            opening = ()

            def intercept(self, msg):
                return [Message(msg.kind, msg.sender, stray, msg.payload)]

        with pytest.raises(ValueError, match="unregistered device referenced"):
            run_of(Variant.LEGACY, StrayIntruder())

    def test_intruder_opening_toward_an_unregistered_device(self):
        stray = bytes.fromhex("dd0000000004")

        class StrayOpener:
            id = ADDR_C
            opening = (Message(MsgKind.AUTH_REQUEST, ADDR_B, stray, ADDR_B),)

            def intercept(self, msg):
                return []

        with pytest.raises(ValueError, match="unregistered device referenced"):
            run_of(Variant.LEGACY, StrayOpener())


class TestSerialization:
    def test_text_line_format(self):
        _, _, transcript, _ = run_of(Variant.LEGACY)
        first = transcript.to_text().splitlines()[0]
        assert first == (
            "seq=0 t=10 from=aa0000000001 to=bb0000000002 "
            "kind=AuthRequest payload=aa0000000001"
        )

    def test_empty_payload_serializes_empty(self):
        _, _, transcript, _ = run_of(Variant.LEGACY)
        last = transcript.to_text().splitlines()[-1]
        assert last.endswith("kind=AuthSuccess payload=")

    def test_jsonl_round_trip(self):
        _, _, transcript, _ = run_of(Variant.IMPROVED)
        lines = transcript.to_jsonl().splitlines()
        assert len(lines) == len(transcript.events)
        for line, event in zip(lines, transcript.events):
            record = json.loads(line)
            assert list(record) == ["seq", "t", "from", "to", "kind", "payload"]
            assert record["seq"] == event.seq
            assert record["t"] == event.time
            assert record["from"] == event.from_id.hex()
            assert record["to"] == event.to_id.hex()
            assert record["kind"] == event.kind.value
            assert record["payload"] == event.payload.hex()

    @given(
        st.integers(),
        st.integers(),
        st.binary(min_size=6, max_size=6),
        st.binary(min_size=6, max_size=6),
        st.sampled_from(list(MsgKind)),
        st.binary(max_size=32),
    )
    def test_json_line_matches_json_dumps(self, seq, time, sender, receiver, kind, payload):
        event = TranscriptEvent(seq, time, sender, receiver, kind, payload)
        record = {
            "seq": event.seq,
            "t": event.time,
            "from": event.from_id.hex(),
            "to": event.to_id.hex(),
            "kind": event.kind.value,
            "payload": event.payload.hex(),
        }
        [line] = Transcript(events=(event,), links=LINKS, end_time=0).to_jsonl().splitlines()
        assert line == json.dumps(record, separators=(",", ":"))
        assert json.loads(line) == record

    @given(
        st.lists(
            st.builds(
                TranscriptEvent,
                st.integers(min_value=0),
                st.integers(min_value=0),
                st.sampled_from([ADDR_A, ADDR_B, ADDR_C]),
                st.sampled_from([ADDR_A, ADDR_B, ADDR_C]),
                st.sampled_from(list(MsgKind)),
                st.binary(max_size=32),
            ),
            max_size=20,
        )
    )
    def test_bulk_serialisers_join_one_event_transcripts(self, events):
        transcript = Transcript(events=tuple(events), links=LINKS, end_time=0)
        alone = [Transcript(events=(e,), links=LINKS, end_time=0) for e in events]
        assert transcript.to_jsonl() == "".join(t.to_jsonl() for t in alone)
        assert transcript.to_text() == "".join(t.to_text() for t in alone)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_identical_runs_identical_transcripts(self, variant):
        _, _, first, _ = run_of(variant, seeds=(11, 12))
        _, _, second, _ = run_of(variant, seeds=(11, 12))
        assert first.to_text() == second.to_text()
        assert hashlib.sha256(first.to_jsonl().encode()).digest() == (
            hashlib.sha256(second.to_jsonl().encode()).digest()
        )

    def test_relayed_runs_deterministic_too(self):
        dev_c = intruder(IntruderMode.RELAY_ACTIVE, Variant.DH_IMPROVED)
        _, _, first, _ = run_of(Variant.DH_IMPROVED, dev_c)
        dev_c = intruder(IntruderMode.RELAY_ACTIVE, Variant.DH_IMPROVED)
        _, _, second, _ = run_of(Variant.DH_IMPROVED, dev_c)
        assert first.to_text() == second.to_text()


addresses = st.sampled_from([ADDR_A, ADDR_B, ADDR_C])
event_args = st.tuples(
    st.integers(),
    st.integers(),
    addresses,
    addresses,
    st.sampled_from(list(MsgKind)),
    st.binary(max_size=20),
)
transcript_args = st.tuples(
    st.lists(event_args.map(lambda args: TranscriptEvent(*args)), max_size=3).map(tuple),
    st.sampled_from([LINKS, LinkConfig(5, 100)]),
    st.integers(),
)
outcome_args = st.tuples(st.sampled_from(list(AuthStatus)), st.none() | addresses)
verdict_args = st.tuples(
    st.booleans(),
    st.sampled_from(list(Integrity)),
    st.sampled_from(list(Confidentiality)),
    st.sampled_from(list(Detection)),
)
# the arguments of each record that crypto.record makes
RECORD_ARGS = {
    TranscriptEvent: event_args,
    Transcript: transcript_args,
    AuthOutcome: outcome_args,
    AttackVerdict: verdict_args,
    DhKeyPair: st.tuples(st.integers(), st.integers()),
    ScenarioResult: st.tuples(
        st.integers(),
        transcript_args.map(lambda args: Transcript(*args)),
        st.dictionaries(addresses, outcome_args.map(lambda args: AuthOutcome(*args)), max_size=2),
        verdict_args.map(lambda args: AttackVerdict(*args)),
        st.dictionaries(addresses, st.integers(), max_size=2),
        st.binary(min_size=16, max_size=16),
    ),
}


def hash_or_error(value):
    """hash(value), or TypeError when a field is unhashable (a dict)."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


class TestEventRecord:
    """Each record that crypto.record makes behaves as the plain frozen
    dataclass of its fields."""

    @pytest.mark.parametrize("record", list(RECORD_ARGS), ids=lambda record: record.__name__)
    @given(data=st.data())
    def test_behaves_like_a_plain_frozen_dataclass(self, record, data):
        args, other = data.draw(RECORD_ARGS[record]), data.draw(RECORD_ARGS[record])
        names = [f.name for f in dataclasses.fields(record)]
        twin_of = VALUE_TWINS[record]
        # the one-step __init__ takes the fields in their order, by name too
        assert list(inspect.signature(record).parameters) == names
        value, twin = record(*args), twin_of(*args)
        assert tuple(getattr(value, name) for name in names) == args
        assert value == record(**dict(zip(names, args)))
        assert repr(value) == repr(twin)
        assert hash_or_error(value) == hash_or_error(twin)
        assert (value == record(*other)) == (twin == twin_of(*other))
        for name, new in zip(names, other):
            replaced = dataclasses.replace(value, **{name: new})
            assert repr(replaced) == repr(dataclasses.replace(twin, **{name: new}))
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, new)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)

    @pytest.mark.parametrize("record", list(RECORD_ARGS), ids=lambda record: record.__name__)
    def test_signature_is_the_plain_dataclass_one(self, record):
        # names, annotations and no defaults, as dataclass would write them
        assert inspect.signature(record) == inspect.signature(VALUE_TWINS[record])

    @pytest.mark.parametrize("record", list(RECORD_ARGS), ids=lambda record: record.__name__)
    def test_init_stores_every_field_in_one_call(self, record):
        # one self.__dict__.update, not one object.__setattr__ per field:
        # that costs a matrix run about 6% of its runs per second
        assert record.__init__.__code__.co_names == ("__dict__", "update")

    def test_refuses_a_field_with_a_default(self):
        with pytest.raises(TypeError, match="^record Defaulted takes no default, got one for b$"):

            @crypto.record
            class Defaulted:
                a: int
                b: int = 0


keys = st.binary(min_size=16, max_size=16)
# the arguments of each value class whose __init__ dataclass writes; the
# ones that construction refuses, too
VALUE_ARGS = {
    ScenarioConfig: st.tuples(
        st.sampled_from(list(Variant)),
        st.sampled_from([None, *IntruderMode]),
        st.sampled_from(["A", "C"]),
        st.sampled_from([5, 10]),
        st.sampled_from([30, 2000]),
        st.floats(min_value=1, max_value=10, exclude_min=True),
        st.sampled_from([2**31 - 1, WIDE_P]),
        st.sampled_from([2, 7]),
    ),
    LinkConfig: st.tuples(st.integers(0, 50), st.integers(0, 100)),
    DhParams: st.sampled_from([5, 10007, 2**31 - 1, WIDE_P]).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(2, p - 1))
    ),
    DeviceState: st.tuples(
        addresses, st.sampled_from(list(Variant)), keys, keys, st.sampled_from([None, PARAMS])
    ),
    IntruderState: st.tuples(
        st.permutations([ADDR_A, ADDR_B, ADDR_C]),
        st.sampled_from(list(IntruderMode)),
        st.sampled_from(list(Variant)),
        st.integers(0, 2**32),
        st.sampled_from([None, PARAMS]),
    ).map(lambda t: (t[0][0], t[1], t[2], t[0][1], t[0][2], t[3], t[4])),
}
# whether each value class is frozen: every record is
FROZEN = {
    **dict.fromkeys(RECORD_ARGS, True),
    ScenarioConfig: True, LinkConfig: True, DhParams: True, DeviceState: False, IntruderState: False,
}


def plain_twin(cls):
    """The plain dataclass of cls's fields, with their defaults and flags,
    frozen as cls is, holding every other name that cls's body defines
    (its __post_init__, properties and methods)."""
    namespace = {
        name: value
        for name, value in vars(cls).items()
        if name == "__post_init__" or not name.startswith("__")
    }
    specs = [
        (f.name, f.type, dataclasses.field(
            default=f.default, default_factory=f.default_factory,
            init=f.init, repr=f.repr, hash=f.hash, compare=f.compare,
        ))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=FROZEN[cls])


VALUE_TWINS = {cls: plain_twin(cls) for cls in FROZEN}


def outcome(call, *args, **kwargs):
    """call's result, or the type and message of the error it raised."""
    try:
        return call(*args, **kwargs)
    except Exception as err:
        return f"{type(err).__name__}: {err}"


class TestValueClass:
    """Each value class whose __init__ dataclass writes, made by
    crypto.value_class, behaves as the plain dataclass of its fields."""

    @pytest.mark.parametrize("cls", list(VALUE_ARGS), ids=lambda cls: cls.__name__)
    @given(data=st.data())
    def test_behaves_like_the_plain_dataclass(self, cls, data):
        args, other = data.draw(VALUE_ARGS[cls]), data.draw(VALUE_ARGS[cls])
        twin_of = VALUE_TWINS[cls]
        value, twin = outcome(cls, *args), outcome(twin_of, *args)
        if isinstance(twin, str):
            # the same __post_init__ refuses the same arguments
            assert value == twin
            return
        assert repr(value) == repr(twin)
        assert value == cls(*args)
        assert value.__eq__(twin) is NotImplemented
        # the hash, or the TypeError of an unhashable mutable value
        assert outcome(hash, value) == outcome(hash, twin)
        assert (value == outcome(cls, *other)) == (twin == outcome(twin_of, *other))
        fields = dataclasses.fields(cls)
        for name, new in zip([f.name for f in fields if f.init], other):
            replaced = outcome(dataclasses.replace, value, **{name: new})
            assert repr(replaced) == repr(outcome(dataclasses.replace, twin, **{name: new}))
        source = outcome(cls, *other)
        for name in [f.name for f in fields]:
            if FROZEN[cls]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(value, name)
            elif not isinstance(source, str):
                # a mutable value shows and compares as its twin after the same stores
                setattr(value, name, getattr(source, name))
                setattr(twin, name, getattr(source, name))
                assert repr(value) == repr(twin)
                assert (value == cls(*args)) == (twin == twin_of(*args))

    def test_the_intruders_plan_is_out_of_repr_and_eq(self):
        # originate, whose opening is not empty, against dh-improved, where
        # it draws both a public value and a nonce
        built = intruder(IntruderMode.ORIGINATE_TO_A, Variant.DH_IMPROVED)
        emptied = intruder(IntruderMode.ORIGINATE_TO_A, Variant.DH_IMPROVED)
        emptied.script = emptied.values = emptied.victim_of = {}
        emptied.opening = ()
        assert built.values != emptied.values
        assert built.opening != emptied.opening
        assert built == emptied
        assert repr(built) == repr(emptied)
        plan = ("script", "values", "victim_of", "opening")
        assert not [name for name in plan if f"{name}=" in repr(built)]

    def test_refuses_a_method_of_its_own(self):
        with pytest.raises(TypeError, match="^value class Shown defines its own __repr__$"):

            @crypto.value_class
            class Shown:
                a: int

                def __repr__(self):
                    return "a"

    def test_the_group_table_is_out_of_repr_and_eq(self):
        # alpha_table caches in the instance dict, outside the fields
        built, fresh = DhParams(WIDE_P, 2), DhParams(WIDE_P, 2)
        built.alpha_table
        assert "alpha_table" in vars(built) and "alpha_table" not in vars(fresh)
        assert built == fresh
        assert hash(built) == hash(fresh)
        assert repr(built) == repr(fresh) == f"DhParams(p={WIDE_P}, alpha=2)"


def two_pass_rtt(transcript, device):
    """transcript_rtt as it was written with one comprehension for the sends
    and one for the arrivals; the oracle for the single pass."""
    latency = transcript.links.latency_ms
    sends = [
        e.time - latency
        for e in transcript.events
        if e.kind is MsgKind.CHALLENGE and e.from_id == device
    ]
    arrivals = [
        e.time for e in transcript.events if e.kind is MsgKind.RESPONSE and e.to_id == device
    ]
    worst = None
    cursor = 0
    for sent in sends:
        while cursor < len(arrivals) and arrivals[cursor] < sent:
            cursor += 1
        if cursor == len(arrivals):
            break
        rtt = arrivals[cursor] - sent
        cursor += 1
        if worst is None or rtt > worst:
            worst = rtt
    return worst


def hop_transcript(hops, latency_ms):
    """A transcript of (delivery time, sender, receiver, kind) hops with
    empty payloads."""
    events = tuple(
        TranscriptEvent(seq, time, sender, receiver, kind, b"")
        for seq, (time, sender, receiver, kind) in enumerate(hops)
    )
    return Transcript(events, LinkConfig(latency_ms=latency_ms), 0)


# expected round trip of the challenge of A and of B at the default 10 ms per hop: the
# nested variants make A wait for B's counter-challenge leg too
DEVICE_RTT = {Variant.LEGACY: (20, 20), Variant.IMPROVED: (40, 20), Variant.DH_IMPROVED: (40, 20)}


class TestRttReconstruction:
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_matches_device_estimates_direct(self, variant):
        _, _, transcript, _ = run_of(variant)
        rtts = (transcript_rtt(transcript, ADDR_A), transcript_rtt(transcript, ADDR_B))
        assert rtts == DEVICE_RTT[variant]

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_matches_device_estimates_relayed(self, variant):
        # every hop goes through the intruder, so each round trip doubles
        mode = IntruderMode.RELAY_PASSIVE if variant is Variant.DH_IMPROVED else (
            IntruderMode.RELAY_ACTIVE
        )
        _, _, transcript, _ = run_of(variant, intruder(mode, variant))
        rtts = (transcript_rtt(transcript, ADDR_A), transcript_rtt(transcript, ADDR_B))
        assert rtts == tuple(2 * rtt for rtt in DEVICE_RTT[variant])

    def test_relay_doubles_observed_rtt(self):
        _, _, direct, _ = run_of(Variant.LEGACY)
        dev_c = intruder(IntruderMode.RELAY_ACTIVE, Variant.LEGACY)
        _, _, relayed, _ = run_of(Variant.LEGACY, dev_c)
        assert transcript_rtt(direct, ADDR_A) == 20
        assert transcript_rtt(relayed, ADDR_A) == 40

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200),
                st.sampled_from([ADDR_A, ADDR_B, ADDR_C]),
                st.sampled_from([ADDR_A, ADDR_B, ADDR_C]),
                st.sampled_from(list(MsgKind)),
            ),
            max_size=30,
        ),
        st.integers(min_value=1, max_value=20),
        st.booleans(),
    )
    def test_single_pass_matches_two_pass_oracle(self, hops, latency_ms, in_order):
        if in_order:
            hops = sorted(hops, key=lambda hop: hop[0])
        # each device sends at most one challenge, as every handshake does
        challengers = set()
        kept = []
        for hop in hops:
            _, sender, _, kind = hop
            if kind is MsgKind.CHALLENGE:
                if sender in challengers:
                    continue
                challengers.add(sender)
            kept.append(hop)
        transcript = hop_transcript(kept, latency_ms)
        for device in (ADDR_A, ADDR_B, ADDR_C):
            assert transcript_rtt(transcript, device) == two_pass_rtt(transcript, device)

    def test_reads_the_first_challenge_only(self):
        # A's challenges go out at 0 and 40 and the answers arrive at 30
        # and 100; only the first challenge's round trip counts, where the
        # oracle takes the worse of the two
        transcript = hop_transcript(
            [
                (10, ADDR_A, ADDR_B, MsgKind.CHALLENGE),
                (30, ADDR_B, ADDR_A, MsgKind.RESPONSE),
                (50, ADDR_A, ADDR_B, MsgKind.CHALLENGE),
                (100, ADDR_B, ADDR_A, MsgKind.RESPONSE),
            ],
            10,
        )
        assert transcript_rtt(transcript, ADDR_A) == 30
        assert two_pass_rtt(transcript, ADDR_A) == 60

    def test_no_samples_when_no_responses(self):
        dev_c = intruder(IntruderMode.ORIGINATE_TO_A, Variant.IMPROVED)
        _, _, transcript, _ = run_of(Variant.IMPROVED, dev_c)
        assert transcript_rtt(transcript, ADDR_A) is None

    def test_a_response_at_the_send_instant_counts(self):
        # A's challenge is delivered one hop after 0, so it was sent at 0,
        # and a response reaches A at 0: at or after the send, so it counts
        transcript = hop_transcript(
            [(0, ADDR_B, ADDR_A, MsgKind.RESPONSE), (10, ADDR_A, ADDR_B, MsgKind.CHALLENGE)], 10
        )
        assert transcript_rtt(transcript, ADDR_A) == 0


class TestDelayDetector:
    def test_direct_not_flagged(self):
        _, _, transcript, _ = run_of(Variant.LEGACY)
        assert delay_detector(transcript, 20, 1.5, ADDR_A) is Detection.NONE

    def test_relay_flagged(self):
        dev_c = intruder(IntruderMode.RELAY_ACTIVE, Variant.LEGACY)
        _, _, transcript, _ = run_of(Variant.LEGACY, dev_c)
        assert delay_detector(transcript, 20, 1.5, ADDR_A) is Detection.DELAY_FLAGGED

    def test_loose_factor_misses_relay(self):
        dev_c = intruder(IntruderMode.RELAY_ACTIVE, Variant.LEGACY)
        _, _, transcript, _ = run_of(Variant.LEGACY, dev_c)
        assert delay_detector(transcript, 20, 3.0, ADDR_A) is Detection.NONE

    def test_no_samples_not_flagged(self):
        dev_c = intruder(IntruderMode.ORIGINATE_TO_A, Variant.IMPROVED)
        _, _, transcript, _ = run_of(Variant.IMPROVED, dev_c)
        assert delay_detector(transcript, 20, 1.5, ADDR_A) is Detection.NONE


def copy_of(addr: bytes) -> bytes:
    """An address equal to addr that is a separate object."""
    copy = bytes(bytearray(addr))
    assert copy == addr and copy is not addr
    return copy


class TestAddressesCompareByValue:
    @pytest.mark.parametrize("config", cli.HEADLINE, ids=lambda config: config.scenario_name)
    def test_separate_copies_give_the_same_runs(self, monkeypatch, config):
        # every address a party is built with or handed is its own copy:
        # each device id, the peer start opens toward, the intruder id, each
        # victim and each device the detector reads; the calibration run is
        # built anew with copies too, and read with the shared constants
        expected = [run_scenario(config, seed) for seed in range(5)]

        def copying(module, name, *positions):
            real = getattr(module, name)

            def with_copies(*args, **kwargs):
                args = [copy_of(arg) if i in positions else arg for i, arg in enumerate(args)]
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, with_copies)

        copying(cli, "new_device", 0)
        copying(cli, "IntruderState", 0, 3, 4)
        copying(simnet, "protocol_start", 1)
        copying(adversary, "delay_detector", 3)
        cli._prepared.cache_clear()
        try:
            for seed, want in enumerate(expected):
                got = run_scenario(config, seed)
                assert all(a is not cli.ADDR_A and a is not cli.ADDR_B for a in got.outcomes)
                assert got.transcript == want.transcript
                assert got.outcomes == want.outcomes
                assert got.score == want.score
                assert got.baselines == want.baselines
        finally:
            cli._prepared.cache_clear()
