"""Event loop, routing topology, transcripts, timeout, delay detection."""

import collections
import copy
import dataclasses
import hashlib
import inspect
import json
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from support import (
    ADDR_A,
    ADDR_B,
    ADDR_C,
    LINKS,
    PARAMS,
    WIDE_P,
    intruder,
    oracle_rtt,
    pair,
    recorded,
    reference_run,
    run_of,
)

from btauthsim import adversary, cli, simnet, values
from btauthsim.adversary import (
    AttackVerdict,
    Confidentiality,
    Detection,
    Integrity,
    IntruderMode,
    IntruderState,
    delay_detector,
    transcript_rtt,
)
from btauthsim.cli import ScenarioConfig, ScenarioResult, run_scenario
from btauthsim.crypto import DhKeyPair, DhParams
from btauthsim.protocol import AuthOutcome, AuthStatus, DeviceState, Message, MsgKind, Variant
from btauthsim.simnet import LinkConfig, Transcript, TranscriptEvent


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


# a latency and a timeout above it
TIMINGS = st.integers(min_value=1, max_value=50).flatmap(
    lambda latency: st.tuples(st.just(latency), st.integers(latency + 1, 16 * latency))
)


class TestWaveLoop:
    """simnet.run delivers a run in waves, every message a wave's steps send
    falling due one hop later; support.reference_run keeps one priority
    queue of due times instead. Both give the same transcript, outcomes and
    end time."""

    CONFIGS = [
        *cli.HEADLINE,
        ScenarioConfig(Variant.DH_IMPROVED, IntruderMode.ORIGINATE_TO_A, initiator="C"),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.scenario_name)
    def test_scenario_runs_match_the_reference_loop(self, config, monkeypatch):
        for seed in range(10):
            result = run_scenario(config, seed)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "run", reference_run)
                reference = run_scenario(config, seed)
            assert reference.transcript == result.transcript, seed
            assert reference.outcomes == result.outcomes, seed

    # at latency 10 the third wave falls due at 30: a timeout of 30
    # delivers it, and one of 29 ends the run at 29 without it
    @given(
        st.sampled_from(list(Variant)),
        st.sampled_from([None, *IntruderMode]),
        TIMINGS,
        st.integers(min_value=0, max_value=2**16),
    )
    @example(Variant.LEGACY, None, (10, 30), 0)
    @example(Variant.LEGACY, None, (10, 29), 0)
    @example(Variant.DH_IMPROVED, IntruderMode.RELAY_ACTIVE, (10, 30), 0)
    @example(Variant.DH_IMPROVED, IntruderMode.RELAY_ACTIVE, (10, 29), 0)
    def test_any_timing_matches_the_reference_loop(self, variant, mode, timing, seed):
        links = LinkConfig(*timing)
        seeds = (3 * seed, 3 * seed + 1, 3 * seed + 2)
        _, _, transcript, outcomes = run_of(
            variant, intruder(mode, variant, seeds[2]), seeds=seeds[:2], links=links
        )
        dev_a, dev_b = pair(variant, *seeds[:2])
        expected = reference_run(dev_a, dev_b, intruder(mode, variant, seeds[2]), links)
        assert (transcript, outcomes) == expected

    # the third wave is A's response, which completes B
    @pytest.mark.parametrize(
        "timeout,times,b_status",
        [(30, [10, 20, 30], AuthStatus.MUTUAL_SUCCESS), (29, [10, 20], AuthStatus.TIMED_OUT)],
    )
    def test_a_wave_falls_due_one_hop_after_the_last(self, timeout, times, b_status):
        links = LinkConfig(latency_ms=10, timeout_ms=timeout)
        _, _, transcript, outcomes = run_of(Variant.LEGACY, links=links)
        assert sorted({e.time for e in transcript.events}) == times
        assert transcript.end_time == timeout
        assert [outcomes[ADDR_A].status, outcomes[ADDR_B].status] == [AuthStatus.TIMED_OUT, b_status]


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


def text_line(event: TranscriptEvent) -> str:
    """A text transcript line as the format defines it, field by field."""
    seq, time, sender, receiver, kind, payload = event
    return (
        f"seq={seq} t={time} from={sender.hex()} to={receiver.hex()} "
        f"kind={kind.value} payload={payload.hex()}"
    )


def json_record(event: TranscriptEvent) -> dict:
    """The record of a JSONL transcript line, field by field."""
    seq, time, sender, receiver, kind, payload = event
    return {
        "seq": seq,
        "t": time,
        "from": sender.hex(),
        "to": receiver.hex(),
        "kind": kind.value,
        "payload": payload.hex(),
    }


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
        record = json_record(event)
        [line] = Transcript(events=(event,), links=LINKS, end_time=0).to_jsonl().splitlines()
        assert line == json.dumps(record, separators=(",", ":"))
        assert json.loads(line) == record

    @given(
        st.integers(),
        st.integers(),
        st.binary(min_size=6, max_size=6),
        st.binary(min_size=6, max_size=6),
        st.sampled_from(list(MsgKind)),
        st.binary(max_size=32),
    )
    def test_text_line_matches_its_format(self, seq, time, sender, receiver, kind, payload):
        event = TranscriptEvent(seq, time, sender, receiver, kind, payload)
        [line] = Transcript(events=(event,), links=LINKS, end_time=0).to_text().splitlines()
        assert line == text_line(event)

    @pytest.mark.parametrize("cached,other", [(10, 10.0), (1, True)], ids=["time", "seq"])
    def test_a_head_is_keyed_by_type(self, cached, other):
        # 10.0 and True equal and hash as the ints 10 and 1, but print as
        # themselves, whichever was rendered first
        for seq, time in [(cached, 20), (other, 20), (0, cached), (0, other)]:
            event = TranscriptEvent(seq, time, ADDR_A, ADDR_B, MsgKind.CHALLENGE, b"\x01")
            transcript = Transcript(events=(event,), links=LINKS, end_time=0)
            assert transcript.to_text() == text_line(event) + "\n"
            assert transcript.to_jsonl() == (
                f'{{"seq":{seq},"t":{time},"from":"{ADDR_A.hex()}","to":"{ADDR_B.hex()}",'
                f'"kind":"ChallengeMsg","payload":"01"}}\n'
            )

    def test_more_heads_than_the_cache_holds(self):
        events = tuple(
            TranscriptEvent(seq, 10 * seq, ADDR_A, ADDR_C, MsgKind.RESPONSE, bytes([seq % 256]))
            for seq in range(300)
        )
        transcript = Transcript(events=events, links=LINKS, end_time=0)
        first = transcript.to_jsonl()
        for line, event in zip(first.splitlines(), events, strict=True):
            assert line == json.dumps(json_record(event), separators=(",", ":"))
        assert transcript.to_jsonl() == first
        assert transcript.to_text() == transcript.to_text()

    def test_headline_heads_repeat_at_every_seed(self):
        # after one round, every hop head of the ten headline scenarios is
        # cached: each scenario delivers the same hops at every seed
        heads = {}
        for seed, config in enumerate(cli.HEADLINE):
            transcript = run_scenario(config, seed).transcript
            transcript.to_jsonl()
            heads[config] = {event[:5] for event in transcript.events}
        misses = simnet._jsonl_head.cache_info().misses
        for seed in range(10, 210):
            config = cli.HEADLINE[seed % len(cli.HEADLINE)]
            transcript = run_scenario(config, seed).transcript
            transcript.to_jsonl()
            heads[config].update(event[:5] for event in transcript.events)
            assert len(heads[config]) == len(transcript.events), config.scenario_name
        assert simnet._jsonl_head.cache_info().misses == misses

    def test_an_unhashable_address_is_refused(self):
        event = TranscriptEvent(0, 10, bytearray(ADDR_A), ADDR_B, MsgKind.AUTH_REQUEST, b"")
        transcript = Transcript(events=(event,), links=LINKS, end_time=0)
        for serialise in (transcript.to_text, transcript.to_jsonl):
            with pytest.raises(TypeError, match="unhashable type: 'bytearray'"):
                serialise()

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
# the arguments of each record
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


# the fields of each record, in order
RECORD_FIELDS = {
    TranscriptEvent: ("seq", "time", "from_id", "to_id", "kind", "payload"),
    Transcript: ("events", "links", "end_time"),
    AuthOutcome: ("status", "authenticated_with"),
    AttackVerdict: ("attack_success", "integrity", "confidentiality", "detection"),
    DhKeyPair: ("r_private", "s_public"),
    ScenarioResult: ("seed", "transcript", "outcomes", "score", "baselines", "link_key"),
}
# the plain namedtuple of each record's fields
RECORD_TWINS = {
    record: collections.namedtuple(record.__name__, names)
    for record, names in RECORD_FIELDS.items()
}


class TestEventRecord:
    """Each record, a collections.namedtuple subclass whose constructor
    checks nothing, behaves as the plain namedtuple of its fields."""

    @pytest.mark.parametrize("record", list(RECORD_ARGS), ids=lambda record: record.__name__)
    @given(data=st.data())
    def test_behaves_like_a_plain_namedtuple(self, record, data):
        args, other = data.draw(RECORD_ARGS[record]), data.draw(RECORD_ARGS[record])
        names = RECORD_FIELDS[record]
        twin_of = RECORD_TWINS[record]
        assert record._fields == names
        value, twin = record(*args), twin_of(*args)
        assert tuple(getattr(value, name) for name in names) == args
        # a record is the tuple of its fields, built by position or by name
        assert value == args == record(**dict(zip(names, args)))
        assert repr(value) == repr(twin)
        # the repr names every field, and the hash is that of the tuple of
        # the fields, which fixes the order of a set of records
        shown = ", ".join(f"{name}={field!r}" for name, field in zip(names, args))
        assert repr(value) == f"{record.__name__}({shown})"
        assert hash_or_error(value) == hash_or_error(twin) == hash_or_error(args)
        assert (value == record(*other)) == (twin == twin_of(*other))
        for name, new in zip(names, other):
            replaced = value._replace(**{name: new})
            assert type(replaced) is record
            assert repr(replaced) == repr(twin._replace(**{name: new}))
            with pytest.raises(AttributeError):
                setattr(value, name, new)
            with pytest.raises(AttributeError):
                delattr(value, name)
        # no instance dict: no other name can be stored either
        with pytest.raises(AttributeError):
            value.extra = None

    @pytest.mark.parametrize("record", list(RECORD_ARGS), ids=lambda record: record.__name__)
    def test_signature_is_the_plain_namedtuple_one(self, record):
        # the field names in order, with no annotations and no defaults
        assert inspect.signature(record) == inspect.signature(RECORD_TWINS[record])

    @pytest.mark.parametrize("record", list(RECORD_ARGS), ids=lambda record: record.__name__)
    def test_defines_no_init_or_new_of_its_own(self, record):
        # construction is the namedtuple's __new__, one tuple.__new__ of the
        # fields, and no __init__ runs after it
        assert "__init__" not in vars(record) and "__new__" not in vars(record)
        assert record.__init__ is object.__init__

    def test_headline_runs_build_plain_events_and_copyable_results(self):
        # simnet.run builds each event with tuple.__new__, past the
        # record's own __new__: the same value that __new__ builds
        for config in cli.HEADLINE:
            for seed in range(3):
                result = run_scenario(config, seed)
                for e in result.transcript.events:
                    assert type(e) is TranscriptEvent
                    assert e == TranscriptEvent(*e)
                for copied in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
                    assert type(copied) is ScenarioResult
                    assert copied == result
                    assert repr(copied) == repr(result)


keys = st.binary(min_size=16, max_size=16)
# the arguments of each value class; the ones that construction refuses, too
VALUE_ARGS = {
    Message: st.tuples(
        st.sampled_from(list(MsgKind)),
        addresses,
        addresses,
        st.sampled_from([b"", bytes(4), bytes(6), bytes(16)]),
    ),
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
# whether each value class is frozen
FROZEN = {
    Message: True, ScenarioConfig: True, LinkConfig: True, DhParams: True, DeviceState: False,
    IntruderState: False,
}


def plain_twin(cls):
    """The plain dataclass of cls's fields, with their defaults and flags,
    frozen as cls is, holding every other name that cls's body defines
    (its properties and methods). Its __post_init__ runs cls.__init__ on
    a bare instance of cls with the twin's arguments, so the twin refuses
    what cls refuses, then copies onto the twin the derived fields that
    cls.__init__ stored, in the order it stored them. A derived field is
    an init=False field with no default: one with a default stays on the
    class, as dataclass leaves it, so an __init__ that stores it differs
    from its twin."""
    own = dataclasses.fields(cls)
    derived = {
        f.name
        for f in own
        if not f.init
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    }

    def __post_init__(twin):
        built = object.__new__(cls)
        cls.__init__(built, *[getattr(twin, f.name) for f in own if f.init])
        for name, value in vars(built).items():
            if name in derived:
                object.__setattr__(twin, name, value)

    namespace = {name: value for name, value in vars(cls).items() if not name.startswith("__")}
    namespace["__post_init__"] = __post_init__
    specs = [
        (f.name, f.type, dataclasses.field(
            default=f.default, default_factory=f.default_factory,
            init=f.init, repr=f.repr, hash=f.hash, compare=f.compare,
        ))
        for f in own
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
    """Each value class, made by values.value_class, behaves as the plain
    dataclass of its fields."""

    @pytest.mark.parametrize("cls", list(VALUE_ARGS), ids=lambda cls: cls.__name__)
    def test_signature_is_the_plain_dataclass_one(self, cls):
        # names, order, annotations and defaults, as dataclass would write them
        assert inspect.signature(cls) == inspect.signature(VALUE_TWINS[cls])

    @pytest.mark.parametrize("cls", list(VALUE_ARGS), ids=lambda cls: cls.__name__)
    @given(data=st.data())
    def test_behaves_like_the_plain_dataclass(self, cls, data):
        args, other = data.draw(VALUE_ARGS[cls]), data.draw(VALUE_ARGS[cls])
        twin_of = VALUE_TWINS[cls]
        value, twin = outcome(cls, *args), outcome(twin_of, *args)
        if isinstance(twin, str):
            # the same __init__ refuses the same arguments
            assert value == twin
            return
        assert repr(value) == repr(twin)
        # the same instance attributes, stored in the same order: like
        # dataclass, __init__ leaves an init=False default on the class
        assert list(vars(value).items()) == list(vars(twin).items())
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

            @values.value_class
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
    # a response listed after A's challenge, delivered at the send instant
    @example([(20, ADDR_A, ADDR_B, MsgKind.CHALLENGE), (10, ADDR_B, ADDR_A, MsgKind.RESPONSE)], 10, False)
    def test_one_pass_matches_the_oracle(self, hops, latency_ms, in_order):
        if in_order:
            hops = sorted(hops, key=lambda hop: hop[0])
        # the hops with each device sending at most one challenge, as every
        # handshake does, then every hop, a device's later challenges among
        # them, each against the rule itself: the first challenge's send,
        # then the first response at or after it
        challengers = set()
        kept = []
        for hop in hops:
            _, sender, _, kind = hop
            if kind is MsgKind.CHALLENGE:
                if sender in challengers:
                    continue
                challengers.add(sender)
            kept.append(hop)
        for listed in (kept, hops):
            transcript = hop_transcript(listed, latency_ms)
            for device in (ADDR_A, ADDR_B, ADDR_C):
                assert transcript_rtt(transcript, device) == oracle_rtt(transcript, device)

    def test_reads_the_first_challenge_only(self):
        # A's challenges go out at 0 and 40 and the answers arrive at 30
        # and 100; only the first challenge's round trip counts
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

    def test_an_earlier_response_before_the_send_does_not_count(self):
        # A's challenge is delivered at 30, so sent at 20; the response
        # listed before it reaches A at 15, before the send, and the one
        # at 50 is the first at or after it
        transcript = hop_transcript(
            [
                (15, ADDR_B, ADDR_A, MsgKind.RESPONSE),
                (30, ADDR_A, ADDR_B, MsgKind.CHALLENGE),
                (50, ADDR_B, ADDR_A, MsgKind.RESPONSE),
            ],
            10,
        )
        assert transcript_rtt(transcript, ADDR_A) == 30


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
        # victim and each device whose calibration round trip is read; the
        # calibration run is built anew with copies too, by building an
        # equal configuration under the copies, and the judge reads the
        # devices of the outcomes, the copies the devices were built with
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
        copying(cli, "transcript_rtt", 1)
        cli._prepared.cache_clear()
        try:
            with recorded(adversary, "_one_pass") as calibration:
                fresh = dataclasses.replace(config)
            assert fresh == config and fresh.prepared is not config.prepared
            assert calibration
            for _, a, b in calibration:
                assert a is b and a is not cli.ADDR_A and a is not cli.ADDR_B
            for seed, want in enumerate(expected):
                got = run_scenario(fresh, seed)
                assert all(a is not cli.ADDR_A and a is not cli.ADDR_B for a in got.outcomes)
                assert got.transcript == want.transcript
                assert got.outcomes == want.outcomes
                assert got.score == want.score
                assert got.baselines == want.baselines
        finally:
            cli._prepared.cache_clear()
