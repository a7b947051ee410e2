"""The argument contract of every public entry point, as one table.

Devices pair with no user in the loop, so every value a run takes comes
from a peer or a library caller, and no person notices a bad one. A value
of another type raises TypeError naming the parameter; one of the right
type outside its range, ValueError (ConfigError from cli).

A row is (entry point, parameter, kind). It meets its kind's extra values
(wrong widths, range edges, infinity, values listed in also), then the
thirteen of hostile(); the kind's expect gives each cell's exception type
and full message, or ACCEPTED, and an accepted value equal to the valid
one must give the valid call's result. Each cell is a test that makes
the valid call first, so a memo holds its entry when an equal value
arrives (1.0 after 1, a view after bytes). OVERRIDES give the rest, with reasons.

LEFT_OUT: no outside value reaches these unchecked. The number theory
takes ints that the rows checked; draw_octets takes a stream, and
draw_exponent a stream and a group's modulus, which Stream and DhParams
check, as party_draws, whose row is its seed, takes the modulus and a flag
that new_device or IntruderState sets; clear_memos takes no argument;
encode_public, decode_public, the drivers and main take checked or
argparse-typed values; control_message is an lru_cache over Message,
which checks; the check_* functions are what every row reaches;
value_class takes a class body; records, enums and exceptions check
nothing. ScenarioConfig checks itself when built, and each validate and
run_scenario cell builds one. Every record a call
takes (a group, a key pair, a transcript) is a row.
"""

import math
from collections import namedtuple
from enum import Enum

import pytest

from support import ADDR_A, ADDR_B, ADDR_C, KEY, LINKS

from btauthsim import adversary, cli, crypto, draw, protocol, simnet, values
from btauthsim.adversary import IntruderMode, IntruderState
from btauthsim.cli import ConfigError, ScenarioConfig
from btauthsim.crypto import DhParams
from btauthsim.protocol import AuthOutcome, AuthStatus, Message, MsgKind, Variant, new_device
from btauthsim.simnet import LinkConfig, Transcript

NONCE = bytes(range(16, 32))
P23 = DhParams(p=23, alpha=5)
ACCEPTED = "accepted"
Text, Octets, Count = (type(name, (base,), {}) for name, base in
                       (("Text", str), ("Octets", bytes), ("Count", int)))


def hostile(valid) -> dict:
    """The thirteen values every row meets, by cell id; the bytes-likes
    hold the valid octets, or one octet where the parameter is no bytes."""
    octets = valid if type(valid) is bytes else b"\x01"
    return {
        "True": True, "1.0": 1.0, "nan": math.nan, "'x'": "x", "str subclass": Text("x"),
        "list": [1, 2], "None": None, "-1": -1, "10**30": 10**30, "int subclass": Count(2),
        "bytes subclass": Octets(octets), "bytearray": bytearray(octets),
        "memoryview": memoryview(octets),
    }


def type_error(name: str, expected: str, value) -> tuple:
    return TypeError, f"{name} must be {expected}, got {type(value).__name__}"


# expect(name, value) gives a value's outcome; extra: the values that rows
# of this kind meet before the hostile ones, or a dict of them by cell id;
# name: what the messages call the parameter, when not its own name
Kind = namedtuple("Kind", "expect extra name")


def octets(width=None, top=None, name=None, also=()) -> Kind:
    """Exactly width octets, or width to top; any length without a width."""

    def expect(name, value):
        if not isinstance(value, bytes):
            return type_error(name, "bytes", value)
        n = len(value)
        if width is not None and top is None and n != width:
            return ValueError, f"{name} must be exactly {width} octets, got {n}"
        if top is not None and not width <= n <= top:
            return ValueError, f"{name} must be {width} to {top} octets, got {n}"
        return ACCEPTED

    widths = (width - 1, width, top, top + 1) if top else (0, width - 1, width + 1) if width else ()
    return Kind(expect, (*(bytes(n) for n in dict.fromkeys(widths)), *also), name)


def integer(low=None, high=None, message="", above=None, error=ValueError, edges=True,
            name=None, also=()) -> Kind:
    """Exactly an int in [low, high], where given: below low, error with
    message, and above high, with above or message, each formatted with the
    value. edges=False where the range alone does not decide its edges."""

    def expect(name, value):
        if type(value) is not int:
            return type_error(name, "an int", value)
        if low is not None and value < low:
            return error, message.format(value)
        if high is not None and value > high:
            return error, (above or message).format(value)
        return ACCEPTED

    bounds = [bound + step for bound, steps in ((low, (-1, 0)), (high, (0, 1)))
              if edges and bound is not None for step in steps]
    return Kind(expect, (*bounds, *also), name)


def threshold(message: str, error: type = ValueError) -> Kind:
    """A real number, finite and above 1, as both detection thresholds."""

    def expect(name, value):
        if not isinstance(value, (int, float)):
            return type_error(name, "a real number", value)
        return ACCEPTED if 1 < value < math.inf else (error, message.format(value))

    return Kind(expect, (math.inf,), None)


def instance(cls: type, none: bool = False, name=None, also=()) -> Kind:
    """Exactly of type cls (an enum, a record or dict), or None if none."""
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    wanted = f"{article} {cls.__name__}{' or None' * none}"

    def expect(name, value):
        ok = type(value) is cls or (none and value is None)
        return ACCEPTED if ok else type_error(name, wanted, value)

    return Kind(expect, also, name)


def choice(*values: str) -> Kind:
    """One of a few strings, compared by value (the initiator)."""

    def expect(name, value):
        if value in values:
            return ACCEPTED
        return ConfigError, f"{name} must be {' or '.join(values)}, got {value}"

    return Kind(expect, (), None)


def outcomes(also=()) -> Kind:
    """Exactly a dict of two devices, each a 6-octet address of an
    AuthOutcome; its items are checked in order, key then value."""

    def expect(name, value):
        if type(value) is not dict:
            return type_error(name, "a dict", value)
        if len(value) != 2:
            return ValueError, f"{name} must hold exactly 2 devices, got {len(value)}"
        for device, outcome in value.items():
            if (refused := ADDR.expect(f"{name} key", device)) is not ACCEPTED:
                return refused
            if type(outcome) is not AuthOutcome:
                return type_error(f"{name} value", "an AuthOutcome", outcome)
        return ACCEPTED

    return Kind(expect, also, None)


Row = namedtuple("Row", "id call valid param kind")


def table(entry: str, call, valid: dict, suffix: str = "", **kinds) -> list[Row]:
    return [Row(f"{entry}-{param}{suffix}", call, valid, param, kind)
            for param, kind in kinds.items()]


def seed(name: str, error: type = ValueError) -> Kind:
    return integer(low=0, message=f"{name} must be non-negative, got {{}}", error=error)


def in_group(bounded: str, low: int = 1, name: str | None = None) -> Kind:
    """An int in [low, p-1] of P23, as the DH functions word its range."""
    return integer(low, 22, f"{bounded} must be in [{low}, p-1], got {{}}", name=name)


def config(base: dict, fields) -> dict:
    """The valid fields: those of base, and the defaults of the others."""
    valid = ScenarioConfig(**base)
    return {name: getattr(valid, name) for name in {**base, **dict.fromkeys(fields)}}


def validate_fields(**fields):
    return cli.validate(ScenarioConfig(**fields))


def run_fields(seed=0, **fields):
    return cli.run_scenario(ScenarioConfig(**fields), seed)


KEY16, ADDR = octets(16), octets(6)
PEER = "peer public value"
PUBLIC = in_group(PEER, name=PEER)
TIMING = "timeout must exceed the single-hop latency"
LINK, GROUP = "latency-ms/timeout-ms: ", "dh-p/dh-alpha: "
E1 = dict(key=KEY, challenge=NONCE, claimant=ADDR_A)
E1_KINDS = dict(key=KEY16, challenge=KEY16, claimant=ADDR)
EMPTY = Transcript((), LINKS, 0)
DEVICE = dict(id=ADDR_A, variant=Variant.LEGACY, link_key=KEY, rng_seed=1)
INTRUDER = dict(id=ADDR_C, mode=IntruderMode.RELAY_PASSIVE, variant=Variant.LEGACY,
                victim_a=ADDR_A, victim_b=ADDR_B, rng_seed=3)
ACTIVE_DH = dict(mode=IntruderMode.RELAY_ACTIVE, variant=Variant.DH_IMPROVED, dh_params=P23)
THRESHOLD = threshold("threshold factor must be finite and exceed 1, got {}")
DH_PARAMS = instance(DhParams, none=True, also=((23, 5),))
# a record meets the tuple of its fields too
PARAMS_KIND = instance(DhParams, also=((23, 5),))
TRANSCRIPT = instance(Transcript, also=(((), LINKS, 0),))
TIMED_OUT = AuthOutcome(AuthStatus.TIMED_OUT, None)
OUTCOMES = outcomes(also={
    "0 devices": {}, "1 device": {ADDR_A: TIMED_OUT},
    "3 devices": dict.fromkeys((ADDR_A, ADDR_B, ADDR_C), TIMED_OUT),
    "int keys": {1: TIMED_OUT, 2: TIMED_OUT},
    "5-octet key": {ADDR_A: TIMED_OUT, ADDR_B[:5]: TIMED_OUT},
    "str values": {ADDR_A: "x", ADDR_B: "y"},
    # a record meets the tuple of its fields too
    "tuple value": {ADDR_A: TIMED_OUT, ADDR_B: (AuthStatus.TIMED_OUT, None)},
    "the devices alone": (ADDR_A, ADDR_B),
})

# per valid configuration, the id suffix of its rows and the kind of each field
FIELDS = [
    ({}, "", dict(
        variant=instance(Variant, also=(IntruderMode.RELAY_ACTIVE,)),
        initiator=choice("A", "C"),
        latency_ms=integer(1, message=LINK + "latency must be positive", error=ConfigError),
        timeout_ms=integer(30, error=ConfigError, message=LINK + "timeout {} ms ends the "
                           "intruder-free legacy handshake before both round trips complete"),
        detect_factor=threshold("detect-factor must be finite and exceed 1, got {}", ConfigError),
        # outside dh-improved the group is not read, so any int passes
        dh_p=integer(), dh_alpha=integer(),
    )),
    # originate, so that a value of another type is named before the check
    # across fields, which None, a valid intruder, meets
    (dict(intruder=IntruderMode.ORIGINATE_TO_A, initiator="C"), "", dict(
        intruder=instance(IntruderMode, none=True, also=(Variant.LEGACY,)),
    )),
    (dict(variant=Variant.DH_IMPROVED), "-dh-improved", dict(
        dh_p=integer(),
        dh_alpha=integer(2, 2**31 - 2, GROUP + "alpha must be in [2, p-1], got {}",
                         error=ConfigError, edges=False, also=(2,)),
    )),
]

ROWS = [
    *table("e1", crypto.e1, E1, **E1_KINDS),
    *table("e1.__wrapped__", crypto.e1.__wrapped__, E1, **E1_KINDS),
    *table("init_key", crypto.init_key, dict(pin=b"0000", addr=ADDR_A, rand=NONCE),
           pin=octets(1, 16), addr=ADDR, rand=KEY16),
    *table("combination_link_key", crypto.combination_link_key,
           dict(rand_a=KEY, addr_a=ADDR_A, rand_b=NONCE, addr_b=ADDR_B),
           rand_a=KEY16, addr_a=ADDR, rand_b=KEY16, addr_b=ADDR),
    *table("xor_bytes", crypto.xor_bytes, dict(a=KEY, b=NONCE), a=octets(), b=octets()),
    *table("mixhash128", crypto.mixhash128, dict(data=NONCE), data=octets()),
    *table("Stream", draw.Stream, dict(seed=1), seed=seed("seed")),
    *table("master_draw", draw.master_draw, dict(seed=1), seed=seed("seed")),
    *table("party_draws", draw.party_draws, dict(rng_seed=1), rng_seed=seed("rng_seed")),
    *table("DhParams", DhParams, dict(p=23, alpha=5),
           p=integer(), alpha=integer(2, 22, "alpha must be in [2, p-1], got {}")),
    *table("dh_keypair", crypto.dh_keypair, dict(params=P23, r=6), r=in_group("private exponent"),
           params=PARAMS_KIND),
    *table("dh_shared", crypto.dh_shared, dict(params=P23, peer_public=19, r=6),
           peer_public=PUBLIC, r=integer(0, message="exponent must be non-negative, got {}"),
           params=PARAMS_KIND),
    # the valid peer is 1, so True and 1.0 arrive while the memo holds its key
    *table("session_key", crypto.session_key,
           dict(params=P23, own=crypto.dh_keypair(P23, 6), peer_public=1), peer_public=PUBLIC,
           params=PARAMS_KIND, own=instance(crypto.DhKeyPair, also=((6, 8),))),
    *table("session_key_from_shared", crypto.session_key_from_shared, dict(k=2, params=P23),
           k=in_group("shared value", low=0, name="shared value"), params=PARAMS_KIND),
    *table("check_public", crypto.check_public, dict(params=P23, value=19), value=PUBLIC,
           params=PARAMS_KIND),
    *table("dlog_bruteforce", adversary.dlog_bruteforce, dict(params=P23, s_public=8),
           s_public=PUBLIC, params=PARAMS_KIND),
    *table("Message", Message,
           dict(kind=MsgKind.CHALLENGE, sender=ADDR_A, receiver=ADDR_B, payload=NONCE),
           kind=instance(MsgKind, name="message kind"), sender=octets(6, name="message sender"),
           receiver=octets(6, name="message receiver"),
           payload=octets(16, name="ChallengeMsg payload", also=(tuple(NONCE),))),
    *table("new_device", new_device, DEVICE, id=ADDR, link_key=KEY16, rng_seed=seed("rng_seed"),
           variant=instance(Variant, also=(IntruderMode.RELAY_ACTIVE,))),
    *table("new_device", new_device, dict(DEVICE, variant=Variant.DH_IMPROVED, dh_params=P23),
           dh_params=DH_PARAMS),
    *table("IntruderState", IntruderState, INTRUDER, id=ADDR, victim_a=ADDR, victim_b=ADDR,
           mode=instance(IntruderMode, also=(Variant.LEGACY,)),
           variant=instance(Variant, also=(IntruderMode.RELAY_ACTIVE,))),
    # refused whether or not the script draws: a relay draws nothing
    *(row for mode in IntruderMode for row in table("IntruderState", IntruderState,
      dict(INTRUDER, mode=mode), f"-{mode.value}", rng_seed=seed("rng_seed"))),
    *table("IntruderState", IntruderState, INTRUDER | ACTIVE_DH, dh_params=DH_PARAMS),
    *table("verdict", adversary.verdict, dict(
        outcomes=dict.fromkeys((ADDR_A, ADDR_B), TIMED_OUT), transcript=EMPTY, link_key=KEY,
        baselines={ADDR_A: 20, ADDR_B: 20}, threshold_factor=1.5,
    ), link_key=KEY16, baselines=instance(dict), threshold_factor=THRESHOLD, transcript=TRANSCRIPT,
           outcomes=OUTCOMES),
    *table("LinkConfig", LinkConfig, dict(latency_ms=10, timeout_ms=2000),
           latency_ms=integer(1, 1999, "latency must be positive", above=TIMING),
           timeout_ms=integer(11, message=TIMING)),
    *table("transcript_rtt", adversary.transcript_rtt, dict(transcript=EMPTY, device=ADDR_A),
           device=ADDR, transcript=TRANSCRIPT),
    *table("delay_detector", adversary.delay_detector,
           dict(transcript=EMPTY, baseline_rtt=20, threshold_factor=1.5, device=ADDR_A),
           baseline_rtt=integer(1, message="baseline rtt must be positive"),
           threshold_factor=THRESHOLD, device=ADDR, transcript=TRANSCRIPT),
    *(row for entry, call in (("validate", validate_fields), ("run_scenario", run_fields))
      for base, suffix, kinds in FIELDS
      for row in table(entry, call, config(base, kinds), suffix, **kinds)),
    *table("run_scenario", run_fields, config({}, ()) | dict(seed=0),
           seed=seed("seed", ConfigError)),
]

UNHASHABLE = "e1's memo hashes its arguments before e1 runs; e1.__wrapped__ names them"
NO_GROUP = "None passes the type, and {} needs a group"
NOT_PRIME = "no negative int is prime"
# (row id, cell id) -> (outcome, why the kind's rule does not give it)
OVERRIDES = {
    **{(f"e1-{param}", cell): ((TypeError, f"unhashable type: '{cell}'"), UNHASHABLE)
       for param in E1 for cell in ("list", "bytearray")},
    ("DhParams-p", "-1"): ((ValueError, "p must be prime, got -1"), NOT_PRIME),
    ("DhParams-p", "10**30"): (
        (ValueError, f"primality is decided only below {crypto._MR_EXACT_BELOW}, got {10**30}"),
        "is_prime decides only below psi_13, which bounds p",
    ),
    ("new_device-dh_params", "None"): ((ValueError, "dh-improved devices need group parameters"),
                                       NO_GROUP.format("a dh-improved device")),
    ("IntruderState-dh_params", "None"): (
        (ValueError, "an active intruder against the dh variant needs the group parameters"),
        NO_GROUP.format("an intruder that forges public values"),
    ),
    **{(f"{entry}-{row}", cell): outcome for entry in ("validate", "run_scenario")
       for (row, cell), outcome in {
        ("latency_ms", "10**30"): ((ConfigError, LINK + TIMING), "the 2000 ms timeout bounds it"),
        ("timeout_ms", "-1"): ((ConfigError, LINK + TIMING), "LinkConfig refuses it before a run"),
        ("intruder", "None"): (
            (ConfigError, "initiator C and the originate intruder mode require each other"),
            "None passes the type; initiator C needs the originate intruder",
        ),
        ("dh_p-dh-improved", "-1"): ((ConfigError, GROUP + "p must be prime, got -1"), NOT_PRIME),
        ("dh_p-dh-improved", "10**30"): ((ConfigError, f"dh-p must be below 2^48, got {10**30}"),
                                         "the CLI caps the modulus below 2^48"),
        ("dh_alpha-dh-improved", "2"): (
            (ConfigError, "dh-alpha 2 is not a primitive root of 2147483647"),
            "2 lies in [2, p-1] but generates only a subgroup mod 2^31-1",
        ),
    }.items()},
}


def cells(row: Row) -> dict:
    """A row's values by cell id: its kind's extra values, then hostile()."""
    extra = row.kind.extra
    if type(extra) is not dict:
        extra = {f"{len(v)} octets" if type(v) is bytes else repr(v): v for v in extra}
    return {**extra, **hostile(row.valid[row.param])}


@pytest.mark.parametrize("row, cell, value", [
    pytest.param(row, cell, value, id=f"{row.id}-{cell}")
    for row in ROWS for cell, value in cells(row).items()
])
def test_cell(row, cell, value):
    valid = row.valid[row.param]
    reference = row.call(**row.valid)
    override = OVERRIDES.get((row.id, cell))
    want = override[0] if override else row.kind.expect(row.kind.name or row.param, value)
    try:
        result = row.call(**{**row.valid, row.param: value})
    except Exception as err:  # noqa: BLE001 - each cell names the type it expects
        got = type(err), str(err)
    else:
        same = value != valid or result == reference
        got = ACCEPTED if same else "another result than the valid value's"
    assert got == want


# session_key reads one field of own, r_private, on either route to the
# shared value: the fixed-base table for a peer value that dh_keypair drew,
# modexp for any other; a row meets whole values only
@pytest.mark.parametrize("drawn", [True, False], ids=["drawn peer", "undrawn peer"])
@pytest.mark.parametrize("r", [2.0, "x"], ids=["float r_private", "str r_private"])
def test_session_key_own_field_cell(r, drawn):
    crypto.clear_memos()
    peer = crypto.dh_keypair(P23, 3).s_public if drawn else 1
    with pytest.raises(TypeError) as err:
        crypto.session_key(P23, crypto.DhKeyPair(r, 1), peer)
    assert str(err.value) == f"own.r_private must be an int, got {type(r).__name__}"


def test_every_override_is_a_cell():
    assert set(OVERRIDES) <= {(row.id, cell) for row in ROWS for cell in cells(row)}


LEFT_OUT = {
    "modexp", "is_prime", "prime_factors", "has_full_order", "draw_octets", "draw_exponent",
    "clear_memos", "encode_public",
    "decode_public", "control_message", "start", "handle", "outcome_of", "run", "intercept", "main",
    "check_type", "check_octets", "value_class", "DhKeyPair", "AuthOutcome", "DeviceState", "TranscriptEvent",
    "Transcript", "AttackVerdict", "ScenarioConfig", "ScenarioResult", "HEADLINE",
}


def test_every_public_name_is_a_row_or_left_out():
    entries = {row.id.split("-")[0] for row in ROWS}
    modules = (values, draw, crypto, protocol, simnet, adversary, cli)
    for module in modules:
        for name in module.__all__:
            value = getattr(module, name)
            if isinstance(value, type) and issubclass(value, (Enum, Exception)):
                continue
            assert (name in entries) != (name in LEFT_OUT), f"{module.__name__}.{name}"
    # and no entry outlives the name it leaves out
    assert LEFT_OUT <= {name for module in modules for name in module.__all__}
