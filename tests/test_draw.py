"""The seeded random stream, the run's master draw, a party's draws and
the frozen draws."""

import _random
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from support import ADDR_A, ADDR_B, ADDR_C, KEY, PARAMS, WIDE_P, recorded

from btauthsim import adversary, draw
from btauthsim.adversary import NONCE, PUBLIC, IntruderMode, IntruderState
from btauthsim.crypto import DhParams, dh_keypair
from btauthsim.draw import Stream, draw_exponent, draw_octets, master_draw, party_draws
from btauthsim.protocol import Variant, encode_public, new_device

VECTORS = Path(__file__).parent / "vectors" / "draws.txt"
# the generator of each group of the frozen device draws
GENERATORS = {PARAMS.p: PARAMS.alpha, WIDE_P: 2}


def frozen(kind: str) -> list[list[str]]:
    """The fields after the kind of each line of kind in VECTORS."""
    rows = [line.split() for line in VECTORS.read_text().splitlines() if not line.startswith("#")]
    return [fields[1:] for fields in rows if fields and fields[0] == kind]


def optional(field: str, read):
    """read(field), or None for a field written as -."""
    return None if field == "-" else read(field)


def laid_out(octets: bytes) -> tuple:
    """72 octets read as the master draw's layout: three little-endian
    8-octet seeds, IN_RAND skipped, then LK_RAND_A and LK_RAND_B."""
    seeds = tuple(int.from_bytes(octets[i : i + 8], "little") for i in (0, 8, 16))
    return (*seeds, octets[40:56], octets[56:72])


# one draw the package makes on a stream, named for the random.Random
# method that draws the same value: (name, its width or modulus)
stream_draws = st.one_of(
    st.tuples(st.just("getrandbits"), st.integers(1, 300)),
    st.tuples(st.just("randbytes"), st.just(16)),
    st.tuples(st.just("randrange"), st.integers(3, 2**64) | st.integers(3, 2**160)),
)


def package_draw(stream, name, arg):
    """The value the package draws from stream for that random.Random draw."""
    if name == "getrandbits":
        return stream.getrandbits(arg)
    if name == "randbytes":
        return draw_octets(stream)
    return draw_exponent(stream, arg)


def oracle_draw(oracle, name, arg):
    return oracle.randrange(1, arg) if name == "randrange" else getattr(oracle, name)(arg)


def generator_state(oracle):
    # random.Random's state is (version, the generator's state, gauss_next)
    return _random.Random.getstate(oracle)


class TestStream:
    """Stream(seed) is _random.Random(seed), the generator of
    random.Random(seed), built once without random.Random.seed, and every
    value the package draws from it equals the matching random.Random draw."""

    # rejection is likeliest where p - 1 is a power of two: getrandbits
    # then draws one bit more than p - 2 needs, and refuses half its values
    @given(st.integers(0, 2**64) | st.integers(0, 2**4096), st.lists(stream_draws, max_size=12))
    @example(0, [("randrange", 3)] * 4)
    @example(1, [("randrange", 5)] * 4)
    @example(2, [("randrange", 17)] * 4)
    @example(3, [("randrange", 257)] * 4)
    @example(2**64, [("randrange", 65537)] * 4)
    def test_draws_as_random_random(self, seed, draws):
        stream, oracle = Stream(seed), random.Random(seed)
        assert type(stream) is _random.Random
        assert stream.getstate() == generator_state(oracle)
        for name, arg in draws:
            assert package_draw(stream, name, arg) == oracle_draw(oracle, name, arg)
            assert stream.getstate() == generator_state(oracle)

    def test_examples_reach_the_rejection(self):
        # a stream has no instance dict to patch, so a subclass counts
        class Counted(_random.Random):
            def getrandbits(self, k):
                self.calls += 1
                return super().getrandbits(k)

        # each example above redraws at least once
        for seed, p in [(0, 3), (1, 5), (2, 17), (3, 257), (2**64, 65537)]:
            stream = Counted(seed)
            stream.calls = 0
            for _ in range(4):
                draw_exponent(stream, p)
            assert stream.calls > 4, p

    def test_seeds_from_the_int_with_no_instance_dict(self, monkeypatch):
        # one construction, which seeds once on every version: in __new__
        # before 3.11, in __init__ from 3.11 on
        monkeypatch.setattr(draw, "_random", SimpleNamespace(Random=_random.Random))
        with recorded(draw._random, "Random") as built:
            stream = Stream(seed=5)
        assert built == [(5,)]
        assert type(stream) is _random.Random
        assert stream.getstate() == generator_state(random.Random(5))
        assert not hasattr(stream, "__dict__")


class TestMasterDraw:
    """master_draw is one draw of 72 octets, laid out as the three party
    seeds, IN_RAND and the two link-key contributions, and equal octet for
    octet to the six separate draws that a run made before it."""

    @given(st.integers(0, 2**64) | st.integers(0, 2**4096))
    @example(0)
    def test_is_randbytes_72_laid_out(self, seed):
        assert master_draw(seed) == laid_out(random.Random(seed).randbytes(72))

    @given(st.integers(0, 2**64))
    @example(0)
    def test_is_the_six_separate_draws(self, seed):
        oracle = random.Random(seed)
        seeds = tuple(oracle.getrandbits(64) for _ in range(3))
        oracle.randbytes(16)  # IN_RAND
        assert master_draw(seed) == (*seeds, oracle.randbytes(16), oracle.randbytes(16))

    def test_seeds_one_stream_and_draws_once(self):
        with recorded(draw, "Stream") as seeded:
            master_draw(7)
        assert seeded == [(7,)]


class TestPartyDraws:
    """party_draws(seed, p, octets) draws from Stream(seed) the exponent
    of p, then 16 octets, as random.Random(seed) draws randrange(1, p) and
    randbytes(16), and seeds no stream when it draws nothing."""

    @given(
        st.integers(0, 2**64),
        st.none() | st.sampled_from([3, 5, 23, PARAMS.p, WIDE_P]),
        st.booleans(),
    )
    def test_draws_as_random_random(self, seed, p, octets):
        oracle = random.Random(seed)
        exponent = None if p is None else oracle.randrange(1, p)
        nonce = oracle.randbytes(16) if octets else None
        assert party_draws(seed, p, octets) == (exponent, nonce)

    def test_seeds_one_stream_only_when_it_draws(self):
        with recorded(draw, "Stream") as seeded:
            assert party_draws(5, None, False) == (None, None)
        assert seeded == []
        with recorded(draw, "Stream") as seeded:
            party_draws(5, PARAMS.p, False)
            party_draws(6)
        assert seeded == [(5,), (6,)]


class TestFrozenDraws:
    """The package's draws against the hex of tests/vectors/draws.txt.

    TestStream compares each draw with random.Random on the same
    interpreter, so a change to CPython's Mersenne Twister seeding or to
    getrandbits passes it and shows only as a changed gate digest. These
    draws are frozen, so such a change fails here, and the message says
    whether random.Random moved with it."""

    @staticmethod
    def cause(now: bytes, frozen_octets: bytes) -> str:
        if now == frozen_octets:
            return "random.Random still draws the frozen octets: the package's draw changed"
        return "random.Random draws other octets too: the interpreter's generator changed"

    @pytest.mark.parametrize(
        "seed,octets", [(int(s), bytes.fromhex(h)) for s, h in frozen("master")],
        ids=[f"seed={s}" for s, _ in frozen("master")],
    )
    def test_master_draw(self, seed, octets):
        now = random.Random(seed).randbytes(72)
        assert master_draw(seed) == laid_out(octets), self.cause(now, octets)
        assert Stream(seed).getrandbits(576).to_bytes(72, "little") == octets

    @pytest.mark.parametrize(
        "seed,p,exponent,challenge",
        [(int(s), int(p), int(e, 16), bytes.fromhex(c)) for s, p, e, c in frozen("device")],
        ids=[f"seed={s}-p={p}" for s, p, _, _ in frozen("device")],
    )
    def test_device_draws(self, seed, p, exponent, challenge):
        oracle = random.Random(seed)
        now = oracle.randrange(1, p).to_bytes(8, "little") + oracle.randbytes(16)
        cause = self.cause(now, exponent.to_bytes(8, "little") + challenge)
        stream = Stream(seed)
        assert (draw_exponent(stream, p), draw_octets(stream)) == (exponent, challenge), cause
        assert party_draws(seed, p) == (exponent, challenge), cause
        # and a dh-improved device draws them in that order when it is built
        device = new_device(ADDR_A, Variant.DH_IMPROVED, KEY, seed, DhParams(p, GENERATORS[p]))
        assert (device.dh.r_private, device.challenge) == (exponent, challenge)

    @pytest.mark.parametrize(
        "seed,p,exponent,nonce",
        [(int(s), optional(p, int), optional(e, lambda e: int(e, 16)), optional(n, bytes.fromhex))
         for s, p, e, n in frozen("intruder")],
        ids=[f"p={p}-nonce={'-' if n == '-' else 'drawn'}" for _, p, _, n in frozen("intruder")],
    )
    def test_intruder_draws(self, seed, p, exponent, nonce):
        oracle = random.Random(seed)
        now = (b"" if p is None else oracle.randrange(1, p).to_bytes(8, "little")) + (
            b"" if nonce is None else oracle.randbytes(16)
        )
        drawn = (b"" if p is None else exponent.to_bytes(8, "little")) + (nonce or b"")
        cause = self.cause(now, drawn)
        assert party_draws(seed, p, nonce is not None) == (exponent, nonce), cause
        # and the intruder whose script sends those values draws them when
        # it is built: originate sends a nonce, and against dh-improved a
        # public value too; relay-active against dh-improved, a public value
        mode = IntruderMode.RELAY_ACTIVE if nonce is None else IntruderMode.ORIGINATE_TO_A
        params = None if p is None else DhParams(p, GENERATORS[p])
        values = {adversary.A: ADDR_A, adversary.B: ADDR_B}
        if p is not None:
            values[PUBLIC] = encode_public(dh_keypair(params, exponent).s_public)
        if nonce is not None:
            values[NONCE] = nonce
        variants = [Variant.DH_IMPROVED] if p is not None else [Variant.LEGACY, Variant.IMPROVED]
        for variant in variants:
            intruder = IntruderState(ADDR_C, mode, variant, ADDR_A, ADDR_B, seed, params)
            assert intruder.values == values, variant

    def test_the_file_holds_every_case(self):
        assert [int(seed) for seed, _ in frozen("master")] == [0, 1, 10**6, 2**64 - 1]
        devices = [(int(seed), int(p)) for seed, p, _, _ in frozen("device")]
        seed_a, seed_b, seed_c = master_draw(0)[:3]
        assert devices == [(seed, p) for seed in (seed_a, seed_b) for p in (PARAMS.p, WIDE_P)]
        intruders = [(int(seed), p, nonce != "-") for seed, p, _, nonce in frozen("intruder")]
        assert intruders == [
            (seed_c, "-", True),
            (seed_c, str(PARAMS.p), True),
            (seed_c, str(WIDE_P), True),
            (seed_c, str(PARAMS.p), False),
        ]
