"""Bit-exactness of the 128-bit mixing digest.

A second, independently written implementation lives in this file and is
compared against the package one across fixed vectors, random corpora, and
property-based inputs. The hex goldens were computed with the reference
implementation below and frozen; they pin the wire format forever.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import ADDR_A, ADDR_B, WIDE_P

from btauthsim import crypto
from btauthsim.crypto import combination_link_key, e1, is_prime, mixhash128

_M64 = 0xFFFFFFFFFFFFFFFF


def _ref_rotl(x: int, n: int) -> int:
    return ((x << n) | (x >> (64 - n))) & _M64


def ref_mixhash128(data: bytes) -> bytes:
    """Straight-line transcription of the digest contract, kept deliberately
    different in code shape from the package version (generic rotate,
    explicit padding loop, int.from_bytes block reads)."""
    s0 = 0x736F6D6570736575
    s1 = 0x646F72616E646F6D
    msg = bytearray(data)
    length = len(msg)
    msg.append(0x80)
    while len(msg) % 8 != 0:
        msg.append(0x00)
    msg += length.to_bytes(8, "little")
    blocks = [int.from_bytes(msg[i : i + 8], "little") for i in range(0, len(msg), 8)]
    blocks += [0, 0, 0, 0]
    for m in blocks:
        s0 = (_ref_rotl(s0 ^ m, 13) * 0x9E3779B97F4A7C15) & _M64
        s1 = ((s1 + s0) ^ _ref_rotl(s1, 32)) & _M64
    return s0.to_bytes(8, "little") + s1.to_bytes(8, "little")


class Octets(bytes):
    """A bytes subclass, which passes wherever bytes do."""


def ref_s0_lane(data: bytes) -> int:
    """The s0 lane of ref_mixhash128 run alone, over the same blocks."""
    s0 = 0x736F6D6570736575
    msg = bytes(data) + b"\x80" + bytes(-(len(data) + 1) % 8) + len(data).to_bytes(8, "little")
    for m in [int.from_bytes(msg[i : i + 8], "little") for i in range(0, len(msg), 8)] + [0] * 4:
        s0 = (_ref_rotl(s0 ^ m, 13) * 0x9E3779B97F4A7C15) & _M64
    return s0


GOLDEN = [
    (b"", "c2eedcaf110227c9a21062559a07be4c"),
    (b"\x00", "3e960977528b9d2e76a419e35b3eb184"),
    (b"\x01", "27439235283249b115926b22c4043c05"),
    (b"abc", "0c1cb53919ed7e633ebe94fc2b8fa0c6"),
    (bytes(range(8)), "cd31250546a23e761d11e1d3d87ddd7a"),
    (bytes(range(16)), "fb4b3ced02cd35395c347afe5b277c33"),
]


@pytest.mark.parametrize("data,digest_hex", GOLDEN, ids=[f"len{len(d)}" for d, _ in GOLDEN])
def test_frozen_goldens(data, digest_hex):
    assert mixhash128(data).hex() == digest_hex
    assert ref_mixhash128(data).hex() == digest_hex


def test_output_width():
    for n in range(0, 64):
        assert len(mixhash128(b"x" * n)) == 16


def test_matches_reference_across_lengths():
    rng = random.Random(0xBEEF)
    for n in range(0, 200):
        data = rng.randbytes(n)
        assert mixhash128(data) == ref_mixhash128(data), f"mismatch at length {n}"


def test_every_length_and_buffer_type_matches_reference():
    # lengths 0 to 72, each padding remainder at least nine times, as bytes
    # and as a bytes subclass
    rng = random.Random(0x48)
    for n in range(0, 73):
        data = rng.randbytes(n)
        expected = ref_mixhash128(data)
        assert mixhash128(data) == expected, n
        assert mixhash128(Octets(data)) == expected, n


@pytest.mark.parametrize("data", [
    3, [0, 1, 2], "abc", None, True,
    pytest.param(bytearray(b"abc"), id="bytearray"),
    pytest.param(memoryview(b"abc"), id="memoryview"),
], ids=repr)
def test_refuses_what_is_not_a_buffer(data):
    # bytes(3) is three zero octets, and bytes([0, 1, 2]) those octets; a
    # buffer other than bytes is refused too, as every octet string is
    message = f"^data must be bytes, got {type(data).__name__}$"
    with pytest.raises(TypeError, match=message):
        mixhash128(data)


def test_length_padding_distinguishes_trailing_zeros():
    # the final length block must separate inputs that differ only by
    # zero-padding
    for n in range(0, 40):
        data = b"\x00" * n
        assert mixhash128(data) != mixhash128(data + b"\x00")


def test_no_collisions_in_large_corpus():
    rng = random.Random(0xD1CE)
    seen = set()
    for i in range(10_000):
        data = i.to_bytes(4, "big") + rng.randbytes(rng.randrange(0, 48))
        seen.add(mixhash128(data))
    assert len(seen) == 10_000


@given(st.binary(max_size=256))
@settings(max_examples=300)
def test_reference_agreement(data):
    expected = ref_mixhash128(data)
    assert mixhash128(data) == expected
    assert mixhash128(Octets(data)) == expected


@given(st.binary(max_size=128))
def test_deterministic(data):
    assert mixhash128(data) == mixhash128(data)


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_distinct_inputs_distinct_digests(a, b):
    if a != b:
        assert mixhash128(a) != mixhash128(b)


def test_s0_lane_never_reads_s1():
    # the first 8 digest octets are the s0 lane run alone, at every length
    # up to and past e1's 39-octet message
    rng = random.Random(0x50)
    for n in range(0, 80):
        data = rng.randbytes(n)
        assert ref_mixhash128(data)[:8] == ref_s0_lane(data).to_bytes(8, "little"), n


@given(
    st.binary(min_size=16, max_size=16),
    st.binary(min_size=16, max_size=16),
    st.binary(min_size=6, max_size=6),
)
@settings(max_examples=300)
def test_e1_is_the_digest_split(key, challenge, addr):
    # the response is the first 4 digest octets
    digest = ref_mixhash128(b"\x01" + key + challenge + addr)
    args = (key, challenge, addr)
    assert e1(*args) == digest[:4]
    assert e1.__wrapped__(*args) == digest[:4]


RAND = st.binary(min_size=16, max_size=16)
ADDR = st.binary(min_size=6, max_size=6)
ONES, ZEROS = b"\xff" * 16, bytes(16)


# all-0x00 and all-0xFF contributions carry out of every lane, into the gap
# between the two halves of the packed state; equal ones give the zero key
@given(RAND, ADDR, RAND, ADDR)
@example(ZEROS, ADDR_A, ZEROS, ADDR_B)
@example(ONES, ADDR_A, ONES, ADDR_B)
@example(ONES, b"\xff" * 6, ZEROS, bytes(6))
@example(ONES, ADDR_A, ONES, ADDR_A)
@settings(max_examples=300)
def test_link_key_is_the_xor_of_two_reference_digests(rand_a, addr_a, rand_b, addr_b):
    half_a = ref_mixhash128(b"\x03" + rand_a + addr_a)
    half_b = ref_mixhash128(b"\x03" + rand_b + addr_b)
    expected = bytes(x ^ y for x, y in zip(half_a, half_b))
    assert combination_link_key(rand_a, addr_a, rand_b, addr_b) == expected
    if (rand_a, addr_a) == (rand_b, addr_b):
        assert expected == bytes(16)


def prime_at_or_below(n: int) -> int:
    """The largest prime at most n, for n >= 2."""
    while not is_prime(n):
        n -= 1
    return n


# every prime that is_prime decides, so every modulus a DhParams takes:
# below psi_13, itself below 2^82; and a shared value in [0, p-1]
PRIME_AND_SHARED = (
    st.integers(min_value=2, max_value=crypto._MR_EXACT_BELOW - 1)
    .map(prime_at_or_below)
    .flatmap(lambda p: st.tuples(st.just(p), st.integers(min_value=0, max_value=p - 1)))
)


@given(PRIME_AND_SHARED)
@example((2**31 - 1, 0))
@example((2**31 - 1, 1))
@example((2**31 - 1, 2**31 - 2))
@example((WIDE_P, 0))
@example((WIDE_P, 1))
@example((WIDE_P, WIDE_P - 1))
def test_session_digest_is_the_reference_digest(prime_and_shared):
    p, k = prime_and_shared
    expected = ref_mixhash128(b"\x05" + k.to_bytes(16, "big") + p.to_bytes(16, "big"))
    assert crypto._session_key_of.__wrapped__(k, p) == expected
