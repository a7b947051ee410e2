"""The seeded random stream, and the layout of every value a run draws.

Stream(seed) checks its seed and returns _random.Random(seed), the C
Mersenne Twister under random.Random, seeded once. Every value a run draws
is one getrandbits call on a stream, and equals the matching
random.Random(seed) draw: master_draw draws the run's 72 octets as
randbytes(72) does, draw_octets a 16-octet value as randbytes(16) does,
and draw_exponent a private exponent as randrange(1, p) does. No module of
the package imports random, and no other module imports _random or calls
getrandbits.

The run's seed draws its 72 octets in one call, laid out as

    octets  0-23  the stream seeds of A, B and the intruder, 8
                  little-endian octets each
    octets 24-39  IN_RAND, the random number of a PIN's bootstrap key,
                  which pairing without a PIN discards
    octets 40-55  LK_RAND_A, A's link-key contribution
    octets 56-71  LK_RAND_B, B's

which is octet for octet what three 64-bit seeds and three draw_octets
calls draw in turn. Each party then draws from the stream of its own
seed, when it is built, every random value it may send: its private
exponent first (draw_exponent; a dh-improved device, and the intruder
when its script sends its public value), then its 16-octet challenge
(draw_octets; every device, and the intruder when its script sends one).
"""

import _random
import struct

from .values import check_type

__all__ = ["Stream", "master_draw", "draw_octets", "draw_exponent"]

# the master draw's layout: the three seeds, IN_RAND skipped, LK_RAND_A and LK_RAND_B
_MASTER = struct.Struct("<3Q16x16s16s")


def Stream(seed: int) -> _random.Random:
    """The Mersenne Twister stream of a non-negative int seed: a
    _random.Random, seeded once by the C routine that random.Random.seed
    hands an int to, so it has the same state, and draws the same
    getrandbits, as random.Random(seed).

    It refuses what random.Random would take as another seed: a seed that
    is not exactly an int raises TypeError, and a negative one ValueError,
    since the routine would hash any other object and seed from the
    absolute value of a negative int. getstate returns the generator's
    state alone, without random.Random's version and gauss_next.
    """
    # a valid seed costs no call, as in crypto.e1
    if type(seed) is not int:
        check_type("seed", seed, int)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return _random.Random(seed)


def master_draw(seed: int) -> tuple[int, int, int, bytes, bytes]:
    """The stream seeds of A, B and the intruder, then LK_RAND_A and
    LK_RAND_B: the run's 72 octets, getrandbits(576) of Stream(seed) as
    little-endian octets, read by the layout above. Raises as Stream does
    on a seed it refuses."""
    return _MASTER.unpack(Stream(seed).getrandbits(576).to_bytes(72, "little"))


def draw_octets(stream: _random.Random) -> bytes:
    """A 16-octet value drawn from stream as random.Random.randbytes(16)
    draws it: getrandbits(128) as 16 little-endian octets."""
    return stream.getrandbits(128).to_bytes(16, "little")


def draw_exponent(stream: _random.Random, p: int) -> int:
    """A private exponent in [1, p-1], drawn from stream as
    random.Random.randrange(1, p) draws it: 1 + r, where r is
    getrandbits((p-1).bit_length()), drawn again until it is below p-1.
    p is a group's modulus, at least 3 (crypto.DhParams checks it)."""
    below = p - 1
    width = below.bit_length()
    r = stream.getrandbits(width)
    while r >= below:
        r = stream.getrandbits(width)
    return 1 + r
