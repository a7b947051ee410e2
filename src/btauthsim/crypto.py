"""Key material, the keyed mixing function behind E1 and E2, and Diffie-Hellman arithmetic.

Apart from the seeded random stream each party of a run draws from, all
operations are pure functions and safe to call from any thread.
Stream(seed) checks its seed and returns _random.Random(seed), the C
Mersenne Twister under random.Random, seeded once, and every value a run
draws is one getrandbits call on it: a 64-bit seed is getrandbits(64),
and draw_octets and draw_exponent draw a 16-octet value and a private
exponent. Each equals the matching random.Random(seed) draw, and no module
of the package imports random.
Octet widths follow the Bluetooth wire formats: 48-bit addresses, PINs of 1 to 16
octets, 128-bit challenges and keys, and 32-bit signed responses. Every
octet string a function takes or returns, addresses, PINs and mixhash128's
data included, is plain bytes; each function checks the type and width of
the octets it takes, and check_octets holds that check and its messages,
as check_type does for a value that must be exactly of one type (an int, an
enum, a value class, a record) and check_public for a peer's public value.
value_class, beside them, makes each value class of the package, the
values that check their arguments or change in place:
dataclass writes only its fields, their class defaults and
__match_args__; each class writes its own __init__ and docstring in its
body; and every other method (__repr__, __eq__, __hash__, and a frozen
class's __setattr__ and __delattr__) is a closure over the field names,
whose code compiles once, with this module. So no source is generated and
exec'd for any value class at import. Each __init__ checks its arguments, if
it checks any, before it stores them; a frozen class stores every field
in one self.__dict__.update. The records, the frozen values that check
nothing (DhKeyPair here), are instead subclasses of a
collections.namedtuple class, which builds, shows, compares and hashes
them. IdentityEnum, beside value_class, is the base of every enum of the
package, and gives each member the identity hash.
The functions every run calls (e1 and combination_link_key; no run calls
init_key, see cli._derive_link_key) first test each octet string inline,
exact bytes of the width, so a well-formed value costs no call; only a
value that fails that test, a bytes subclass included, reaches
check_octets, which accepts or refuses it. session_key tests a peer's
public value inline in the same way, and check_public words its refusal.

e1 derives the 32-bit response from the one lane of the digest that the
response reads, combination_link_key runs the digests of its two
contributions in one two-lane pass over packed ints, and the session key
runs both lanes of its one 33-octet digest, each written out block by
block with no loop. mixhash128, the one-message digest, is the reference
for all three, and derives only init_key's bootstrap key, which no run
computes: no run reaches mixhash128. e1 keeps a small memo of its
recent results, because one run computes the same (key, challenge,
claimant) triple more than once: the answering device, the verifying
device and the verdict each derive it.
session_key memoises the key by the shared value and the modulus: the two
devices of a dh-improved run that see each other's public value reach the
same shared value, and the second pays no digest. dh_keypair records the
exponent of each public value it computes, by group and public value, so
session_key raises a peer value the run drew through the group's
fixed-base table, with no modular exponentiation; any other peer value (a
forged 1 or p-1, or one built by hand) goes through modexp. Both memos
cache pure functions and the record only picks the route to the shared
value, so none changes a result; e1's memo is keyed by each argument's
type too, so a view equal to memoised bytes misses and meets e1's check.
clear_memos empties all three, and cli.run_scenario calls it before every
run, so each run's count of digests and exponentiations depends only on
its scenario and seed.

Besides those memos, which functools.lru_cache or a lock guards, the one
cached structure is the table of powers of its generator that each
DhParams builds on first use and never mutates once built; two threads
that race to build it build equal tables.
"""

from collections import namedtuple
from dataclasses import FrozenInstanceError, dataclass, fields
from enum import Enum
import functools
import _random
import struct
import sys
import threading

__all__ = [
    "check_octets",
    "check_type",
    "check_public",
    "IdentityEnum",
    "Stream",
    "draw_octets",
    "draw_exponent",
    "DhParams",
    "DhKeyPair",
    "mixhash128",
    "e1",
    "init_key",
    "combination_link_key",
    "modexp",
    "is_prime",
    "prime_factors",
    "has_full_order",
    "dh_keypair",
    "dh_shared",
    "session_key_from_shared",
    "session_key",
    "clear_memos",
    "xor_bytes",
]


def check_octets(name: str, value: bytes, width: int, max_width: int | None = None) -> None:
    """Raise TypeError unless value is bytes, and ValueError naming it
    unless it holds exactly width octets, or width to max_width when
    max_width is given."""
    # each message formats the name itself: a value that passes formats nothing
    if not isinstance(value, bytes):
        raise TypeError(f"{name} must be bytes, got {type(value).__name__}")
    if max_width is None:
        if len(value) != width:
            raise ValueError(f"{name} must be exactly {width} octets, got {len(value)}")
    elif not width <= len(value) <= max_width:
        raise ValueError(f"{name} must be {width} to {max_width} octets, got {len(value)}")


def check_type(name: str, value, kind: type, none: bool = False) -> None:
    """Raise TypeError naming value unless its type is exactly kind, or it
    is None where none is set: a bool or a float equals, hashes like and
    passes range checks as the int it is."""
    if type(value) is not kind and not (none and value is None):
        raise TypeError(
            f"{name} must be {'an' if kind.__name__[0] in 'aeiouAEIOU' else 'a'} {kind.__name__}"
            f"{' or None' if none else ''}, got {type(value).__name__}"
        )


def value_class(cls: type | None = None, /, *, frozen: bool = False):
    """cls as a dataclass, frozen if frozen is set, with the __init__ that
    its own body writes; used bare or called, as dataclass is.

    dataclass builds only the fields, their class defaults and
    __match_args__, and writes no method. Each other method is a closure
    over the field names, one code object each for every class: __repr__
    shows the fields whose repr flag is set, __eq__ compares the fields
    whose compare flag is set, in order, with those of another instance of
    the same class (NotImplemented otherwise), and __hash__ hashes the
    tuple of the fields that dataclass would hash. A mutable class is
    unhashable. A frozen class shares a __setattr__ and __delattr__ that
    raise FrozenInstanceError as dataclass's do, so its __init__ stores
    its fields through self.__dict__; dataclass is not told it is frozen,
    so its __dataclass_params__.frozen reads False. A class that defines
    one of these methods itself, or that defines no __init__ of its own,
    is a TypeError. The repr has no guard against a value that contains
    itself, which no field of the package holds.
    """
    if cls is None:
        return functools.partial(value_class, frozen=frozen)
    cls = dataclass(cls, init=False, repr=False, eq=False)
    own = fields(cls)
    names = tuple(f.name for f in own)
    shown = [f.name for f in own if f.repr]
    compared = [f.name for f in own if f.compare]
    hashed = [f.name for f in own if (f.compare if f.hash is None else f.hash)]

    def __repr__(self):
        shows = ", ".join([f"{name}={getattr(self, name)!r}" for name in shown])
        return f"{self.__class__.__qualname__}({shows})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            mine = [getattr(self, name) for name in compared]
            return mine == [getattr(other, name) for name in compared]
        return NotImplemented

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in hashed))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = [__repr__, __eq__]
    if not frozen:
        cls.__hash__ = None
    else:
        methods += [__hash__, __setattr__, __delattr__]
    for method in methods:
        if method.__name__ in cls.__dict__:
            raise TypeError(f"value class {cls.__name__} defines its own {method.__name__}")
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    if "__init__" not in cls.__dict__:
        raise TypeError(f"value class {cls.__name__} defines no __init__ of its own")
    return cls


class IdentityEnum(Enum):
    """The base of every enum of the package, with no members of its own.

    Members are singletons compared by identity, so the identity hash
    agrees with equality and, unlike Enum's hash of the member's name,
    costs no Python-level call: a member is a cheap key of a dict or of
    a functools.lru_cache.
    """

    __hash__ = object.__hash__


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
    # a valid seed costs no call, as in e1
    if type(seed) is not int:
        check_type("seed", seed, int)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return _random.Random(seed)


_MASK64 = 0xFFFFFFFFFFFFFFFF
_MULT = 0x9E3779B97F4A7C15
_S0_INIT = 0x736F6D6570736575
_S1_INIT = 0x646F72616E646F6D
_DIGEST = struct.Struct("<QQ")


def mixhash128(data: bytes) -> bytes:
    """Deterministic 128-bit keyed-mixing digest of an octet sequence.

    Wire-format contract (bit-exact, so independent implementations produce
    identical transcripts): the input is padded with a single 0x80 octet,
    then 0x00 octets up to a multiple of 8, then one final 8-octet block
    holding the original length in octets, little-endian. Each 8-octet block
    m (read as a little-endian u64) updates the two 64-bit lanes with
    wrapping arithmetic:

        s0 = rotl64(s0 ^ m, 13) * 0x9E3779B97F4A7C15
        s1 = (s1 + s0) ^ rotl64(s1, 32)

    followed by four trailing block steps with m = 0. The digest is the
    little-endian octets of s0 then s1. data must be bytes, of any length
    (TypeError naming it otherwise).

    The s0 update reads only s0 and the block, never s1, so the first 8
    octets of the digest are the s0 lane alone; e1 runs that lane by itself.
    """
    # pre-tested as in e1; any length is in check_octets' range
    if type(data) is not bytes:
        check_octets("data", data, 0, sys.maxsize)
    n = len(data)
    # the padded message, then the four zero blocks
    padded = data + b"\x80" + bytes(-(n + 1) % 8) + n.to_bytes(8, "little") + bytes(32)
    s0 = _S0_INIT
    s1 = _S1_INIT
    for (m,) in struct.iter_unpack("<Q", padded):
        x = s0 ^ m
        # rotl64(x, 13) is x << 13 | x >> 51 taken mod 2^64; the bits that
        # x << 13 sets above bit 63 only add multiples of 2^64 to the
        # product, so one mask after the multiply does for both
        s0 = (x << 13 | x >> 51) * _MULT & _MASK64
        # masking the XOR masks both of its operands
        s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _MASK64
    return _DIGEST.pack(s0, s1)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """The octet-wise XOR of a and b: bytes (TypeError naming an operand
    that is not) of one length (ValueError otherwise)."""
    # pre-tested as in e1; any length is in check_octets' range
    if type(a) is not bytes:
        check_octets("a", a, 0, sys.maxsize)
    if type(b) is not bytes:
        check_octets("b", b, 0, sys.maxsize)
    if len(a) != len(b):
        raise ValueError("xor_bytes operands must have equal length")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


# Domain-separation tags keep the authentication, bootstrap-key, link-key
# and session-key uses of the one mixing function disjoint.
_TAG_AUTH = b"\x01"
_TAG_INIT_KEY = b"\x02"
_TAG_LINK_KEY = b"\x03"
_TAG_SESSION = b"\x05"
# what follows the 33-octet session-key message in its five data blocks
_SESSION_PAD = b"\x80" + bytes(6)


# the e1 message is the tag, key, challenge and claimant address, 39
# octets, and the session-key message the tag, shared value and modulus,
# 33 octets: either, with the 0x80 octet and its zero octets, is five data
# blocks
_FIVE_BLOCKS = struct.Struct("<5Q")
_SRES = struct.Struct("<I")


# the scripted scenarios derive at most 4 distinct triples in a run
# (dh-improved relay-passive), and clear_memos empties the memo before
# each run, so within a run it evicts nothing; typed, so that a view equal
# to memoised bytes misses and meets the check
@functools.lru_cache(maxsize=32, typed=True)
def e1(key: bytes, challenge: bytes, claimant: bytes) -> bytes:
    """Authentication function: the 4-octet response (SRES) to a 16-octet
    challenge under a 16-octet key, claimed by a 6-octet address.

    The response is the first 4 octets of the mixhash128 digest of the tag,
    key, challenge and claimant address, that is the low 32 bits of its
    final s0 lane, so e1 runs that lane alone. Results are memoised, least
    recently used first out, for the triples of the current run, and the
    octets are checked on a miss; clear_memos empties the memo before
    each run, and e1.__wrapped__ is the unmemoised function.
    """
    # a well-formed argument costs no call: only one that fails the inline
    # pre-test reaches check_octets, which decides and words the error
    if type(key) is not bytes or len(key) != 16:
        check_octets("key", key, 16)
    if type(challenge) is not bytes or len(challenge) != 16:
        check_octets("challenge", challenge, 16)
    if type(claimant) is not bytes or len(claimant) != 6:
        check_octets("claimant", claimant, 6)
    m0, m1, m2, m3, m4 = _FIVE_BLOCKS.unpack(b"".join((_TAG_AUTH, key, challenge, claimant, b"\x80")))
    # mixhash128's s0 step, written out for each block: the five data
    # blocks, the length block (39) and the four zero blocks
    x = _S0_INIT ^ m0
    s0 = (x << 13 | x >> 51) * _MULT & _MASK64
    x = s0 ^ m1
    s0 = (x << 13 | x >> 51) * _MULT & _MASK64
    x = s0 ^ m2
    s0 = (x << 13 | x >> 51) * _MULT & _MASK64
    x = s0 ^ m3
    s0 = (x << 13 | x >> 51) * _MULT & _MASK64
    x = s0 ^ m4
    s0 = (x << 13 | x >> 51) * _MULT & _MASK64
    x = s0 ^ 39
    s0 = (x << 13 | x >> 51) * _MULT & _MASK64
    s0 = (s0 << 13 | s0 >> 51) * _MULT & _MASK64
    s0 = (s0 << 13 | s0 >> 51) * _MULT & _MASK64
    s0 = (s0 << 13 | s0 >> 51) * _MULT & _MASK64
    s0 = (s0 << 13 | s0 >> 51) * _MULT & _MASK64
    return _SRES.pack(s0 & 0xFFFFFFFF)


def init_key(pin: bytes, addr: bytes, rand: bytes) -> bytes:
    """16-octet bootstrap key from a PIN of 1 to 16 octets, its length, a
    6-octet hardware address, and a 16-octet random number."""
    check_octets("pin", pin, 1, 16)
    check_octets("addr", addr, 6)
    check_octets("rand", rand, 16)
    return mixhash128(_TAG_INIT_KEY + pin + bytes([len(pin)]) + addr + rand)


# combination_link_key runs the digests of both contributions at once: each
# state int holds half A's 64-bit lane in its low bits and half B's 192 bits
# higher. A lane's largest intermediate value, the rotated lane times _MULT,
# is below 2^141 < 2^192, so nothing one half computes reaches the other;
# _LINK_LOW13 keeps x >> 51 from bringing half B's low bits into the gap
# before the multiply, and _LINK_MASK keeps 64 bits of each lane. A message
# of tag, random and address is 23 octets: three data blocks, the 0x80 octet
# last, then the length block and the four zero blocks of mixhash128.
_LINK_MASK = _MASK64 | _MASK64 << 192
_LINK_LOW13 = 0x1FFF | 0x1FFF << 192
_LINK_S0 = _S0_INIT | _S0_INIT << 192
_LINK_S1 = _S1_INIT | _S1_INIT << 192
_LINK_LENGTH = 23 | 23 << 192
_LINK_HALVES = struct.Struct("<6Q")


def combination_link_key(rand_a: bytes, addr_a: bytes, rand_b: bytes, addr_b: bytes) -> bytes:
    """16-octet XOR combination of the two sides' (16-octet random, address)
    contributions: the XOR of mixhash128(tag + rand_a + addr_a) and
    mixhash128(tag + rand_b + addr_b).

    Symmetric in the two contribution pairs; equal contributions cancel to
    the all-zero key. Both digests run in one two-lane pass (see the
    _LINK_* constants), with mixhash128 as its reference.
    """
    # pre-tested as in e1
    if type(rand_a) is not bytes or len(rand_a) != 16:
        check_octets("rand_a", rand_a, 16)
    if type(addr_a) is not bytes or len(addr_a) != 6:
        check_octets("addr_a", addr_a, 6)
    if type(rand_b) is not bytes or len(rand_b) != 16:
        check_octets("rand_b", rand_b, 16)
    if type(addr_b) is not bytes or len(addr_b) != 6:
        check_octets("addr_b", addr_b, 6)
    a0, a1, a2, b0, b1, b2 = _LINK_HALVES.unpack(
        b"".join((_TAG_LINK_KEY, rand_a, addr_a, b"\x80", _TAG_LINK_KEY, rand_b, addr_b, b"\x80"))
    )
    # mixhash128's step, written out for each block: the three data blocks,
    # the length block and the four zero blocks; x >> 51 is cut to the 13
    # bits that the rotation brings down within each lane
    s1 = _LINK_S1
    x = _LINK_S0 ^ (a0 | b0 << 192)
    s0 = (x << 13 | x >> 51 & _LINK_LOW13) * _MULT & _LINK_MASK
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _LINK_MASK
    x = s0 ^ (a1 | b1 << 192)
    s0 = (x << 13 | x >> 51 & _LINK_LOW13) * _MULT & _LINK_MASK
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _LINK_MASK
    x = s0 ^ (a2 | b2 << 192)
    s0 = (x << 13 | x >> 51 & _LINK_LOW13) * _MULT & _LINK_MASK
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _LINK_MASK
    x = s0 ^ _LINK_LENGTH
    s0 = (x << 13 | x >> 51 & _LINK_LOW13) * _MULT & _LINK_MASK
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _LINK_MASK
    s0 = (s0 << 13 | s0 >> 51 & _LINK_LOW13) * _MULT & _LINK_MASK
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _LINK_MASK
    s0 = (s0 << 13 | s0 >> 51 & _LINK_LOW13) * _MULT & _LINK_MASK
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _LINK_MASK
    s0 = (s0 << 13 | s0 >> 51 & _LINK_LOW13) * _MULT & _LINK_MASK
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _LINK_MASK
    s0 = (s0 << 13 | s0 >> 51 & _LINK_LOW13) * _MULT & _LINK_MASK
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _LINK_MASK
    return _DIGEST.pack((s0 ^ s0 >> 192) & _MASK64, (s1 ^ s1 >> 192) & _MASK64)


def modexp(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus, by the builtin three-argument pow; the
    modulus must be at least 2 and the exponent non-negative."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    return pow(base, exponent, modulus)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base above (Sorenson &
# Webster 2015): below it, the test is exact
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first thirteen primes as bases, exact below
    psi_13 = 3317044064679887385961981 (about 3.3e24, under 2^82). Raises
    ValueError at or above that bound rather than guess."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"primality is decided only below {_MR_EXACT_BELOW}, got {n}")
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = modexp(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors, in ascending order, by trial division that
    stops once the cofactor left is prime; intended for desk-scale n."""
    if n < 2:
        return []
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
            if is_prime(n):
                break
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


@value_class(frozen=True)
class DhParams:
    """Public group: prime modulus p and a generator candidate alpha.

    Construction enforces that p and alpha are exactly ints (TypeError
    naming the field otherwise), primality, alpha in [2, p-1], and, through
    is_prime's bound, p < 2^82, so the shared secret always fits the
    16-octet session-key derivation. Whether alpha really generates the
    full group is the caller's check (has_full_order, on the constructed
    value); scenario validation performs it.
    """

    p: int
    alpha: int

    def __init__(self, p: int, alpha: int) -> None:
        check_type("p", p, int)
        check_type("alpha", alpha, int)
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if not 2 <= alpha <= p - 1:
            raise ValueError(f"alpha must be in [2, p-1], got {alpha}")
        self.__dict__.update(p=p, alpha=alpha)

    @functools.cached_property
    def alpha_table(self) -> tuple[tuple[int, ...], ...]:
        """Fixed-base table of _power_of_alpha, which dh_keypair and
        session_key call: row i holds alpha^(d*256^i) mod p for d = 0..255,
        one row per octet of p-1. Built by multiplication on first use and
        never mutated; the cache lives in the instance dictionary, outside
        the frozen fields, so equality and hashing ignore it."""
        p = self.p
        rows = []
        base = self.alpha
        for _ in range(((p - 1).bit_length() + 7) // 8):
            row = [1]
            for _ in range(255):
                row.append(row[-1] * base % p)
            rows.append(tuple(row))
            base = row[-1] * base % p
        return tuple(rows)


def has_full_order(params: DhParams) -> bool:
    """Primitive-root check via the prime factorization of p-1.

    alpha generates the full group iff alpha^((p-1)/q) != 1 for every prime
    q dividing p-1. Needs only that factorization, never a walk over the
    group, so it covers moduli too large to enumerate (used for startup
    validation). DhParams has already checked that p is prime and alpha
    lies in [2, p-1].
    """
    p, alpha = params.p, params.alpha
    return all(modexp(alpha, (p - 1) // q, p) != 1 for q in prime_factors(p - 1))


class DhKeyPair(namedtuple("DhKeyPair", "r_private s_public")):
    """Per-device exchange pair: private exponent and public power."""

    __slots__ = ()


def draw_octets(stream: _random.Random) -> bytes:
    """A 16-octet value drawn from stream as random.Random.randbytes(16)
    draws it: getrandbits(128) as 16 little-endian octets."""
    return stream.getrandbits(128).to_bytes(16, "little")


def draw_exponent(stream: _random.Random, p: int) -> int:
    """A private exponent in [1, p-1], drawn from stream as
    random.Random.randrange(1, p) draws it: 1 + r, where r is
    getrandbits((p-1).bit_length()), drawn again until it is below p-1.
    p is a group's modulus, at least 3 (DhParams checks it)."""
    below = p - 1
    width = below.bit_length()
    r = stream.getrandbits(width)
    while r >= below:
        r = stream.getrandbits(width)
    return 1 + r


def _power_of_alpha(params: DhParams, e: int) -> int:
    """alpha^e mod p for e in [0, p-1]: the product of one entry of each
    row of params.alpha_table, the one that each octet of e selects,
    reduced mod p once. The product of at most 11 entries below p < 2^82
    stays below 2^902, a few machine words."""
    power = 1
    for row in params.alpha_table:
        power *= row[e & 255]
        e >>= 8
    return power % params.p


# _EXPONENTS: (p, alpha, public) -> an r that dh_keypair drew with
# alpha^r = public, keyed by the group's two ints (a DhParams hashes in
# Python); at most _MEMO_MAX entries, oldest first out, written under
# _MEMO_LOCK. A run draws at most 3 key pairs (A, B and the intruder), and
# clear_memos empties the record before each run, so within a run it
# evicts nothing.
_EXPONENTS: dict[tuple[int, int, int], int] = {}
_MEMO_MAX = 8
_MEMO_LOCK = threading.Lock()


def dh_keypair(params: DhParams, r: int) -> DhKeyPair:
    """Key pair with public value alpha^r mod p, from params.alpha_table;
    params must be a DhParams and r an int (TypeError naming them
    otherwise) in [1, p-1]. r is recorded as the exponent of the public
    value, for session_key to read."""
    # a valid group and exponent cost no call, as in e1
    if type(params) is not DhParams:
        check_type("params", params, DhParams)
    if type(r) is not int:
        check_type("r", r, int)
    p = params.p
    if not 1 <= r <= p - 1:
        raise ValueError(f"private exponent must be in [1, p-1], got {r}")
    s_public = _power_of_alpha(params, r)
    key = (p, params.alpha, s_public)
    with _MEMO_LOCK:
        if len(_EXPONENTS) >= _MEMO_MAX and key not in _EXPONENTS:
            del _EXPONENTS[next(iter(_EXPONENTS))]
        _EXPONENTS[key] = r
    # one tuple.__new__ call, as simnet builds its records
    return tuple.__new__(DhKeyPair, (r, s_public))


def check_public(params: DhParams, value: int) -> None:
    """Raise TypeError unless params is a DhParams and a peer's public
    value exactly an int, and ValueError unless the value lies in [1, p-1]."""
    if type(params) is not DhParams:
        check_type("params", params, DhParams)
    if type(value) is not int:
        check_type("peer public value", value, int)
    if not 1 <= value <= params.p - 1:
        raise ValueError(f"peer public value must be in [1, p-1], got {value}")


def dh_shared(params: DhParams, peer_public: int, r: int) -> int:
    """Shared secret peer_public^r mod p; both directions agree. Raises
    as check_public does on a peer_public it refuses, TypeError naming r
    unless it is exactly an int, and ValueError on a negative r."""
    check_public(params, peer_public)
    check_type("r", r, int)
    return modexp(peer_public, r, params.p)


# a run derives at most 2 distinct keys (one per device when the intruder
# sends its own public), and clear_memos empties the memo before each
# run, so within a run it evicts nothing
@functools.lru_cache(maxsize=_MEMO_MAX)
def _session_key_of(k: int, p: int) -> bytes:
    """mixhash128 of the tag, then k and p as 16 big-endian octets each."""
    m0, m1, m2, m3, m4 = _FIVE_BLOCKS.unpack(
        b"".join((_TAG_SESSION, k.to_bytes(16, "big"), p.to_bytes(16, "big"), _SESSION_PAD))
    )
    # mixhash128's step, both lanes written out for each block: the five
    # data blocks, the length block (33) and the four zero blocks
    s1 = _S1_INIT
    x = _S0_INIT ^ m0
    s0 = (x << 13 | x >> 51) * _MULT & _MASK64
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _MASK64
    x = s0 ^ m1
    s0 = (x << 13 | x >> 51) * _MULT & _MASK64
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _MASK64
    x = s0 ^ m2
    s0 = (x << 13 | x >> 51) * _MULT & _MASK64
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _MASK64
    x = s0 ^ m3
    s0 = (x << 13 | x >> 51) * _MULT & _MASK64
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _MASK64
    x = s0 ^ m4
    s0 = (x << 13 | x >> 51) * _MULT & _MASK64
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _MASK64
    x = s0 ^ 33
    s0 = (x << 13 | x >> 51) * _MULT & _MASK64
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _MASK64
    s0 = (s0 << 13 | s0 >> 51) * _MULT & _MASK64
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _MASK64
    s0 = (s0 << 13 | s0 >> 51) * _MULT & _MASK64
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _MASK64
    s0 = (s0 << 13 | s0 >> 51) * _MULT & _MASK64
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _MASK64
    s0 = (s0 << 13 | s0 >> 51) * _MULT & _MASK64
    s1 = ((s1 + s0) ^ (s1 << 32 | s1 >> 32)) & _MASK64
    return _DIGEST.pack(s0, s1)


def session_key_from_shared(k: int, params: DhParams) -> bytes:
    """Bind the shared integer and group modulus into a uniform 16-octet
    key; k must be an int and params a DhParams (TypeError otherwise)."""
    if type(k) is not int:
        check_type("shared value", k, int)
    if type(params) is not DhParams:
        check_type("params", params, DhParams)
    if not 0 <= k <= params.p - 1:
        raise ValueError(f"shared value must be in [0, p-1], got {k}")
    return _session_key_of(k, params.p)


def session_key(params: DhParams, own: DhKeyPair, peer_public: int) -> bytes:
    """The 16-octet session key that own agrees with the holder of
    peer_public: session_key_from_shared(dh_shared(params, peer_public,
    own.r_private), params). The peer value is checked on every call, by
    an inline test that reaches check_public only when it fails, and own
    must be a DhKeyPair whose r_private is an int (TypeError naming it
    otherwise), whichever route the peer value takes.

    A peer_public that dh_keypair recorded as alpha^s is raised to
    own.r_private as alpha^(s * r_private mod (p-1)), read from the
    fixed-base table: alpha^(p-1) = 1 for any alpha in [2, p-1] (Fermat),
    generator or not. Any other peer_public, or a negative r_private, goes
    straight to modexp, which refuses a negative exponent: both were
    checked above, as dh_shared would check them. The key is memoised by
    the shared value and p, so the device on the other side, which
    reaches the same shared value, pays no digest. Both memos hold at most
    8 entries, oldest first out; clear_memos empties both before each run.
    """
    # a valid peer value costs no call, as in e1
    if not (
        type(params) is DhParams and type(peer_public) is int and 0 < peer_public < params.p
    ):
        check_public(params, peer_public)
    if type(own) is not DhKeyPair:
        check_type("own", own, DhKeyPair)
    r = own.r_private
    if type(r) is not int:
        check_type("own.r_private", r, int)
    p = params.p
    exponent = _EXPONENTS.get((p, params.alpha, peer_public))
    if exponent is None or r < 0:
        shared = modexp(peer_public, r, p)
    else:
        shared = _power_of_alpha(params, exponent * r % (p - 1))
    return _session_key_of(shared, p)


def clear_memos() -> None:
    """Empty the memos of e1 and session_key and the exponents that
    dh_keypair recorded; cli.run_scenario calls it before each run."""
    e1.cache_clear()
    with _MEMO_LOCK:
        _EXPONENTS.clear()
    _session_key_of.cache_clear()
