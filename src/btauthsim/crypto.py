"""The paper's functions: the keyed mixing digest behind E1 and E2, key
derivation, and Diffie-Hellman arithmetic.

All are pure functions and safe to call from any thread. Each checks the
octets and values it takes with values.check_octets and values.check_type,
and check_public words the refusal of a peer's public value. The
functions every run calls (e1 and combination_link_key; no run calls
init_key, since pairing without a PIN needs no bootstrap key) first test
each octet string inline, exact bytes of the width, so a well-formed value
costs no call; only a value that fails that test, a bytes subclass
included, reaches check_octets. session_key tests a peer's public value
inline in the same way.

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
import functools
import struct
import sys
import threading

from .values import check_octets, check_type, value_class

__all__ = [
    "check_public",
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
    # any length is in check_octets' range
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
    check_type("params", params, DhParams)
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
    check_type("shared value", k, int)
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
