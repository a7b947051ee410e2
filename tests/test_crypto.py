"""Key-derivation functions and the Diffie-Hellman key memos."""

import sys
import threading

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from support import ADDR_A, ADDR_B, PARAMS, WIDE_P, recorded

from btauthsim import crypto
from btauthsim.crypto import (
    DhKeyPair,
    DhParams,
    combination_link_key,
    dh_keypair,
    dh_shared,
    e1,
    init_key,
    session_key,
    session_key_from_shared,
    xor_bytes,
)

Z16 = b"\x00" * 16
ZKEY = b"\x00" * 16
ZADDR = b"\x00" * 6

# the groups the CLI runs: its default, and the largest safe prime below 2^47
GROUPS = [(PARAMS.p, PARAMS.alpha), (WIDE_P, 2)]

# primes whose tables have 1 to 8 rows, with the CLI's groups
TABLE_PRIMES = [3, 5, 23, 257, 65537, 2**61 - 1] + [p for p, _ in GROUPS]


@st.composite
def any_group(draw):
    """A group of TABLE_PRIMES with any alpha in [2, p-1], generator or not."""
    p = draw(st.sampled_from(TABLE_PRIMES))
    return DhParams(p, draw(st.integers(min_value=2, max_value=p - 1) | st.just(p - 1)))


def exponents(p):
    return st.integers(min_value=1, max_value=p - 1) | st.sampled_from([1, p - 1, (p - 1) // 2])


EQUAL_LENGTH_PAIRS = st.integers(min_value=0, max_value=32).flatmap(
    lambda n: st.tuples(st.binary(min_size=n, max_size=n), st.binary(min_size=n, max_size=n))
)


class TestE1:
    def test_golden_all_zero(self):
        sres = e1(ZKEY, Z16, ZADDR)
        assert type(sres) is bytes
        assert sres.hex() == "e168721d"
        # the response is the first 4 octets of the digest of e1's message
        digest = crypto.mixhash128(b"\x01" + ZKEY + Z16 + ZADDR)
        assert digest.hex() == "e168721dfcf1089b38c23c185b2d9740"

    def test_deterministic(self):
        assert e1(ZKEY, Z16, ADDR_A) == e1(ZKEY, Z16, ADDR_A)

    def test_claimant_address_matters(self):
        assert e1(ZKEY, Z16, ADDR_A) != e1(ZKEY, Z16, ADDR_B)

    def test_key_matters(self):
        other = b"\x01" + b"\x00" * 15
        assert e1(ZKEY, Z16, ADDR_A) != e1(other, Z16, ADDR_A)

    def test_challenge_matters(self):
        other = b"\x00" * 15 + b"\x01"
        assert e1(ZKEY, Z16, ADDR_A) != e1(ZKEY, other, ADDR_A)

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_output_widths(self, key, chal):
        sres = e1(key, chal, ADDR_A)
        assert type(sres) is bytes and len(sres) == 4
        assert sres == crypto.mixhash128(b"\x01" + key + chal + ADDR_A)[:4]

    @given(
        st.binary(min_size=16, max_size=16),
        st.binary(min_size=16, max_size=16),
        st.binary(min_size=6, max_size=6),
    )
    def test_memo_matches_unmemoised(self, key, chal, addr):
        args = (key, chal, addr)
        expected = e1.__wrapped__(*args)
        assert e1(*args) == expected
        # a repeat, answered from the memo, and a triple whose address is
        # an equal copy, not the same object
        assert e1(*args) == expected
        assert e1(key, chal, bytes(bytearray(addr))) == expected

    def test_memo_miss_runs_no_full_digest(self):
        e1.cache_clear()
        args = (ZKEY, b"\x07" * 16, ADDR_B)
        message = b"\x01" + ZKEY + args[1] + ADDR_B
        with recorded(crypto, "mixhash128") as calls:
            sres = e1(*args)
            assert calls == []
            assert e1.cache_info().misses == 1 and e1.cache_info().hits == 0
            # a repeat is answered from the memo
            assert e1(*args) is sres
            assert e1.cache_info().misses == 1 and e1.cache_info().hits == 1
            assert calls == []
            # the full digest, through the module name, is the one call the
            # recorder sees; the response is its first 4 octets
            digest = crypto.mixhash128(message)
        assert calls == [(message,)]
        assert sres == digest[:4]


class TestDerivedOctets:
    @given(
        st.binary(min_size=16, max_size=16),
        st.binary(min_size=16, max_size=16),
        st.binary(min_size=6, max_size=6),
        st.binary(min_size=1, max_size=16),
        st.integers(min_value=0, max_value=2147483646),
    )
    def test_derivations_return_plain_octets(self, key, chal, addr, pin, shared):
        # the response, the bootstrap key and the session key are bytes of
        # the width their function fixes, with no value type around them
        sres = e1(key, chal, addr)
        bootstrap = init_key(pin, addr, chal)
        session = session_key_from_shared(shared, PARAMS)
        assert (type(sres), len(sres)) == (bytes, 4)
        assert (type(bootstrap), len(bootstrap)) == (bytes, 16)
        assert (type(session), len(session)) == (bytes, 16)


class TestInitKey:
    def test_golden(self):
        assert init_key(b"0000", ZADDR, Z16).hex() == (
            "56a8bcbc9e4f35227bcf9c373247871d"
        )

    def test_golden_longer_pin(self):
        assert init_key(b"00000", ZADDR, Z16).hex() == (
            "2f2ff85e765f352a2b23c6378a92f34a"
        )

    def test_pin_length_separates_zero_padded_pins(self):
        # b"0000" and b"0000\x00"-style confusions must not collide; the
        # length octet in the input material guarantees it
        assert init_key(b"0000", ZADDR, Z16) != init_key(b"00000", ZADDR, Z16)

    def test_all_inputs_matter(self):
        base = init_key(b"1234", ADDR_A, Z16)
        assert base != init_key(b"1235", ADDR_A, Z16)
        assert base != init_key(b"1234", ADDR_B, Z16)
        assert base != init_key(b"1234", ADDR_A, b"\x01" * 16)


class TestCombinationLinkKey:
    RA = b"\x11" * 16
    RB = b"\x22" * 16

    def test_golden(self):
        key = combination_link_key(self.RA, ADDR_A, self.RB, ADDR_B)
        assert type(key) is bytes
        assert key.hex() == "72769791b896519027ea79c544e47f2d"

    def test_symmetric_in_contributions(self):
        assert combination_link_key(self.RA, ADDR_A, self.RB, ADDR_B) == (
            combination_link_key(self.RB, ADDR_B, self.RA, ADDR_A)
        )

    def test_equal_contributions_cancel(self):
        assert combination_link_key(self.RA, ADDR_A, self.RA, ADDR_A) == b"\x00" * 16

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_symmetry_property(self, ra, rb):
        ca, cb = ra, rb
        assert combination_link_key(ca, ADDR_A, cb, ADDR_B) == (
            combination_link_key(cb, ADDR_B, ca, ADDR_A)
        )


class TestSessionKeyFromShared:
    def test_golden(self):
        params = DhParams(p=23, alpha=5)
        assert session_key_from_shared(2, params).hex() == (
            "6f419c50c84c1f8464295577bd89924b"
        )

    def test_modulus_binds(self):
        assert session_key_from_shared(2, DhParams(23, 5)) != (
            session_key_from_shared(2, DhParams(29, 2))
        )

    @given(st.sampled_from(GROUPS), st.data())
    def test_memo_matches_unmemoised(self, group, data):
        # own against a peer pair whose public is random, own's own, 1 or p - 1,
        # each side asking first; the second asks the first's memo entry
        params = DhParams(*group)
        p = params.p
        own = dh_keypair(params, data.draw(st.integers(min_value=1, max_value=p - 1)))
        peer_exponents = st.sampled_from([own.r_private, p - 1, (p - 1) // 2])
        peer = dh_keypair(params, data.draw(st.integers(min_value=1, max_value=p - 1) | peer_exponents))
        expected = session_key_from_shared(dh_shared(params, peer.s_public, own.r_private), params)
        sides = [(own, peer.s_public), (peer, own.s_public)]
        if data.draw(st.booleans()):
            sides.reverse()
        crypto.clear_memos()
        for pair, peer_public in sides:
            assert session_key(params, pair, peer_public) == expected
        # a repeat, answered from the memo, and an equal group built anew
        assert session_key(params, own, peer.s_public) is session_key(params, own, peer.s_public)
        assert session_key(DhParams(*group), peer, own.s_public) == expected

    @pytest.mark.parametrize("group", GROUPS, ids=["p31", "wide"])
    def test_out_of_range_peer_refused_on_every_call(self, group):
        params = DhParams(*group)
        p = params.p
        own, peer = dh_keypair(params, 12345), dh_keypair(params, 67890)
        crypto.clear_memos()
        session_key(params, own, peer.s_public)
        session_key(params, peer, own.s_public)
        for bad in (0, p, -1, p + peer.s_public, -peer.s_public):
            for _ in range(3):
                with pytest.raises(ValueError, match="^peer public value must be in"):
                    session_key(params, own, bad)

    def test_memo_keeps_the_exponent_of_a_shared_public(self):
        # 2 has order 11 mod 23, so r = 1 and r = 12 both give the public 2;
        # the peer 22 lies outside the subgroup of 2, and 22^1 != 22^12
        params = DhParams(p=23, alpha=2)
        first, second = dh_keypair(params, 1), dh_keypair(params, 12)
        assert first.s_public == second.s_public == 2
        crypto.clear_memos()
        for pair in (first, second, first):
            expected = session_key_from_shared(dh_shared(params, 22, pair.r_private), params)
            assert session_key(params, pair, 22) == expected
        assert session_key(params, first, 22) != session_key(params, second, 22)

    def test_every_pair_of_a_small_group_gets_the_unmemoised_key(self):
        # p = 23 under every alpha, generators and not: each ordered pair of
        # exponents derives its key both ways, then against the forged
        # peers 1 and 22, with the memos warm from every call before
        p = 23
        crypto.clear_memos()
        for alpha in range(2, p):
            params = DhParams(p, alpha)
            keys = [session_key_from_shared(k, params) for k in range(p)]
            for a in range(1, p):
                for b in range(1, p):
                    own, peer = dh_keypair(params, a), dh_keypair(params, b)
                    sides = ((own, peer.s_public), (peer, own.s_public), (own, 1), (own, 22))
                    for pair, peer_public in sides:
                        expected = keys[pow(peer_public, pair.r_private, p)]
                        assert session_key(params, pair, peer_public) == expected

    def test_memo_holds_at_most_eight_keys(self):
        params = DhParams(*GROUPS[0])
        own = dh_keypair(params, 99)
        crypto.clear_memos()
        for r in range(2, 22):
            peer = dh_keypair(params, r)
            expected = session_key_from_shared(dh_shared(params, peer.s_public, 99), params)
            assert session_key(params, own, peer.s_public) == expected
            assert crypto._session_key_of.cache_info().currsize <= 8
        assert crypto._session_key_of.cache_info().currsize == 8

    def test_threads_racing_on_the_memo_get_the_unmemoised_keys(self):
        params = DhParams(*GROUPS[0])
        pairs = [dh_keypair(params, r) for r in range(2, 14)]
        expected = {
            (a.r_private, b.r_private): session_key_from_shared(
                dh_shared(params, b.s_public, a.r_private), params
            )
            for a in pairs
            for b in pairs
        }
        wrong = []
        errors = []

        def derive(worker):
            try:
                for step in range(300):
                    a, b = pairs[(worker + step) % 12], pairs[(3 * step) % 12]
                    if session_key(params, a, b.s_public) != expected[a.r_private, b.r_private]:
                        wrong.append((a, b))
                    if step % 50 == worker:
                        crypto.clear_memos()
            except Exception as err:  # noqa: BLE001 - collected and asserted below
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=derive, args=(worker,)) for worker in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and wrong == []
        assert crypto._session_key_of.cache_info().currsize <= 8


class TestSessionKeyFromTable:
    """session_key takes the shared secret with a peer public that
    dh_keypair drew from the group's fixed-base table, and with any other
    through modexp."""

    @given(any_group(), st.data())
    def test_a_drawn_peer_public_takes_no_modexp(self, params, data):
        p = params.p
        crypto.clear_memos()
        own = dh_keypair(params, data.draw(exponents(p)))
        peer = dh_keypair(params, data.draw(exponents(p)))
        with recorded(crypto, "modexp") as calls:
            for pair, peer_public in ((own, peer.s_public), (peer, own.s_public)):
                expected = session_key_from_shared(pow(peer_public, pair.r_private, p), params)
                assert session_key(params, pair, peer_public) == expected
        assert calls == []

    @given(any_group(), st.data())
    def test_a_peer_public_with_no_recorded_exponent_takes_one_modexp(self, params, data):
        p = params.p
        crypto.clear_memos()
        own = dh_keypair(params, data.draw(exponents(p)))
        peer_public = data.draw(st.sampled_from([1, p - 1]) | st.integers(min_value=1, max_value=p - 1))
        assume(peer_public != own.s_public)
        expected = session_key_from_shared(pow(peer_public, own.r_private, p), params)
        with recorded(crypto, "modexp") as calls:
            assert session_key(params, own, peer_public) == expected
        assert calls == [(peer_public, own.r_private, p)]

    def test_a_hand_built_negative_exponent_is_refused_as_dh_shared_refuses_it(self):
        params = DhParams(p=23, alpha=5)
        crypto.clear_memos()
        peer = dh_keypair(params, 3)
        own = DhKeyPair(r_private=-1, s_public=dh_keypair(params, 22).s_public)
        with pytest.raises(ValueError, match="^exponent must be non-negative, got -1$"):
            dh_shared(params, peer.s_public, own.r_private)
        with pytest.raises(ValueError, match="^exponent must be non-negative, got -1$"):
            session_key(params, own, peer.s_public)

    @given(
        st.sampled_from(GROUPS),
        st.lists(st.integers(min_value=1, max_value=10**6), unique=True, max_size=20),
    )
    def test_the_exponent_memo_keeps_the_last_eight_and_clears(self, group, rs):
        # both groups' alpha is a generator, so distinct exponents below
        # 10^6 give distinct publics
        params = DhParams(*group)
        crypto.clear_memos()
        assert crypto._EXPONENTS == {}
        publics = [dh_keypair(params, r).s_public for r in rs]
        assert list(crypto._EXPONENTS) == [(*group, public) for public in publics[-8:]]
        assert list(crypto._EXPONENTS.values()) == rs[-8:]
        if rs:
            session_key(params, dh_keypair(params, rs[0]), publics[-1])
        e1(ZKEY, Z16, ADDR_A)
        crypto.clear_memos()
        assert crypto._EXPONENTS == {} and crypto._session_key_of.cache_info().currsize == 0
        assert e1.cache_info().currsize == 0

    def test_threads_drawing_and_deriving_get_the_unmemoised_keys(self):
        # each step draws two key pairs, recording both exponents, and
        # derives their key, while other threads clear both memos
        params = DhParams(*GROUPS[1])
        p = params.p
        wrong = []
        errors = []

        def derive(worker):
            try:
                for step in range(200):
                    a = dh_keypair(params, 1 + (worker * 7919 + step) % 97)
                    b = dh_keypair(params, 1 + (step * 104729 + worker) % 89)
                    expected = session_key_from_shared(pow(b.s_public, a.r_private, p), params)
                    if session_key(params, a, b.s_public) != expected:
                        wrong.append((a, b))
                    if step % 40 == worker:
                        crypto.clear_memos()
            except Exception as err:  # noqa: BLE001 - collected and asserted below
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=derive, args=(worker,)) for worker in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and wrong == []
        assert len(crypto._EXPONENTS) <= 8 and crypto._session_key_of.cache_info().currsize <= 8


class TestXorBytes:
    def test_basic(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"\x00", b"\x00\x00")

    @given(st.binary(max_size=32))
    def test_self_inverse(self, data):
        assert xor_bytes(data, data) == b"\x00" * len(data)

    @given(EQUAL_LENGTH_PAIRS)
    def test_matches_bytewise_oracle(self, operands):
        a, b = operands
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))

    @given(st.binary(max_size=32), st.binary(max_size=32))
    def test_unequal_lengths_rejected(self, a, b):
        if len(a) == len(b):
            b += b"\x00"
        with pytest.raises(ValueError, match="equal length"):
            xor_bytes(a, b)
