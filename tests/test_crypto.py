"""Key-derivation functions and value-type validation."""

import copy
import dataclasses
import gc
import pickle
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from btauthsim import crypto
from btauthsim.crypto import (
    DeviceId,
    DhParams,
    Pin,
    check_octets,
    combination_link_key,
    e1,
    e1_aco,
    encryption_key,
    init_key,
    session_key_from_shared,
    xor_bytes,
)
from btauthsim.protocol import Variant, new_device

Z16 = b"\x00" * 16
ZKEY = b"\x00" * 16
ZADDR = DeviceId(b"\x00" * 6)
ADDR_A = DeviceId.from_hex("aa0000000001")
ADDR_B = DeviceId.from_hex("bb0000000002")

EQUAL_LENGTH_PAIRS = st.integers(min_value=0, max_value=32).flatmap(
    lambda n: st.tuples(st.binary(min_size=n, max_size=n), st.binary(min_size=n, max_size=n))
)


class TestValueTypes:
    def test_widths_enforced(self):
        with pytest.raises(ValueError):
            DeviceId(b"\x00" * 5)
        with pytest.raises(ValueError):
            e1(ZKEY, b"\x00" * 15, ZADDR)
        with pytest.raises(ValueError):
            encryption_key(ZKEY, b"\x00" * 16, Z16)
        with pytest.raises(ValueError):
            new_device(ZADDR, Variant.LEGACY, b"", 0)

    def test_pin_length_bounds(self):
        Pin(b"0")
        Pin(b"0" * 16)
        with pytest.raises(ValueError):
            Pin(b"")
        with pytest.raises(ValueError):
            Pin(b"0" * 17)

    def test_pin_holds_its_digits_as_bytes(self):
        digits = bytearray(b"0000")
        pin = Pin(digits)
        digits.clear()
        assert pin == Pin(b"0000")
        assert type(pin.digits) is bytes
        assert hash(pin) == hash(Pin(b"0000"))
        assert init_key(pin, ZADDR, Z16) == init_key(Pin(b"0000"), ZADDR, Z16)
        with pytest.raises(TypeError, match="^Pin.digits must be bytes, got str$"):
            Pin("0000")  # type: ignore[arg-type]
        with pytest.raises(ValueError, match="^Pin.digits must be 1 to 16 octets, got 17$"):
            Pin(bytearray(17))

    def test_device_id_hex_round_trip(self):
        assert str(ADDR_A) == "aa0000000001"
        assert DeviceId.from_hex("aa0000000001") == ADDR_A

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Pin(b"0000").digits = b"1234"  # type: ignore[misc]


# (function, its arguments with octets of the right width, and per octet
# parameter its position and width); each builds one call
OCTET_PARAMETERS = [
    (e1, (ZKEY, Z16, ADDR_A), {"key": (0, 16), "challenge": (1, 16)}),
    (e1_aco, (ZKEY, Z16, ADDR_A), {"key": (0, 16), "challenge": (1, 16)}),
    (init_key, (Pin(b"0000"), ADDR_A, Z16), {"rand": (2, 16)}),
    (
        combination_link_key,
        (Z16, ADDR_A, Z16, ADDR_B),
        {"rand_a": (0, 16), "rand_b": (2, 16)},
    ),
    (
        encryption_key,
        (ZKEY, bytes(12), Z16),
        {"key": (0, 16), "aco": (1, 12), "en_rand": (2, 16)},
    ),
    (new_device, (ADDR_A, Variant.LEGACY, ZKEY, 0), {"link_key": (2, 16)}),
]
OCTET_CASES = [
    pytest.param(function, args, name, *where, id=f"{function.__name__}-{name}")
    for function, args, parameters in OCTET_PARAMETERS
    for name, where in parameters.items()
]


def with_argument(args, position, value):
    return (*args[:position], value, *args[position + 1 :])


class TestOctetArguments:
    """Each function checks every octet string it takes: bytes of the
    width it names, else TypeError or ValueError naming the parameter."""

    @pytest.mark.parametrize("function,args,name,position,width", OCTET_CASES)
    def test_takes_bytes_of_its_width(self, function, args, name, position, width):
        # this call memoises e1's answer, and the view of the same octets
        # below equals and hashes like them: only a memo keyed by type as
        # well refuses it
        function(*args)
        for wrong in (bytearray(width), memoryview(bytes(width)), "0" * width, width, None):
            with pytest.raises(TypeError):
                function(*with_argument(args, position, wrong))
            # e1's memo refuses a bytearray itself, as unhashable
            with pytest.raises(TypeError, match=f"^{name} must be bytes, got {type(wrong).__name__}$"):
                getattr(function, "__wrapped__", function)(*with_argument(args, position, wrong))
        for length in (0, width - 1, width + 1):
            with pytest.raises(ValueError, match=f"^{name} must be exactly {width} octets, got {length}$"):
                function(*with_argument(args, position, bytes(length)))

    def test_one_check_holds_the_messages(self):
        with pytest.raises(TypeError, match="^x must be bytes, got bytearray$"):
            check_octets("x", bytearray(2), 2)
        with pytest.raises(ValueError, match="^x must be exactly 2 octets, got 3$"):
            check_octets("x", bytes(3), 2)
        with pytest.raises(ValueError, match="^x must be 1 to 2 octets, got 0$"):
            check_octets("x", b"", 1, 2)
        check_octets("x", b"ab", 2)
        check_octets("x", b"a", 1, 2)


class TestDeviceIdIdentity:
    @given(st.binary(min_size=6, max_size=6), st.booleans(), st.binary(min_size=6, max_size=6))
    def test_one_object_per_address(self, raw, mutable, other_raw):
        addr = DeviceId(bytearray(raw) if mutable else raw)
        assert addr is DeviceId(bytes(raw))
        assert type(addr.addr) is bytes and addr.addr == raw
        assert repr(addr) == f"DeviceId(addr={raw!r})"
        other = DeviceId(other_raw)
        assert (addr == other) == (raw == other_raw) == (addr is other)
        if raw == other_raw:
            assert hash(addr) == hash(other)
        assert copy.copy(addr) is addr
        assert copy.deepcopy(addr) is addr
        assert copy.deepcopy({addr: [addr]}) == {addr: [addr]}
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(addr, protocol)) is addr
        with pytest.raises(AttributeError):
            addr.addr = other_raw  # type: ignore[misc]
        assert DeviceId(raw).addr == raw

    @given(st.binary(min_size=6, max_size=6), st.booleans())
    def test_text_is_the_hex_of_the_address(self, raw, mutable):
        addr = DeviceId(bytearray(raw) if mutable else raw)
        assert str(addr) == addr.text == raw.hex()
        for same in (copy.copy(addr), copy.deepcopy(addr)):
            assert str(same) == raw.hex()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert str(pickle.loads(pickle.dumps(addr, protocol))) == raw.hex()
        with pytest.raises(AttributeError):
            addr.text = "000000000000"  # type: ignore[misc]

    def test_text_of_an_address_rebuilt_from_a_pickle(self):
        # the address leaves the table before loading, so loading builds it anew
        raw = b"\xde\xad\xbe\xef\x00\x02"
        blob = pickle.dumps(DeviceId(raw))
        gc.collect()
        assert raw not in crypto._ADDRESSES
        assert str(pickle.loads(blob)) == "deadbeef0002"

    @given(st.binary(max_size=12).filter(lambda raw: len(raw) != 6), st.booleans())
    def test_wrong_width_rejected(self, raw, mutable):
        with pytest.raises(ValueError, match=f"DeviceId.addr must be exactly 6 octets, got {len(raw)}"):
            DeviceId(bytearray(raw) if mutable else raw)

    @pytest.mark.parametrize("value", ["aa0000000001", 6, None, [0] * 6, memoryview(b"\x00" * 6)])
    def test_wrong_type_rejected(self, value):
        with pytest.raises(TypeError, match=f"DeviceId.addr must be bytes, got {type(value).__name__}"):
            DeviceId(value)

    def test_threads_racing_on_a_new_address_get_one_object(self):
        # eight threads meet at the barrier before each fresh address; a
        # short switch interval makes them interleave inside the constructor
        fresh = [b"\xfe\xed" + k.to_bytes(4, "big") for k in range(200)]
        gc.collect()
        assert not any(raw in crypto._ADDRESSES for raw in fresh)
        start = threading.Barrier(8)
        made = [[] for _ in range(8)]

        def make(index):
            for raw in fresh:
                start.wait(timeout=10)
                made[index].append(DeviceId(bytearray(raw) if index % 2 else raw))

        threads = [threading.Thread(target=make, args=(index,)) for index in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(addrs) == len(fresh) for addrs in made)
        for k in range(len(fresh)):
            assert all(addrs[k] is made[0][k] for addrs in made)

    def test_table_drops_an_address_no_one_holds(self):
        raw = b"\xde\xad\xbe\xef\x00\x01"
        gc.collect()
        assert raw not in crypto._ADDRESSES
        addr = DeviceId(raw)
        assert crypto._ADDRESSES[raw] is addr
        del addr
        gc.collect()
        assert raw not in crypto._ADDRESSES


class TestE1:
    def test_golden_all_zero(self):
        sres = e1(ZKEY, Z16, ZADDR)
        aco = e1_aco(ZKEY, Z16, ZADDR)
        assert type(sres) is bytes and type(aco) is bytes
        assert sres.hex() == "e168721d"
        assert aco.hex() == "fcf1089b38c23c185b2d9740"

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
        aco = e1_aco(key, chal, ADDR_A)
        assert type(sres) is bytes and len(sres) == 4
        assert type(aco) is bytes and len(aco) == 12

    @given(
        st.binary(min_size=16, max_size=16),
        st.binary(min_size=16, max_size=16),
        st.binary(min_size=6, max_size=6),
    )
    def test_memo_matches_unmemoised(self, key, chal, addr):
        args = (key, chal, DeviceId(addr))
        expected = e1.__wrapped__(*args)
        assert e1(*args) == expected
        # a repeat, answered from the memo, and a triple whose address was
        # built from a bytearray
        assert e1(*args) == expected
        assert e1(key, chal, DeviceId(bytearray(addr))) == expected

    def test_memo_miss_runs_no_full_digest(self, monkeypatch):
        calls = []
        real = crypto.mixhash128

        def counting(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(crypto, "mixhash128", counting)
        e1.cache_clear()
        args = (ZKEY, b"\x07" * 16, ADDR_B)
        message = b"\x01" + ZKEY + args[1] + ADDR_B.addr
        sres = e1(*args)
        assert calls == []
        assert e1.cache_info().misses == 1 and e1.cache_info().hits == 0
        # a repeat is answered from the memo
        assert e1(*args) is sres
        assert e1.cache_info().misses == 1 and e1.cache_info().hits == 1
        assert calls == []
        # the offset takes the full digest, once, through the module name;
        # the response is the first 4 octets of that same digest
        aco = e1_aco(*args)
        assert calls == [message]
        assert sres + aco == real(message)


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
        sres = e1(key, chal, DeviceId(addr))
        bootstrap = init_key(Pin(pin), DeviceId(addr), chal)
        session = session_key_from_shared(shared, DhParams(p=2147483647, alpha=7))
        assert (type(sres), len(sres)) == (bytes, 4)
        assert (type(bootstrap), len(bootstrap)) == (bytes, 16)
        assert (type(session), len(session)) == (bytes, 16)


class TestInitKey:
    def test_golden(self):
        assert init_key(Pin(b"0000"), ZADDR, Z16).hex() == (
            "56a8bcbc9e4f35227bcf9c373247871d"
        )

    def test_golden_longer_pin(self):
        assert init_key(Pin(b"00000"), ZADDR, Z16).hex() == (
            "2f2ff85e765f352a2b23c6378a92f34a"
        )

    def test_pin_length_separates_zero_padded_pins(self):
        # b"0000" and b"0000\x00"-style confusions must not collide; the
        # length octet in the input material guarantees it
        assert init_key(Pin(b"0000"), ZADDR, Z16) != init_key(Pin(b"00000"), ZADDR, Z16)

    def test_all_inputs_matter(self):
        base = init_key(Pin(b"1234"), ADDR_A, Z16)
        assert base != init_key(Pin(b"1235"), ADDR_A, Z16)
        assert base != init_key(Pin(b"1234"), ADDR_B, Z16)
        assert base != init_key(Pin(b"1234"), ADDR_A, b"\x01" * 16)


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


class TestEncryptionKey:
    def test_golden(self):
        key = encryption_key(ZKEY, b"\x00" * 12, Z16)
        assert key.hex() == "afa4ba72cc4350e9dffede70391ea517"

    def test_width_and_inputs(self):
        aco = b"\x07" * 12
        base = encryption_key(ZKEY, aco, Z16)
        assert len(base) == 16
        assert base != encryption_key(ZKEY, aco, b"\x01" * 16)
        assert base != encryption_key(ZKEY, b"\x08" * 12, Z16)


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

    @given(st.integers(min_value=0, max_value=2**31 - 2), st.sampled_from([(23, 5), (2**31 - 1, 7)]))
    def test_memo_matches_unmemoised(self, k, group):
        params = DhParams(*group)
        k %= params.p
        expected = session_key_from_shared.__wrapped__(k, params)
        assert session_key_from_shared(k, params) == expected
        # a repeat, answered from the memo, and an equal group built anew
        assert session_key_from_shared(k, params) is session_key_from_shared(k, params)
        assert session_key_from_shared(k, DhParams(*group)) == expected

    def test_memo_is_typed(self):
        # an int-valued float equals a memoised int, yet misses and meets
        # the unmemoised function's failure
        params = DhParams(p=23, alpha=5)
        session_key_from_shared(2, params)
        with pytest.raises(AttributeError):
            session_key_from_shared(2.0, params)

    def test_range_enforced(self):
        params = DhParams(p=23, alpha=5)
        with pytest.raises(ValueError):
            session_key_from_shared(23, params)
        with pytest.raises(ValueError):
            session_key_from_shared(-1, params)


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
