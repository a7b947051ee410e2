"""Modular exponentiation, primality, generator checks, and key agreement."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import PARAMS, WIDE_P

from btauthsim import crypto
from btauthsim.crypto import (
    DhParams,
    dh_keypair,
    dh_shared,
    has_full_order,
    is_prime,
    modexp,
    prime_factors,
)

SMALL_PRIMES = [5, 7, 11, 13, 23, 97, 101, 499, 997, 2003, 4999, 7919, 10007]


def naive_modexp(base: int, exponent: int, modulus: int) -> int:
    """Repeated multiplication, the slow-but-obviously-correct route."""
    result = 1
    for _ in range(exponent):
        result = result * base % modulus
    return result


def is_primitive_root(alpha: int, p: int) -> bool:
    """True iff the powers alpha^1..alpha^(p-1) cover all p-1 residues.

    The enumerating oracle that has_full_order is checked against: it walks
    the full cycle, so O(p), desk-scale p only. Raises if p is not prime.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    alpha %= p
    if alpha == 0:
        return False
    cur = 1
    for k in range(1, p):
        cur = cur * alpha % p
        if cur == 1:
            return k == p - 1
    return False


def smallest_primitive_root(p: int) -> int:
    for alpha in range(2, p):
        if is_primitive_root(alpha, p):
            return alpha
    raise AssertionError(f"no primitive root below {p}")


class TestModexp:
    def test_exhaustive_against_naive(self):
        mismatches = 0
        for modulus in range(2, 50):
            for base in range(0, 20):
                for exponent in range(0, 20):
                    if modexp(base, exponent, modulus) != naive_modexp(base, exponent, modulus):
                        mismatches += 1
        assert mismatches == 0

    def test_random_against_builtin_pow(self):
        rng = random.Random(0x5EED)
        for _ in range(1000):
            base = rng.randrange(0, 100)
            exponent = rng.randrange(0, 100)
            modulus = rng.randrange(2, 1000)
            assert modexp(base, exponent, modulus) == pow(base, exponent, modulus)

    def test_modulus_below_two_rejected(self):
        with pytest.raises(ValueError):
            modexp(3, 4, 1)
        with pytest.raises(ValueError):
            modexp(3, 4, 0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            modexp(3, -1, 7)

    def test_edge_cases(self):
        assert modexp(0, 0, 7) == 1
        assert modexp(0, 5, 7) == 0
        assert modexp(12, 0, 7) == 1

    @given(
        st.integers(min_value=0, max_value=1 << 64),
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=2, max_value=1 << 64),
    )
    @settings(max_examples=200)
    def test_matches_builtin_pow(self, base, exponent, modulus):
        assert modexp(base, exponent, modulus) == pow(base, exponent, modulus)


# the least strong pseudoprimes to the first twelve and thirteen prime bases
# (Sorenson & Webster 2015)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


class TestPrimality:
    def test_known_primes(self):
        for p in SMALL_PRIMES + [2, 3, 5003, 2147483647]:
            assert is_prime(p)

    def test_known_composites(self):
        for n in [-7, 0, 1, 4, 9, 15, 91, 561, 10005, 2147483646]:
            assert not is_prime(n)

    def test_agrees_with_trial_division_below_2000(self):
        def trial(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, int(math.isqrt(n)) + 1))

        for n in range(0, 2000):
            assert is_prime(n) == trial(n), n

    def test_psi12_is_composite(self):
        # the least strong pseudoprime to the bases 2 .. 37
        assert PSI_12 == 399165290221 * 798330580441
        assert not is_prime(PSI_12)

    def test_dh_params_reject_psi12(self):
        with pytest.raises(ValueError, match="must be prime"):
            DhParams(p=PSI_12, alpha=2)

    @pytest.mark.parametrize(
        "n", [PSI_13, PSI_13 + 2, (1 << 128) + 51], ids=["psi13", "psi13+2", "2^128+51"]
    )
    def test_undecided_at_or_above_psi13(self, n):
        with pytest.raises(ValueError, match="decided only below"):
            is_prime(n)

    def test_decided_just_below_psi13(self):
        # 17 divides it
        assert not is_prime(PSI_13 - 2)

    def test_prime_factors(self):
        assert prime_factors(1) == []
        assert prime_factors(2) == [2]
        assert prime_factors(360) == [2, 3, 5]
        assert prime_factors(10006) == [2, 5003]
        assert prime_factors(2147483646) == [2, 3, 7, 11, 31, 151, 331]
        # a full trial division up to sqrt(WIDE_P - 1) takes seconds;
        # stopping at the prime cofactor takes one division
        assert prime_factors(WIDE_P - 1) == [2, (WIDE_P - 1) // 2]

    @given(st.integers(min_value=-5, max_value=10**6))
    @settings(max_examples=300)
    def test_prime_factors_match_trial_division(self, n):
        def trial(n):
            factors, d = [], 2
            while d * d <= n:
                if n % d == 0:
                    factors.append(d)
                    while n % d == 0:
                        n //= d
                d += 1
            return factors + [n] if n > 1 else factors

        assert prime_factors(n) == trial(n)


class TestPrimitiveRoot:
    def test_known_cases_mod_23(self):
        assert is_primitive_root(5, 23)
        assert not is_primitive_root(4, 23)
        assert not is_primitive_root(1, 23)
        assert not is_primitive_root(0, 23)
        assert not is_primitive_root(23, 23)

    def test_rejects_composite_modulus(self):
        # has_full_order takes only a DhParams, whose construction refuses a
        # composite modulus
        with pytest.raises(ValueError):
            is_primitive_root(3, 10)
        with pytest.raises(ValueError, match="prime"):
            DhParams(p=10, alpha=3)

    def test_count_matches_euler_phi_of_group_order(self):
        for p in [5, 7, 11, 13, 23, 97]:
            count = sum(is_primitive_root(a, p) for a in range(1, p))
            phi = sum(1 for k in range(1, p - 1) if math.gcd(k, p - 1) == 1)
            assert count == phi, p

    def test_factored_check_agrees_with_enumeration(self):
        for p in [3, 5, 7, 11, 13, 23, 97]:
            for alpha in range(2, p):
                params = DhParams(p=p, alpha=alpha)
                assert has_full_order(params) == is_primitive_root(alpha, p), (alpha, p)
            # the residues that generate nothing never reach the check
            for alpha in (0, 1, p):
                assert not is_primitive_root(alpha, p)
                with pytest.raises(ValueError, match="alpha"):
                    DhParams(p=p, alpha=alpha)

    def test_factored_check_handles_large_modulus(self):
        # enumeration would walk 2^31 - 2 steps here; the factored check is
        # instant
        assert has_full_order(PARAMS)
        assert not has_full_order(DhParams(p=2147483647, alpha=2))
        assert has_full_order(DhParams(p=WIDE_P, alpha=2))

    def test_smallest_roots(self):
        assert smallest_primitive_root(23) == 5
        assert smallest_primitive_root(10007) == 5


class TestDhParams:
    def test_valid(self):
        DhParams(p=23, alpha=5)
        DhParams(p=2147483647, alpha=7)


class TestKeyAgreement:
    def test_worked_instance(self):
        params = DhParams(p=23, alpha=5)
        pair1 = dh_keypair(params, 6)
        pair2 = dh_keypair(params, 15)
        assert pair1.s_public == 8
        assert pair2.s_public == 19
        k1 = dh_shared(params, pair2.s_public, pair1.r_private)
        k2 = dh_shared(params, pair1.s_public, pair2.r_private)
        assert k1 == k2 == 2

    def test_random_trials_agree(self):
        rng = random.Random(0xACC0)
        for _ in range(300):
            p = rng.choice(SMALL_PRIMES)
            params = DhParams(p=p, alpha=smallest_primitive_root(p))
            r1 = rng.randrange(1, p)
            r2 = rng.randrange(1, p)
            pair1 = dh_keypair(params, r1)
            pair2 = dh_keypair(params, r2)
            k1 = dh_shared(params, pair2.s_public, pair1.r_private)
            k2 = dh_shared(params, pair1.s_public, pair2.r_private)
            assert k1 == k2
            # independent route: alpha^(r1*r2) mod p via the builtin
            assert k1 == pow(params.alpha, r1 * r2, p)

    @given(st.sampled_from(SMALL_PRIMES), st.data())
    @settings(max_examples=100)
    def test_agreement_property(self, p, data):
        params = DhParams(p=p, alpha=smallest_primitive_root(p))
        r1 = data.draw(st.integers(min_value=1, max_value=p - 1))
        r2 = data.draw(st.integers(min_value=1, max_value=p - 1))
        pair1 = dh_keypair(params, r1)
        pair2 = dh_keypair(params, r2)
        assert dh_shared(params, pair2.s_public, r1) == dh_shared(params, pair1.s_public, r2)


class TestFixedBaseTable:
    def test_every_base_and_exponent_mod_23(self):
        for alpha in range(2, 23):
            params = DhParams(p=23, alpha=alpha)
            for r in range(1, 23):
                assert dh_keypair(params, r).s_public == pow(alpha, r, 23), (alpha, r)

    @pytest.mark.parametrize("p,alpha", [(2**31 - 1, 7), (WIDE_P, 2)], ids=["p31", "wide"])
    def test_edges_and_random_exponents(self, p, alpha):
        params = DhParams(p=p, alpha=alpha)
        rng = random.Random(p)
        edges = [1, 2, 15, 16, 17, 255, 256, 257, 65535, 65536, p - 2, p - 1]
        for r in edges + [rng.randrange(1, p) for _ in range(500)]:
            pair = dh_keypair(params, r)
            assert pair.r_private == r
            assert pair.s_public == pow(alpha, r, p), r

    # 4 rows at 2^31 - 1, 6 at the dh-wide prime, and 2 at 257, where
    # p - 1 = 256 sets one bit of the top row
    @pytest.mark.parametrize(
        "params,rows",
        [(PARAMS, 4), (DhParams(WIDE_P, 2), 6), (DhParams(257, 3), 2)],
        ids=["p31", "wide", "p257"],
    )
    @given(drawn=st.integers(min_value=0, max_value=WIDE_P - 1))
    def test_power_of_alpha_is_pow(self, params, rows, drawn):
        # every exponent the table serves, 0 and p - 1 included: a session
        # key raises alpha to a product mod p - 1. Each group, and so its
        # table, is built once for all the examples
        p, alpha = params.p, params.alpha
        assert len(params.alpha_table) == rows
        for e in (0, 1, p - 2, p - 1, drawn % p):
            assert crypto._power_of_alpha(params, e) == pow(alpha, e, p), e

    def test_built_once_without_modexp_and_ignored_by_equality(self, monkeypatch):
        params = DhParams(p=WIDE_P, alpha=2)
        calls = []
        monkeypatch.setattr(crypto, "modexp", lambda *args: calls.append(args))
        table = params.alpha_table
        assert dh_keypair(params, 12345).s_public == pow(2, 12345, WIDE_P)
        assert params.alpha_table is table
        assert calls == []
        # one row per octet of p - 1, each alpha^(d * 256^i)
        assert len(table) == ((WIDE_P - 1).bit_length() + 7) // 8 == 6
        assert all(len(row) == 256 for row in table)
        assert table[3][5] == pow(2, 5 * 256**3, WIDE_P)
        assert table[5][255] == pow(2, 255 * 256**5, WIDE_P)
        monkeypatch.undo()
        fresh = DhParams(p=WIDE_P, alpha=2)
        assert fresh == params and hash(fresh) == hash(params)
