"""Tests for the finite-side arithmetic, with exact-rational brute oracles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mtomega import modular as M
from mtomega import words as W
from mtomega.errors import LengthError, RangeError
from mtomega.relations import default_prime_split
from oracles import DenominatorError, bernoulli_mod_table, omega_mod_int64, zeta_word_mod


def frac_mod(x: Fraction, p: int) -> int:
    assert x.denominator % p != 0
    return x.numerator * pow(x.denominator, p - 2, p) % p


def brute_hsum(index, p):
    """Exact rational nested harmonic sum, then reduced mod p."""
    total = Fraction(0)
    r = len(index)
    for ms in itertools.combinations(range(1, p), r):
        ms = tuple(reversed(ms))  # m_1 > ... > m_r
        term = Fraction(1)
        for m, k in zip(ms, index):
            term /= Fraction(m**k)
        total += term
    return frac_mod(total, p)


def brute_omega(index, p):
    """Exact rational composition sum, then reduced mod p."""
    r = len(index)
    total = Fraction(0)

    def rec(rest, slots, acc):
        nonlocal total
        if slots == 1:
            if rest >= 1:
                total += acc / Fraction(rest ** index[r - 1])
            return
        for m in range(1, rest - slots + 2):
            rec(rest - m, slots - 1, acc / Fraction(m ** index[r - slots]))

    rec(p, r, Fraction(1))
    return frac_mod(total, p)


def test_primes():
    assert M.primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert M.primes_in(11, 30) == [13, 17, 19, 23, 29]
    assert M.is_prime(97) and not M.is_prime(91)


def test_is_prime_against_sieve():
    assert [n for n in range(-3, 10**5) if M.is_prime(n)] == M.primes_upto(10**5)
    # a Carmichael number, and the least strong pseudoprime to the bases 2..23
    assert not M.is_prime(561)
    assert not M.is_prime(3825123056546413051)
    assert M.is_prime(2**61 - 1) and not M.is_prime((2**31 - 1) * (2**19 - 1))


def test_is_prime_refuses_past_its_bases():
    # the least strong pseudoprime to all of 2..37: the bases cannot decide it
    assert M.MILLER_RABIN_LIMIT == 318665857834031151167461
    for n in (M.MILLER_RABIN_LIMIT, 2**89 - 1):
        with pytest.raises(RangeError):
            M.is_prime(n)
    with pytest.raises(RangeError):
        M.omega_mod((2, 1), M.prime_ring(M.MILLER_RABIN_LIMIT))


def test_primes_stay_within_two_limbs():
    # _mod_product cuts a factor below p into limbs below 2^L,
    # L = 53 - 2 bitlen(p); two limbs cover it while bitlen(p) - L <= L
    below, above = 2097143, 2097169  # the primes next to 2^21
    for p, two_limbs in ((below, True), (above, False)):
        limb = 53 - 2 * p.bit_length()
        assert (p.bit_length() - limb <= limb) is two_limbs, p
    assert M.MAX_PRIME == 2**21
    M._check_prime(below)
    for p in (above, 10**9 + 7):
        with pytest.raises(RangeError, match=r"below 2\^21"):
            M._check_prime(p)
        with pytest.raises(RangeError):
            M.omega_mod((2, 1), M.prime_ring(p))


@pytest.mark.parametrize("p", [2, 3, 397, 2097143])
def test_inverse_table(p):
    inv = M._inverses(p)
    assert inv.dtype == np.float64 and inv[0] == 0
    sample = range(1, p, max(1, p // 5000))
    assert [int(inv[m]) for m in sample] == [pow(m, -1, p) for m in sample]
    # the whole table: every entry in [1, p) and an inverse of its position
    table = inv[1:].astype(np.int64)
    assert table.min() >= 1 and table.max() < p
    assert (table * np.arange(1, p) % p == 1).all()


def test_hsum_examples():
    assert M.hsum_mod((1,), 5) == 0
    assert M.hsum_mod((2, 1), 5) == 1
    assert M.hsum_mod((1, 1), 3) == 2
    assert M.hsum_mod((), 7) == 1


def test_hsum_against_bruteforce():
    for p in (5, 7, 11):
        for w in range(1, 5):
            for k in W.indices_of_weight(w):
                if len(k) < p:
                    assert M.hsum_mod(k, p) == brute_hsum(k, p), (k, p)


def test_omega_examples():
    assert M.omega_mod((2, 1), M.prime_ring(5)) == 0
    assert M.omega_mod((1, 1, 1), M.prime_ring(5)) == 3
    assert M.omega_mod((1, 1), M.prime_ring(7)) == 0
    with pytest.raises(LengthError):
        M.omega_mod((3,), M.prime_ring(7))


def test_omega_against_bruteforce():
    # p = 2, 3 give p < r and p = r; weight 6 gives length-6 prefixes
    for p in (2, 3, 5, 7, 11, 13):
        ring = M.prime_ring(p)
        for w in range(2, 7):
            for k in W.indices_of_weight(w, min_len=2):
                assert M.omega_mod(k, ring) == brute_omega(k, p), (k, p)


def test_omega_symmetry():
    for p in (7, 31, 101):
        ring = M.prime_ring(p)
        for k in [(3, 1), (2, 1, 1), (4, 2, 1), (2, 2, 1, 1)]:
            base = M.omega_mod(k, ring)
            for perm in set(itertools.permutations(k)):
                assert M.omega_mod(perm, ring) == base


def test_omega_small_prime_edge():
    # fewer summands than parts: empty composition set
    assert M.omega_mod((1, 1, 1), M.prime_ring(2)) == 0


def dot(a, b):
    return a.dot(b)


def convolve(a, b):
    return np.convolve(a, b)[: len(a)]


@pytest.mark.parametrize("p", [397, 2097143], ids=["one-product", "two-limbs"])
def test_mod_product_against_python_ints(p):
    rng = np.random.default_rng(p)
    for n in (1, 7, 300):
        a, b = rng.integers(0, p, (2, n)).tolist()
        fa, fb = np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)
        assert int(M._mod_product(dot, fa, fb, p)) == sum(x * y for x, y in zip(a, b)) % p
        conv = [sum(a[j] * b[i - j] for j in range(i + 1)) % p for i in range(n)]
        assert M._mod_product(convolve, fa, fb, p).astype(np.int64).tolist() == conv
    # full-length dots: p - 1 products, as in omega_mod
    a, b = rng.integers(0, p, (2, p - 1))
    expected = sum(x * y for x, y in zip(a.tolist(), b.tolist())) % p
    assert int(M._mod_product(dot, a.astype(np.float64), b.astype(np.float64), p)) == expected


def test_mod_product_limb_bound_worst_case():
    # the largest admitted prime, p - 1 products of the largest odd residue:
    # limbs two bits wider than 53 - 2 bitlen(p) round this sum
    p = 2097143
    assert p == M.primes_in(2**21 - 100, M.MAX_PRIME)[-1]
    a = np.full(p - 1, p - 2, dtype=np.float64)
    assert (p - 1) * (p - 2) ** 2 % p == p - 4
    assert int(M._mod_product(dot, a, a, p)) == p - 4


def test_pair_vanishing_through_two_limbs():
    # omega_p(k1, k2) = 0 for p > k1 + k2 + 2, the `specials` suite's pair
    # identity, at the largest admitted prime
    ring = M.prime_ring(2097143)
    assert M.omega_mod((1, 2), ring) == M.omega_mod((3, 4), ring) == 0


def test_omega_mod_matches_int64_evaluator():
    training, holdout = default_prime_split(10)
    for p in training + holdout:
        ring = M.prime_ring(p)
        for w in range(3, 11):
            for k in W.partitions_of_weight(w):
                assert M.omega_mod(k, ring) == omega_mod_int64(k, p), (k, p)


def test_zeta_word_mod():
    assert zeta_word_mod(W.mt_word((2, 1)), 5) == 0
    u = 2 * W.y_word((2, 1))
    assert zeta_word_mod(u, 5) == 2 * M.hsum_mod((2, 1), 5) % 5
    assert zeta_word_mod(W.WordSum.zero(), 11) == 0
    with pytest.raises(DenominatorError):
        zeta_word_mod(Fraction(1, 5) * W.y_word((2,)), 5)


def test_kamano_consistency():
    """omega_mod agrees with the word route through the harmonic-sum map."""
    for w in range(2, 8):
        for k in W.indices_of_weight(w, min_len=2):
            for p in (11, 13, 17):
                got = (-1) ** k[-1] * zeta_word_mod(W.mt_word(k), p) % p
                assert M.omega_mod(k, M.prime_ring(p)) == got, (k, p)


def brute_bernoulli(n):
    """Exact Bernoulli numbers (B_1 = -1/2) by the defining recurrence."""
    bs = [Fraction(1)]
    for m in range(1, n + 1):
        s = Fraction(0)
        for j in range(m):
            s += math.comb(m + 1, j) * bs[j]
        bs.append(-s / (m + 1))
    return bs


def test_bern_examples():
    assert M.bern_div_mod(2, 5) == 0
    assert M.bern_div_mod(3, 5) == 2
    assert M.bern_div_mod(3, 7) == 1
    with pytest.raises(RangeError):
        M.bern_div_mod(1, 7)
    with pytest.raises(RangeError):
        M.bern_div_mod(6, 7)


def test_bern_against_exact():
    bs = brute_bernoulli(40)
    for p in (11, 17, 23, 43):
        for k in range(2, min(p - 2, 12)):
            if p - k <= 40:
                expected = frac_mod(bs[p - k] / k, p)
                assert M.bern_div_mod(k, p) == expected, (k, p)


def test_bern_against_recurrence_table():
    """The power-sum quotient equals the O(p^2) recurrence at every k."""
    for p in M.primes_upto(400):
        if p < 5:
            continue
        bern = bernoulli_mod_table(p)
        for k in range(2, p - 1):
            m = p - k
            expected = bern[m] * pow(k, -1, p) % p if m <= p - 3 else 0
            assert M.bern_div_mod(k, p) == expected, (k, p)


def test_ones_special_value():
    """omega_p({1}^k) = -k! B_{p-k}/k mod p."""
    for k in range(2, 7):
        for p in M.primes_upto(60):
            if p < k + 3:
                continue
            lhs = M.omega_mod((1,) * k, M.prime_ring(p))
            assert lhs == (-math.factorial(k) * M.bern_div_mod(k, p)) % p


def test_corollary_sum_small():
    """sum_j omega_p(k_1,...,k_j - 1,...,k_r) = 0 for all parts >= 2."""
    for w in range(4, 8):
        for k in W.indices_of_weight(w, min_len=2, min_part=2):
            for p in (11, 29, 97):
                ring = M.prime_ring(p)
                total = sum(M.omega_mod(k[:j] + (k[j] - 1,) + k[j + 1 :], ring) for j in range(len(k)))
                assert total % p == 0, (k, p)


def test_composite_modulus_rejected():
    for p in (1, 4, 9, 15):
        with pytest.raises(RangeError):
            M.omega_mod((2, 1), M.prime_ring(p))
        with pytest.raises(RangeError):
            M.hsum_mod((2, 1), p)
        with pytest.raises(RangeError):
            zeta_word_mod(W.y_word((2,)), p)
        with pytest.raises(RangeError):
            M.bern_div_mod(2, p)
    # the check comes before the empty-composition shortcut for p < r
    with pytest.raises(RangeError):
        M.omega_mod((1, 1, 1), M.prime_ring(1))


def test_index_format_parse():
    assert M.format_index((2, 1, 1)) == "2.1.1"
    assert M.parse_index("2.1.1") == (2, 1, 1)
    with pytest.raises(ValueError):
        M.parse_index("2.x")
    with pytest.raises(ValueError):
        M.parse_index("2.0")
