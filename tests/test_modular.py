"""Tests for the finite-side arithmetic, with exact-rational brute oracles."""

import itertools
import math
from fractions import Fraction

import pytest

from mtomega import modular as M
from mtomega import words as W
from mtomega.errors import DenominatorError, LengthError, RangeError


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
    assert M.omega_mod((2, 1), 5) == 0
    assert M.omega_mod((1, 1, 1), 5) == 3
    assert M.omega_mod((1, 1), 7) == 0
    with pytest.raises(LengthError):
        M.omega_mod((3,), 7)


def test_omega_against_bruteforce():
    for p in (5, 7, 11, 13):
        for w in range(2, 6):
            for k in W.indices_of_weight(w, min_len=2):
                assert M.omega_mod(k, p) == brute_omega(k, p), (k, p)


def test_omega_symmetry():
    for p in (7, 31, 101):
        for k in [(3, 1), (2, 1, 1), (4, 2, 1), (2, 2, 1, 1)]:
            base = M.omega_mod(k, p)
            for perm in set(itertools.permutations(k)):
                assert M.omega_mod(perm, p) == base


def test_omega_small_prime_edge():
    # fewer summands than parts: empty composition set
    assert M.omega_mod((1, 1, 1), 2) == 0


def test_zeta_word_mod():
    assert M.zeta_word_mod(W.mt_word((2, 1)), 5) == 0
    u = 2 * W.y_word((2, 1))
    assert M.zeta_word_mod(u, 5) == 2 * M.hsum_mod((2, 1), 5) % 5
    assert M.zeta_word_mod(W.WordSum.zero(), 11) == 0
    with pytest.raises(DenominatorError):
        M.zeta_word_mod(Fraction(1, 5) * W.y_word((2,)), 5)


def test_kamano_consistency():
    """omega_mod agrees with the word route through the harmonic-sum map."""
    for w in range(2, 8):
        for k in W.indices_of_weight(w, min_len=2):
            for p in (11, 13, 17):
                got = (-1) ** k[-1] * M.zeta_word_mod(W.mt_word(k), p) % p
                assert M.omega_mod(k, p) == got, (k, p)


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


def test_ones_special_value():
    """omega_p({1}^k) = -k! B_{p-k}/k mod p."""
    for k in range(2, 7):
        for p in M.primes_upto(60):
            if p < k + 3:
                continue
            lhs = M.omega_mod((1,) * k, p)
            assert lhs == (-math.factorial(k) * M.bern_div_mod(k, p)) % p


def test_corollary_sum_small():
    """sum_j omega_p(k_1,...,k_j - 1,...,k_r) = 0 for all parts >= 2."""
    for w in range(4, 8):
        for k in W.indices_of_weight(w, min_len=2, min_part=2):
            for p in (11, 29, 97):
                total = sum(
                    M.omega_mod(k[:j] + (k[j] - 1,) + k[j + 1 :], p)
                    for j in range(len(k))
                )
                assert total % p == 0, (k, p)


def test_composite_modulus_rejected():
    for p in (1, 4, 9, 15):
        with pytest.raises(RangeError):
            M.omega_mod((2, 1), p)
        with pytest.raises(RangeError):
            M.hsum_mod((2, 1), p)
        with pytest.raises(RangeError):
            M.zeta_word_mod(W.y_word((2,)), p)
        with pytest.raises(RangeError):
            M.bern_div_mod(2, p)
    # the check comes before the empty-composition shortcut for p < r
    with pytest.raises(RangeError):
        M.omega_mod((1, 1, 1), 1)


def test_index_format_parse():
    assert M.format_index((2, 1, 1)) == "2.1.1"
    assert M.parse_index("2.1.1") == (2, 1, 1)
    with pytest.raises(ValueError):
        M.parse_index("2.x")
    with pytest.raises(ValueError):
        M.parse_index("2.0")
