"""Tests for the word algebras: shuffle products, maps, regularization."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from mtomega import words as W
from mtomega.errors import (
    EmptyWordError,
    LengthError,
    NotInH1Error,
)
from mtomega.words import HAT1, X0, X1, HbarSum, WordSum
from oracles import eword_weight, reg0_word, rho, shuffle_hbar_raw


def ws(*letters):
    return WordSum.monomial(tuple(letters))


def all_words(max_len):
    for n in range(max_len + 1):
        yield from itertools.product((X0, X1), repeat=n)


def brute_shuffle(w1, w2):
    """Independent oracle: enumerate all interleavings explicitly."""
    out = {}

    def rec(a, b, acc):
        if not a and not b:
            out[tuple(acc)] = out.get(tuple(acc), 0) + 1
            return
        if a:
            rec(a[1:], b, acc + [a[0]])
        if b:
            rec(a, b[1:], acc + [b[0]])

    rec(tuple(w1), tuple(w2), [])
    return WordSum(out)


# ---------------------------------------------------------------------------
# shuffle


def test_shuffle_examples():
    assert W.shuffle(ws(X1), ws(X1)) == 2 * ws(X1, X1)
    assert W.shuffle(ws(X1), ws(X0, X1)) == ws(X1, X0, X1) + 2 * ws(X0, X1, X1)
    w = ws(X0, X1, X0, X1)
    assert W.shuffle(w, WordSum.unit()) == w
    assert W.shuffle(WordSum.unit(), w) == w


def test_shuffle_matches_bruteforce():
    words = [w for w in all_words(4)]
    rng = random.Random(7)
    for w1, w2 in rng.sample(list(itertools.product(words, words)), 200):
        assert W.shuffle(ws(*w1), ws(*w2)) == brute_shuffle(w1, w2)


def test_shuffle_commutative_associative():
    small = [ws(X1), ws(X0, X1), ws(X1, X1), ws(X0, X0, X1), ws(X1, X0, X1)]
    for u, v in itertools.combinations(small, 2):
        assert W.shuffle(u, v) == W.shuffle(v, u)
    for u, v, w in itertools.combinations(small, 3):
        if sum(len(word) for x in (u, v, w) for word, _c in x.items()) > 7:
            continue
        assert W.shuffle(W.shuffle(u, v), w) == W.shuffle(u, W.shuffle(v, w))


def test_shuffle_weight_homogeneous():
    u = ws(X0, X1) + 3 * ws(X1, X1)
    v = ws(X1)
    for word, _c in W.shuffle(u, v).items():
        assert len(word) == 3


# ---------------------------------------------------------------------------
# index <-> word


def test_word_index_bijection():
    assert W.word_of_index((2, 1)) == (X0, X1, X1)
    assert W.word_of_index((1,)) == (X1,)
    assert W.index_of_word((X1, X0, X1)) == (1, 2)
    assert W.index_of_word(()) == ()
    for w in all_words(6):
        if not w or w[-1] == X1:
            assert W.word_of_index(W.index_of_word(w)) == w
    with pytest.raises(NotInH1Error):
        W.index_of_word((X1, X0))
    with pytest.raises(ValueError):
        W.check_index((0, 1))


def test_membership_predicates():
    assert ws(X0, X1).in_h0() and ws(X0, X1).in_h1()
    assert ws(X1).in_h1() and not ws(X1).in_h0()
    assert WordSum.unit().in_h0()
    assert not ws(X1, X0).in_h1()


# ---------------------------------------------------------------------------
# mt_word


def test_mt_word_examples():
    assert W.mt_word((1, 1)) == ws(X0, X1)
    assert W.mt_word((1, 1, 1)) == 2 * ws(X0, X1, X1)
    assert W.mt_word((2, 1)) == ws(X0, X0, X1)
    with pytest.raises(LengthError):
        W.mt_word((3,))


def test_mt_word_admissible():
    for w in range(2, 7):
        for k in W.indices_of_weight(w, min_len=2):
            assert W.mt_word(k).in_h0()


# ---------------------------------------------------------------------------
# phi


def test_phi_examples():
    assert not W.phi(W.y_word((1,)))
    assert W.phi(W.y_word((2,))) == 2 * W.y_word((2,))
    assert not W.phi(W.y_word((1, 1)))
    assert W.phi(WordSum.unit()) == WordSum.unit()
    with pytest.raises(NotInH1Error):
        W.phi(ws(X1, X0))


# ---------------------------------------------------------------------------
# regularization


def test_reg_shuffle0_examples():
    assert W.reg_shuffle0(ws(X0, X1)) == ws(X0, X1)
    assert not W.reg_shuffle0(ws(X1))
    assert W.reg_shuffle0(ws(X1, X0, X1)) == -2 * ws(X0, X1, X1)
    with pytest.raises(NotInH1Error):
        W.reg_shuffle0(ws(X0))


def test_reg_shuffle0_projection():
    for w in all_words(6):
        if w and w[-1] != X1:
            continue
        once = W.reg_shuffle0(ws(*w))
        assert once.in_h0()
        assert W.reg_shuffle0(once) == once


def test_reg_shuffle0_splits_off_x1():
    # u = reg0(u) + sum of shuffles with x1 powers: check u - reg0(u) is in
    # the span of v sh x1 by reconstructing the x1-expansion coefficients
    rng = random.Random(3)
    for w in rng.sample([w for w in all_words(6) if not w or w[-1] == X1], 20):
        u = ws(*w)
        parts = []
        cur = u
        x1 = ws(X1)
        for _i in range(8):
            w0 = W.reg_shuffle0(cur)
            parts.append(w0)
            cur = cur - w0
            if not cur:
                break
            # peel one shuffle power of x1: cur = x1 sh next (exactly divisible)
            nxt = WordSum.zero()
            rem = cur
            while rem:
                word, c = max(rem.items(), key=lambda kv: (len(kv[0]), kv[0]))
                ell = 0
                while ell < len(word) and word[ell] == X1:
                    ell += 1
                piece = WordSum.monomial(word[1:], Fraction(c, ell))
                nxt = nxt + piece
                rem = rem - W.shuffle(x1, piece)
            cur = nxt
        total = WordSum.zero()
        acc = WordSum.unit()
        for i, part in enumerate(parts):
            total = total + W.shuffle(part, acc)
            acc = W.shuffle(acc, x1)
        assert total == u


# ---------------------------------------------------------------------------
# zeta_s_word


def test_zeta_s_word_examples():
    assert not W.zeta_s_word((1,))
    assert W.zeta_s_word((2, 1)) == 3 * ws(X0, X1, X1)
    assert W.zeta_s_word((2,)) == 2 * ws(X0, X1)
    with pytest.raises(LengthError):
        W.zeta_s_word(())


def test_zeta_s_word_equals_reg_phi():
    for w in range(1, 7):
        for k in W.indices_of_weight(w):
            expected = W.reg_shuffle0(W.phi(W.y_word(k)))
            assert W.zeta_s_word(k) == expected, k


# ---------------------------------------------------------------------------
# word identity


def test_check_identity_words_examples():
    assert W.check_identity_words((1, 1))
    assert W.check_identity_words((2, 1))
    assert W.check_identity_words((1, 1, 1))
    with pytest.raises(LengthError):
        W.check_identity_words((4,))


def test_omega_word_is_the_mt_route_and_checks_phi(monkeypatch):
    assert W.omega_word((1, 1)) == -2 * W.mt_word((1, 1))
    assert W.omega_word((2, 1)) == W.mt_word((1, 2)) - W.mt_word((2, 1))
    # a phi that breaks the identity makes the exact check refuse the value
    monkeypatch.setattr(W, "phi", lambda u: u + W.y_word((2, 2)))
    with pytest.raises(ArithmeticError, match="two routes"):
        W.omega_word((2, 1))
    assert not W.check_identity_words((2, 1))


# ---------------------------------------------------------------------------
# hbar algebra


def test_shuffle_hbar_examples():
    e1, ehat = W.e(1), W.e(HAT1)
    assert W.shuffle_hbar(e1, e1) == HbarSum.monomial((1, 1)) + HbarSum.monomial(
        (1, HAT1)
    )
    assert W.shuffle_hbar(ehat, HbarSum.unit()) == ehat
    # e2 sh ehat via the raw-letter oracle
    assert W.shuffle_hbar(W.e(2), ehat) == shuffle_hbar_raw(W.e(2), ehat)


def test_a_mult_examples():
    assert W.a_mult(1, W.e(HAT1)) == HbarSum.monomial((2,)) - HbarSum.monomial(
        (HAT1,), hbar=1
    )
    assert W.a_mult(1, W.e(1)) == W.e(2)
    assert W.a_mult(2, HbarSum.monomial((1, 1))) == HbarSum.monomial((3, 1))
    with pytest.raises(EmptyWordError):
        W.a_mult(1, HbarSum.unit())


def test_rho_examples():
    assert not rho(HbarSum.monomial((2,), hbar=1))
    assert rho(HbarSum.monomial((HAT1, 2))) == ws(X1, X0, X1)
    e1 = W.e(1)
    assert rho(W.shuffle_hbar(e1, e1)) == 2 * ws(X1, X1)


def all_ewords(max_weight):
    """Extended-index words of weight <= max_weight (weight of 1hat is 1)."""
    letters = [HAT1] + list(range(1, max_weight + 1))

    def wt(l):
        return 1 if l == HAT1 else l

    out = [()]
    frontier = [()]
    while frontier:
        new = []
        for ew in frontier:
            base = sum(wt(l) for l in ew)
            for l in letters:
                if base + wt(l) <= max_weight:
                    new.append(ew + (l,))
        out.extend(new)
        frontier = new
    return out


def test_shuffle_hbar_against_raw_oracle():
    ewords = [ew for ew in all_ewords(3) if ew]
    for w1, w2 in itertools.product(ewords, ewords):
        u, v = HbarSum.monomial(w1), HbarSum.monomial(w2)
        assert W.shuffle_hbar(u, v) == shuffle_hbar_raw(u, v), (w1, w2)


def test_shuffle_hbar_commutative_associative():
    gens = [W.e(1), W.e(HAT1), W.e(2), HbarSum.monomial((1, HAT1))]
    for u, v in itertools.combinations(gens, 2):
        assert W.shuffle_hbar(u, v) == W.shuffle_hbar(v, u)
    for u, v, w in itertools.combinations(gens, 3):
        lhs = W.shuffle_hbar(W.shuffle_hbar(u, v), w)
        rhs = W.shuffle_hbar(u, W.shuffle_hbar(v, w))
        assert lhs == rhs


def test_shuffle_hbar_weight_homogeneous():
    u = HbarSum.monomial((2, HAT1), hbar=1)
    v = W.e(1)
    total = 5  # u has weight 1 (hbar) + 2 + 1, v weight 1
    for (h, ew), _c in W.shuffle_hbar(u, v).items():
        assert h + eword_weight(ew) == total


def test_rho_is_shuffle_homomorphism():
    ewords = [ew for ew in all_ewords(3) if ew]
    for w1, w2 in itertools.product(ewords, ewords):
        if eword_weight(w1) + eword_weight(w2) > 5:
            continue
        u, v = HbarSum.monomial(w1), HbarSum.monomial(w2)
        assert rho(W.shuffle_hbar(u, v)) == W.shuffle(rho(u), rho(v))


def test_rho_left_multiplication():
    for ew in [(HAT1,), (1,), (2, 1), (HAT1, 2)]:
        u = HbarSum.monomial(ew)
        assert rho(W.a_mult(1, u)) == rho(u).prepend((X0,))


def test_negative_hbar_rejected():
    with pytest.raises(ValueError):
        HbarSum.monomial((1,), hbar=-1)


# ---------------------------------------------------------------------------
# coefficient types: ints unless a division happens


def all_int(pairs):
    return all(type(c) is int for _key, c in pairs)


def test_integral_products_keep_int_coefficients():
    u, v = W.y_word((2, 1)) + 3 * ws(X1), W.mt_word((1, 2, 1))
    for x in (W.shuffle(u, v), W.phi(u), W.mt_word((3, 1, 2)), W.shuffle_many([u, v, u])):
        assert x and all_int(x.items())
    base = W.shuffle_hbar_many([W.e(1), W.e(HAT1), 2 * W.e(2)])
    for x in (base, W.a_mult(3, base), W.shuffle_hbar(base, W.e(1) - W.e(3))):
        assert x and all_int(x.items())
    y1, y2 = W.y_series(2, 4, [1, 0]), W.y_series(2, 4, [1, -2])
    for x in (y1.shuffle(y2), y1.concat(y2), W.s_subset(3, 3, [1, 2, 3]).map_words(W._phi_word)):
        assert x.terms and all_int(x.terms.items())
    assert all_int(W.TPoly.unit(2, 3).terms.items())


def test_reg_shuffle0_divides():
    # a leading x1-run of length ell divides by ell; on a single word the
    # values come out integral, on a half-integral input they need not
    got = W.reg_shuffle0(ws(X1, X1, X1, X0, X0, X1))
    assert str(got) == "-4*x0x0x1x1x1x1 - 3*x0x1x0x1x1x1 - 2*x0x1x1x0x1x1 - 1*x0x1x1x1x0x1"
    half = W.reg_shuffle0(Fraction(1, 2) * ws(X1, X1, X0, X1))
    assert half == WordSum({(X0, X1, X1, X1): Fraction(3, 2)})


def test_reg_shuffle0_closed_form_matches_recursion():
    """reg0(x1^l x0 v) = (-1)^l x0 (x1^l sh v) and reg0(x1^l) = 0 against the
    recursion that divides by l, on every h1 word of length 1..10; on a
    single word the coefficients are ints."""
    count = 0
    for n in range(10):
        for body in itertools.product((X0, X1), repeat=n):
            got = W.reg_shuffle0(ws(*body, X1))
            assert got == reg0_word((*body, X1)), body
            assert all_int(got.items()), body
            count += 1
    assert count == 1023


def test_fraction_and_int_coefficients_agree():
    w = (X0, X1)
    assert WordSum({w: Fraction(2)}) == WordSum({w: 2})
    assert str(WordSum({w: Fraction(2)})) == str(WordSum({w: 2})) == "2*x0x1"
    u = W.mt_word((2, 1, 1)) - W.y_word((1, 2))

    def fraction_only(scalar):  # the coefficients of scalar * u, all Fraction
        return WordSum({w: Fraction(scalar) * Fraction(c) for w, c in u.items()})

    for scalar in (Fraction(1, 2), 2, -1):
        assert scalar * u == fraction_only(scalar)
        assert str(scalar * u) == str(fraction_only(scalar))
    assert all_int((2 * u).items())


def test_non_int_scalars_become_fractions():
    for c in (True, 0.5, np.int64(3), Fraction(3)):
        assert type(WordSum({(X1,): c}).items()[0][1]) is Fraction, c
        assert type((ws(X1) * c).items()[0][1]) is Fraction, c


# ---------------------------------------------------------------------------
# generating identities


def test_generating_identities_weight5():
    results = W.check_generating_identities(5)
    assert results, "no identity instances generated"
    for rec in results:
        assert rec.ok, (rec.identity, rec.instance, rec.failures)
    names = {r.identity for r in results}
    assert names == {
        "y-series-product-rule",
        "shuffle-ordered-product",
        "phi-of-y(u)-times-shuffles",
        "phi-of-shuffles",
    }
