"""Tests for exact cyclotomic arithmetic and the q-series evaluators."""

import itertools
from fractions import Fraction

import pytest

from mtomega import cyclo as C
from mtomega import modular as M
from mtomega import words as W
from mtomega.errors import LengthError, NotIntegralError, PoleError, RangeError
from mtomega.words import HAT1, HbarSum

import oracles as O


def elem(n, *coeffs):
    return C.CycloElem.from_coeffs(C.CycloCtx(n), [Fraction(c) for c in coeffs])


def test_cyclotomic_polynomials():
    known = {
        1: (-1, 1),
        2: (1, 1),
        3: (1, 1, 1),
        4: (1, 0, 1),
        5: (1, 1, 1, 1, 1),
        6: (1, -1, 1),
        8: (1, 0, 0, 0, 1),
        9: (1, 0, 0, 1, 0, 0, 1),
        10: (1, -1, 1, -1, 1),
        12: (1, 0, -1, 0, 1),
    }
    for n, coeffs in known.items():
        assert C.cyclotomic_poly(n) == coeffs, n


def test_cyclo_elem_normalization():
    x = elem(3, Fraction(2, 4), Fraction(1, 2))
    assert x.num == (1, 1) and x.den == 2
    assert elem(3, 0, 0).den == 1
    # reduction mod the modulus: zeta^2 = -1 - zeta in Q(zeta_3)
    z2 = C.CycloElem(C.CycloCtx(3), [0, 0, 1])
    assert z2.coeffs == (Fraction(-1), Fraction(-1))


def test_cyclo_inverse_examples():
    ctx3, ctx4 = C.CycloCtx(3), C.CycloCtx(4)
    one3 = C.CycloElem.one(ctx3)
    assert C.cyclo_inv(one3) == one3
    assert C.cyclo_inv(elem(3, 1, 1)) == elem(3, 0, -1)
    assert C.cyclo_inv(C.CycloElem.zeta_pow(ctx4, 1)) == elem(4, 0, -1)
    with pytest.raises(ZeroDivisionError):
        C.cyclo_inv(C.CycloElem.zero(ctx3))


def test_qint_units():
    # den/[m] as a nonnegative vector in Z[x]/(x^n - 1): the 0/1 unit form
    # when gcd(m, n) = 1, the closed form over n/gcd(m, n) otherwise
    for n in range(2, 21):
        ctx = C.CycloCtx(n)
        one = C.CycloElem.one(ctx)
        ring = C._packed_ring(n)
        for m in range(1, n):
            vec = C._scaled_inverse(n, ring.den, m)
            assert len(vec) == n and min(vec) >= 0 and sum(vec) == ring.masses[m], (n, m)
            assert C.q_int(ctx, m) * C.CycloElem(ctx, vec, ring.den) == one, (n, m)


def test_field_axioms_sample():
    ctx = C.CycloCtx(12)
    a = elem(12, 1, -2, 0, Fraction(1, 3))
    b = elem(12, 0, 1, 5, -1)
    c = elem(12, 2, 0, 0, 7)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * C.cyclo_inv(a) == C.CycloElem.one(ctx)
    assert a**3 == a * a * a


def test_omega_at_root_examples():
    assert C.omega_at_root((1, 1), 3) == elem(3, 0, -2)
    assert C.omega_at_root((2, 1), 3) == elem(3, 1, 2)
    assert C.omega_at_root((2, 1), 2) == elem(2, -1)
    # empty composition set below the length
    assert not C.omega_at_root((1, 1, 1), 2)
    with pytest.raises(LengthError):
        C.omega_at_root((2,), 5)


def test_omega_at_root_bruteforce():
    for n in range(2, 9):
        for w in range(2, 5):
            for k in W.indices_of_weight(w, min_len=2):
                assert C.omega_at_root(k, n) == O.omega_at_root(k, n), (k, n)


# omega is symmetric in the index, so the sorted indices cover weight <= 5
ORACLE_INDICES = [
    k for w in range(2, 6) for k in W.indices_of_weight(w, min_len=2) if k == tuple(sorted(k))[::-1]
]
ORACLE_EWORDS = [(1,), (3,), (HAT1,), (2, 1), (HAT1, 2), (1, HAT1, 1), (2, 2, 1), (HAT1, 1, 2)]
# a weight-5 HbarSum with hbar terms, hat letters and a negative coefficient
ORACLE_HBAR = W.a_mult(2, W.shuffle_hbar(W.e(2), W.e(HAT1)))


@pytest.mark.parametrize("n", range(2, 31))
def test_values_at_root_match_termwise_oracle(n):
    # primes, the prime powers 4, 8, 9, 16, 25, 27, composites with non-unit [m]
    for k in ORACLE_INDICES:
        assert C.omega_at_root(k, n) == O.omega_at_root(k, n), (k, n)
    for u in ORACLE_EWORDS + [ORACLE_HBAR]:
        assert C.z_at_root(u, n) == O.z_at_root(u, n), (u, n)


@pytest.mark.parametrize("n", [97, 120, 199])
def test_omega_at_root_large_n_matches_oracle(n):
    assert C.omega_at_root((2, 1), n) == O.omega_at_root((2, 1), n)


def test_wide_coefficients_match_oracle():
    # at n = 30 (den = 30) these weight-6 coefficient bounds need more than 64 bits
    n = 30
    for k in [(4, 2), (4, HAT1, 1)]:
        assert C._PackedRing(n).widen(k).bits > 64, k
    assert C.omega_at_root((4, 2), n) == O.omega_at_root((4, 2), n)
    assert C.z_at_root((4, HAT1, 1), n) == O.z_at_root((4, HAT1, 1), n)


def test_omega_at_root_symmetry():
    for n in (5, 9, 16):
        for k in [(2, 1), (3, 1, 1), (2, 2, 1)]:
            base = C.omega_at_root(k, n)
            for perm in set(itertools.permutations(k)):
                assert C.omega_at_root(perm, n) == base


def test_z_at_root_examples():
    assert C.z_at_root((1,), 2) == elem(2, 1)
    assert C.z_at_root((1, 1), 3) == elem(3, 0, -1)
    assert C.z_at_root(W.e(2), 3) == elem(3, 0, 2)
    # hbar acts as 1 - zeta
    u = W.e(2).hbar_shift(1)
    assert C.z_at_root(u, 3) == C.one_minus_zeta(C.CycloCtx(3)) * C.z_at_root((2,), 3)
    # extended letter
    assert C.z_at_root((HAT1,), 3) == O.f_weight(3, 1, HAT1) + O.f_weight(3, 2, HAT1)


def test_reduce_at_one_examples():
    assert C.reduce_at_one(C.omega_at_root((2, 1), 5), 5) == M.omega_mod((2, 1), 5)
    assert C.reduce_at_one(elem(3, 1, 2), 3) == 0
    assert C.reduce_at_one(C.CycloElem.zero(C.CycloCtx(7)), 7) == 0
    with pytest.raises(NotIntegralError):
        C.reduce_at_one(elem(3, Fraction(1, 3), Fraction(2, 3)), 3)
    with pytest.raises(RangeError):
        C.reduce_at_one(elem(4, 1, 0), 4)  # 4 is not prime


def test_reduce_at_one_after_unit_clearing():
    # (1 - zeta)^2 / 3 in Q(zeta_3) is integral: equals -zeta after clearing
    ctx = C.CycloCtx(3)
    lam2 = C.one_minus_zeta(ctx) * C.one_minus_zeta(ctx)
    x = lam2 * Fraction(1, 3)
    assert x == elem(3, 0, -1)  # the constructor normalizes 3/3
    assert C.reduce_at_one(x, 3) == 2  # -zeta -> -1 = 2 mod 3
    # (1 - zeta)^3 / 3 has positive valuation: reduces to zero
    x3 = lam2 * C.one_minus_zeta(ctx) * Fraction(1, 3)
    assert C.reduce_at_one(x3, 3) == 0


def test_reduce_at_one_with_p_in_the_denominator():
    # at p = 5: (1 - zeta)^4 = 5 u, u = 1/([1][2][3][4]) = -1 mod (1 - zeta) (Wilson)
    ctx = C.CycloCtx(5)
    lam = C.one_minus_zeta(ctx)
    assert C.reduce_at_one(lam**4 * Fraction(1, 5), 5) == 4
    assert C.reduce_at_one(lam**4 * Fraction(1, 15), 5) == 3  # -1/3 = 3 mod 5
    # (1 - zeta)^3 / 5 keeps the denominator 5 (s = 1) and has valuation -1
    x = lam**3 * Fraction(1, 5)
    assert x.den == 5
    with pytest.raises(NotIntegralError):
        C.reduce_at_one(x, 5)


def test_fmzv_reduction_small_sweep():
    for p in (2, 3, 5, 7, 11, 13):
        for w in range(2, 5):
            for k in W.indices_of_weight(w, min_len=2):
                got = C.reduce_at_one(C.omega_at_root(k, p), p)
                assert got == M.omega_mod(k, p), (k, p)


def test_l_series_examples():
    out = C.l_series_rational(W.e(HAT1), Fraction(1, 2), 2)
    assert out == [Fraction(1, 2), Fraction(1, 6)]
    assert C.l_series_rational(HbarSum.unit(), Fraction(1, 2), 3) == [0, 0, 0]
    with pytest.raises(PoleError):
        C.l_series_rational(W.e(1), Fraction(-1), 4)
    with pytest.raises(PoleError):
        C.l_series_rational(W.e(1), Fraction(1), 4)


def test_l_series_hbar_action():
    q = Fraction(2, 3)
    u = W.e(2).hbar_shift(2)
    plain = C.l_series_rational(W.e(2), q, 8)
    shifted = C.l_series_rational(u, q, 8)
    assert shifted == [(1 - q) ** 2 * c for c in plain]


def series_product_check(u, v, q, order):
    cu = C.l_series_rational(u, q, order)
    cv = C.l_series_rational(v, q, order)
    cw = C.l_series_rational(W.shuffle_hbar(u, v), q, order)
    for m in range(2, order + 1):
        conv = sum(cu[i - 1] * cv[m - i - 1] for i in range(1, m))
        if cw[m - 1] != conv:
            return False
    # nonempty factors have no t^1 cross term
    return cw[0] == 0


def test_series_shuffle_homomorphism():
    q = Fraction(1, 2)
    for w1, w2 in [((1,), (1,)), ((2,), (HAT1,)), ((1, HAT1), (1,)), ((2,), (2,))]:
        u, v = HbarSum.monomial(w1), HbarSum.monomial(w2)
        assert series_product_check(u, v, q, 20), (w1, w2)


def test_check_q_kamano_examples():
    assert C.check_q_kamano((1, 1), 3)
    assert C.check_q_kamano((2, 1), 2)
    assert C.check_q_kamano((1, 1, 1), 5)
    with pytest.raises(LengthError):
        C.check_q_kamano((2,), 5)


def test_check_sym_sum_examples():
    assert C.check_sym_sum((2, 2), 2)
    assert C.check_sym_sum((2, 2), 3)
    assert C.check_sym_sum((3, 2), 4)
    with pytest.raises(RangeError):
        C.check_sym_sum((2, 1), 5)
    with pytest.raises(RangeError):
        C.check_sym_sum((3,), 5)


def test_sym_sum_222case_expansion():
    # for all parts = 2 the theorem collapses to the binomial identity
    # sum_j C(r, j) (1-zeta)^(j-1) omega({2}^(r-j), {1}^j) = 0
    import math

    for n in (2, 3, 7, 10):
        for r in (2, 3):
            ctx = C.CycloCtx(n)
            total = C.CycloElem.zero(ctx)
            for j in range(1, r + 1):
                idx = (2,) * (r - j) + (1,) * j
                term = math.comb(r, j) * C.omega_at_root(idx, n)
                if j > 1:
                    term = term * C._one_minus_zeta_pow(n, j - 1)
                total = total + term
            assert not total, (n, r)
            assert C.check_sym_sum((2,) * r, n)
    # the same collapse, read off the enumeration itself
    for r in range(2, 6):
        assert W.vanishing_sum_terms((2,) * r) == {
            (j - 1, (2,) * (r - j) + (1,) * j): math.comb(r, j) for j in range(1, r + 1)
        }


def test_weight3_relation_all_n_to_200():
    # proven for every n; this is the long exact sweep, so it sits last
    lam = Fraction(-1, 2)
    for n in range(2, 201):
        lhs = C.omega_at_root((2, 1), n)
        rhs = lam * C.one_minus_zeta(C.CycloCtx(n)) * C.omega_at_root((1, 1), n)
        assert lhs == rhs, n


def test_json_roundtrip():
    x = elem(3, 1, 2)
    data = x.to_json()
    assert data == {"n": 3, "coeffs": ["1", "2"]}
    assert C.CycloElem.from_json(data) == x
    y = elem(5, Fraction(1, 3), 0, -2, Fraction(7, 2))
    assert C.CycloElem.from_json(y.to_json()) == y
