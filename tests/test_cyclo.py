"""Tests for exact cyclotomic arithmetic and the q-series evaluators."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from mtomega import cyclo as C
from mtomega import modular as M
from mtomega import words as W
from mtomega.errors import LengthError, NotIntegralError, RangeError
from mtomega.words import HAT1, HbarSum

import oracles as O
from oracles import PoleError


def elem(n, *coeffs):
    return O.cyclo_elem(C.CycloCtx(n), coeffs)


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
    assert O.cyclo_inv(one3) == one3
    assert O.cyclo_inv(elem(3, 1, 1)) == elem(3, 0, -1)
    assert O.cyclo_inv(C.CycloElem(ctx4, [0, 1])) == elem(4, 0, -1)
    with pytest.raises(ZeroDivisionError):
        O.cyclo_inv(C.CycloElem.zero(ctx3))


def test_qint_units():
    # den/[m] as a nonnegative vector in Z[x]/(x^n - 1): the 0/1 unit form
    # when gcd(m, n) = 1, the closed form over n/gcd(m, n) otherwise
    for n in range(2, 21):
        ctx = C.CycloCtx(n)
        one = C.CycloElem.one(ctx)
        ring = C.packed_ring(n)
        for m in range(1, n):
            vec = C._scaled_inverse(n, ring.den, m)
            assert len(vec) == n and min(vec) >= 0 and sum(vec) == ring.masses[m], (n, m)
            q_int = C.CycloElem(ctx, [1] * m)
            assert q_int * C.CycloElem(ctx, vec, ring.den) == one, (n, m)


def test_field_axioms_sample():
    ctx = C.CycloCtx(12)
    a = elem(12, 1, -2, 0, Fraction(1, 3))
    b = elem(12, 0, 1, 5, -1)
    c = elem(12, 2, 0, 0, 7)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * O.cyclo_inv(a) == C.CycloElem.one(ctx)
    assert a**3 == a * a * a
    with pytest.raises(RangeError):  # the field inverse lives in the test oracles
        a**-1


def test_omega_at_root_examples():
    assert C.omega_at_root((1, 1), C.packed_ring(3)) == elem(3, 0, -2)
    assert C.omega_at_root((2, 1), C.packed_ring(3)) == elem(3, 1, 2)
    assert C.omega_at_root((2, 1), C.packed_ring(2)) == elem(2, -1)
    # empty composition set below the length
    assert not C.omega_at_root((1, 1, 1), C.packed_ring(2))
    with pytest.raises(LengthError):
        C.omega_at_root((2,), C.packed_ring(5))


def test_omega_at_root_bruteforce():
    for n in range(2, 9):
        ring = C.packed_ring(n)
        for w in range(2, 5):
            for k in W.indices_of_weight(w, min_len=2):
                assert C.omega_at_root(k, ring) == O.omega_at_root(k, n), (k, n)


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
    ring = C.packed_ring(n)
    for k in ORACLE_INDICES:
        assert C.omega_at_root(k, ring) == O.omega_at_root(k, n), (k, n)
    for u in ORACLE_EWORDS + [ORACLE_HBAR]:
        assert C.z_at_root(u, ring) == O.z_at_root(u, n), (u, n)


@pytest.mark.parametrize("n", [97, 120, 199])
def test_omega_at_root_large_n_matches_oracle(n):
    assert C.omega_at_root((2, 1), C.packed_ring(n)) == O.omega_at_root((2, 1), n)


def test_wide_coefficients_match_oracle():
    # at n = 30 (den = 30) these weight-6 coefficient bounds need more than 64 bits
    n = 30
    for k in [(4, 2), (4, HAT1, 1)]:
        assert C._PackedRing(n).widen(k).bits > 64, k
    assert C.omega_at_root((4, 2), C.packed_ring(n)) == O.omega_at_root((4, 2), n)
    assert C.z_at_root((4, HAT1, 1), C.packed_ring(n)) == O.z_at_root((4, HAT1, 1), n)


@pytest.mark.parametrize("n", [23, 47])
def test_series_reslot_on_widen(n):
    # a fresh ring, its stored values dropped, so every value comes from the
    # stored series: (1, 1, 7) shares the prefix (1, 1) of (1, 1, 2) and widens
    # the ring, which moves that series into the wider slots for the values after
    ring = C.packed_ring(n)
    widths = []
    for k in [(1, 1, 2), (1, 1, 7), (1, 1, 2), (1, 1, 3)]:
        ring.omega.clear()
        assert C.omega_at_root(k, ring) == O.omega_at_root(k, n), (k, n)
        widths.append(ring.nbytes)
    assert widths[0] < widths[1] == widths[3]
    assert {(1,), (1, 1)} <= set(ring._series)
    assert all(c >> ring.size == 0 for series in ring._series.values() for c in series)


def test_omega_at_root_symmetry():
    for n in (5, 9, 16):
        for k in [(2, 1), (3, 1, 1), (2, 2, 1)]:
            base = C.omega_at_root(k, C.packed_ring(n))
            for perm in set(itertools.permutations(k)):
                assert C.omega_at_root(perm, C.packed_ring(n)) == base


def test_z_at_root_examples():
    assert C.z_at_root((1,), C.packed_ring(2)) == elem(2, 1)
    assert C.z_at_root((1, 1), C.packed_ring(3)) == elem(3, 0, -1)
    assert C.z_at_root(W.e(2), C.packed_ring(3)) == elem(3, 0, 2)
    # hbar acts as 1 - zeta
    u = HbarSum.monomial((2,), hbar=1)
    ring = C.packed_ring(3)
    assert C.z_at_root(u, ring) == C.one_minus_zeta(C.CycloCtx(3)) * C.z_at_root((2,), ring)
    # extended letter
    assert C.z_at_root((HAT1,), C.packed_ring(3)) == O.f_weight(3, 1, HAT1) + O.f_weight(3, 2, HAT1)


def test_reduce_at_one_examples():
    root, mod = C.packed_ring(5), M.prime_ring(5)
    assert C.reduce_at_one(C.omega_at_root((2, 1), root), 5) == M.omega_mod((2, 1), mod)
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
    # (1 - zeta)^3 / 5 keeps the denominator 5 and has valuation -1
    x = lam**3 * Fraction(1, 5)
    assert x.den == 5
    with pytest.raises(NotIntegralError):
        C.reduce_at_one(x, 5)


def test_fmzv_reduction_small_sweep():
    for p in (2, 3, 5, 7, 11, 13):
        root, mod = C.packed_ring(p), M.prime_ring(p)
        for w in range(2, 5):
            for k in W.indices_of_weight(w, min_len=2):
                got = C.reduce_at_one(C.omega_at_root(k, root), p)
                assert got == M.omega_mod(k, mod), (k, p)


def test_l_series_examples():
    out = O.l_series_rational(W.e(HAT1), Fraction(1, 2), 2)
    assert out == [Fraction(1, 2), Fraction(1, 6)]
    assert O.l_series_rational(HbarSum.unit(), Fraction(1, 2), 3) == [0, 0, 0]
    with pytest.raises(PoleError):
        O.l_series_rational(W.e(1), Fraction(-1), 4)
    with pytest.raises(PoleError):
        O.l_series_rational(W.e(1), Fraction(1), 4)


def test_l_series_hbar_action():
    q = Fraction(2, 3)
    u = HbarSum.monomial((2,), hbar=2)
    plain = O.l_series_rational(W.e(2), q, 8)
    shifted = O.l_series_rational(u, q, 8)
    assert shifted == [(1 - q) ** 2 * c for c in plain]


def series_product_check(u, v, q, order):
    cu = O.l_series_rational(u, q, order)
    cv = O.l_series_rational(v, q, order)
    cw = O.l_series_rational(W.shuffle_hbar(u, v), q, order)
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
    assert C.check_q_kamano((1, 1), C.packed_ring(3))
    assert C.check_q_kamano((2, 1), C.packed_ring(2))
    assert C.check_q_kamano((1, 1, 1), C.packed_ring(5))
    with pytest.raises(LengthError):
        C.check_q_kamano((2,), C.packed_ring(5))


def test_check_sym_sum_examples():
    assert C.check_sym_sum((2, 2), C.packed_ring(2))
    assert C.check_sym_sum((2, 2), C.packed_ring(3))
    assert C.check_sym_sum((3, 2), C.packed_ring(4))
    with pytest.raises(RangeError):
        C.check_sym_sum((2, 1), C.packed_ring(5))
    with pytest.raises(RangeError):
        C.check_sym_sum((3,), C.packed_ring(5))


def test_sym_sum_222case_expansion():
    # for all parts = 2 the theorem collapses to the binomial identity
    # sum_j C(r, j) (1-zeta)^(j-1) omega({2}^(r-j), {1}^j) = 0
    import math

    for n in (2, 3, 7, 10):
        for r in (2, 3):
            ctx, ring = C.CycloCtx(n), C.packed_ring(n)
            total = C.CycloElem.zero(ctx)
            for j in range(1, r + 1):
                idx = (2,) * (r - j) + (1,) * j
                term = math.comb(r, j) * C.omega_at_root(idx, ring)
                if j > 1:
                    term = term * C._one_minus_zeta_pow(ring, j - 1)
                total = total + term
            assert not total, (n, r)
            assert C.check_sym_sum((2,) * r, ring)
    # the same collapse, read off the enumeration itself
    for r in range(2, 6):
        assert W.vanishing_sum_terms((2,) * r) == {
            (j - 1, (2,) * (r - j) + (1,) * j): math.comb(r, j) for j in range(1, r + 1)
        }


def test_weight3_relation_all_n_to_200():
    # proven for every n; this is the long exact sweep, so it sits last
    lam = Fraction(-1, 2)
    for n in range(2, 201):
        ring = C.packed_ring(n)
        lhs = C.omega_at_root((2, 1), ring)
        rhs = lam * C.one_minus_zeta(C.CycloCtx(n)) * C.omega_at_root((1, 1), ring)
        assert lhs == rhs, n


def test_int_scalar_product():
    x = elem(5, Fraction(1, 3), 0, -2, Fraction(7, 6))
    assert x.den == 6
    for c in (3, -2, 0, 6):
        assert c * x == Fraction(c) * x == x * c, c


def test_json_roundtrip():
    x = elem(3, 1, 2)
    data = x.to_json()
    assert data == {"n": 3, "coeffs": ["1", "2"]}
    y = elem(5, Fraction(1, 3), 0, -2, Fraction(7, 2))
    assert y.to_json() == {"n": 5, "coeffs": ["1/3", "0", "-2", "7/2"]}


# ---------------------------------------------------------------------------
# values modulo primes l = 1 (mod n)


def generators_upto(weight):
    """(m, index) with r >= 2 and m + |index| <= weight."""
    return [
        (m, idx)
        for w in range(2, weight + 1)
        for m in range(w - 1)
        for idx in W.partitions_of_weight(w - m)
    ]


def image_mod(x, ell, z):
    """x in Q(zeta_n) mapped to F_ell by zeta_n -> z."""
    num = sum(c * pow(z, i, ell) for i, c in enumerate(x.num))
    return num * pow(x.den, -1, ell) % ell


@pytest.mark.parametrize("n", [2, 3, 4, 9, 12, 29, 30])
def test_root_primes_and_embeddings(n):
    phi = len(C.cyclotomic_poly(n)) - 1
    for batch in (0, 1):
        primes = C.root_primes(n, batch)
        assert len(set(primes)) == C.PRIME_BATCH
        assert all(M.is_prime(l) and l % n == 1 and l < C.PRIME_LIMIT for l in primes)
        emb = C.mod_ring(n, batch).powers[1]  # the images of x = zeta_n
        assert emb.shape == (len(primes), phi)
        for ell, row in zip(primes, emb.tolist()):
            assert len(set(row)) == phi
            for z in row:
                orders = [d for d in range(1, n + 1) if pow(z, d, ell) == 1]
                assert orders[0] == n, (ell, z)
    assert max(C.root_primes(n, 1)) < min(C.root_primes(n, 0))


@pytest.mark.parametrize("n", [2, 3, 7, 12, 30, 257, 4096, 8191])
def test_root_primes_match_trial_division(n):
    """The primes l = 1 (mod n) counting down from PRIME_LIMIT, found by
    trial division by every odd number up to sqrt(PRIME_LIMIT)."""
    want, ell = [], (C.PRIME_LIMIT - 2) // n * n + 1
    while len(want) < 3 * C.PRIME_BATCH:
        if ell % 2 and all(ell % t for t in range(3, math.isqrt(ell) + 1, 2)):
            want.append(ell)
        ell -= n
    assert [l for batch in range(3) for l in C.root_primes(n, batch)] == want


@pytest.mark.parametrize("n", [2, 3, 4, 9, 12, 29, 30, 40])
def test_omega_gen_mod_matches_exact(n):
    # prime, prime-power and composite n, so non-unit [m] are exercised
    for batch in (0, 1) if n == 12 else (0,):
        primes = C.root_primes(n, batch)
        ring = C.mod_ring(n, batch)
        emb = ring.powers[1].tolist()
        for m, idx in generators_upto(6):
            exact = C.omega_gen(m, idx, ring.packed)
            got = C.omega_gen_mod(m, idx, ring)
            want = [[image_mod(exact, ell, z) for z in row] for ell, row in zip(primes, emb)]
            assert got.tolist() == want, (m, idx)


@pytest.mark.parametrize("n", [3, 4, 12, 29, 30])
def test_coordinate_bound_covers_exact_coordinates(n):
    # den^w times an integer combination has integer coordinates of absolute
    # value at most sum |a_g| beta_g: single generators and random samples
    rng = random.Random(n)
    ring = C.packed_ring(n)
    den = ring.den
    zero = C.CycloElem.zero(C.CycloCtx(n))
    for w in (3, 5, 6):
        gens = [(m, idx) for m in range(w - 1) for idx in W.partitions_of_weight(w - m)]
        samples = [[int(i == j) for j in range(len(gens))] for i in range(len(gens))]
        samples += [[rng.randint(-60, 60) for _ in gens] for _ in range(6)]
        for a in samples:
            x = sum((c * C.omega_gen(m, idx, ring) for c, (m, idx) in zip(a, gens) if c), zero)
            scaled = x * den**w
            assert scaled.den == 1
            bound = sum(abs(c) * C.coordinate_bound(m, idx, ring) for c, (m, idx) in zip(a, gens))
            assert max(map(abs, scaled.num)) <= bound, (w, a)
