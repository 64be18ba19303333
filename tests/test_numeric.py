"""Tests for the high-precision evaluators.

Reference values come from three independent directions: frozen decimal
strings (computed once from mpmath's own zeta/pi at high precision), live
mpmath special functions, and for the Mordell-Tornheim values the integral
representation 1/Gamma(l) int_0^1 (-log u)^(l-1) prod Li_k(u) du/u evaluated
with mpmath quadrature plus a positive-term truncated-sum bracket.
"""

import mpmath as mp
import pytest

from mtomega import numeric as N
from mtomega import words as W
from mtomega.errors import LengthError, NotAdmissibleError
from mtomega.words import X0, X1, WordSum

import oracles as O

ZETA2 = "1.64493406684822643647241516664602518921894990120679843773556"
ZETA3 = "1.20205690315959428539973816151144999076498629234049888179227"
MINUS_2_ZETA2 = "-3.28986813369645287294483033329205037843789980241359687547112"
MINUS_6_ZETA3 = "-7.21234141895756571239842896906869994458991775404299329075363"
THREE_ZETA3 = "3.60617070947878285619921448453434997229495887702149664537681"
TWO_ZETA3 = "2.40411380631918857079947632302289998152997258468099776358454"


def close(value, ref_str, digits=55):
    with mp.workdps(digits + 15):
        return abs(value - mp.mpf(ref_str)) < mp.mpf(10) ** (-digits)


def test_mzv_frozen_anchors():
    assert close(N.mzv_num(W.y_word((2,)), 60).value, ZETA2)
    assert close(N.mzv_num(W.y_word((2, 1)), 60).value, ZETA3)
    assert N.mzv_num(WordSum.unit(), 40).value == 1


def test_mzv_against_mpmath():
    with mp.workdps(75):
        for k in range(2, 8):
            got = N.mzv_num(W.y_word((k,)), 60).value
            assert abs(got - mp.zeta(k)) < mp.mpf(10) ** (-58), k


def test_mzv_shuffle_homomorphism_numeric():
    with mp.workdps(75):
        u, v = W.y_word((2,)), W.y_word((3,))
        prod = N.mzv_num(W.shuffle(u, v), 60).value
        assert abs(prod - mp.zeta(2) * mp.zeta(3)) < mp.mpf(10) ** (-58)


@pytest.mark.parametrize("digits,max_weight", [(60, 7), (200, 5)])
def test_li_half_fixed_point_against_mpmath(digits, max_weight):
    indices = [index for w in range(1, max_weight + 1) for index in W.indices_of_weight(w)]
    values = N.li_half_values(indices, digits)
    assert set(values) == set(indices)
    for index in indices:
        with mp.workdps(digits + 30):
            err = abs(values[index] - O.li_half(index, digits))
            assert err < mp.mpf(10) ** (-(digits + 5)), index


def count_passes(monkeypatch):
    """Record the index set of each Li(1/2) batch and count the level passes."""
    from mtomega import sums

    batches, passes = [], []
    batch, chain_pass = N.li_half_values, sums.chain_pass

    def spy_batch(indices, digits):
        batches.append(set(indices))
        return batch(indices, digits)

    def spy_pass(*args):
        passes.append(1)
        return chain_pass(*args)

    monkeypatch.setattr(N, "li_half_values", spy_batch)
    monkeypatch.setattr(sums, "chain_pass", spy_pass)
    return batches, passes


def test_li_half_one_level_per_piece(monkeypatch):
    from mtomega import relations as R

    batches, passes = count_passes(monkeypatch)
    list(R.symmetric_relation_spaces(range(3, 9)))
    # one batch at 60 digits: the empty index, every index of weight 1..7 and
    # the admissible ones of weight 8; one level per nonempty index
    pieces = {()} | {k for w in range(1, 9) for k in W.indices_of_weight(w) if w < 8 or k[0] > 1}
    assert batches == [pieces] and len(pieces) == 192
    assert len(passes) == 191
    batches.clear(), passes.clear()
    N.omega_limit_num((7, 7), 60)
    assert [len(b) for b in batches] == [28]
    assert len(passes) == 27


def test_mzv_rejects_divergent():
    with pytest.raises(NotAdmissibleError):
        N.mzv_num(W.y_word((1, 2)), 40)


def test_mzv_euler_sum_oracle():
    """Direct summation with an Euler-Maclaurin tail as a third route."""
    with mp.workdps(50):
        m_max = 200
        direct = mp.fsum(mp.mpf(m) ** (-2) for m in range(1, m_max + 1))
        # tail: sum_{m>M} m^-2 = 1/M - 1/(2M^2) + 1/(6M^3) - ...
        t = mp.mpf(m_max)
        direct += 1 / t - 1 / (2 * t**2) + 1 / (6 * t**3) - 1 / (30 * t**5)
        got = N.mzv_num(W.y_word((2,)), 40).value
        assert abs(got - direct) < mp.mpf(10) ** (-14)


def mt_integral_oracle(index, l, dps=50):
    """Independent route: one-dimensional integral of a polylog product."""
    with mp.workdps(dps):
        def f(u):
            acc = (-mp.log(u)) ** (l - 1) / u
            for k in index:
                acc *= mp.polylog(k, u)
            return acc

        return mp.quad(f, [0, 1]) / mp.factorial(l - 1)


def test_mt_examples():
    with mp.workdps(75):
        assert abs(N.mt_num((1,), 1, 60).value - mp.zeta(2)) < mp.mpf(10) ** (-58)
        assert abs(N.mt_num((1, 1), 1, 60).value - 2 * mp.zeta(3)) < mp.mpf(10) ** (-58)
        assert abs(N.mt_num((1,), 2, 60).value - mp.zeta(3)) < mp.mpf(10) ** (-58)
    assert close(N.mt_num((1, 1), 1, 60).value, TWO_ZETA3)


def test_mt_depth2_integral_oracle():
    cases = [((1,), 1), ((2,), 3), ((1, 1), 1), ((2, 1), 2), ((3, 2), 1)]
    for index, l in cases:
        got = N.mt_num(index, l, 40).value
        ref = mt_integral_oracle(index, l, dps=50)
        with mp.workdps(50):
            assert abs(got - ref) < mp.mpf(10) ** (-30), (index, l)


def test_mt_depth2_truncated_sum_bracket():
    """Positive terms: the partial double sum brackets the value from below,
    with an explicit tail bound valid for every k1, k2, l >= 1."""
    m_max = 800
    with mp.workdps(30):
        for index, l in [((1, 1), 1), ((2, 1), 1), ((1, 2), 2)]:
            k1, k2 = index
            # the powers a^(-k1), b^(-k2), (a+b)^(-l), each computed once
            pa = {a: mp.mpf(a) ** (-k1) for a in range(1, m_max + 1)}
            pb = {b: mp.mpf(b) ** (-k2) for b in range(1, m_max + 1)}
            ps = {s: mp.mpf(s) ** (-l) for s in range(2, 2 * m_max + 1)}
            partial = mp.fsum(pa[a] * pb[b] * ps[a + b] for a in pa for b in pb)
            tail_bound = 4 * (2 + mp.log(m_max)) / m_max
            got = N.mt_num(index, l, 40).value
            assert partial < got < partial + tail_bound, (index, l)


def test_mt_recurrence():
    """zeta^MT(k; l-1) = sum_a zeta^MT(..., k_a - 1, ...; l) for entries >= 2."""
    digits = 40
    cases = []
    for total in range(4, 8):
        for r in (1, 2):
            for k in W.indices_of_weight(total - 2, min_len=r, min_part=2):
                if len(k) != r:
                    continue
                for l in range(2, total - sum(k) + 1):
                    if sum(k) + l == total:
                        cases.append((k, l))
    assert cases
    with mp.workdps(digits + 15):
        tol = mp.mpf(10) ** (-digits + 3)
        for k, l in cases:
            lhs = N.mt_num(k, l - 1, digits).value
            rhs = mp.fsum(
                N.mt_num(k[:a] + (k[a] - 1,) + k[a + 1 :], l, digits).value
                for a in range(len(k))
            )
            assert abs(lhs - rhs) < tol, (k, l)


def test_omega_limit_examples():
    assert close(N.omega_limit_num((1, 1), 60).value, MINUS_2_ZETA2)
    assert close(N.omega_limit_num((1, 1, 1), 60).value, MINUS_6_ZETA3)
    with mp.workdps(70):
        assert abs(N.omega_limit_num((2, 1), 60).value) < mp.mpf(10) ** (-58)
    with pytest.raises(LengthError):
        N.omega_limit_num((2,), 40)


def test_omega_limit_two_routes_agree():
    # words.omega_word checks the two routes exactly; exercise it across shapes
    for k in [(1, 2), (2, 2), (3, 1), (1, 1, 2), (2, 1, 1)]:
        N.omega_limit_num(k, 45)


def test_zeta_s_examples():
    assert close(N.zeta_s_num((2, 1), 60).value, THREE_ZETA3)
    assert N.zeta_s_num((1,), 60).value == 0
    with mp.workdps(75):
        assert abs(N.zeta_s_num((2, 1, 1), 60).value - 4 * mp.zeta(4)) < mp.mpf(
            10
        ) ** (-58)


def test_omega_circle_exact_small_n():
    c = O.omega_circle_num((1, 1), 2, 30)
    assert abs(c.value - 1) < mp.mpf(10) ** (-25)
    c = O.omega_circle_num((2, 1), 2, 30)
    assert abs(c.value + 1) < mp.mpf(10) ** (-25)
    z = O.omega_circle_num((1, 1, 1), 2, 30)
    assert z.value == 0
    with pytest.raises(LengthError):
        O.omega_circle_num((2,), 5, 30)


def test_omega_circle_matches_cyclotomic_embedding():
    """The exact Q(zeta_n) value embedded at zeta_n = e^(2 pi i/n) matches."""
    from mtomega import cyclo as C

    with mp.workdps(40):
        for k, n in [((1, 1), 3), ((2, 1), 5), ((1, 1, 1), 6)]:
            exact = C.omega_at_root(k, C.packed_ring(n))
            zeta = mp.expjpi(mp.mpf(2) / n)
            emb = mp.fsum(
                (mp.mpf(c.numerator) / c.denominator) * zeta**j
                for j, c in enumerate(exact.coeffs)
            )
            got = O.omega_circle_num(k, n, 30).value
            assert abs(emb - got) < mp.mpf(10) ** (-25), (k, n)


def test_big_real_json():
    v = N.omega_limit_num((1, 1), 40)
    data = v.to_json()
    assert data["certified_digits"] == 40
    assert data["value"].startswith("-3.2898681336964528729448303332")
    with mp.workdps(50):
        assert abs(mp.mpf(data["value"]) - v.value) < mp.mpf(10) ** (-38)
