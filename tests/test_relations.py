"""Tests for lattice reduction, PSLQ, and the three relation miners."""

import itertools
from fractions import Fraction

import mpmath as mp
import pytest

from mtomega import cyclo as C
from mtomega import modular as M
from mtomega import numeric as N
from mtomega import relations as R
from mtomega import words as W
from mtomega.errors import DependentInputError, PrecisionError
from oracles import hnf

# ---------------------------------------------------------------------------
# exact linear algebra


def test_rref_kernel():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    red, pivots = R.rref(rows)
    assert pivots == [0, 1]
    ker = R.kernel_basis(rows, 3)
    assert len(ker) == 1
    for row in rows:
        assert sum(a * b for a, b in zip(row, ker[0])) == 0
    assert R.rank(rows) == 2
    assert R.in_span([3, 2, 4], [[1, 2, 3], [2, 0, 1]])
    assert not R.in_span([1, 0, 0], [[0, 1, 0], [0, 0, 1]])


def test_primitive_integer():
    assert R.primitive_integer([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
    assert R.primitive_integer([Fraction(-1, 2), Fraction(1, 4)]) == (2, -1)
    assert R.primitive_integer([0, Fraction(-3)]) == (0, 1)


def test_hnf():
    assert hnf([(2, 0), (1, 1)]) == [(1, 1), (0, 2)]
    assert hnf([(1, 0), (0, 1)]) == [(1, 0), (0, 1)]
    # permutation-invariant canonical form
    a = [(3, 1, 2), (1, 4, 1), (2, 2, 2)]
    assert hnf(a) == hnf(list(reversed(a)))


# ---------------------------------------------------------------------------
# LLL


def gram_schmidt_check(vectors, delta=Fraction(3, 4)):
    """Verify size reduction and the Lovasz condition with exact rationals."""
    basis = [[Fraction(x) for x in v] for v in vectors]
    ortho = []
    mu = {}
    for i, b in enumerate(basis):
        v = list(b)
        for j in range(i):
            m = sum(a * c for a, c in zip(basis[i], ortho[j])) / sum(
                c * c for c in ortho[j]
            )
            mu[(i, j)] = m
            v = [a - m * c for a, c in zip(v, ortho[j])]
        ortho.append(v)
    for (i, j), m in mu.items():
        assert abs(m) <= Fraction(1, 2), (i, j, m)
    for k in range(1, len(basis)):
        lhs = sum(c * c for c in ortho[k])
        rhs = (delta - mu[(k, k - 1)] ** 2) * sum(c * c for c in ortho[k - 1])
        assert lhs >= rhs, k


def lattice_vectors_up_to(basis, bound):
    """Brute-force: all lattice vectors with coordinates of the combination
    in [-bound, bound], as a set (oracle for short-vector checks)."""
    out = set()
    n = len(basis)
    for combo in itertools.product(range(-bound, bound + 1), repeat=n):
        v = tuple(
            sum(c * b[i] for c, b in zip(combo, basis)) for i in range(len(basis[0]))
        )
        out.add(v)
    return out


def test_lll_examples():
    assert R.lll_reduce([(1, 0), (0, 1)]) == [(1, 0), (0, 1)]

    src = [(1, 1, 1), (-1, 0, 2), (3, 5, 6)]
    red = R.lll_reduce(src)
    assert hnf(red) == hnf(src)
    assert max(abs(x) for v in red for x in v) <= 2
    gram_schmidt_check(red)
    # every reduced vector is genuinely in the lattice (brute-force oracle)
    members = lattice_vectors_up_to(src, 6)
    for v in red:
        assert v in members

    src2 = [(2, 0), (1, 1)]
    red2 = R.lll_reduce(src2)
    assert hnf(red2) == hnf(src2)
    assert all(sum(x * x for x in v) <= 2 for v in red2)
    gram_schmidt_check(red2)


def test_lll_dependent_input():
    with pytest.raises(DependentInputError):
        R.lll_reduce([(1, 2), (2, 4)])
    with pytest.raises(DependentInputError):
        R.lll_reduce([(1, 1, 0), (0, 1, 1), (1, 2, 1)])


def test_lll_random_lattices():
    import random

    rng = random.Random(11)
    for _trial in range(15):
        n = rng.randint(2, 4)
        while True:
            basis = [
                [rng.randint(-9, 9) for _ in range(n)] for _ in range(n)
            ]
            try:
                red = R.lll_reduce(basis)
                break
            except DependentInputError:
                continue
        assert hnf(red) == hnf(basis)
        gram_schmidt_check(red)


# ---------------------------------------------------------------------------
# PSLQ


def test_pslq_examples():
    z3 = N.mzv_num(W.y_word((3,)), 60)
    z21 = N.mzv_num(W.y_word((2, 1)), 60)
    assert R.pslq([z3, z21], 60) == (1, -1)

    with mp.workdps(80):
        phi = (1 + mp.sqrt(5)) / 2
        vals = [
            N.BigReal(mp.mpf(1), 60),
            N.BigReal(+phi, 60),
            N.BigReal(+(phi**2), 60),
        ]
    assert R.pslq(vals, 60) == (1, 1, -1)

    with mp.workdps(80):
        one = N.BigReal(mp.mpf(1), 60)
        pi = N.BigReal(+mp.pi, 60)
    assert R.pslq([one, pi], 60, max_height=1000) is None


def test_pslq_scaling_invariance():
    with mp.workdps(80):
        phi = (1 + mp.sqrt(5)) / 2
        vals = [mp.mpf(1), phi, phi**2]
        scaled = [N.BigReal(+(v * 7 / 3), 60) for v in vals]
    assert R.pslq(scaled, 60) == (1, 1, -1)


def test_pslq_zero_input():
    with mp.workdps(80):
        vals = [N.BigReal(mp.mpf(1), 60), N.BigReal(mp.mpf(0), 60)]
    assert R.pslq(vals, 60) == (0, 1)


def test_pslq_precision_error():
    with mp.workdps(80):
        vals = [N.BigReal(mp.mpf(1), 30), N.BigReal(+mp.pi, 30)]
    with pytest.raises(PrecisionError):
        R.pslq(vals, 60)


# ---------------------------------------------------------------------------
# finite miner


def test_finite_examples():
    basis, rep = R.finite_relation_space(3)
    assert rep.dimension == 1
    assert basis.generators == ((0, (2, 1)), (0, (1, 1, 1)))
    assert basis.vectors == ((1, 0),)
    assert basis.statuses == ("proven",)

    _, rep4 = R.finite_relation_space(4)
    assert rep4.dimension == 0

    _, rep8 = R.finite_relation_space(8)
    assert rep8.dimension == 2

    basis0, rep0 = R.finite_relation_space(1)
    assert rep0.dimension == 0 and basis0.vectors == ()


def test_finite_relations_reverify_on_fresh_primes():
    for weight in (3, 4, 5, 6):
        basis, _rep = R.finite_relation_space(weight)
        fresh = [p for p in M.primes_in(400, 500)][:10]
        assert len(fresh) == 10
        for v in basis.vectors:
            for p in fresh:
                total = sum(
                    a * M.omega_mod(g, p)
                    for a, (_m, g) in zip(v, basis.generators)
                )
                assert total % p == 0, (weight, v, p)


def test_default_prime_split():
    tr, ho = R.default_prime_split(9)
    assert len(tr) == 40 and len(ho) == 20
    assert all(p > 11 for p in tr)
    assert max(tr + ho) < 400
    assert set(tr).isdisjoint(ho)


# ---------------------------------------------------------------------------
# cyclotomic miner


def test_cyclo_generators():
    assert R.cyclo_generators(3) == ((0, (2, 1)), (0, (1, 1, 1)), (1, (1, 1)))
    assert len(R.cyclo_generators(4)) == 7
    assert all(m + sum(idx) == 5 for m, idx in R.cyclo_generators(5))


def test_cyclotomic_weight2_and_3():
    basis, rep = R.cyclotomic_relation_space(2, range(2, 13))
    assert rep.dimension == 1 and rep.relation_count == 0

    basis, rep = R.cyclotomic_relation_space(3, range(2, 13))
    assert rep.dimension == 2
    assert basis.vectors == ((2, 0, 1),)
    assert basis.statuses == ("proven",)
    # positive dimension rests on completeness of the mined list
    assert rep.status == "conjectural-numeric"


def paper_weight4_relations():
    # omega(3,1) = omega(2,1,1) + 1/2 L omega(1,1,1) + 1/4 L^2 omega(1,1)
    # omega(2,2) = -omega(2,1,1) - 1/2 L omega(1,1,1) + 1/4 L^2 omega(1,1)
    # over generators ((3,1),(2,2),(2,1,1),(1^4), L(2,1), L(1,1,1), L^2(1,1))
    return [
        (4, 0, -4, 0, 0, -2, -1),
        (0, 4, 4, 0, 0, 2, -1),
    ]


def paper_weight5_relations():
    # over m-ascending generators:
    # (4,1),(3,2),(3,1,1),(2,2,1),(2,1,1,1),(1^5),
    # L(3,1), L(2,2), L(2,1,1), L(1^4), L^2(2,1), L^2(1,1,1), L^3(1,1)
    return [
        (8, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0, 6, 1),
        (0, 8, 0, 0, 0, 0, 0, 0, -4, 0, 0, -2, 1),
        (0, 0, 0, 3, 0, 0, 0, 0, 3, 0, 0, 1, 0),
    ]


def test_cyclotomic_recovers_paper_relations():
    basis4, rep4 = R.cyclotomic_relation_space(4, range(2, 13))
    assert rep4.dimension == 4
    kernel4 = [list(v) for v in basis4.vectors]
    for vec in paper_weight4_relations():
        assert R.in_span(vec, kernel4), vec

    basis5, rep5 = R.cyclotomic_relation_space(5, range(2, 13))
    assert rep5.dimension == 7
    kernel5 = [list(v) for v in basis5.vectors]
    for vec in paper_weight5_relations():
        assert R.in_span(vec, kernel5), vec
    # the (2,2,1) relation is an instance of the proven vanishing sum
    pos = {g: i for i, g in enumerate(basis5.generators)}
    v221 = paper_weight5_relations()[2]
    assert basis5.statuses[basis5.vectors.index(tuple(v221))] == "proven"


def test_cyclotomic_relations_reverify_on_fresh_n():
    basis, _ = R.cyclotomic_relation_space(4, range(2, 13))
    for n in (13, 14, 15, 16, 17):  # outside the mining range
        vals = [C.omega_gen(m, idx, n) for m, idx in basis.generators]
        for v in basis.vectors:
            acc = C.CycloElem.zero(C.CycloCtx(n))
            for a, val in zip(v, vals):
                if a:
                    acc = acc + a * val
            assert not acc, (v, n)


def test_m0_projection_is_finite_relation():
    basis, _ = R.cyclotomic_relation_space(4, range(2, 13))
    fin_basis, _ = R.finite_relation_space(4)
    fin = [list(v) for v in fin_basis.vectors]
    m0 = [i for i, (m, _g) in enumerate(basis.generators) if m == 0]
    for v in basis.vectors:
        proj = [v[i] for i in m0]
        assert R.in_span(proj, fin), v


# ---------------------------------------------------------------------------
# symmetric miner


def test_symmetric_weight3():
    basis, rep = R.symmetric_relation_space(3, digits=60)
    assert rep.dimension == 1
    assert (1, 0) in basis.vectors  # Omega(2,1) = 0


def test_symmetric_weight2_proven():
    basis, rep = R.symmetric_relation_space(2, digits=60)
    assert rep.dimension == 0
    assert basis.statuses == ("proven",)  # Omega(1,1) = -2 zeta(2)


def test_symmetric_needs_digits():
    with pytest.raises(PrecisionError):
        R.symmetric_relation_space(3, digits=40)


# ---------------------------------------------------------------------------
# cross checks


def test_product_identity_checks_small_range():
    out = R.product_identity_checks(range(2, 13))
    assert len(out) == 2
    for rec in out:
        assert rec["ok"], rec


def test_conjecture_report_weight3():
    rep = R.conjecture_report(3, n_range=range(2, 13), digits=60)
    assert rep.kernels_agree
    assert all(rep.m0_in_finite)
    data = rep.to_json()
    assert data["weight"] == 3
    assert data["finite"]["dimension"] == 1
    assert data["symmetric"]["dimension"] == 1


def test_conjecture_report_weight4_implied():
    rep = R.conjecture_report(4, n_range=range(2, 13), digits=60)
    assert rep.kernels_agree
    assert rep.implied_relations
    assert all(rec["in_finite_kernel"] for rec in rep.implied_relations)
