"""Tests for lattice reduction, integer relations, and the three relation miners."""

import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from mtomega import cyclo as C
from mtomega import modular as M
from mtomega import numeric as N
from mtomega import relations as R
from mtomega import words as W
from mtomega.errors import DependentInputError, PrecisionError
from oracles import cyclotomic_kernel_exact, hnf, kernel_basis

# ---------------------------------------------------------------------------
# exact linear algebra


def test_rref_kernel():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    red, pivots = R.rref(rows)
    assert pivots == [0, 1]
    ker = kernel_basis(rows, 3)
    assert len(ker) == 1
    for row in rows:
        assert sum(a * b for a, b in zip(row, ker[0])) == 0
    assert len(R.rref(rows)[0]) == 2
    assert R.span_test([[1, 2, 3], [2, 0, 1]])([3, 2, 4])
    assert not R.span_test([[0, 1, 0], [0, 0, 1]])([1, 0, 0])
    # the empty basis spans only the zero vector
    assert R.span_test([])([0, 0, 0])
    assert not R.span_test([])([1, 0, 0])
    # dependent basis rows
    in_rows = R.span_test(rows)
    assert in_rows([2, 2, 4]) and in_rows([0, 0, 0])
    assert not in_rows([0, 0, 1])


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


def lll_cold(basis):
    return R.lll_reduce(R.GramSchmidt.of(basis))


def test_lll_examples():
    assert lll_cold([(1, 0), (0, 1)]) == [(1, 0), (0, 1)]

    src = [(1, 1, 1), (-1, 0, 2), (3, 5, 6)]
    red = lll_cold(src)
    assert hnf(red) == hnf(src)
    assert max(abs(x) for v in red for x in v) <= 2
    gram_schmidt_check(red)
    # every reduced vector is genuinely in the lattice (brute-force oracle)
    members = lattice_vectors_up_to(src, 6)
    for v in red:
        assert v in members

    src2 = [(2, 0), (1, 1)]
    red2 = lll_cold(src2)
    assert hnf(red2) == hnf(src2)
    assert all(sum(x * x for x in v) <= 2 for v in red2)
    gram_schmidt_check(red2)


def test_lll_dependent_input():
    with pytest.raises(DependentInputError):
        R.GramSchmidt.of([(1, 2), (2, 4)])
    with pytest.raises(DependentInputError):
        R.GramSchmidt.of([(1, 1, 0), (0, 1, 1), (1, 2, 1)])


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
                red = lll_cold(basis)
                break
            except DependentInputError:
                continue
        assert hnf(red) == hnf(basis)
        gram_schmidt_check(red)


def integral_gram_schmidt(rows):
    """(d_0..d_n, lambda) of the rows from rational Gram-Schmidt:
    d_(i+1) = prod_(t<=i) |b*_t|^2 and lambda_(i,j) = d_(j+1) mu_(i,j)."""
    ortho, norms, d = [], [], [1]
    lam = {}
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu = sum(a * c for a, c in zip(row, ortho[j])) / norms[j]
            lam[(i, j)] = d[j + 1] * mu
            v = [a - mu * c for a, c in zip(v, ortho[j])]
        ortho.append(v)
        norms.append(sum(x * x for x in v))
        d.append(d[-1] * norms[-1])
    return d, lam


def assert_state_describes(gs, rows):
    d, lam = integral_gram_schmidt(rows)
    assert gs.rows == rows
    assert gs.d == d
    assert {(i, j): gs.lam[i][j] for i in range(len(rows)) for j in range(i)} == lam


def miner_step(rows, j, f, p):
    """The finite miner's cut, spelled out: rows i > j lose f_i times row j,
    and p times row j goes last."""
    later = [tuple(a - f[i] * b for a, b in zip(rows[i], rows[j])) for i in range(j + 1, len(rows))]
    return list(rows[:j]) + later + [tuple(p * x for x in rows[j])]


def test_lll_resumed_matches_cold():
    """Replay the finite miner's update on lattices with planted relations:
    after each cut the state describes the cut rows exactly, and the resumed
    reduction equals one from scratch at every prime."""
    rng = random.Random(6)
    primes = [5, 7, 11, 13, 17, 19, 23]
    for n in range(4, 11):
        for _trial in range(3):
            # a few short relations that vanish at every prime, so the
            # leading rows settle as they do in the miner
            m = rng.randint(1, n - 2)
            planted = [
                [int(i == t) for i in range(m)] + [rng.randint(-2, 2) for _ in range(n - m)]
                for t in range(m)
            ]
            gs = R.GramSchmidt.identity(n)
            for p in rng.sample(primes, 4):
                free = [rng.randrange(p) for _ in range(n - m)]
                c = [-sum(a * x for a, x in zip(r[m:], free)) % p for r in planted] + free
                v = [sum(a * x for a, x in zip(row, c)) % p for row in gs.rows]
                if not any(v):
                    continue
                j = next(i for i, x in enumerate(v) if x)
                inv = pow(v[j], p - 2, p)
                f = [x * inv % p for x in v]
                expected = miner_step(gs.rows, j, f, p)
                gs.cut(j, f, p)
                assert gs.rows == expected
                assert_state_describes(gs, gs.rows)
                cold = lll_cold(gs.rows)
                assert R.lll_reduce(gs) == cold
                assert_state_describes(gs, cold)


def test_gram_schmidt_cut_at_every_pivot():
    """Cuts at j = 0 .. n - 1, each from a reduced state and with zero and
    nonzero multipliers, give the exact Gram-Schmidt data of the cut rows."""
    rng = random.Random(9)
    n = 6
    basis = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(n)]
    for j in range(n):
        for p in (2, 13):
            gs = R.GramSchmidt.of(basis)
            red = R.lll_reduce(gs)
            f = [rng.choice((0, rng.randrange(p))) for _ in range(n)]
            gs.cut(j, f, p)
            assert gs.rows == miner_step(red, j, f, p)
            assert gs.reduced == j
            assert_state_describes(gs, gs.rows)
            cold = lll_cold(gs.rows)
            assert R.lll_reduce(gs) == cold
            assert_state_describes(gs, cold)


def test_gram_schmidt_of_then_reduce():
    """`of` gives the exact data of its rows with none reduced,
    `lll_reduce` marks them all reduced, and reducing again changes
    nothing."""
    rng = random.Random(7)
    basis = [tuple(rng.randint(-9, 9) for _ in range(6)) for _ in range(5)]
    gs = R.GramSchmidt.of(basis)
    assert_state_describes(gs, basis)
    assert gs.reduced == 0
    red = R.lll_reduce(gs)
    assert gs.reduced == 5
    assert_state_describes(gs, red)
    assert hnf(red) == hnf(basis)
    state = (list(red), [*gs.d], [list(r) for r in gs.lam])
    assert R.lll_reduce(gs) == state[0]
    assert (gs.rows, gs.d, gs.lam) == state


def test_lll_trusts_the_reduced_prefix():
    """The reduction starts at `reduced`: rows counted as reduced are left
    as they are, even when they are not."""
    basis = [(1, 1, 1), (-1, 0, 2), (3, 5, 6)]
    assert lll_cold(basis) != basis
    gs = R.GramSchmidt.of(basis)
    gs.reduced = 3
    assert R.lll_reduce(gs) == basis
    assert_state_describes(gs, basis)


# ---------------------------------------------------------------------------
# integer relations by one LLL reduction


def test_integer_relations_examples():
    z3 = N.mzv_num(W.y_word((3,)), 60)
    z21 = N.mzv_num(W.y_word((2, 1)), 60)
    assert R.integer_relations([z3, z21], 60) == [(1, -1)]

    with mp.workdps(80):
        phi = (1 + mp.sqrt(5)) / 2
        vals = [
            N.BigReal(mp.mpf(1), 60),
            N.BigReal(+phi, 60),
            N.BigReal(+(phi**2), 60),
        ]
    assert R.integer_relations(vals, 60) == [(1, 1, -1)]

    with mp.workdps(80):
        one = N.BigReal(mp.mpf(1), 60)
        pi = N.BigReal(+mp.pi, 60)
    assert R.integer_relations([one, pi], 60, max_height=1000) == []


def test_integer_relations_scaling_invariance():
    with mp.workdps(80):
        phi = (1 + mp.sqrt(5)) / 2
        vals = [mp.mpf(1), phi, phi**2]
        scaled = [N.BigReal(+(v * 7 / 3), 60) for v in vals]
    assert R.integer_relations(scaled, 60) == [(1, 1, -1)]


def test_integer_relations_zero_input():
    with mp.workdps(80):
        vals = [N.BigReal(mp.mpf(1), 60), N.BigReal(mp.mpf(0), 60)]
    assert R.integer_relations(vals, 60) == [(0, 1)]


def test_integer_relations_single_value():
    # one value is a relation exactly when it is numerically zero
    with mp.workdps(80):
        zero = N.BigReal(mp.mpf(10) ** -70, 60)
        small = N.BigReal(mp.mpf(10) ** -20, 60)
        pi = N.BigReal(+mp.pi, 60)
    assert R.integer_relations([zero], 60) == [(1,)]
    assert R.integer_relations([small], 60) == []
    assert R.integer_relations([pi], 60) == []
    assert R.integer_relations([], 60) == []


def test_integer_relations_precision_error():
    with mp.workdps(80):
        vals = [N.BigReal(mp.mpf(1), 30), N.BigReal(+mp.pi, 30)]
    with pytest.raises(PrecisionError):
        R.integer_relations(vals, 60)


def test_integer_relations_refuse_a_small_gap():
    # at 20 digits a relation of height 10^7 leaves the other reduced row
    # only 9 times longer, too close to tell relations from chance
    with mp.workdps(40):
        vals = [N.BigReal(mp.mpf(1), 20), N.BigReal(mp.mpf(4567891) / 9876543, 20)]
    assert R.integer_relations(vals, 20, max_height=10**6) == []
    with pytest.raises(PrecisionError, match="lattice gap 9.04 < 1e2 at 20 digits"):
        R.integer_relations(vals, 20, max_height=10**7)


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
        assert R.span_test(kernel4)(vec), vec

    basis5, rep5 = R.cyclotomic_relation_space(5, range(2, 13))
    assert rep5.dimension == 7
    kernel5 = [list(v) for v in basis5.vectors]
    for vec in paper_weight5_relations():
        assert R.span_test(kernel5)(vec), vec
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


@pytest.mark.parametrize(
    "weight,n_max", [(2, 30), (3, 30), (4, 30), (5, 30), (6, 30), (7, 24)]
)
def test_cyclotomic_miner_matches_exact_oracle(weight, n_max):
    basis, _ = R.cyclotomic_relation_space(weight, range(2, n_max + 1))
    assert basis.vectors == cyclotomic_kernel_exact(weight, range(2, n_max + 1))


def test_kernel_mod_matches_exact_kernel():
    # random integer matrices with planted dependencies: the RREF kernel mod
    # l is the exact one reduced mod l, and the reconstruction recovers it
    rng = random.Random(7)
    ell = C.root_primes(12)[0]
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 8)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        a.append([x - 2 * y for x, y in zip(a[0], a[-1])])
        exact = kernel_basis(a, cols)
        pivots, kernel = R._kernel_mod(np.array(a, dtype=np.int64) % ell, ell)
        assert list(pivots) == R.rref(a)[1]
        assert kernel == [[x.numerator * pow(x.denominator, -1, ell) % ell for x in v] for v in exact]
        small = math.isqrt(ell // 2)
        for v, w in zip(kernel, exact):
            for x, y in zip(v, w):
                if abs(y.numerator) <= small and y.denominator <= small:
                    assert R._rational(x, ell) == y


def test_rational_reconstruction_bounds():
    m = 10007 * 10009
    for a, b in [(0, 1), (3, 1), (-5, 7), (700, 701), (-7070, 7069)]:
        assert R._rational(a * pow(b, -1, m) % m, m) == Fraction(a, b)
    assert R._rational(7077, m) is None  # 7077 > sqrt(m/2), and no a/b fits
    # past the bound a wrong small fraction can come back: why lifts are certified
    assert R._rational(9001 * pow(9007, -1, m) % m, m) == Fraction(-6990, 4133)


def identity(d):
    return [tuple(int(i == j) for j in range(d)) for i in range(d)]


def test_cyclotomic_kernel_after_each_n_is_exact():
    # the incremental kernel spans, at every n, what the exact stack up to n
    # spans, and each of its vectors is certified at n
    gens = R.cyclo_generators(5)
    basis = identity(len(gens))
    for n in range(2, 21):
        basis = R._kernel_at(basis, gens, n)
        exact = cyclotomic_kernel_exact(5, range(2, n + 1))
        assert len(basis) == len(exact), n
        assert all(map(R.span_test(exact), basis)), n
        assert R.certified(basis, gens, n), n


def test_cyclotomic_relations_certified_at_every_n():
    basis, _ = R.cyclotomic_relation_space(6, range(2, 31))
    for n in range(2, 31):
        assert R.certified(basis.vectors, basis.generators, n), n


@pytest.mark.parametrize("n", [5, 9, 12])
def test_certificate_refuses_a_forged_candidate(n):
    # v + l e_i vanishes mod l at every embedding, so a test at the one prime
    # l passes it; the certificate needs more primes and must refuse it
    gens = R.cyclo_generators(5)
    basis, _ = R.cyclotomic_relation_space(5, range(2, 13))
    ell, values = next(R._values_mod(gens, n))
    assert ell == C.root_primes(n)[0]
    nonzero = [i for i, (m, idx) in enumerate(gens) if C.omega_gen(m, idx, n)]
    assert nonzero
    for v, i in zip(basis.vectors, itertools.cycle(nonzero)):
        forged = list(v)
        forged[i] += ell
        assert not (np.array(forged) % ell @ values % ell).any()
        assert R.certified([v], gens, n)
        assert not R.certified([forged], gens, n)
        assert not R.certified([v, forged], gens, n)


def test_certificate_refuses_a_single_generator():
    gens = R.cyclo_generators(4)
    for n in (3, 8, 15):
        for i, (m, idx) in enumerate(gens):
            unit = [int(i == j) for j in range(len(gens))]
            assert R.certified([unit], gens, n) == (not C.omega_gen(m, idx, n)), (n, i)


def test_m0_projection_is_finite_relation():
    basis, _ = R.cyclotomic_relation_space(4, range(2, 13))
    fin_basis, _ = R.finite_relation_space(4)
    fin = [list(v) for v in fin_basis.vectors]
    m0 = [i for i, (m, _g) in enumerate(basis.generators) if m == 0]
    for v in basis.vectors:
        proj = [v[i] for i in m0]
        assert R.span_test(fin)(proj), v


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


def zagier_d(k_max):
    """d_0..d_k_max of d_k = d_{k-2} + d_{k-3}, d_0 = 1, d_1 = 0, d_2 = 1."""
    d = [1, 0, 1]
    while len(d) <= k_max:
        d.append(d[-2] + d[-3])
    return d


@pytest.mark.parametrize("weight,digits", [(9, 60), (10, 110)])
def test_symmetric_dimension_matches_zagier(weight, digits):
    d = zagier_d(weight)
    _basis, rep = R.symmetric_relation_space(weight, digits=digits)
    assert rep.dimension == d[weight] - d[weight - 2]


# Relation span of the Omega block at weights 3..8 as the PSLQ miner found it
# before the lattice miner replaced it: weight -> (generator count, the
# primitive rows of its RREF as {column: entry}).
PSLQ_OMEGA_SPANS = {
    3: (2, ({0: 1},)),
    4: (4, ({0: 1}, {1: 1}, {2: 1}, {3: 1})),
    5: (6, ({0: 1}, {1: 1}, {2: 12, 5: -1}, {3: 1}, {4: 8, 5: 1})),
    6: (10, (
        {0: 1}, {1: 1}, {2: 1}, {3: 1}, {4: 1}, {5: 4, 8: 1}, {6: 1},
        {7: 6, 8: 1}, {9: 1},
    )),
    7: (14, (
        {0: 1}, {1: 1}, {2: 360, 13: -1}, {3: 1}, {4: 720, 13: -1},
        {5: 120, 13: 1}, {6: 180, 13: -1}, {7: 360, 13: 1}, {8: 90, 13: 1},
        {9: 160, 13: -9}, {10: 1}, {11: 320, 13: -13}, {12: 6, 13: 1},
    )),
    8: (21, (
        {0: 1}, {1: 1}, {2: 1}, {3: 1}, {4: 1}, {5: 120, 19: 1}, {6: 1},
        {7: 1}, {8: 1}, {9: 192, 17: 24, 19: 1}, {10: 160, 17: -40, 19: -7},
        {11: 1}, {12: 1440, 17: 600, 19: 1}, {13: 120, 17: 40, 19: -1},
        {14: 640, 17: -840, 19: -11}, {15: 32, 17: 40, 19: 7},
        {16: 40, 17: -40, 19: 1}, {18: 10, 19: 3}, {20: 1},
    )),
}


@pytest.mark.parametrize("weight", sorted(PSLQ_OMEGA_SPANS))
def test_symmetric_omega_span_pinned(weight):
    d, rows = PSLQ_OMEGA_SPANS[weight]
    basis, rep = R.symmetric_relation_space(weight, digits=60)
    assert rep.generator_count == d
    red, _ = R.rref([list(v[:d]) for v in basis.vectors if any(v[:d])])
    want = [tuple(row.get(i, 0) for i in range(d)) for row in rows]
    assert [R.primitive_integer(r) for r in red] == want


# ---------------------------------------------------------------------------
# cross checks


def test_product_identity_checks_small_range():
    out = R.product_identity_checks(range(2, 13))
    assert len(out) == 2
    for rec in out:
        assert rec["ok"], rec


def test_conjecture_report_weight3():
    rep = R.conjecture_report(3, range(2, 13), 60)
    assert rep["kernels_agree"]
    assert all(rep["m0_projection_in_finite_kernel"])
    assert rep["weight"] == 3
    assert rep["finite"]["dimension"] == 1
    assert rep["symmetric"]["dimension"] == 1


def test_conjecture_report_weight4_implied():
    rep = R.conjecture_report(4, range(2, 13), 60)
    assert rep["kernels_agree"]
    assert rep["implied_relations"]
    assert all(rec["in_finite_kernel"] for rec in rep["implied_relations"])
