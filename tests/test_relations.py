"""Tests for lattice reduction, integer relations, and the three relation miners."""

import functools
import gc
import hashlib
import io
import itertools
import math
import operator
import random
import weakref
from contextlib import redirect_stdout
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from mtomega import cli
from mtomega import cyclo as C
from mtomega import modular as M
from mtomega import numeric as N
from mtomega import relations as R
from mtomega import words as W
from mtomega.errors import DependentInputError, PrecisionError
from oracles import cyclotomic_kernel_exact, hnf, kernel_basis, lll_reduce_lists, primitive
from oracles import rref as oracle_rref

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
    assert R.primitive_integer([2, -4]) == (1, -2)
    assert R.primitive_integer([-2, 1]) == (2, -1)
    assert R.primitive_integer([0, -3]) == (0, 1)


def test_rref_matches_fraction_oracle():
    """On random matrices with planted dependent rows, zero rows and entries
    up to 10^6, the fraction-free RREF has the Fraction oracle's pivots and
    its rows made primitive, and span_test agrees with the oracle's rank
    test."""
    rng = random.Random(17)

    def entry():
        return rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10**6, 10**6)))

    def combination(rows):
        cs = [rng.randint(-5, 5) for _ in rows]
        return [sum(map(operator.mul, cs, col)) for col in zip(*rows)]

    outcomes = []
    for _ in range(1200):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        for i in range(nrows):
            if i and rng.random() < 0.3:  # a dependent row
                rows[i] = combination(rows[:i])
            elif rng.random() < 0.1:
                rows[i] = [0] * ncols
        red, pivots = R.rref(rows)
        ref, ref_pivots = oracle_rref(rows)
        assert pivots == ref_pivots, rows
        assert red == [primitive(r) for r in ref], rows
        contains, rank = R.span_test(rows), len(ref)
        tests = [[entry() for _ in range(ncols)] for _ in range(3)]
        if rows:
            tests += [combination(rows) for _ in range(3)]
        for v in tests:
            outcomes.append(contains(v))
            assert outcomes[-1] == (len(oracle_rref(rows + [v])[0]) == rank), (rows, v)
    assert min(outcomes.count(True), outcomes.count(False)) > 1000


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
    with pytest.raises(DependentInputError):
        R.lll_reduce([(0, 0)])


def test_lll_empty_and_one_row():
    assert R.lll_reduce([]) == []
    assert R.lll_reduce([[3, -4, 0]]) == [(3, -4, 0)]
    assert R.lll_reduce([(0, 5)]) == [(0, 5)]


def test_lll_dependent_row_found_when_first_reached(monkeypatch):
    """Rows (e_i | c_i) and last a combination of them: LLL swaps the first
    rows before it reaches the last one, and raises there."""
    rng = random.Random(23)
    n = 8
    rows = [[int(i == j) for j in range(n)] + [rng.randrange(10**20, 10**21)] for i in range(n - 1)]
    a = [rng.randint(-3, 3) for _ in range(n - 1)]
    rows.append([sum(c * r[j] for c, r in zip(a, rows)) for j in range(n + 1)])
    with pytest.raises(DependentInputError):
        lll_reduce_lists(rows)
    swaps, swap = [], R._swap

    def counted(b, d, lam, k):
        swaps.append(k)
        swap(b, d, lam, k)

    monkeypatch.setattr(R, "_swap", counted)
    with pytest.raises(DependentInputError):
        R.lll_reduce(rows)
    assert len(swaps) > n
    assert R.lll_reduce(rows[:-1]) == lll_reduce_lists(rows[:-1])


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


def test_lll_reaches_a_fixed_point():
    """The Gram-Schmidt data of the rows is exact, reducing the reduced rows
    changes nothing, and the argument is left as it is."""
    rng = random.Random(7)
    basis = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(5)]
    copy = [list(v) for v in basis]
    packed = [sum(x << 8 * i for i, x in enumerate(v)) for v in basis]
    d, lam = [1], []
    for row in basis:
        R._gram_schmidt_row(packed, d, lam, tuple(row), 8)
    assert (d, {(i, j): lam[i][j] for i in range(5) for j in range(i)}) == integral_gram_schmidt(basis)
    red = R.lll_reduce(basis)
    assert basis == copy
    assert hnf(red) == hnf(basis)
    gram_schmidt_check(red)
    again = list(red)
    assert R.lll_reduce(red) == red == again


def assert_matches_list_reference(rows, lll_reduce):
    """Reduce the rows by lll_reduce and by the list-row reference, check
    that both give the same tuples, and return them."""
    reduced = lll_reduce(rows)
    assert reduced == lll_reduce_lists(rows)
    assert all(type(v) is tuple for v in reduced)
    return reduced


def test_unpack_reads_signed_fields_and_rejects_leftovers():
    row = (3, -5, 127, -128)
    packed = sum(x << 8 * i for i, x in enumerate(row))
    assert R._unpack(packed, 8, 4) == row
    assert tuple(R._field(packed, i, 8) for i in range(4)) == row
    with pytest.raises(ArithmeticError):
        R._unpack(packed, 8, 3)
    with pytest.raises(ArithmeticError):
        R._unpack(200, 8, 1)  # 200 needs more than a signed 8-bit field


def test_lll_packed_rows_replay_the_finite_miner(monkeypatch):
    """Every reduction of the finite miner up to weight 12, the benchmark's
    largest lattice, against the list-row reference."""
    calls = []
    packed = R.lll_reduce

    def checked(basis):
        calls.append(len(basis))
        return assert_matches_list_reference(basis, packed)

    monkeypatch.setattr(R, "lll_reduce", checked)
    list(R.finite_relation_spaces(range(1, 13)))
    assert max(calls) == 77  # weight 12 has 76 generators, and the modulus row


def test_lll_packed_rows_on_integer_relation_lattices():
    """Rows (e_i, s_i) with |s_i| near 10^55, of both signs, as
    `integer_relations` builds them: random values and values with a
    planted relation, against the list-row reference."""
    rng = random.Random(15)
    for n in range(1, 13):
        for planted in (False, True):
            s = [rng.choice((-1, 1)) * rng.randrange(10**54, 10**55) for _ in range(n)]
            if planted and n > 1:
                s[-1] = sum(rng.randint(-3, 3) * x for x in s[:-1])
            rows = [[int(i == j) for j in range(n)] + [x] for i, x in enumerate(s)]
            assert_matches_list_reference(rows, R.lll_reduce)


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
    (basis, rep), (_, rep4), (_, rep8), (basis0, rep0) = R.finite_relation_spaces([3, 4, 8, 1])
    assert rep.dimension == 1
    assert basis.generators == ((0, (2, 1)), (0, (1, 1, 1)))
    assert basis.vectors == ((1, 0),)
    assert basis.statuses == ("proven",)
    assert rep4.dimension == 0
    assert rep8.dimension == 2
    assert rep0.dimension == 0 and basis0.vectors == ()


# The finite miner's relation span at weights 7..14 as the incremental miner
# (one LLL cut per training prime) found it, before the single lattice
# reduction replaced it: weight -> (generators, relations, SHA-256 of the
# repr of its RREF rows as a list of int tuples).
FINITE_SPANS = {
    7: (14, 13, "f1715cbd4dae01d0fa34372e5185137533f3830219038c4c91a51f5497e21b30"),
    8: (21, 19, "4b85567ddfee359773ffa6f0744254faeff435c34b825e3040359dfd1437091e"),
    9: (29, 27, "42b589210f91bf32b64fe863fabe82ecf4d4c3c9cde808e49454e82c5de9abf0"),
    10: (41, 38, "bea0f73faf3ef29f9309ec0c5c820054eb61c7952da8563d3c07ecf03dbe2ef5"),
    11: (55, 51, "b23dd11fcec6d2bed58731a6a1ed6b0ad47dcf49b297f9d49ad6bbe2382d1657"),
    12: (76, 71, "2e88d02059fa31ff7b81b042e9978233940de2c3a8c06526ba31ff65a8c7bef6"),
    13: (100, 93, "0a2273e07e941badecf44847141df12b967aed3841e72a20b731e00213215aa5"),
    14: (134, 125, "6f445a5ac0bfb83ec28830ecfb8c3b30858c4eb7f96639adbd3ab4e217fc14ec"),
}


@pytest.mark.parametrize("weight", sorted(FINITE_SPANS))
def test_finite_span_pinned(weight, finite_spaces):
    d, count, digest = FINITE_SPANS[weight]
    basis, rep = next(finite_spaces([weight]))
    assert (rep.generator_count, rep.relation_count) == (d, count)
    red, _ = R.rref(basis.vectors)
    assert hashlib.sha256(repr([tuple(r) for r in red]).encode()).hexdigest() == digest


def test_finite_pass_matches_single_weight_calls():
    """One pass over weights 1..12, as `dims finite --weights 1..12` mines
    them, gives each weight the basis and report of a one-weight call."""
    weights = range(1, 13)
    assert list(R.finite_relation_spaces(weights)) == [
        next(R.finite_relation_spaces([w])) for w in weights
    ]


def test_finite_pass_forms_each_prefix_series_once_per_prime(monkeypatch):
    """Prime by prime, every (sorted prefix, prime) pair of weights 1..10 is
    one series of that prime's ring, and no series is formed twice."""
    pairs = {
        (tuple(sorted(g))[:j], p)
        for w in range(1, 11)
        for p in sum(R.default_prime_split(w), [])
        for g in W.partitions_of_weight(w)
        for j in range(1, len(g))
    }
    made, build = [], M.prime_ring

    def prime_ring(p):
        made.append(build(p))
        return made[-1]

    monkeypatch.setattr(M, "prime_ring", prime_ring)
    list(R.finite_relation_spaces(range(1, 11)))
    assert sum(len(ring.series) for ring in made) == len(pairs)


def test_finite_relations_reverify_on_fresh_primes():
    for weight in (3, 4, 5, 6):
        basis, _rep = next(R.finite_relation_spaces([weight]))
        fresh = [p for p in M.primes_in(400, 500)][:10]
        assert len(fresh) == 10
        for v in basis.vectors:
            for p in fresh:
                ring = M.prime_ring(p)
                total = sum(a * M.omega_mod(g, ring) for a, (_m, g) in zip(v, basis.generators))
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
    basis, rep = next(R.cyclotomic_relation_spaces([2], range(2, 13)))
    assert rep.dimension == 1 and rep.relation_count == 0

    basis, rep = next(R.cyclotomic_relation_spaces([3], range(2, 13)))
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
    basis4, rep4 = next(R.cyclotomic_relation_spaces([4], range(2, 13)))
    assert rep4.dimension == 4
    kernel4 = [list(v) for v in basis4.vectors]
    for vec in paper_weight4_relations():
        assert R.span_test(kernel4)(vec), vec

    basis5, rep5 = next(R.cyclotomic_relation_spaces([5], range(2, 13)))
    assert rep5.dimension == 7
    kernel5 = [list(v) for v in basis5.vectors]
    for vec in paper_weight5_relations():
        assert R.span_test(kernel5)(vec), vec
    # the (2,2,1) relation is an instance of the proven vanishing sum
    pos = {g: i for i, g in enumerate(basis5.generators)}
    v221 = paper_weight5_relations()[2]
    assert basis5.statuses[basis5.vectors.index(tuple(v221))] == "proven"


def test_cyclotomic_relations_reverify_on_fresh_n():
    basis, _ = next(R.cyclotomic_relation_spaces([4], range(2, 13)))
    for n in (13, 14, 15, 16, 17):  # outside the mining range
        vals = [C.omega_gen(m, idx, C.packed_ring(n)) for m, idx in basis.generators]
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
    basis, _ = next(R.cyclotomic_relation_spaces([weight], range(2, n_max + 1)))
    assert basis.vectors == cyclotomic_kernel_exact(weight, range(2, n_max + 1))


def test_cyclotomic_pass_matches_single_weight_calls():
    """One pass over weights 2..6, as `dims cyclotomic --weights 2..6` mines
    them, gives each weight the basis and report of a one-weight call."""
    weights, n_range = range(2, 7), range(2, 21)
    assert list(R.cyclotomic_relation_spaces(weights, n_range)) == [
        next(R.cyclotomic_relation_spaces([w], n_range)) for w in weights
    ]


def test_cyclotomic_rings_are_freed_when_the_miner_leaves_their_n(monkeypatch):
    """While the miner builds a ring, only rings of the same n are alive, and
    none is after the command; each (n, batch, sorted prefix) series is formed
    once, for every weight at that n."""
    made, batches, formed = [], [], []
    build, series = C.mod_ring, C._series_mod

    def mod_ring(n, batch=0):
        gc.collect()
        assert {r().n for r in made if r() is not None} <= {n}, n
        ring = build(n, batch)
        made.append(weakref.ref(ring))
        batches.append((n, batch))
        return ring

    def series_mod(ring, prefix):
        if prefix not in ring.series:
            formed.append((ring.n, ring.primes, prefix))
        return series(ring, prefix)

    monkeypatch.setattr(C, "mod_ring", mod_ring)
    monkeypatch.setattr(C, "_series_mod", series_mod)
    with redirect_stdout(io.StringIO()):
        assert cli.main("dims cyclotomic --weights 2..6 --n-max 30".split()) == 0
    gc.collect()
    assert made and all(r() is None for r in made)
    keys = {
        (n, C.root_primes(n, batch), tuple(sorted(idx))[:j])
        for n, batch in batches
        for w in range(2, 7)
        for _m, idx in R.cyclo_generators(w)
        for j in range(1, len(idx))
    }
    assert len(formed) == len(keys) == 310
    assert set(formed) == keys


# (command, the module and name of its ring builder)
RING_RUNS = (
    ("values omega-mod 2.1 --primes 5,7,11,13", M, "prime_ring"),
    ("verify specials --max-weight 4", M, "prime_ring"),
    ("verify q-kamano --max-weight 4 --n-max 8", C, "packed_ring"),
)


@pytest.mark.parametrize("command,module,name", RING_RUNS, ids=[c for c, *_ in RING_RUNS])
def test_rings_are_freed_before_the_next_modulus(monkeypatch, command, module, name):
    """While a command builds a ring, no ring of another modulus is alive,
    and none is after the command; each modulus gets one ring."""
    made, build = [], getattr(module, name)

    def ring(m):
        gc.collect()
        assert {k for k, r in made if r() is not None} <= {m}, m
        out = build(m)
        made.append((m, weakref.ref(out)))
        return out

    monkeypatch.setattr(module, name, ring)
    with redirect_stdout(io.StringIO()):
        assert cli.main(command.split()) == 0
    gc.collect()
    assert made and all(r() is None for _m, r in made)
    assert len(made) == len({m for m, _r in made})


def test_no_module_level_cache_holds_a_modulus_table():
    """The tables and values of a modulus live in the ring its caller holds;
    only these functools caches remain at module level."""
    caches = {
        f"{mod.__name__}.{name}"
        for mod in (M, C)
        for name, obj in vars(mod).items()
        if hasattr(obj, "cache_info")
    }
    assert caches == {"mtomega.cyclo.cyclotomic_poly", "mtomega.cyclo.root_primes"}


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
                    assert R._rational([[1, x]], ell) == [(y.denominator, y.numerator)]


def test_rational_reconstruction_bounds():
    m = 10007 * 10009
    for a, b in [(0, 1), (3, 1), (-5, 7), (700, 701), (-7070, 7069)]:
        assert R._rational([[1, a * pow(b, -1, m) % m]], m) == [(b, a)]
    assert R._rational([[7077]], m) is None  # 7077 > sqrt(m/2), and no a/b fits
    assert R._rational([[3], [5, 7077, 3]], m) is None  # one entry fails the lift
    # past the bound a wrong small fraction can come back: why lifts are certified
    assert R._rational([[1, 9001 * pow(9007, -1, m) % m]], m) == [(4133, -6990)]


def identity(d):
    return [tuple(int(i == j) for j in range(d)) for i in range(d)]


def rings_at(n):
    """The miner's per-n ring getter: batch -> cyclo.mod_ring(n, batch)."""
    return functools.cache(functools.partial(C.mod_ring, n))


def test_cyclotomic_kernel_after_each_n_is_exact():
    # the incremental kernel spans, at every n, what the exact stack up to n
    # spans, and each of its vectors is certified at n
    gens = R.cyclo_generators(5)
    basis = identity(len(gens))
    for n in range(2, 21):
        rings = rings_at(n)
        basis = R._kernel_at(basis, gens, rings)
        exact = cyclotomic_kernel_exact(5, range(2, n + 1))
        assert len(basis) == len(exact), n
        assert all(map(R.span_test(exact), basis)), n
        assert R.certified(basis, gens, rings), n


def test_cyclotomic_relations_certified_at_every_n():
    basis, _ = next(R.cyclotomic_relation_spaces([6], range(2, 31)))
    for n in range(2, 31):
        assert R.certified(basis.vectors, basis.generators, rings_at(n)), n


@pytest.mark.parametrize("n", [5, 9, 12])
def test_certificate_refuses_a_forged_candidate(n):
    # v + l e_i vanishes mod l at every embedding, so a test at the one prime
    # l passes it; the certificate needs more primes and must refuse it
    gens = R.cyclo_generators(5)
    basis, _ = next(R.cyclotomic_relation_spaces([5], range(2, 13)))
    rings = rings_at(n)
    ell, values = next(R._values_mod(gens, rings))
    assert ell == C.root_primes(n)[0]
    nonzero = [i for i, (m, idx) in enumerate(gens) if C.omega_gen(m, idx, rings(0).packed)]
    assert nonzero
    for v, i in zip(basis.vectors, itertools.cycle(nonzero)):
        forged = list(v)
        forged[i] += ell
        assert not (np.array(forged) % ell @ values % ell).any()
        assert R.certified([v], gens, rings)
        assert not R.certified([forged], gens, rings)
        assert not R.certified([v, forged], gens, rings)


def test_certificate_refuses_a_single_generator():
    gens = R.cyclo_generators(4)
    for n in (3, 8, 15):
        ring = C.packed_ring(n)
        for i, (m, idx) in enumerate(gens):
            unit = [int(i == j) for j in range(len(gens))]
            assert R.certified([unit], gens, rings_at(n)) == (not C.omega_gen(m, idx, ring)), (n, i)


def test_m0_projection_is_finite_relation():
    basis, _ = next(R.cyclotomic_relation_spaces([4], range(2, 13)))
    fin_basis, _ = next(R.finite_relation_spaces([4]))
    fin = [list(v) for v in fin_basis.vectors]
    m0 = [i for i, (m, _g) in enumerate(basis.generators) if m == 0]
    for v in basis.vectors:
        proj = [v[i] for i in m0]
        assert R.span_test(fin)(proj), v


# ---------------------------------------------------------------------------
# symmetric miner


def test_symmetric_weight3():
    basis, rep = next(R.symmetric_relation_spaces([3]))
    assert rep.dimension == 1
    assert (1, 0) in basis.vectors  # Omega(2,1) = 0


def test_symmetric_weight2_proven():
    basis, rep = next(R.symmetric_relation_spaces([2]))
    assert rep.dimension == 0
    assert basis.statuses == ("proven",)  # Omega(1,1) = -2 zeta(2)


def zagier_d(k_max):
    """d_0..d_k_max of d_k = d_{k-2} + d_{k-3}, d_0 = 1, d_1 = 0, d_2 = 1."""
    d = [1, 0, 1]
    while len(d) <= k_max:
        d.append(d[-2] + d[-3])
    return d


@pytest.mark.parametrize("weight", [9, 10])
def test_symmetric_dimension_matches_zagier(weight, monkeypatch):
    # weight 9 passes at 60 digits; weight 10 has no lattice gap there and
    # gets its dimension from the retry at 120
    tried, relations_at = [], R.integer_relations

    def spy(xs, digits):
        tried.append(digits)
        return relations_at(xs, digits)

    monkeypatch.setattr(R, "integer_relations", spy)
    d = zagier_d(weight)
    _basis, rep = next(R.symmetric_relation_spaces([weight]))
    assert rep.dimension == d[weight] - d[weight - 2]
    assert tried == {9: [60], 10: [60, 120]}[weight]


def test_symmetric_run_matches_one_weight_passes(monkeypatch):
    # at 30 digits weights 2..7 find their gap and weight 8 retries at 60;
    # the run builds one table per digits, each with the longer pieces of
    # the later weights, and still mines what one-weight passes mine
    from mtomega import numeric

    monkeypatch.setattr(R, "SYMMETRIC_DIGITS", 30)
    tables, zeta_table = [], numeric.zeta_table

    def spy(word_sums, digits):
        tables.append(digits)
        return zeta_table(word_sums, digits)

    monkeypatch.setattr(numeric, "zeta_table", spy)
    formed, omega_word = [], W.omega_word

    def word_spy(index):
        formed.append(index)
        return omega_word(index)

    monkeypatch.setattr(W, "omega_word", word_spy)
    run = list(R.symmetric_relation_spaces(range(2, 9)))
    assert tables == [30, 60]
    # each generator's Omega word is formed once, across weight 8's retry too
    assert formed == [g for w in range(2, 9) for g in W.partitions_of_weight(w)]
    for weight, mined in zip(range(2, 9), run):
        assert mined == next(R.symmetric_relation_spaces([weight])), weight
    assert tables.count(60) == 2  # only weight 8 retried


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
    basis, rep = next(R.symmetric_relation_spaces([weight]))
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
    rep = next(R.conjecture_reports([3], range(2, 13)))
    assert rep["kernels_agree"]
    assert all(rep["m0_projection_in_finite_kernel"])
    assert rep["weight"] == 3
    assert rep["finite"]["dimension"] == 1
    assert rep["symmetric"]["dimension"] == 1


def test_conjecture_report_weight4_implied():
    rep = next(R.conjecture_reports([4], range(2, 13)))
    assert rep["kernels_agree"]
    assert rep["implied_relations"]
    assert all(rec["in_finite_kernel"] for rec in rep["implied_relations"])
