"""Relation mining and dimension accounting for the omega-value spaces.

Three miners share one report format.  The finite miner intersects, prime by
prime, the congruence kernels of the residue vectors, keeping the integer
lattice LLL-reduced as it shrinks.  The lattice is one `GramSchmidt` state,
the rows with their integral Gram-Schmidt data.  A prime cuts the reduced
rows by one rank-one step (a pivot row scaled by p and moved last, multiples
of it cleared from the later rows); the data follows the cut exactly in
O(n^2) operations, and the next reduction resumes there instead of
recomputing it.  Surviving short vectors are re-verified on holdout primes.
The cyclotomic miner cuts an exact integer basis of the rational kernel of
the Q(zeta_n) constraints down n by n modulo primes l = 1 (mod n), and
certifies each new vector exactly.
The symmetric miner reduces one integer lattice built from certified
high-precision values, with the quotient by zeta(2)-multiples realized by
augmenting the value vector with zeta(2) * (Hoffman's zeta values of weight
k-2).

Relation vectors are primitive integer vectors; each is tagged `proven` when
it lies in the rational span of relations the underlying theorems supply,
and `conjectural` otherwise.  Dimension = generators - relations.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import cyclo, modular, numeric, words
from .errors import DependentInputError, PrecisionError

# ---------------------------------------------------------------------------
# exact linear algebra over Fraction


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    ri = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(ri, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[ri], rows[piv] = rows[piv], rows[ri]
        inv = 1 / rows[ri][col]
        prow = rows[ri] = [x * inv for x in rows[ri]]
        # the pivot row is zero left of col, so only its nonzero entries act
        support = [j for j in range(col, ncols) if prow[j]]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != ri:
                for j in support:
                    row[j] -= f * prow[j]
        pivots.append(col)
        ri += 1
        if ri == len(rows):
            break
    return rows[:ri], pivots


def span_test(basis):
    """Membership predicate for the rational span of the basis rows.

    The basis is row-reduced once; each test then clears the vector's pivot
    entries against the reduced rows and checks that nothing is left.
    """
    red, pivots = rref(basis)

    def contains(vector) -> bool:
        v = [Fraction(x) for x in vector]
        for row, col in zip(red, pivots):
            f = v[col]
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        return not any(v)

    return contains


def primitive_integer(vector):
    """Scale a rational vector to a primitive integer vector, first entry > 0."""
    den = math.lcm(*(x.denominator for x in vector))
    ints = [x.numerator * (den // x.denominator) for x in vector]
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# integer lattices: LLL


@dataclass
class GramSchmidt:
    """Integral Gram-Schmidt data of a basis: its rows, d_0..d_n, the lambda
    table, and how many leading rows are already LLL-reduced.

    `of` computes it for a basis, `cut` applies the finite miner's step at
    one prime to rows, d and lambda exactly, in O(n^2) operations, and
    `lll_reduce` LLL-reduces the rows from the first one not yet reduced.
    Its length and iteration are those of its rows.
    """

    rows: list
    d: list
    lam: list
    reduced: int = 0

    @classmethod
    def of(cls, basis):
        """The data of the basis, with no row counted as reduced.  The rows
        must be linearly independent."""
        b = [tuple(v) for v in basis]
        n = len(b)
        d, lam = [1] * (n + 1), [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                u = sum(map(operator.mul, b[i], b[j]))
                for k in range(j):
                    u = (d[k + 1] * u - lam[i][k] * lam[j][k]) // d[k]
                if j < i:
                    lam[i][j] = u
                else:
                    d[i + 1] = u
                    if u == 0:
                        raise DependentInputError("input vectors are dependent")
        return cls(b, d, lam)

    @classmethod
    def identity(cls, n):
        """The data of the reduced basis e_1..e_n."""
        rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        return cls(rows, [1] * (n + 1), [[0] * n for _ in range(n)], n)

    def cut(self, j, f, p):
        """Replace each row i > j by b_i - f[i] b_j and row j by p b_j, then
        move row j last.

        Row j scaled by p scales b*_j by p and leaves every other b*_t as it
        is, so d_t gains p^2 for t > j, lambda_(j,t) gains p, lambda_(i,t)
        becomes lambda_(i,t) - f_i lambda_(j,t) for t < j,
        p (lambda_(i,j) - f_i d_(j+1)) at t = j and lambda_(i,t) p^2 for
        t > j.  The n - 1 - j adjacent swaps that move row j last are exact
        too, and the rows before j stay reduced.
        """
        b = self.rows = list(self.rows)  # the last result stays the caller's
        d, lam, n = self.d, self.lam, len(b)
        bj, lj, dj, p2 = b[j], lam[j], d[j + 1], p * p
        for i in range(j + 1, n):
            fi, li = f[i], lam[i]
            if fi:
                b[i] = tuple(x - fi * y for x, y in zip(b[i], bj))
                for t in range(j):
                    li[t] -= fi * lj[t]
            li[j] = p * (li[j] - fi * dj)
            for t in range(j + 1, i):
                li[t] *= p2
        b[j] = tuple(p * x for x in bj)
        for t in range(j):
            lj[t] *= p
        for t in range(j + 1, n + 1):
            d[t] *= p2
        for k in range(j + 1, n):
            _swap(b, d, lam, k)
        self.reduced = min(self.reduced, j)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def _swap(b, d, lam, k):
    """Exchange rows k - 1 and k, updating d and lambda exactly (Cohen, A
    Course in Computational Algebraic Number Theory, 1993, Alg. 2.6.7)."""
    b[k], b[k - 1] = b[k - 1], b[k]
    for j in range(k - 1):
        lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
    lam_ = lam[k][k - 1]
    bb = (d[k - 1] * d[k + 1] + lam_ * lam_) // d[k]
    for i in range(k + 1, len(b)):
        t = lam[i][k]
        lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_ * t) // d[k]
        lam[i][k - 1] = (bb * t + lam_ * lam[i][k]) // d[k + 1]
    d[k] = bb


def lll_reduce(lattice):
    """LLL-reduce the rows of a `GramSchmidt` in place, with exact integer
    arithmetic, and return them; `lll_reduce(GramSchmidt.of(basis))`
    reduces a basis.

    Same lattice in, same lattice out; the Lovasz condition holds at
    delta = 3/4 (Lenstra, Lenstra and Lovasz, Math. Ann. 261, 1982) on
    return.  The swap loop starts at `lattice.reduced`: that prefix is
    already size-reduced and meets the Lovasz condition, so starting at 0
    would leave it as it is.
    """
    b = [list(v) for v in lattice]  # size reduction rebuilds rows: lists are faster
    d, lam, n = lattice.d, lattice.lam, len(lattice)

    def redi(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = max(1, lattice.reduced)
    while k < n:
        redi(k, k - 1)
        # the Lovasz condition at delta = 3/4 fails (scaled by 4 d[k]^2)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            _swap(b, d, lam, k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                redi(k, l)
            k += 1
    lattice.rows, lattice.reduced = [tuple(v) for v in b], n
    return lattice.rows


# ---------------------------------------------------------------------------
# integer relations among real numbers: one LLL reduction


def _round_scaled(x, scale: int) -> int:
    """round(x * scale) for an mpf x, in exact integer arithmetic."""
    man, exp = x.man_exp  # the mantissa comes without its sign
    if x < 0:
        man = -man
    if exp >= 0:
        return (man << exp) * scale
    return (2 * man * scale + (1 << -exp)) >> (1 - exp)


def integer_relations(xs, digits: int, max_height: int = 10**4):
    """Basis of the integer relations among certified BigReal values.

    One LLL reduction of the rows (e_i, round(10^(digits-5) * x_i)) (Cohen,
    A Course in Computational Algebraic Number Theory, 1993, 2.7).  A reduced
    row is accepted, as a primitive vector of its first N = len(xs) entries,
    when its height is at most max_height and its last entry, the scaled
    residual, is within N * max_height; a zero x_i gives e_i.  PrecisionError
    when the inputs certify fewer digits, when all N rows pass though some
    value is not zero, or when the lattice gap (shortest rejected row over
    longest accepted row) is below 10^2.
    """
    xs = list(xs)
    for x in xs:
        if x.certified_digits < digits:
            raise PrecisionError(
                f"input certified to {x.certified_digits} < {digits} digits"
            )
    n = len(xs)
    scaled = [_round_scaled(x.value, 10 ** (digits - 5)) for x in xs]
    rows = [[int(i == j) for j in range(n)] + [s] for i, s in enumerate(scaled)]
    accepted, rejected, found = [], [], []
    for row in lll_reduce(GramSchmidt.of(rows)):
        norm2 = sum(x * x for x in row)
        if max(map(abs, row[:n])) <= max_height and abs(row[n]) <= n * max_height:
            accepted.append(norm2)
            found.append(primitive_integer(row[:n]))
        else:
            rejected.append(norm2)
    if len(found) == n and any(scaled):
        raise PrecisionError(f"no lattice gap at {digits} digits: all {n} rows pass")
    if accepted and rejected and min(rejected) < 10**4 * max(accepted):
        gap = math.sqrt(min(rejected) / max(accepted))
        raise PrecisionError(f"lattice gap {gap:.3g} < 1e2 at {digits} digits")
    return found


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class RelationBasis:
    generators: tuple  # ((m, index), ...) with m the 1-zeta (or hbar) power
    vectors: tuple  # primitive integer relation vectors
    statuses: tuple  # "proven" | "conjectural", parallel to vectors
    provenance: str  # finite | cyclotomic | symmetric


@dataclass(frozen=True)
class DimReport:
    weight: int
    generator_count: int
    relation_count: int
    dimension: int
    status: str  # proven | conjectural-numeric


def basis_report_json(basis: RelationBasis, report: DimReport) -> dict:
    return {
        "weight": report.weight,
        "provenance": basis.provenance,
        "generators": [
            {"m": m, "index": modular.format_index(idx)} for m, idx in basis.generators
        ],
        "relations": [
            {"vector": list(v), "status": s} for v, s in zip(basis.vectors, basis.statuses)
        ],
        "dimension": report.dimension,
        "status": report.status,
    }


# ---------------------------------------------------------------------------
# proven relation spans


def _cor52_vectors(weight, gen_pos):
    """Vectors of sum_j omega(k_1,...,k_j - 1,...,k_r) = 0 over parts >= 2."""
    out = []
    for t in words.partitions_of_weight(weight + 1):
        if min(t) < 2:
            continue
        acc = [0] * len(gen_pos)
        for dec in words.corollary52_terms(t):
            acc[gen_pos[tuple(sorted(dec, reverse=True))]] += 1
        out.append(acc)
    return out


def _proven_finite_span(weight, gens):
    """Span of the finite-side relations the paper proves outright:
    pair vanishing, ({2}^(r-1), 1) vanishing, the corollary sums, and the
    all-ones index at even weight (odd Bernoulli numbers vanish)."""
    gen_pos = {g: i for i, g in enumerate(gens)}
    vs = []
    for g, i in gen_pos.items():
        proven = len(g) == 2
        proven = proven or (g[-1] == 1 and all(k == 2 for k in g[:-1]))
        proven = proven or (weight % 2 == 0 and all(k == 1 for k in g))
        if proven:
            v = [0] * len(gens)
            v[i] = 1
            vs.append(v)
    vs.extend(_cor52_vectors(weight, gen_pos))
    return vs


def _proven_cyclo_span(weight, gens):
    """Span of cyclotomic relations proved by the all-n vanishing theorem,
    together with (1 - zeta) shifts of the proven span one weight down."""
    gen_pos = {g: i for i, g in enumerate(gens)}
    vs = []
    for ks in words.indices_of_weight(weight + 1, min_len=2, min_part=2):
        v = [0] * len(gens)
        for key, c in words.vanishing_sum_terms(ks).items():
            v[gen_pos[key]] += c
        vs.append(v)
    if weight >= 3:
        lower = cyclo_generators(weight - 1)
        for v in _proven_cyclo_span(weight - 1, lower):
            shifted = [0] * len(gens)
            for (m, idx), c in zip(lower, v):
                if c:
                    shifted[gen_pos[(m + 1, idx)]] += c
            vs.append(shifted)
    return vs


def _mined(provenance, weight, labels, vectors, is_proven=None, dimension=None):
    """Relation basis and dimension report of one miner's result.

    The vectors are sorted by (1-norm, entries) and each is tagged by
    `is_proven`; the dimension defaults to generators - relations.  With no
    generators this is the proven dimension 0.
    """
    vectors = sorted(vectors, key=lambda v: (sum(abs(x) for x in v), v))
    statuses = tuple("proven" if is_proven(v) else "conjectural" for v in vectors)
    d = len(labels)
    if dimension is None:
        dimension = d - len(vectors)
    return (
        RelationBasis(tuple(labels), tuple(vectors), statuses, provenance),
        DimReport(weight, d, len(vectors), dimension, _overall_status(statuses, dimension, d)),
    )


def _overall_status(statuses, dimension, ngens):
    """A dimension value is a theorem only when there is nothing to span or
    when everything provably vanishes; any positive dimension rests on the
    completeness of the mined relation list, hence conjectural-numeric."""
    if ngens == 0 or (dimension == 0 and all(s == "proven" for s in statuses)):
        return "proven"
    return "conjectural-numeric"


# ---------------------------------------------------------------------------
# finite miner


FINITE_HEIGHT_BOUND = 2**10


def default_prime_split(weight):
    """40 training primes above weight + 2 and the next 20 as holdout."""
    ps = [p for p in modular.primes_upto(399) if p > weight + 2]
    return ps[:40], ps[40:60]


def finite_relation_space(weight: int):
    """Mine integer relations among finite omega values of one weight.

    The lattice of integer vectors whose residue combination vanishes at every
    training prime (`default_prime_split`) is computed by iterated kernel
    preimages, LLL-reduced after each prime to keep entries small.  Each
    prime is one `GramSchmidt.cut` of the reduced basis, so the reduction
    resumes from exact Gram-Schmidt data and from the rows before the pivot.
    Vectors of height at most FINITE_HEIGHT_BOUND that also vanish at every
    holdout prime are the relations.
    """
    training_primes, holdout_primes = default_prime_split(weight)
    gens = words.partitions_of_weight(weight)
    d = len(gens)
    if d == 0:
        return _mined("finite", weight, (), ())
    holdout = [(q, [modular.omega_mod(g, q) for g in gens]) for q in holdout_primes]
    gs = GramSchmidt.identity(d)
    for p in training_primes:
        c = [modular.omega_mod(g, p) for g in gens]
        v = [sum(map(operator.mul, row, c)) % p for row in gs]
        if not any(v):
            continue
        j = next(i for i, x in enumerate(v) if x)
        inv = pow(v[j], p - 2, p)
        gs.cut(j, [x * inv % p for x in v], p)
        lll_reduce(gs)
    kept = []
    for row in gs:
        if max(abs(x) for x in row) > FINITE_HEIGHT_BOUND:
            continue
        if all(sum(a * c for a, c in zip(row, res)) % q == 0 for q, res in holdout):
            kept.append(primitive_integer(row))
    return _mined(
        "finite", weight, [(0, g) for g in gens], kept,
        span_test(_proven_finite_span(weight, gens)),
    )


# ---------------------------------------------------------------------------
# cyclotomic miner


def cyclo_generators(weight):
    """(m, index) labels with m >= 0, parts >= 1, r >= 2, m + wt = weight."""
    out = []
    for m in range(0, weight - 1):
        for idx in words.partitions_of_weight(weight - m):
            out.append((m, idx))
    return tuple(out)


def cyclotomic_relation_space(weight: int, n_range):
    """Exact rational kernel of the Q(zeta_n) constraints over a range of n.

    A primitive integer basis of the kernel for the n done so far starts as
    the identity and is cut down at each n by `_kernel_at`; its RREF is the
    reported basis.  Relations in the kernel are exact identities for every
    tested n and are reported as conjectural beyond that (except those the
    vanishing theorem proves for all n).
    """
    gens = cyclo_generators(weight)
    d = len(gens)
    if d == 0:
        return _mined("cyclotomic", weight, (), ())
    basis = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    for n in n_range:
        if basis:
            basis = _kernel_at(basis, gens, n)
    red, _ = rref(basis)
    return _mined(
        "cyclotomic", weight, gens, [primitive_integer(v) for v in red],
        span_test(_proven_cyclo_span(weight, gens)),
    )


def _values_mod(gens, n):
    """(l, values over (generator, embedding) mod l), l over root_primes."""
    for batch in itertools.count():
        values = [cyclo.omega_gen_mod(m, idx, n, batch) for m, idx in gens]
        yield from zip(cyclo.root_primes(n, batch), np.stack(values, axis=1))


def _residues(vectors, ell):
    return np.array([[x % ell for x in v] for v in vectors], dtype=np.int64)


def _kernel_mod(a, ell):
    """The pivot columns of the RREF of an int64 matrix mod a prime ell below
    2^25, and its kernel basis: one vector per free column, 1 there."""
    pivots = []
    for col in range(a.shape[1]):
        r = len(pivots)
        nonzero = np.flatnonzero(a[r:, col]) + r
        if nonzero.size:
            a[[r, nonzero[0]]] = a[[nonzero[0], r]]
            a[r] = a[r] * pow(int(a[r, col]), -1, ell) % ell
            a = (a - np.outer(np.where(np.arange(len(a)) == r, 0, a[:, col]), a[r])) % ell
            pivots.append(col)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    kernel = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    kernel[range(len(free)), free] = 1
    kernel[:, pivots] = -a[: len(pivots), free].T % ell
    return tuple(pivots), kernel.tolist()


def _rational(x, modulus):
    """a/b = x (mod modulus) with |a|, b <= sqrt(modulus/2), or None
    (Wang, Guy and Davenport, SIGSAM Bull. 16, 1982)."""
    bound = math.isqrt(modulus // 2)
    r0, r1, t0, t1 = modulus, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _kernel_at(basis, gens, n):
    """Primitive integer basis of the combinations of `basis` that vanish on
    the generator values in Q(zeta_n).

    Mod l = 1 (mod n) an element of Z[1/n][zeta_n] vanishes at all phi(n)
    embeddings exactly when its power-basis coordinates do, so the values
    times the basis have rank mod l at most their rank over Q, and the
    kernel mod l contains the reduction of the rational kernel.  The RREF
    kernels of the primes with the most pivots, lexicographically least
    among those, are joined by CRT and lifted by rational reconstruction
    until `certified` proves every lifted vector.  Then there are as many
    exact kernel vectors as the kernel mod l has, an upper bound, so they
    span the kernel.  When the basis vanishes mod l (no pivots), the basis
    itself is the candidate.
    """
    best = None
    for ell, values in _values_mod(gens, n):
        pivots, kernel = _kernel_mod((_residues(basis, ell) @ values % ell).T, ell)
        if best is None or (-len(pivots), pivots) < (-len(best), best):
            best, modulus, residues = pivots, ell, kernel
        elif pivots == best:
            inv = pow(modulus, -1, ell)
            residues = [
                [x + modulus * ((y - x) * inv % ell) for x, y in zip(u, v)]
                for u, v in zip(residues, kernel)
            ]
            modulus *= ell
        else:
            continue
        vectors = basis
        if pivots:
            lifted = [[_rational(x, modulus) for x in v] for v in residues]
            if any(None in v for v in lifted):
                continue
            vectors = [
                primitive_integer([sum(c * x for c, x in zip(v, col) if c) for col in zip(*basis)])
                for v in lifted
            ]
        if certified(vectors, gens, n):
            return vectors


def certified(vectors, gens, n) -> bool:
    """Whether every vector's combination of the generator values is 0 in
    Q(zeta_n).  Times den^w its power-basis coordinates are integers of
    absolute value at most B = sum_g |a_g| beta_g (cyclo.coordinate_bound),
    so vanishing at every embedding mod primes of product > 2B proves it."""
    bounds = [cyclo.coordinate_bound(m, idx, n) for m, idx in gens]
    need = max((sum(abs(a) * b for a, b in zip(v, bounds)) for v in vectors), default=0)
    proved = 1
    for ell, values in _values_mod(gens, n):
        if proved > 2 * need:
            return True
        if (_residues(vectors, ell) @ values % ell).any():
            return False
        proved *= ell


# ---------------------------------------------------------------------------
# symmetric miner


def _hoffman_indices(weight):
    """Compositions of the weight into 2s and 3s; their zeta values span the
    multiple zeta values of that weight (Brown, Annals 2012)."""
    if weight == 0:
        return [()]
    return [(k,) + rest for k in (2, 3) if k <= weight for rest in _hoffman_indices(weight - k)]


def symmetric_relation_space(weight: int, digits: int):
    """Mine relations among limit Omega values modulo zeta(2) multiples.

    The value vector is the Omega values of one weight followed by
    zeta(2) * zeta(k) for the Hoffman indices k of weight - 2, and one LLL
    reduction finds its integer relations (`integer_relations`); a relation
    touching the augmented block means "zero modulo zeta(2) times a zeta
    value".  The reported dimension counts only the Omega block of the
    quotient.
    """
    if digits < 50:
        raise PrecisionError("symmetric mining needs digits >= 50")
    gens = words.partitions_of_weight(weight)
    d = len(gens)
    if d == 0:
        return _mined("symmetric", weight, (), ())
    values = [numeric.omega_limit_num(g, digits) for g in gens]
    with mp.workdps(digits + numeric.GUARD_DIGITS):
        z2 = numeric.mzv_num(words.y_word((2,)), digits).value
        for k in _hoffman_indices(weight - 2):
            values.append(
                numeric.BigReal(+(z2 * numeric.mzv_num(words.y_word(k), digits).value), digits)
            )
    try:
        found = integer_relations(values, digits)
    except PrecisionError as exc:
        raise PrecisionError(f"weight {weight}: {exc}") from None
    # dimension counts the Omega block of the quotient
    omega_parts = [list(v[:d]) for v in found]
    dim = d - len(rref([r for r in omega_parts if any(r)])[0])
    in_proven = span_test(_proven_finite_span(weight, gens))
    # a relation is proven when its Omega-block statement (mod zeta(2) times a
    # zeta value) follows from the proved special values; pure-augmentation
    # relations are classical zeta identities found numerically, so they stay
    # conjectural here
    return _mined(
        "symmetric", weight, [(0, g) for g in gens], found,
        lambda v: any(v[:d]) and in_proven(v[:d]), dim,
    )


# ---------------------------------------------------------------------------
# cross-side comparison


_PRODUCT_CHECKS = (
    (
        "omega(1,1)^2 = -5*omega(2,1,1) - 5/2*(1-z)*omega(1,1,1) + 1/4*(1-z)^2*omega(1,1)",
        ((1, 1), (1, 1)),
        (
            (Fraction(-5), 0, (2, 1, 1)),
            (Fraction(-5, 2), 1, (1, 1, 1)),
            (Fraction(1, 4), 2, (1, 1)),
        ),
    ),
    (
        "omega(1,1)*omega(1,1,1) = -2*omega(2,1,1,1) - 3*omega(3,1,1) - (1-z)*omega(1,1,1,1)"
        " - 3*(1-z)*omega(2,1,1) - 1/3*(1-z)^2*omega(1,1,1)",
        ((1, 1), (1, 1, 1)),
        (
            (Fraction(-2), 0, (2, 1, 1, 1)),
            (Fraction(-3), 0, (3, 1, 1)),
            (Fraction(-1), 1, (1, 1, 1, 1)),
            (Fraction(-3), 1, (2, 1, 1)),
            (Fraction(-1, 3), 2, (1, 1, 1)),
        ),
    ),
)


def product_identity_checks(n_range):
    """Exact verification, per n, of the two displayed product identities."""
    out = []
    for name, (ka, kb), rhs in _PRODUCT_CHECKS:
        failures = []
        for n in n_range:
            lhs = cyclo.omega_at_root(ka, n) * cyclo.omega_at_root(kb, n)
            acc = cyclo.CycloElem.zero(cyclo.CycloCtx(n))
            for coeff, m, idx in rhs:
                acc = acc + cyclo.omega_gen(m, idx, n) * coeff
            if lhs != acc:
                failures.append(n)
        out.append({"identity": name, "ok": not failures, "failures": failures})
    return out


def conjecture_report(weight: int, n_range, digits: int) -> dict:
    """Compare the finite, symmetric, and cyclotomic kernels at one weight.

    The m = 0 projection of every cyclotomic relation must be a finite
    relation; the finite and symmetric kernels are conjectured to coincide.
    Also reruns the two product identities and reports whether the relations
    they imply were found by the finite miner.  The report is JSON data.
    """
    fin = finite_relation_space(weight)
    sym = symmetric_relation_space(weight, digits)
    cyc = cyclotomic_relation_space(weight, n_range)
    fin_vecs = [list(v) for v in fin[0].vectors]
    gens = fin[0].generators
    d = len(gens)
    sym_omega = [list(v[:d]) for v in sym[0].vectors if any(v[:d])]
    m0 = [i for i, (m, _idx) in enumerate(cyc[0].generators) if m == 0]
    in_fin = span_test(fin_vecs)
    in_sym = span_test(sym_omega)
    finite_in_symmetric = [in_sym(v) for v in fin_vecs]
    symmetric_in_finite = [in_fin(v) for v in sym_omega]
    # on the finite side omega(1,1) = 0 and (1-z) -> 0, so the m = 0 terms of
    # each product identity sum to zero: a relation at that identity's weight
    gen_pos = {idx: i for i, (_m, idx) in enumerate(gens)}
    implied = []
    for _name, _lhs, rhs in _PRODUCT_CHECKS:
        terms = [(c, idx) for c, m, idx in rhs if m == 0]
        if sum(terms[0][1]) != weight:
            continue
        v = [0] * d
        bits = []
        for c, (_c, idx) in zip(primitive_integer([c for c, _idx in terms]), terms):
            v[gen_pos[idx]] = c
            bits.append(("" if c == 1 else f"{c}*") + f"omega({','.join(map(str, idx))})")
        implied.append(
            {"relation": " + ".join(bits) + " = 0", "in_finite_kernel": in_fin(v)}
        )
    return {
        "weight": weight,
        "finite": basis_report_json(*fin),
        "symmetric": basis_report_json(*sym),
        "cyclotomic": basis_report_json(*cyc),
        "m0_projection_in_finite_kernel": [in_fin([v[i] for i in m0]) for v in cyc[0].vectors],
        "finite_in_symmetric": finite_in_symmetric,
        "symmetric_in_finite": symmetric_in_finite,
        "kernels_agree": all(finite_in_symmetric) and all(symmetric_in_finite),
        "product_checks": product_identity_checks(n_range),
        "implied_relations": implied,
    }
