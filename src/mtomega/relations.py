"""Relation mining and dimension accounting for the omega-value spaces.

Three miners share one report format.  The finite miner reports the proven
span's RREF rows and mines only the generators off their pivots: it joins
their residue vectors at the training primes by CRT and finds the lattice of
integer vectors whose combination vanishes at all of them by one LLL
reduction, in the lattice shape the symmetric miner uses; surviving short
vectors are re-verified on holdout primes.
The cyclotomic miner cuts an exact integer basis of the rational kernel of
the Q(zeta_n) constraints down n by n modulo primes l = 1 (mod n), and
certifies each new vector exactly.
The symmetric miner reduces one integer lattice built from certified
high-precision values, with the quotient by zeta(2)-multiples realized by
augmenting the value vector with zeta(2) * (Hoffman's zeta values of weight
k-2).

Relation vectors are primitive integer vectors, tuples of Python ints, and
all the linear algebra on them runs in integers; each is tagged `proven` when
it lies in the rational span of relations the underlying theorems supply,
and `conjectural` otherwise.  Dimension = generators - relations.
numpy is imported where the residue arrays are built, and no miner loads
mpmath: the symmetric values are `numeric`'s fixed-point integers.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import NamedTuple

from . import cyclo, modular, numeric, words
from .errors import DependentInputError, PrecisionError

# ---------------------------------------------------------------------------
# exact linear algebra over the integers


def rref(rows):
    """Reduced row echelon form, fraction-free; returns (rows, pivot_columns).

    Each row is the rational RREF row scaled to a primitive integer vector
    with a positive pivot.  A column is cleared from a row as
    a * row - f * pivot_row, with a and f the pivot entry and the row's
    entry over their gcd, and a changed row is divided by its content: a
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968) with every
    row kept primitive.
    """
    rows = list(rows)
    pivots = []
    ri = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(ri, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        # rows ri.. are zero left of col, so primitive_integer makes the pivot > 0
        prow = primitive_integer(rows[piv])
        rows[piv], rows[ri] = rows[ri], prow
        p = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != ri:
                g = math.gcd(p, f)
                a, f = p // g, f // g
                rows[i] = primitive_integer([a * x - f * y for x, y in zip(row, prow)])
        pivots.append(col)
        ri += 1
        if ri == len(rows):
            break
    return rows[:ri], pivots


def span_test(basis):
    """Membership predicate for the rational span of the basis rows.

    The basis is row-reduced once; each test then clears the vector's pivot
    entries against the reduced rows, in integers, and nothing may be left.
    """
    red, pivots = rref(basis)

    def contains(v) -> bool:
        for row, col in zip(red, pivots):
            f = v[col]
            if f:
                a = row[col]
                v = [a * x - f * y for x, y in zip(v, row)]
        return not any(v)

    return contains


def primitive_integer(vector):
    """The integer vector over the gcd of its entries, first nonzero entry > 0."""
    g = math.gcd(*vector)
    if next((x for x in vector if x), 0) < 0:
        g = -g
    return tuple(x // g for x in vector) if g else tuple(vector)


# ---------------------------------------------------------------------------
# integer lattices: LLL


def _field(p, i, width):
    """Entry i of a packed row whose entries 0..i have |x| < 2^(width - 1)."""
    if i:  # floor((p + 2^(w i - 1)) / 2^(w i)): fields i.. without a borrow
        p = ((p >> (width * i - 1)) + 1) >> 1
    return ((p + (1 << width - 1)) & ((1 << width) - 1)) - (1 << width - 1)


def _gram_schmidt_row(b, d, lam, row, width):
    """Extend d and lam, the integral Gram-Schmidt data (d_(i+1) = prod_(t<=i) |b*_t|^2,
    lambda_(i,j) = d_(j+1) mu_(i,j)) of b[:len(lam)], by the row b[len(lam)] packs, a tuple."""
    support = [(i, x) for i, x in enumerate(row) if x]
    lk = []
    for p, lj in zip(b, lam + [lk]):  # row . b_j, then the recurrence over t < j
        u = sum(x * _field(p, i, width) for i, x in support)
        for t, (a, c) in enumerate(zip(lk, lj)):
            u = (d[t + 1] * u - a * c) // d[t]
        lk.append(u)
    if not lk[-1]:
        raise DependentInputError("input vectors are dependent")
    d.append(lk.pop())
    lam.append(lk)


def _swap(b, d, lam, k):
    """Exchange rows k - 1 and k; update d and the lambda rows up to k_max = len(lam) - 1."""
    b[k], b[k - 1] = b[k - 1], b[k]
    lam_ = lam[k][k - 1]
    lam[k - 1], lam[k] = lam[k][: k - 1], lam[k - 1] + [lam_]
    bb = (d[k - 1] * d[k + 1] + lam_ * lam_) // d[k]
    for li in lam[k + 1 :]:
        t = li[k]
        li[k] = (d[k + 1] * li[k - 1] - lam_ * t) // d[k]
        li[k - 1] = (bb * t + lam_ * li[k]) // d[k + 1]
    d[k] = bb


def _unpack(p, width, m):
    """The m signed fields of a packed row; ArithmeticError if p has more."""
    row, half, mask = [], 1 << (width - 1), (1 << width) - 1
    for _ in range(m):
        row.append(((p + half) & mask) - half)
        p = (p - row[-1]) >> width
    if p:
        raise ArithmeticError("packed row wider than its fields")
    return tuple(row)


def lll_reduce(basis):
    """LLL-reduce linearly independent integer rows, with exact integer
    arithmetic, and return the reduced rows, tuples in a new list; the
    argument is left as it is, and dependent rows raise DependentInputError.

    Same lattice in, same lattice out; the Lovasz condition holds at
    delta = 3/4 (Lenstra, Lenstra and Lovasz, Math. Ann. 261, 1982) on
    return.  The steps are Cohen's integral LLL with its k_max (A Course in
    Computational Algebraic Number Theory, 1993, Alg. 2.6.7): row k's
    Gram-Schmidt data is computed when k first passes k_max, from the input
    row and the reduced rows 0..k-1, and a swap updates only rows to k_max.

    Each row is packed into one int, entry i in the signed field of bits
    [w i, w (i + 1)), so a size-reduction step is one integer operation,
    exact at any width w since packing is linear.  Rows equal to input rows
    come back as those tuples and only the others are unpacked, so only
    they need to fit.  A changed row ends size-reduced, hence
    ||b_k||^2 <= B_k + (B_0 + ... + B_(k-1))/4 with B_i = d_(i+1)/d_i.
    Size reduction keeps the B_i and a swap never raises their maximum,
    which starts at most at N, the largest input ||b||^2.  So every output
    row has ||b||^2 <= (n + 3) N / 4, and w is the bit length of isqrt of
    that bound plus a sign bit.  Rows 0..k-1 are size-reduced when row k is
    first reached, so they fit, and its dot products read their fields.
    """
    rows = [tuple(v) for v in basis]
    n = len(rows)
    big = max((sum(map(operator.mul, v, v)) for v in rows), default=0)
    width = math.isqrt((n + 3) * big // 4).bit_length() + 1
    b = [sum(x << width * i for i, x in enumerate(v)) for v in rows]
    inputs = dict(zip(b, rows))
    d, lam, k = [1], [], 0
    while k < n:
        if k == len(lam):  # k passes k_max: b[k] is still the input row
            _gram_schmidt_row(b, d, lam, rows[k], width)
        lk = lam[k]
        for l in range(k - 1, -1, -1):
            x, dl = lk[l], d[l + 1]
            if 2 * abs(x) > dl:
                q = (2 * x + dl) // (2 * dl)
                b[k] -= q * b[l]
                lk[:l] = [a - q * c for a, c in zip(lk, lam[l])]
                lk[l] = x - q * dl
            # at l = k - 1: swap when the Lovasz condition (scaled by 4 d[k]^2) fails
            if l == k - 1 and 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lk[l] ** 2:
                _swap(b, d, lam, k)
                k = max(1, k - 1)
                break
        else:
            k += 1
    return [inputs[p] if p in inputs else _unpack(p, width, len(rows[0])) for p in b]


# ---------------------------------------------------------------------------
# integer relations among real numbers: one LLL reduction


def integer_relations(xs, digits: int, max_height: int = 10**4):
    """Basis of the integer relations among reals certified to `digits`,
    given as integers in the unit 2^-numeric.fixed_bits(digits).

    One LLL reduction of the rows (e_i, round(10^(digits-5) * x_i)) (Cohen,
    A Course in Computational Algebraic Number Theory, 1993, 2.7), rounding
    half up.  A reduced row is accepted, as a primitive vector of its first
    N = len(xs) entries, when its height is at most max_height and its last
    entry, the scaled residual, is within N * max_height; a zero x_i gives
    e_i.  PrecisionError when all N rows pass though some value is not zero,
    or when the lattice gap (shortest rejected row over longest accepted row)
    is below 10^2.
    """
    n, bits, scale = len(xs), numeric.fixed_bits(digits), 2 * 10 ** (digits - 5)
    scaled = [(scale * x + (1 << bits)) >> (bits + 1) for x in xs]
    rows = [[int(i == j) for j in range(n)] + [s] for i, s in enumerate(scaled)]
    accepted, rejected, found = [], [], []
    for row in lll_reduce(rows):
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


class RelationBasis(NamedTuple):
    generators: tuple  # ((m, index), ...) with m the 1-zeta (or hbar) power
    vectors: tuple  # primitive integer relation vectors
    statuses: tuple  # "proven" | "conjectural", parallel to vectors
    provenance: str  # finite | cyclotomic | symmetric


class DimReport(NamedTuple):
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
# Weight of the residue column.  A row off the kernel is at least K long, far
# above the length of a kept relation (height at most FINITE_HEIGHT_BOUND,
# so below 2^15 while d < 2^10), so the reduction returns the short
# relations as rows ending in 0 instead of mixing them into rows off it.
FINITE_RESIDUE_SCALE = 2**20


def default_prime_split(weight):
    """40 training primes above weight + 2 and the next 20 as holdout."""
    ps = [p for p in modular.primes_upto(399) if p > weight + 2]
    return ps[:40], ps[40:60]


def finite_relation_spaces(weights):
    """Mine integer relations among finite omega values, weight by weight.

    Every relation is an element of R, the RREF rows of the proven span
    (`_proven_finite_span`), plus one among the generators off R's pivots, so
    only those are mined.  Their residue vectors at the training primes
    (`default_prime_split`) are joined by CRT into C mod P, P the product of
    the primes at which some residue is nonzero.  One LLL reduction of the
    rows (e_i | K C_i) and (0 | K P), K = FINITE_RESIDUE_SCALE, gives the
    integer vectors x with x . C = 0 mod P as the reduced rows whose last
    entry is 0 (Lenstra, Lenstra and Lovasz, Math. Ann. 261, 1982; Cohen,
    1993, 2.7).  Those of height at most FINITE_HEIGHT_BOUND that also vanish
    at every holdout prime, lifted with zeros at the pivots, are reported as
    `conjectural` after R's rows as `proven`; they stay LLL's short rows,
    whose RREF has far larger entries.

    The residues are formed prime by prime across the weights, from one ring
    per prime (`modular.prime_ring`) whose prefix series serve all of them;
    then each weight's (RelationBasis, DimReport) is yielded in turn.
    """
    plan = {}  # weight -> (generators, R, free columns, training, holdout)
    for w in weights:
        gens = words.partitions_of_weight(w)
        proven, pivots = rref(_proven_finite_span(w, gens))
        free = [i for i in range(len(gens)) if i not in pivots]
        plan[w] = (gens, proven, free, *default_prime_split(w))
    residues = {w: {} for w in plan}  # weight -> prime -> the residues of its free generators
    for p in sorted({p for *_, t, h in plan.values() for p in t + h}):
        ring = modular.prime_ring(p)
        for w, (gens, _r, free, t, h) in plan.items():
            if p in t + h:
                residues[w][p] = [modular.omega_mod(gens[i], ring) for i in free]
    for weight, (gens, proven, free, training, holdout) in plan.items():
        f = len(free)
        res = residues.pop(weight)  # each weight's residues are freed once it is mined
        crt, modulus = [0] * f, 1
        for p in training:
            c = res[p]
            if not any(c):
                continue
            inv = pow(modulus, -1, p)
            crt = [x + modulus * ((y - x) * inv % p) for x, y in zip(crt, c)]
            modulus *= p
        scale = FINITE_RESIDUE_SCALE
        rows = [[int(i == j) for j in range(f)] + [scale * x] for i, x in enumerate(crt)]
        kept = []
        for row in lll_reduce(rows + [[0] * f + [scale * modulus]]):
            if row[f] or max(map(abs, row[:f])) > FINITE_HEIGHT_BOUND:
                continue
            if all(sum(map(operator.mul, row, res[q])) % q == 0 for q in holdout):
                lift = dict(zip(free, primitive_integer(row[:f])))
                kept.append(tuple(lift.get(i, 0) for i in range(len(gens))))
        yield _mined(
            "finite", weight, [(0, g) for g in gens], proven + kept, set(proven).__contains__
        )


# ---------------------------------------------------------------------------
# cyclotomic miner


def cyclo_generators(weight):
    """(m, index) labels with m >= 0, parts >= 1, r >= 2, m + wt = weight."""
    return tuple((m, i) for m in range(weight - 1) for i in words.partitions_of_weight(weight - m))


def cyclotomic_relation_spaces(weights, n_range):
    """Exact rational kernels of the Q(zeta_n) constraints over a range of n.

    A weight's primitive integer basis of the kernel for the n done so far
    starts as the identity and is cut down at each n by `_kernel_at`; its
    RREF, rows made primitive, is the reported basis.  Relations in the
    kernel are exact identities for every tested n and are reported as
    conjectural beyond that (except those the vanishing theorem proves for
    all n).  Every weight is cut at n, from n's rings (`cyclo.mod_ring`),
    before any at the next n; then each weight's result is yielded in turn.
    """
    gens = {w: cyclo_generators(w) for w in weights}
    bases = {w: [tuple(int(i == j) for j in g) for i in g] for w, g in gens.items()}
    for n in n_range:
        rings = functools.cache(functools.partial(cyclo.mod_ring, n))  # batch -> ring
        bases = {w: basis and _kernel_at(basis, gens[w], rings) for w, basis in bases.items()}
    for w, g in gens.items():
        yield _mined("cyclotomic", w, g, rref(bases[w])[0], span_test(_proven_cyclo_span(w, g)))


def _values_mod(gens, rings):
    """(l, values over (generator, embedding) mod l), batch by batch from the
    rings of one n, which every weight at that n reads."""
    import numpy as np

    for ring in map(rings, itertools.count()):
        values = [cyclo.omega_gen_mod(m, idx, ring) for m, idx in gens]
        yield from zip(ring.primes, np.stack(values, axis=1))


def _residues(vectors, ell):
    import numpy as np

    return np.array([[x % ell for x in v] for v in vectors], dtype=np.int64)


def _kernel_mod(a, ell):
    """The pivot columns of the RREF of an int64 matrix mod a prime ell below
    2^25, and its kernel basis: one vector per free column, 1 there."""
    import numpy as np

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


def _rational(vectors, modulus):
    """The vectors with each x replaced by the a/b = x (mod modulus) with
    |a|, b <= sqrt(modulus/2) (Wang, Guy and Davenport, SIGSAM Bull. 16,
    1982), each scaled by the lcm of its b to a primitive integer vector;
    None from the first x with no such a/b."""
    bound = math.isqrt(modulus // 2)
    out = []
    for v in vectors:
        fracs = []
        for x in v:
            r0, r1, t0, t1 = modulus, x, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if abs(t1) > bound or math.gcd(r1, t1) != 1:
                return None
            fracs.append((r1, t1))
        den = math.lcm(*(b for _a, b in fracs))
        out.append(primitive_integer([a * (den // b) for a, b in fracs]))
    return out


def _kernel_at(basis, gens, rings):
    """Primitive integer basis of the combinations of `basis` that vanish on
    the generator values in Q(zeta_n), rings(b) the batch-b ring of that n.

    Mod l = 1 (mod n) an element of Z[1/n][zeta_n] vanishes at all phi(n)
    embeddings exactly when its power-basis coordinates do, so the values
    times the basis have rank mod l at most their rank over Q, and the
    kernel mod l contains the reduction of the rational kernel.  The RREF
    kernels of the primes with the most pivots, lexicographically least
    among those, are joined by CRT and lifted by rational reconstruction to
    primitive integer vectors, each combined with the basis in integers,
    until `certified` proves every combination.  Then there are as many
    exact kernel vectors as the kernel mod l has, an upper bound, so they
    span the kernel.  When the basis vanishes mod l (no pivots), the
    basis itself is the candidate.
    """
    best, columns = None, list(zip(*basis))
    for ell, values in _values_mod(gens, rings):
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
            lifted = _rational(residues, modulus)
            if lifted is None:
                continue
            vectors = [
                primitive_integer([sum(map(operator.mul, a, col)) for col in columns])
                for a in lifted
            ]
        if certified(vectors, gens, rings):
            return vectors


def certified(vectors, gens, rings) -> bool:
    """Whether every vector's combination of the generator values is 0 in
    Q(zeta_n), rings as in `_kernel_at`.  Times den^w its power-basis
    coordinates are integers of absolute value at most B = sum_g |a_g| beta_g
    (cyclo.coordinate_bound), so vanishing at every embedding mod primes of
    product > 2B proves it."""
    bounds = [cyclo.coordinate_bound(m, idx, rings(0).packed) for m, idx in gens]
    need = max((sum(abs(a) * b for a, b in zip(v, bounds)) for v in vectors), default=0)
    proved = 1
    for ell, values in _values_mod(gens, rings):
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


#: The symmetric miner's digits start at SYMMETRIC_DIGITS and double up to
#: MAX_DIGITS, also the bound of `values --digits`: far above every table's
#: need, far below what exhausts memory.
SYMMETRIC_DIGITS = 60
MAX_DIGITS = 10_000


def symmetric_relation_spaces(weights):
    """Mine relations among limit Omega values modulo zeta(2) multiples,
    weight by weight, yielding each weight's (RelationBasis, DimReport).

    The value vector is the Omega values of one weight followed by
    zeta(2) * zeta(k) for the Hoffman indices k of weight - 2, and one LLL
    reduction finds its integer relations (`integer_relations`); a relation
    touching the augmented block means "zero modulo zeta(2) times a zeta
    value".  The reported dimension counts only the Omega block of the
    quotient.  The digits double from SYMMETRIC_DIGITS while there is no
    lattice gap (`integer_relations`); at MAX_DIGITS its error is raised.

    The run forms each weight's word sums once (`words.omega_word`, then
    zeta(2) and the Hoffman words) and drops them once the weight is mined.
    It keeps one `numeric.zeta_table` per digits, built when a weight first
    needs those digits, with the words of that weight and every later one;
    the values stay in the table's fixed-point integers.
    """
    weights = list(weights)
    sums = {
        w: [words.omega_word(g) for g in words.partitions_of_weight(w)]
        + [words.y_word(k) for k in [(2,)] + _hoffman_indices(w - 2)]
        for w in weights
    }
    tables = {}  # digits -> zeta table
    for i, weight in enumerate(weights):
        gens = words.partitions_of_weight(weight)
        d = len(gens)
        if d == 0:
            yield _mined("symmetric", weight, (), ())
            continue
        digits = SYMMETRIC_DIGITS
        while True:
            if digits not in tables:
                run_sums = (u for w in weights[i:] for u in sums[w])
                tables[digits] = numeric.zeta_table(run_sums, digits)
            zetas, bits = tables[digits], numeric.fixed_bits(digits)
            values = [sum(c * zetas[w] for w, c in u.items()) for u in sums[weight]]
            values[d:] = [values[d] * zk >> bits for zk in values[d + 1 :]]  # zeta(2) * zk
            try:
                found = integer_relations(values, digits)
                break
            except PrecisionError as exc:
                if digits >= MAX_DIGITS:
                    raise PrecisionError(f"weight {weight}: {exc}") from None
                digits = min(2 * digits, MAX_DIGITS)
        del sums[weight]
        # dimension counts the Omega block of the quotient
        omega_parts = [list(v[:d]) for v in found]
        dim = d - len(rref([r for r in omega_parts if any(r)])[0])
        in_proven = span_test(_proven_finite_span(weight, gens))
        # a relation is proven when its Omega-block statement (mod zeta(2)
        # times a zeta value) follows from the proved special values;
        # pure-augmentation relations are classical zeta identities found
        # numerically, so they stay conjectural here
        yield _mined(
            "symmetric", weight, [(0, g) for g in gens], found,
            lambda v: any(v[:d]) and in_proven(v[:d]), dim,
        )


# ---------------------------------------------------------------------------
# cross-side comparison


# (name, (left factor, right factor), d, terms): d * left * right is the sum
# of c * (1-z)^m * omega(index) over the terms (c, m, index)
_PRODUCT_CHECKS = (
    (
        "omega(1,1)^2 = -5*omega(2,1,1) - 5/2*(1-z)*omega(1,1,1) + 1/4*(1-z)^2*omega(1,1)",
        ((1, 1), (1, 1)),
        4,
        ((-20, 0, (2, 1, 1)), (-10, 1, (1, 1, 1)), (1, 2, (1, 1))),
    ),
    (
        "omega(1,1)*omega(1,1,1) = -2*omega(2,1,1,1) - 3*omega(3,1,1) - (1-z)*omega(1,1,1,1)"
        " - 3*(1-z)*omega(2,1,1) - 1/3*(1-z)^2*omega(1,1,1)",
        ((1, 1), (1, 1, 1)),
        3,
        (
            (-6, 0, (2, 1, 1, 1)),
            (-9, 0, (3, 1, 1)),
            (-3, 1, (1, 1, 1, 1)),
            (-9, 1, (2, 1, 1)),
            (-1, 2, (1, 1, 1)),
        ),
    ),
)


def product_identity_checks(n_range):
    """Exact verification, per n, of the two displayed product identities,
    both from one ring per n."""
    failures = {name: [] for name, *_ in _PRODUCT_CHECKS}
    for n in n_range:
        ring = cyclo.packed_ring(n)
        for name, (ka, kb), d, rhs in _PRODUCT_CHECKS:
            lhs = cyclo.omega_at_root(ka, ring) * cyclo.omega_at_root(kb, ring) * d
            terms = (cyclo.omega_gen(m, idx, ring) * coeff for coeff, m, idx in rhs)
            if lhs != sum(terms, cyclo.CycloElem.zero(ring.ctx)):
                failures[name].append(n)
    return [{"identity": name, "ok": not f, "failures": f} for name, f in failures.items()]


def conjecture_reports(weights, n_range):
    """Compare the finite, symmetric, and cyclotomic kernels weight by weight.

    The m = 0 projection of every cyclotomic relation must be a finite
    relation; the finite and symmetric kernels are conjectured to coincide.
    Also reports the two product identities, checked once for the run, and
    whether the relations they imply were found by the finite miner.  Each
    miner makes one pass over the weights, and each weight's JSON report is
    yielded in turn.
    """
    products = product_identity_checks(n_range)
    fins, cycs = finite_relation_spaces(weights), cyclotomic_relation_spaces(weights, n_range)
    for weight, fin, cyc, sym in zip(weights, fins, cycs, symmetric_relation_spaces(weights)):
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
        for _name, _lhs, _d, rhs in _PRODUCT_CHECKS:
            terms = [(c, idx) for c, m, idx in rhs if m == 0]
            if sum(terms[0][1]) != weight:
                continue
            v = [0] * d
            bits = []
            for c, (_c, idx) in zip(primitive_integer([c for c, _idx in terms]), terms):
                v[gen_pos[idx]] = c
                bits.append(("" if c == 1 else f"{c}*") + f"omega({','.join(map(str, idx))})")
            implied.append({"relation": " + ".join(bits) + " = 0", "in_finite_kernel": in_fin(v)})
        yield {
            "weight": weight,
            "finite": basis_report_json(*fin),
            "symmetric": basis_report_json(*sym),
            "cyclotomic": basis_report_json(*cyc),
            "m0_projection_in_finite_kernel": [in_fin([v[i] for i in m0]) for v in cyc[0].vectors],
            "finite_in_symmetric": finite_in_symmetric,
            "symmetric_in_finite": symmetric_in_finite,
            "kernels_agree": all(finite_in_symmetric) and all(symmetric_in_finite),
            "product_checks": products,
            "implied_relations": implied,
        }
