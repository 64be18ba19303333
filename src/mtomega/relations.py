"""Relation mining and dimension accounting for the omega-value spaces.

Three miners share one report format.  The finite miner intersects, prime by
prime, the congruence kernels of the residue vectors, keeping the integer
lattice LLL-reduced as it shrinks; surviving short vectors are re-verified on
holdout primes.  The cyclotomic miner stacks exact linear constraints over
Q(zeta_n) for a range of n and takes the rational kernel.  The symmetric
miner runs PSLQ over certified high-precision values, with the quotient by
zeta(2)-multiples realized by augmenting the value vector with
zeta(2) * (monomial zeta values of weight k-2).

Relation vectors are primitive integer vectors; each is tagged `proven` when
it lies in the rational span of relations the underlying theorems supply,
and `conjectural` otherwise.  Dimension = generators - relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

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
        rows[ri] = [x * inv for x in rows[ri]]
        for i in range(len(rows)):
            if i != ri and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[ri])]
        pivots.append(col)
        ri += 1
        if ri == len(rows):
            break
    return rows[:ri], pivots


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix, canonical from the RREF."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        out.append(v)
    return out


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
    den = math.lcm(*(Fraction(x).denominator for x in vector))
    ints = [int(Fraction(x) * den) for x in vector]
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# integer lattices: LLL


def lll_reduce(basis, delta=Fraction(3, 4)):
    """LLL reduction with exact integer arithmetic (integral Gram-Schmidt).

    Same lattice in, same lattice out; the Lovasz condition holds at the
    given delta on return.  Input vectors must be linearly independent.
    """
    b = [list(v) for v in basis]
    n = len(b)
    if n == 0:
        return []
    dn, dd = delta.numerator, delta.denominator

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = dot(b[i], b[j])
            for k in range(j):
                u = (d[k + 1] * u - lam[i][k] * lam[j][k]) // d[k]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
                if u == 0:
                    raise DependentInputError("input vectors are dependent")

    def redi(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            for j in range(len(b[k])):
                b[k][j] -= q * b[l][j]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swapi(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lam_ = lam[k][k - 1]
        bb = (d[k - 1] * d[k + 1] + lam_ * lam_) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_ * t) // d[k]
            lam[i][k - 1] = (bb * t + lam_ * lam[i][k]) // d[k + 1]
        d[k] = bb

    k = 1
    while k < n:
        redi(k, k - 1)
        if dd * d[k + 1] * d[k - 1] < dn * d[k] * d[k] - dd * lam[k][k - 1] ** 2:
            swapi(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                redi(k, l)
            k += 1
    return [tuple(v) for v in b]


# ---------------------------------------------------------------------------
# PSLQ


def pslq(xs, digits: int = 60, max_height: int = 10**6):
    """Integer-relation search on certified BigReal values.

    Returns a primitive integer vector a with |sum a_i x_i| < 10^(-digits/2)
    and max |a_i| <= max_height, or None.  A candidate from the underlying
    search is accepted only if its residual, summed at 1.5x the working
    digits, is below 10^(-digits/2); the residual uses the same input values,
    which are not re-evaluated at the higher precision.
    """
    xs = list(xs)
    if len(xs) < 2:
        raise ValueError("pslq needs at least two values")
    for x in xs:
        if x.certified_digits < digits:
            raise PrecisionError(
                f"input certified to {x.certified_digits} < {digits} digits"
            )
    verify_dps = int(digits * 3 / 2) + 10
    with mp.workdps(verify_dps):
        vals = [mp.mpf(x.value) for x in xs]
        tol = mp.mpf(10) ** (-(digits - 10))
        scale = max(abs(v) for v in vals)
        # exact-zero coordinates make the search degenerate; report e_i instead
        for i, v in enumerate(vals):
            if abs(v) < tol * max(1, scale):
                out = [0] * len(vals)
                out[i] = 1
                return tuple(out)
        with mp.workdps(digits):
            cand = mp.pslq(vals, tol=tol, maxcoeff=max_height, maxsteps=50000)
        if cand is None:
            return None
        g = math.gcd(*cand)
        if g:
            cand = [c // g for c in cand]
        lead = next((c for c in cand if c), 0)
        if lead < 0:
            cand = [-c for c in cand]
        if max(abs(c) for c in cand) > max_height:
            return None
        err = abs(mp.fsum(c * v for c, v in zip(cand, vals)))
        if err >= mp.mpf(10) ** (-(digits / 2)):
            return None
    return tuple(cand)


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class RelationBasis:
    generators: tuple  # ((m, index), ...) with m the 1-zeta (or hbar) power
    vectors: tuple  # primitive integer relation vectors
    statuses: tuple  # "proven" | "conjectural", parallel to vectors
    provenance: str  # finite | cyclotomic | symmetric

    def to_json(self) -> dict:
        return {
            "provenance": self.provenance,
            "generators": [
                {"m": m, "index": modular.format_index(idx)}
                for m, idx in self.generators
            ],
            "relations": [
                {"vector": list(v), "status": s}
                for v, s in zip(self.vectors, self.statuses)
            ],
        }


@dataclass(frozen=True)
class DimReport:
    weight: int
    generator_count: int
    relation_count: int
    dimension: int
    status: str  # proven | conjectural-numeric

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "generators": self.generator_count,
            "relations": self.relation_count,
            "dimension": self.dimension,
            "status": self.status,
        }


def basis_report_json(basis: RelationBasis, report: DimReport) -> dict:
    out = {"weight": report.weight}
    out.update(basis.to_json())
    out["dimension"] = report.dimension
    out["status"] = report.status
    return out


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


def default_prime_split(weight):
    """40 training primes above weight + 2 and the next 20 as holdout."""
    ps = [p for p in modular.primes_upto(399) if p > weight + 2]
    return ps[:40], ps[40:60]


def finite_generators(weight):
    return tuple(words.partitions_of_weight(weight))


def finite_relation_space(
    weight: int,
    training_primes=None,
    holdout_primes=None,
    height_bound: int = 2**10,
):
    """Mine integer relations among finite omega values of one weight.

    The lattice of integer vectors whose residue combination vanishes at every
    training prime is computed by iterated kernel preimages, LLL-reduced after
    each prime to keep entries small; vectors within the height bound that
    also vanish at every holdout prime are the relations.
    """
    if training_primes is None or holdout_primes is None:
        tr, ho = default_prime_split(weight)
        training_primes = training_primes or tr
        holdout_primes = holdout_primes or ho
    gens = finite_generators(weight)
    d = len(gens)
    if d == 0:
        return _mined("finite", weight, (), ())
    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    for p in training_primes:
        c = [modular.omega_mod(g, p) for g in gens]
        v = [sum(row[i] * c[i] for i in range(d)) % p for row in basis]
        if not any(v):
            continue
        j = next(i for i, x in enumerate(v) if x)
        inv = pow(v[j], p - 2, p)
        newbasis = []
        for i, row in enumerate(basis):
            if i == j:
                continue
            f = v[i] * inv % p
            newbasis.append([a - f * b for a, b in zip(row, basis[j])])
        newbasis.append([p * x for x in basis[j]])
        basis = [list(r) for r in lll_reduce(newbasis)]
    kept = []
    for row in basis:
        if max(abs(x) for x in row) > height_bound:
            continue
        if all(
            sum(a * modular.omega_mod(g, q) for a, g in zip(row, gens)) % q == 0
            for q in holdout_primes
        ):
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


def cyclotomic_relation_space(weight: int, n_range=None):
    """Exact rational kernel of the stacked Q(zeta_n) constraints.

    Each n imposes phi(n) linear equations on the generator coefficients;
    relations in the kernel are exact identities for every tested n and are
    reported as conjectural beyond that (except those the vanishing theorem
    proves for all n).
    """
    if n_range is None:
        n_range = range(2, 41)
    gens = cyclo_generators(weight)
    d = len(gens)
    if d == 0:
        return _mined("cyclotomic", weight, (), ())
    # one row per Q-coordinate (slot) of each n's constraint, kept in RREF;
    # the kernel is empty once the rank reaches d
    constraints = []
    for n in n_range:
        if len(constraints) == d:
            break
        vals = [cyclo.omega_gen(m, idx, n).coeffs for m, idx in gens]
        constraints, _ = rref(constraints + list(zip(*vals)))
    # the final RREF makes the reported basis canonical
    red, _ = rref(kernel_basis(constraints, d))
    return _mined(
        "cyclotomic", weight, gens, [primitive_integer(v) for v in red],
        span_test(_proven_cyclo_span(weight, gens)),
    )


# ---------------------------------------------------------------------------
# symmetric miner


def symmetric_generators(weight):
    return tuple(words.partitions_of_weight(weight))


def _augmentation_words(weight):
    """Admissible monomials of the given weight (empty list when weight < 2)."""
    if weight == 0:
        return [()]
    out = []
    for idx in words.indices_of_weight(weight):
        if words.is_admissible(idx):
            out.append(words.word_of_index(idx))
    return out


def symmetric_relation_space(weight: int, digits: int = 60, max_height: int = 10**4):
    """PSLQ-mine relations among limit omega values modulo zeta(2) multiples.

    The value vector is the Omega values of one weight followed by
    zeta(2) * zeta(monomial) for every admissible monomial of weight - 2; a
    relation touching the augmented block means "zero modulo zeta(2) times a
    zeta value".  The reported dimension counts only the Omega block of the
    quotient.
    """
    if digits < 50:
        raise PrecisionError("symmetric mining needs digits >= 50")
    gens = symmetric_generators(weight)
    d = len(gens)
    if d == 0:
        return _mined("symmetric", weight, (), ())
    values = [numeric.omega_limit_num(g, digits) for g in gens]
    aug = _augmentation_words(weight - 2)
    with mp.workdps(digits + numeric.GUARD_DIGITS):
        z2 = numeric.mzv_num(words.y_word((2,)), digits).value
        for w in aug:
            values.append(
                numeric.BigReal(
                    +(z2 * numeric.mzv_num(words.WordSum.monomial(w), digits).value),
                    digits,
                )
            )
    nvals = len(values)
    active = list(range(nvals))
    found = []
    while True:
        if len(active) < 2:
            # a lone numerically-zero value is still a relation
            if active:
                i = active[0]
                with mp.workdps(digits):
                    if abs(values[i].value) < mp.mpf(10) ** (-(digits - 10)):
                        v = [0] * nvals
                        v[i] = 1
                        found.append(tuple(v))
                        active = []
            break
        rel = pslq([values[i] for i in active], digits, max_height)
        if rel is None:
            break
        full = [0] * nvals
        for i, c in zip(active, rel):
            full[i] = c
        found.append(tuple(full))
        pivot = max(
            range(len(rel)), key=lambda i: (abs(rel[i]), -i)
        )  # deterministic
        active.pop(pivot)
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


def product_identity_checks(n_range=None):
    """Exact verification, per n, of the two displayed product identities."""
    if n_range is None:
        n_range = range(2, 41)
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


@dataclass(frozen=True)
class ConjectureReport:
    weight: int
    finite: tuple  # (RelationBasis, DimReport)
    symmetric: tuple
    cyclotomic: tuple
    m0_in_finite: tuple  # per cyclotomic relation: m=0 part lies in finite span
    finite_in_symmetric: tuple
    symmetric_in_finite: tuple
    kernels_agree: bool
    product_checks: tuple
    implied_relations: tuple

    def to_json(self) -> dict:
        fb, fr = self.finite
        sb, sr = self.symmetric
        cb, cr = self.cyclotomic
        return {
            "weight": self.weight,
            "finite": basis_report_json(fb, fr),
            "symmetric": basis_report_json(sb, sr),
            "cyclotomic": basis_report_json(cb, cr),
            "m0_projection_in_finite_kernel": list(self.m0_in_finite),
            "finite_in_symmetric": list(self.finite_in_symmetric),
            "symmetric_in_finite": list(self.symmetric_in_finite),
            "kernels_agree": self.kernels_agree,
            "product_checks": list(self.product_checks),
            "implied_relations": list(self.implied_relations),
        }


def conjecture_report(
    weight: int,
    n_range=None,
    training_primes=None,
    holdout_primes=None,
    digits: int = 60,
) -> ConjectureReport:
    """Compare the finite, symmetric, and cyclotomic kernels at one weight.

    The m = 0 projection of every cyclotomic relation must be a finite
    relation; the finite and symmetric kernels are conjectured to coincide.
    Also reruns the two product identities and reports whether the relations
    they imply were found by the finite miner.
    """
    fin = finite_relation_space(weight, training_primes, holdout_primes)
    sym = symmetric_relation_space(weight, digits)
    cyc = cyclotomic_relation_space(weight, n_range)
    fin_vecs = [list(v) for v in fin[0].vectors]
    gens = fin[0].generators
    d = len(gens)
    sym_omega = [list(v[:d]) for v in sym[0].vectors if any(v[:d])]
    m0_positions = [
        i for i, (m, _idx) in enumerate(cyc[0].generators) if m == 0
    ]
    cyc_m0 = [
        [v[i] for i in m0_positions] for v in cyc[0].vectors
    ]
    in_fin = span_test(fin_vecs)
    in_sym = span_test(sym_omega)
    m0_in_finite = tuple(in_fin(v) for v in cyc_m0)
    finite_in_symmetric = tuple(in_sym(v) for v in fin_vecs)
    symmetric_in_finite = tuple(in_fin(v) for v in sym_omega)
    kernels_agree = all(finite_in_symmetric) and all(symmetric_in_finite)
    checks = tuple(product_identity_checks(n_range))
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
    return ConjectureReport(
        weight,
        fin,
        sym,
        cyc,
        m0_in_finite,
        finite_in_symmetric,
        symmetric_in_finite,
        kernels_agree,
        checks,
        tuple(implied),
    )
