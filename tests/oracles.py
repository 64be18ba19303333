"""Reference implementations the tests compare the package against.

`shuffle_hbar_raw` computes the deformed shuffle the long way: expand both
e-words into the raw letters a, b, shuffle there, and solve for the result in
the e-monomial basis.  `hnf` is the row-style Hermite normal form, a
canonical basis of an integer lattice, so two bases span the same lattice
exactly when their forms are equal.  `cyclotomic_kernel_exact` is the
cyclotomic miner computed the long way: every generator value exactly in
Q(zeta_n), one Fraction row per coordinate, and the kernel of the whole
stack (`kernel_basis`), all by `rref`, the Fraction RREF that the
fraction-free `relations.rref` is checked against (`primitive` scales its
rows to the integer ones).  `cyclo_inv` is the field inverse in
Q(zeta_n) by the extended Euclidean algorithm, and `cyclo_elem` builds an
element from rational coefficients.  `omega_at_root` and
`z_at_root` sum the q-series values at a root of unity term by term, one
CycloElem product per composition or chain.  `li_half` sums the Li(1/2)
series in mpmath floats at the working digits plus guard digits.  `rho`
maps the hbar-deformed e-words to h1, killing hbar, `reg0_word` is the T=0
regularization by the recursion that divides by the leading x1-run, and
`zeta_word_mod`
extends the harmonic sums mod p linearly to word sums; the tests use them
to check the deformed shuffle and the word route to `omega_mod`.
`bernoulli_mod_table` is the Bernoulli recurrence mod p, the reference for
the power-sum quotients of `bern_div_mod`.  `omega_mod_int64` is the int64
series-product evaluator that `modular.omega_mod` replaced by its float64
one, with one `pow(m, -k, p)` per entry of a power array (no inverse table
of the package) and sums exact below 2^63.
`l_series_rational` sums the truncated q-polylogarithm series at an exact
rational q, for checking that the deformed shuffle multiplies them.
`eword_weight` is the weight of an e-word, the hat letter counting 1.
`lll_reduce_lists` is the exact LLL reduction with list rows, one new list
per size-reduction step, the full Gram-Schmidt table up front and every swap
updating all rows above it, the reference for the packed rows and the
incremental Gram-Schmidt data of `relations.lll_reduce`.  `composition_sum`
is the ring-generic sum over the compositions m_1 + ... + m_r = n, level by
level, where the package multiplies stored prefix series.
`omega_circle_num` sums the omega values on the unit circle with it, in mpc,
with the closed form 1/[m] = exp(-pi*i*(m-1)/n) * sin(pi/n)/sin(m*pi/n),
which avoids cancellation for m close to n; the tests check it against the
exact values embedded at e^(2 pi i/n) and watch it converge to the limit
values Omega.
"""

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from mtomega import cyclo as C
from mtomega import modular as M
from mtomega import numeric as N
from mtomega import relations as R
from mtomega import sums
from mtomega import words as W
from mtomega.errors import DependentInputError, LengthError, MTOmegaError, RangeError
from mtomega.words import HAT1, EWord, HbarSum, WordSum, _eword_key, _linear


class DenominatorError(MTOmegaError):
    """A rational coefficient has denominator divisible by the working prime."""


class PoleError(MTOmegaError):
    """A q-integer [m] vanishes at the requested evaluation point."""


class InternalClosureError(MTOmegaError):
    """Raw-letter rewriting left a residue outside the e-monomial span.

    This never happens for correct inputs; it signals an implementation bug.
    """


# ---------------------------------------------------------------------------
# raw-letter oracle for the deformed shuffle


@functools.lru_cache(maxsize=None)
def _raw_shuffle(u: tuple, v: tuple) -> tuple:
    """Deformed shuffle on raw {a, b} words: ((hbar, word), coeff) tuples.

    Rules: a leading b on either side pulls out front; two leading a's
    recurse with an hbar correction term.
    """
    if not u:
        return (((0, v), 1),)
    if not v:
        return (((0, u), 1),)
    if u[0] == "b":
        return tuple(((h, ("b",) + w), c) for (h, w), c in _raw_shuffle(u[1:], v))
    if v[0] == "b":
        return tuple(((h, ("b",) + w), c) for (h, w), c in _raw_shuffle(u, v[1:]))
    acc = Counter()
    for (h, w), c in _raw_shuffle(u[1:], v):
        acc[(h, ("a",) + w)] += c
    for (h, w), c in _raw_shuffle(u, v[1:]):
        acc[(h, ("a",) + w)] += c
    for (h, w), c in _raw_shuffle(u[1:], v[1:]):
        acc[(h + 1, ("a",) + w)] += c
    return tuple(sorted((k, v) for k, v in acc.items() if v))


def _expand_eword(ew: EWord) -> dict:
    """Expand an e-word into raw letters: e_1hat = ab, e_k = a^k b + hbar a^(k-1) b."""
    out = {(0, ()): Fraction(1)}
    for l in ew:
        if l == HAT1:
            pieces = [((0, ("a", "b")), 1)]
        else:
            pieces = [((0, ("a",) * l + ("b",)), 1), ((1, ("a",) * (l - 1) + ("b",)), 1)]
        new = {}
        for (h, w), c in out.items():
            for (dh, piece), m in pieces:
                key = (h + dh, w + piece)
                new[key] = new.get(key, Fraction(0)) + c * m
        out = new
    return out


def _block_options(run: int):
    # which e-letters produce a raw block a^run b, and with what hbar cost
    if run == 0:
        return [(1, 1)]
    if run == 1:
        return [(1, 0), (HAT1, 0), (2, 1)]
    return [(run, 0), (run + 1, 1)]


def _raw_to_ebasis(raw: dict) -> dict:
    """Rewrite a raw polynomial into the e-monomial basis by exact solve."""
    candidates = set()
    for (h, letters), _c in raw.items():
        if letters and letters[-1] != "b":
            raise InternalClosureError(
                f"raw word outside the e-span: hbar^{h} {''.join(letters)}"
            )
        runs = []
        run = 0
        for l in letters:
            if l == "a":
                run += 1
            else:
                runs.append(run)
                run = 0
        for choice in itertools.product(*[_block_options(r) for r in runs]):
            dh = sum(cost for _l, cost in choice)
            if h - dh >= 0:
                candidates.add((h - dh, tuple(l for l, _cost in choice)))
    candidates = sorted(candidates, key=lambda t: (t[0],) + _eword_key(t[1]))
    expansions = []
    rows = set(raw)
    for he, ew in candidates:
        exp = {(h + he, w): c for (h, w), c in _expand_eword(ew).items()}
        expansions.append(exp)
        rows.update(exp)
    rows = sorted(rows)
    # exact solve of  sum_j x_j * expansions_j = raw  on the augmented matrix
    ncols = len(expansions)
    red, pivots = rref([[exp.get(r, 0) for exp in expansions] + [raw.get(r, 0)] for r in rows])
    if ncols in pivots:
        raise InternalClosureError("raw polynomial is not in the e-monomial span")
    return {candidates[col]: red[i][ncols] for i, col in enumerate(pivots) if red[i][ncols]}


def shuffle_hbar_raw(u: HbarSum, v: HbarSum) -> HbarSum:
    """Oracle route for the deformed shuffle: raw-letter recursion + rewrite.

    Kept separate from shuffle_hbar so the two can certify each other; raises
    InternalClosureError if the rewrite fails (which would contradict the
    closure of the deformed shuffle on the e-span).
    """
    raw = {}
    for (h1, w1), c1 in u._terms.items():
        for (h2, w2), c2 in v._terms.items():
            for (ha, wa), ca in _expand_eword(w1).items():
                for (hb, wb), cb in _expand_eword(w2).items():
                    c = c1 * c2 * ca * cb
                    for (h, w), m in _raw_shuffle(wa, wb):
                        key = (h + ha + hb + h1 + h2, w)
                        s = raw.get(key, Fraction(0)) + m * c
                        if s:
                            raw[key] = s
                        elif key in raw:
                            del raw[key]
    return HbarSum(_raw_to_ebasis(raw))


def rho(u: HbarSum) -> WordSum:
    """Algebra map to h1: kills hbar, sends e_1hat to y_1 and e_k to y_k."""

    def rule(key):
        h, ew = key
        if h > 0:
            return ()
        return ((W.word_of_index(tuple(1 if l == HAT1 else l for l in ew)), 1),)

    return WordSum._wrap(_linear(u._terms, rule))


@functools.lru_cache(maxsize=None)
def reg0_word(word: tuple) -> WordSum:
    """T=0 shuffle regularization of a monomial by recursion on its leading
    x1-run: for word = x1 v with a run of length l, x1 sh v = l*word + R with
    R supported on shorter leading runs, and reg0(x1 sh v) = 0, so
    reg0(word) = -(1/l) reg0(R)."""
    if not word or word[0] == W.X0:
        return WordSum.monomial(word)
    ell = next((i for i, letter in enumerate(word) if letter != W.X1), len(word))
    rest = W.shuffle(WordSum.monomial((W.X1,)), WordSum.monomial(word[1:]))
    acc = WordSum.zero()
    for w, m in rest.items():
        if w != word:
            acc = acc + Fraction(-m, ell) * reg0_word(w)
    return acc


def eword_weight(eword: EWord) -> int:
    return sum(map(C._exponent, eword))


def zeta_word_mod(u: WordSum, p: int) -> int:
    """Linear extension of w -> hsum_mod(index_of_word(w), p)."""
    M._check_prime(p)
    total = 0
    for w, c in u.items():
        if c.denominator % p == 0:
            raise DenominatorError(f"coefficient {c} has denominator divisible by {p}")
        cm = c.numerator * pow(c.denominator, p - 2, p) % p
        total = (total + cm * M.hsum_mod(W.index_of_word(w), p)) % p
    return total


def bernoulli_mod_table(p: int) -> tuple:
    """B_0..B_{p-3} mod p via the binomial recurrence (B_1 = -1/2), O(p^2)."""
    n = p - 3
    inv = [0] + [pow(m, -1, p) for m in range(1, p)]
    bern = [0] * (n + 1)
    bern[0] = 1
    # Pascal row C(m+1, j) built incrementally
    for m in range(1, n + 1):
        row = [1]
        for j in range(1, m + 2):
            row.append(row[-1] * (m + 2 - j) % p * inv[j] % p)
        s = 0
        for j in range(m):
            s = (s + row[j] * bern[j]) % p
        bern[m] = -s * inv[m + 1] % p
    return tuple(bern)


@functools.lru_cache(maxsize=None)
def _power_array_int64(p: int, k: int):
    import numpy as np

    arr = np.zeros(p, dtype=np.int64)
    for m in range(1, p):
        arr[m] = pow(m, -k, p)
    return arr


@functools.lru_cache(maxsize=None)
def _series_mod_int64(prefix, p: int):
    import numpy as np

    if len(prefix) == 1:
        return _power_array_int64(p, prefix[0])
    series = _series_mod_int64(prefix[:-1], p)
    return np.convolve(series, _power_array_int64(p, prefix[-1]))[:p] % p


def omega_mod_int64(index, p: int) -> int:
    """omega_p(index) mod p from int64 series products: the sums of p products
    below p^2 are exact while p (p - 1)^2 < 2^63."""
    index = tuple(sorted(index))
    head = _series_mod_int64(index[:-1], p)
    return int(head[1:].dot(_power_array_int64(p, index[-1])[p - 1 : 0 : -1])) % p


def l_series_rational(u, q, order: int) -> list:
    """Truncated q-polylogarithm coefficients u_1..u_order at exact rational q.

    Works for an HbarSum or a plain (extended) index; hbar acts as 1 - q.
    Raises PoleError when some q-integer [m] vanishes for m <= order.
    """
    q = Fraction(q)
    if q == 1:
        raise PoleError("q = 1 is outside the domain")
    qpow = [Fraction(1)]
    for _ in range(order):
        qpow.append(qpow[-1] * q)
    qint = [None] * (order + 1)
    for m in range(1, order + 1):
        val = (1 - qpow[m]) / (1 - q)
        if val == 0:
            raise PoleError(f"[{m}] vanishes at q = {q}")
        qint[m] = val

    def f(m, k):
        if k == HAT1:
            return qpow[m] / qint[m]
        return qpow[m] ** (k - 1) / qint[m] ** k

    def coeffs_for(ew):
        if not ew:
            return [Fraction(0)] * order  # L(1) = 1 has no positive coefficients
        return sums.chain_levels(ew, order + 1, f, Fraction(0))[1:]

    if not isinstance(u, HbarSum):
        ew = tuple(u)
        return coeffs_for(ew)
    out = [Fraction(0)] * order
    for (h, ew), c in u.items():
        scale = c * (1 - q) ** h
        for i, v in enumerate(coeffs_for(ew)):
            out[i] += scale * v
    return out


# ---------------------------------------------------------------------------
# integer lattices


def hnf(rows):
    """Row-style Hermite normal form (canonical basis of the row lattice)."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    out = []
    col = 0
    while rows and col < ncols:
        rows.sort(key=lambda r: (r[col] == 0, abs(r[col])))
        if rows[0][col] == 0:
            col += 1
            continue
        # gcd-reduce every other row against the smallest pivot
        done = True
        for r in rows[1:]:
            if r[col]:
                q = r[col] // rows[0][col]
                for j in range(ncols):
                    r[j] -= q * rows[0][j]
                done = done and r[col] == 0
        if not done:
            continue
        piv = rows.pop(0)
        if piv[col] < 0:
            piv = [-x for x in piv]
        for prev in out:  # entries above a pivot reduced into [0, pivot)
            q = prev[col] // piv[col]
            if q:
                for j in range(ncols):
                    prev[j] -= q * piv[j]
        out.append(piv)
        rows = [r for r in rows if any(r)]
        col += 1
    return [tuple(r) for r in out]


def lll_reduce_lists(rows):
    """`relations.lll_reduce` the long way: each row a list, rebuilt at
    every size-reduction step, the whole integral Gram-Schmidt table computed
    before the first step from the input rows, and every swap updating lambda
    for all the rows above it (Cohen, 1993, Alg. 2.6.7 without k_max)."""
    b = [list(v) for v in rows]
    n = len(b)
    d, lam = [1] * (n + 1), [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            elif u == 0:
                raise DependentInputError("input vectors are dependent")
            else:
                d[i + 1] = u

    def redi(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
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
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                redi(k, l)
            k += 1
    return [tuple(v) for v in b]


# ---------------------------------------------------------------------------
# exact linear algebra over Fraction, and the cyclotomic kernel with it


def rref(rows):
    """Reduced row echelon form over Fraction, pivots 1; returns
    (rows, pivot_columns)."""
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


def primitive(vector):
    """A rational vector scaled to a primitive integer vector, first nonzero
    entry > 0."""
    den = math.lcm(*(Fraction(x).denominator for x in vector))
    ints = [int(x * den) for x in vector]
    g = math.gcd(*ints) or 1
    if next((x for x in ints if x), 0) < 0:
        g = -g
    return tuple(x // g for x in ints)


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


def cyclotomic_kernel_exact(weight: int, n_range) -> tuple:
    """The cyclotomic miner's relation vectors, from the stacked Fraction
    constraints: one row per power-basis coordinate of each n's exact
    generator values, the kernel of the stack, its RREF as primitive
    vectors, in the miner's order."""
    gens = R.cyclo_generators(weight)
    constraints = []
    for n in n_range:
        vals = [C.omega_gen(m, idx, C.packed_ring(n)).coeffs for m, idx in gens]
        constraints.extend(zip(*vals))
    red, _ = rref(kernel_basis(constraints, len(gens)))
    vectors = map(primitive, red)
    return tuple(sorted(vectors, key=lambda v: (sum(abs(x) for x in v), v)))


# ---------------------------------------------------------------------------
# omega and z at a root of unity, term by term in Q(zeta_n)


def cyclo_elem(ctx: C.CycloCtx, coeffs) -> C.CycloElem:
    """The element sum c_i zeta^i of rational coefficients c_i."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    return C.CycloElem(ctx, [int(c * den) for c in coeffs], den)


def cyclo_inv(x: C.CycloElem) -> C.CycloElem:
    """Field inverse via the extended Euclidean algorithm against the modulus."""
    if not x:
        raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
    ctx = x.ctx
    # work over Q[x]: r0 = modulus, r1 = x; keep only the x-cofactor
    r0 = [Fraction(c) for c in ctx.phi_n]
    r1 = [Fraction(c, x.den) for c in x.num]
    t0 = [Fraction(0)]
    t1 = [Fraction(1)]

    def deg(p):
        d = len(p) - 1
        while d >= 0 and not p[d]:
            d -= 1
        return d

    while True:
        d1 = deg(r1)
        if d1 < 0:
            raise ZeroDivisionError("not invertible (should not happen mod Phi_n)")
        if d1 == 0:
            c = r1[0]
            return cyclo_elem(ctx, [t / c for t in t1])
        d0 = deg(r0)
        q = [Fraction(0)] * (d0 - d1 + 1)
        r = list(r0)
        for i in range(d0, d1 - 1, -1):
            f = r[i] / r1[d1]
            q[i - d1] = f
            if f:
                for j in range(d1 + 1):
                    r[i - d1 + j] -= f * r1[j]
        # t_next = t0 - q * t1
        tn = [Fraction(0)] * max(len(t0), len(q) + len(t1) - 1)
        for i, c in enumerate(t0):
            tn[i] += c
        for i, a in enumerate(q):
            if a:
                for j, b in enumerate(t1):
                    tn[i + j] -= a * b
        r0, r1 = r1, r
        t0, t1 = t1, tn


@functools.lru_cache(maxsize=None)
def qint_inverse(n: int, m: int) -> C.CycloElem:
    """1/[m] at zeta_n: sum_{i<m'} zeta^(m i) with m m' = 1 mod n when [m]
    is a unit, the Euclidean inverse (cyclo_inv) otherwise."""
    ctx = C.CycloCtx(n)
    if math.gcd(m, n) > 1:
        return cyclo_inv(C.CycloElem(ctx, [1] * m))
    coeffs = [0] * n
    for i in range(pow(m, -1, n)):
        coeffs[m * i % n] += 1
    return C.CycloElem(ctx, coeffs)


@functools.lru_cache(maxsize=None)
def f_weight(n: int, m: int, k) -> C.CycloElem:
    """F_k(m) at q = zeta_n: q^((k-1)m)/[m]^k, or q^m/[m] for the hat letter."""
    ctx = C.CycloCtx(n)
    inv = qint_inverse(n, m)
    if k == HAT1:
        return C.CycloElem(ctx, [0] * (m % n) + [1]) * inv
    return C.CycloElem(ctx, [0] * ((k - 1) * m % n) + [1]) * inv**k


def _sum_of_products(n: int, tuples, index) -> C.CycloElem:
    """Sum of f_weight(n, m_1, k_1) * ... * f_weight(n, m_r, k_r) over the
    tuples; the tuples come in lexicographic order, so the products of a
    shared prefix are kept on a stack."""
    total = C.CycloElem.zero(C.CycloCtx(n))
    prev, prefix = (), [C.CycloElem.one(C.CycloCtx(n))]
    for ms in tuples:
        same = 0
        while same < len(prev) - 1 and prev[same] == ms[same]:
            same += 1
        del prefix[same + 1 :]
        for m, k in zip(ms[same:], index[same:]):
            prefix.append(prefix[-1] * f_weight(n, m, k))
        total = total + prefix[-1]
        prev = ms
    return total


def omega_at_root(index, n: int) -> C.CycloElem:
    """Sum over the compositions m_1 + ... + m_r = n, read off the cut points."""
    cuts = itertools.combinations(range(1, n), len(index) - 1)
    compositions = ([b - a for a, b in zip((0,) + cut, cut + (n,))] for cut in cuts)
    return _sum_of_products(n, compositions, index)


def z_at_root(u, n: int) -> C.CycloElem:
    """Sum over the chains n > m_1 > ... > m_r > 0, for an e-word or an
    HbarSum, with hbar acting as 1 - zeta_n."""
    if not isinstance(u, HbarSum):
        u = HbarSum.monomial(tuple(u))
    lam = C.one_minus_zeta(C.CycloCtx(n))
    total = C.CycloElem.zero(C.CycloCtx(n))
    for (h, ew), c in u.items():
        chains = itertools.combinations(range(n - 1, 0, -1), len(ew))
        total = total + _sum_of_products(n, chains, ew) * lam**h * c
    return total


# ---------------------------------------------------------------------------
# Li(1/2) series in mpmath floats


def li_half(index, digits: int) -> mp.mpf:
    """Li_{s_1,...,s_r}(1/2) = sum over m_1 > ... > m_r of 2^-m_1 / prod m^s,
    truncated with a certified geometric tail bound."""
    if not index:
        return mp.mpf(1)
    r = len(index)
    order = N._li_truncation_order(r, digits)
    with mp.workdps(digits + N.GUARD_DIGITS):
        level = sums.chain_levels(index, order + 1, lambda m, s: mp.mpf(m) ** (-s), mp.mpf(0))
        half = mp.mpf(1) / 2
        total = mp.mpf(0)
        power = mp.mpf(1)
        for m in range(1, order + 1):
            power *= half
            total += power * level[m]
        return +total


# ---------------------------------------------------------------------------
# omega values on the unit circle in mpmath


@dataclass(frozen=True)
class BigComplex:
    re: N.BigReal
    im: N.BigReal

    @property
    def value(self) -> mp.mpc:
        return mp.mpc(self.re.value, self.im.value)


def composition_sum(index, n: int, f, zero):
    """Sum of f(m_1, k_1) * ... * f(m_r, k_r) over m_1 + ... + m_r = n, m_a >= 1.

    Zero when n < r = len(index).  After j parts only the partial sums
    j <= s <= n - (r - j) can still be completed to n, so no other entry is
    formed, and the last part computes the coefficient of n alone.  Each
    weight f(m, k_a) is evaluated once.
    """
    r = len(index)
    top = n - r + 1  # the largest part a composition of n into r parts has
    cur = [zero] * (n + 1)
    for s in range(1, top + 1):
        cur[s] = f(s, index[0])
    for j in range(1, r):
        w = [zero] + [f(m, index[j]) for m in range(1, top + 1)]
        new = [zero] * (n + 1)
        for s in range(n if j == r - 1 else j + 1, top + j + 1):
            new[s] = sum(map(operator.mul, cur[s - 1 : j - 1 : -1], w[1 : s - j + 1]), zero)
        cur = new
    return cur[n]


def omega_circle_num(index, n: int, digits: int, normalized: bool = False) -> BigComplex:
    """omega_n(index; e^(2 pi i / n)) in big-complex arithmetic.

    With normalized=True, divides out the weight-th power of the prefactor
    e^(i pi / n) (n / pi) sin(pi / n) that tends to 1; that is the quantity
    whose convergence the limit theorem's proof controls directly, and it
    approaches the limit without the O(1/n) phase drift of the raw value.
    """
    index = W.check_index(index)
    r = len(index)
    if r < 2:
        raise LengthError(f"omega_circle_num needs length >= 2, got {index}")
    if n < 2:
        raise RangeError(f"need n >= 2, got {n}")
    with mp.workdps(digits + N.GUARD_DIGITS):
        pi_n = mp.pi / n
        sin_pi_n = mp.sin(pi_n)
        inv_qint = [mp.mpc(0)] * n
        for m in range(1, n):
            inv_qint[m] = mp.expjpi(mp.mpf(-(m - 1)) / n) * sin_pi_n / mp.sin(m * pi_n)
        q_pow = [mp.expjpi(mp.mpf(2 * j) / n) for j in range(n)]

        def f(m, k):
            return q_pow[((k - 1) * m) % n] * inv_qint[m] ** k

        val = composition_sum(index, n, f, mp.mpc(0))
        if normalized:
            val /= (mp.expjpi(mp.mpf(1) / n) * n / mp.pi * sin_pi_n) ** sum(index)
        return BigComplex(N.BigReal(+val.real, digits), N.BigReal(+val.imag, digits))
