"""Reference implementations the tests compare the package against.

`shuffle_hbar_raw` computes the deformed shuffle the long way: expand both
e-words into the raw letters a, b, shuffle there, and solve for the result in
the e-monomial basis.  `hnf` is the row-style Hermite normal form, a
canonical basis of an integer lattice, so two bases span the same lattice
exactly when their forms are equal.  `omega_at_root` and `z_at_root` sum the
q-series values at a root of unity term by term, one CycloElem product per
composition or chain.
"""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

from mtomega import cyclo as C
from mtomega import relations as R
from mtomega.errors import InternalClosureError
from mtomega.words import HAT1, EWord, HbarSum, _eword_key

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
    red, pivots = R.rref(
        [[exp.get(r, 0) for exp in expansions] + [raw.get(r, 0)] for r in rows]
    )
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


# ---------------------------------------------------------------------------
# omega and z at a root of unity, term by term in Q(zeta_n)


@functools.lru_cache(maxsize=None)
def qint_inverse(n: int, m: int) -> C.CycloElem:
    """1/[m] at zeta_n: sum_{i<m'} zeta^(m i) with m m' = 1 mod n when [m]
    is a unit, the Euclidean inverse (cyclo_inv) otherwise."""
    ctx = C.CycloCtx(n)
    if math.gcd(m, n) > 1:
        return C.cyclo_inv(C.q_int(ctx, m))
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
        return C.CycloElem.zeta_pow(ctx, m) * inv
    return C.CycloElem.zeta_pow(ctx, (k - 1) * m) * inv**k


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
