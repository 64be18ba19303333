"""Certified high-precision evaluation of zeta-type and omega-type values.

Multiple zeta values are evaluated by splitting the defining iterated
integral at 1/2 (Borwein, Bradley, Broadhurst and Lisonek, Trans. AMS 353,
2001), which rewrites zeta(w) as a finite sum of products of multiple
polylogarithms at argument 1/2; each of those is a geometrically convergent
series whose truncation error is bounded explicitly, so a requested accuracy
of `digits` decimal digits is honest.  The series of all the pieces a caller
needs run as one batch over the trie of their suffixes (`li_half_values`), in
fixed-point integers with guard bits that cover every rounding step;
`zeta_table` turns them into the zeta values of the caller's words, in
mpmath at `digits` plus guard digits.  The module keeps no cache: a caller
builds one table for the words it will read (`words.omega_word` is that of
an Omega value) and passes it down, or each value builds its own.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import mpmath as mp

from . import sums, words
from .errors import LengthError, NotAdmissibleError
from .words import X1, WordSum

GUARD_DIGITS = 15


class BigReal(NamedTuple):
    """An mpmath real plus the number of decimal digits it certifies."""

    value: mp.mpf
    certified_digits: int

    def to_json(self) -> dict:
        with mp.workdps(self.certified_digits + 5):
            s = mp.nstr(
                self.value, self.certified_digits, strip_zeros=False, min_fixed=1, max_fixed=0
            )
        return {"value": s, "certified_digits": self.certified_digits}


def _li_truncation_order(r: int, digits: int) -> int:
    """A truncation order M with 1.5 * 2^-M * (M+1)^(r-1) < 10^-(digits+8):
    the first that passes, from max(8r, floor(3.33 (digits + 8))) up in
    steps of 16, so not always the smallest."""
    target = (digits + 8) * math.log(10)
    m = max(8 * r, int(3.33 * (digits + 8)))
    while math.log(1.5) - m * math.log(2) + (r - 1) * math.log(m + 1) >= -target:
        m += 16
    return m


def li_half_values(indices, digits: int) -> dict:
    """Li_{s_1,...,s_r}(1/2) = sum over m_1 > ... > m_r of 2^-m_1 / prod m^s
    of each index, truncated with a certified geometric tail bound.

    The levels run in integers scaled by 2^P, with a floor after each product
    and 2^-m as a shift.  Below the truncation order M a level sums to under
    3M, so an entry is off by at most the errors before it, plus that prefix
    for the floor of m^-s, plus one: under (4M)^j units of 2^-P at level j,
    and the final shifts add M.  r * bitlen(4M) guard bits cover both.  M, P
    and r are those of the longest index: the tail bound grows with r, so a
    larger M and more guard bits only tighten a shorter index's bound.

    The levels are built depth first over the trie of the indices' suffixes,
    one `sums.chain_pass` per node from its parent's level, with one m^-s
    table per part value; only the levels on the current path are kept.
    """
    indices = set(indices)
    r = max(map(len, indices), default=0)
    order = _li_truncation_order(r, digits)
    prec = math.ceil((digits + GUARD_DIGITS) * math.log2(10)) + r * (4 * order).bit_length()
    children = {}  # suffix -> the entries that extend it in front
    for index in indices:
        for j in range(len(index)):
            children.setdefault(index[j + 1 :], set()).add(index[j])
    parts = {k for index in indices for k in index}
    powers = {s: [0] + [(1 << prec) // m**s for m in range(1, order + 1)] for s in parts}
    values = {}

    def visit(index, level):
        if index in indices:
            scaled = sum(map(operator.rshift, level, range(len(level))))
            values[index] = mp.ldexp(mp.mpf(scaled), -prec)
        for k in children.get(index, ()):
            visit((k,) + index, [x >> prec for x in sums.chain_pass(level, powers[k], 0)])

    with mp.workdps(digits + GUARD_DIGITS):
        visit((), [1 << prec] + [0] * order)  # level[0] = 1: the empty index
    return values


def _cuts(word) -> list:
    """(left, right) indices of the cuts word = u v, u from empty to whole:
    left of u reversed with its letters swapped, right of v."""
    dual = tuple(X1 - l for l in reversed(word))
    n = len(word)
    return [
        (words.index_of_word(dual[n - j :]), words.index_of_word(word[j:])) for j in range(n + 1)
    ]


def zeta_table(word_sums, digits: int) -> dict:
    """zeta of every monomial of the admissible word sums, at `digits`, by
    splitting the iterated integral at 1/2: zeta(w) is the sum over the cuts
    of w of Li(left)(1/2) * Li(right)(1/2), every piece of every word taken
    from one `li_half_values` batch."""
    ws = {w for u in word_sums for w, _c in u.items()}
    li = li_half_values({piece for w in ws for cut in _cuts(w) for piece in cut}, digits)
    table = {}
    with mp.workdps(digits + GUARD_DIGITS):
        for w in ws:
            total = mp.mpf(0)
            for left, right in _cuts(w):
                total += li[left] * li[right]
            table[w] = +total
    return table


def mzv_num(u: WordSum, digits: int, zetas=None) -> BigReal:
    """Linear combination of multiple zeta values, accurate to `digits`;
    `zetas` is a `zeta_table` at those digits with u's words, by default
    one built for them."""
    if not u.in_h0():
        raise NotAdmissibleError("mzv_num needs admissible monomials")
    if zetas is None:
        zetas = zeta_table([u], digits)
    with mp.workdps(digits + GUARD_DIGITS):
        total = mp.mpf(0)
        for w, c in u.items():
            total += mp.mpf(c.numerator) / c.denominator * zetas[w]
        return BigReal(+total, digits)


def mt_num(index, l: int, digits: int) -> BigReal:
    """Mordell-Tornheim value zeta^MT(index; l), always convergent through the
    admissible word x0^l (y_{k_1} sh ... sh y_{k_r})."""
    index = words.check_index(index)
    if not index:
        raise LengthError("mt_num needs a nonempty index")
    if l < 1:
        raise ValueError("l must be >= 1")
    return mzv_num(words.mt_word(index + (l,)), digits)


def zeta_s_num(index, digits: int) -> BigReal:
    """The real (T = 0, shuffle) symmetric multiple zeta value of the index."""
    return mzv_num(words.zeta_s_word(index), digits)


def omega_limit_num(index, digits: int) -> BigReal:
    """Limit Omega(index) of the unit-circle omega sums: zeta of `words.omega_word`."""
    return mzv_num(words.omega_word(index), digits)
