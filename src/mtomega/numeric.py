"""Certified high-precision evaluation of zeta-type and omega-type values.

Multiple zeta values are evaluated by splitting the defining iterated
integral at 1/2, which rewrites zeta(w) as a finite sum of products of
multiple polylogarithms at argument 1/2; each of those is a geometrically
convergent series whose truncation error is bounded explicitly, so a
requested accuracy of `digits` decimal digits is honest.  The series run in
fixed-point integers, with guard bits that cover every rounding step; the
values built from them run in mpmath at `digits` plus guard digits.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import mpmath as mp

from . import sums, words
from .errors import LengthError, NotAdmissibleError
from .words import X1, WordSum

GUARD_DIGITS = 15
_CACHE_SERIES = 1024  # a benchmark command uses at most 192 series, 127 zetas


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
    """Smallest M with 1.5 * 2^-M * (M+1)^(r-1) < 10^-(digits+8)."""
    target = (digits + 8) * math.log(10)
    m = max(8 * r, int(3.33 * (digits + 8)))
    while math.log(1.5) - m * math.log(2) + (r - 1) * math.log(m + 1) >= -target:
        m += 16
    return m


@functools.lru_cache(maxsize=_CACHE_SERIES)
def _li_half(index, digits: int) -> mp.mpf:
    """Li_{s_1,...,s_r}(1/2) = sum over m_1 > ... > m_r of 2^-m_1 / prod m^s,
    truncated with a certified geometric tail bound.

    The levels run in integers scaled by 2^P, with a floor after each product
    and 2^-m as a shift.  Below the truncation order M a level sums to under
    3M, so an entry is off by at most the errors before it, plus that prefix
    for the floor of m^-s, plus one: under (4M)^j units of 2^-P at level j,
    and the final shifts add M.  r * bitlen(4M) guard bits cover both.
    """
    if not index:
        return mp.mpf(1)
    r = len(index)
    order = _li_truncation_order(r, digits)
    prec = math.ceil((digits + GUARD_DIGITS) * math.log2(10)) + r * (4 * order).bit_length()
    powers = {s: [0] + [(1 << prec) // m**s for m in range(1, order + 1)] for s in set(index)}
    level = sums.chain_levels(
        index, order + 1, lambda m, s: powers[s][m], 0, lambda a, b: a * b >> prec
    )
    with mp.workdps(digits + GUARD_DIGITS):
        return mp.ldexp(mp.mpf(sum(x >> m for m, x in enumerate(level))), -prec)


def _dual_prefix(word) -> tuple:
    """Reverse the word and swap the letters (the left factor of the split)."""
    return tuple(X1 - l for l in reversed(word))


@functools.lru_cache(maxsize=_CACHE_SERIES)
def _zeta_word(word, digits: int) -> mp.mpf:
    """zeta of one admissible monomial by splitting the iterated integral at 1/2."""
    if not word:
        return mp.mpf(1)
    n = len(word)
    with mp.workdps(digits + GUARD_DIGITS):
        total = mp.mpf(0)
        for j in range(n + 1):
            left = words.index_of_word(_dual_prefix(word[:j]))
            right = words.index_of_word(word[j:])
            total += _li_half(left, digits) * _li_half(right, digits)
        return +total


def mzv_num(u: WordSum, digits: int) -> BigReal:
    """Linear combination of multiple zeta values, accurate to `digits`."""
    if not u.in_h0():
        raise NotAdmissibleError("mzv_num needs admissible monomials")
    with mp.workdps(digits + GUARD_DIGITS):
        total = mp.mpf(0)
        for w, c in u.items():
            total += mp.mpf(c.numerator) / c.denominator * _zeta_word(w, digits)
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
    """Limit value Omega(index) of the unit-circle omega sums.

    Computed two ways and cross-checked: as the alternating sum of
    Mordell-Tornheim values with one entry moved into the weight slot, and as
    (-1)^{k_r} times the regularized symmetric value of the MT word.
    """
    index = words.check_index(index)
    if len(index) < 2:
        raise LengthError(f"omega_limit_num needs length >= 2, got {index}")
    with mp.workdps(digits + GUARD_DIGITS):
        total = mp.mpf(0)
        for a, ka in enumerate(index):
            rest = index[:a] + index[a + 1 :]
            term = mt_num(rest, ka, digits).value
            total += term if ka % 2 == 0 else -term
        via_words = mzv_num(words.reg_shuffle0(words.phi(words.mt_word(index))), digits).value
        if index[-1] % 2:
            via_words = -via_words
        if abs(total - via_words) > mp.mpf(10) ** (-(digits - 5)):
            raise ArithmeticError(
                f"two evaluation routes for Omega{index} disagree: {total} vs {via_words}"
            )
        return BigReal(+total, digits)
