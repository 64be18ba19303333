"""Certified high-precision evaluation of zeta-type and omega-type values.

Multiple zeta values are evaluated by splitting the defining iterated
integral at 1/2, which rewrites zeta(w) as a finite sum of products of
multiple polylogarithms at argument 1/2; each of those is a geometrically
convergent series whose truncation error is bounded explicitly, so a
requested accuracy of `digits` decimal digits is honest.  All arithmetic runs
at `digits` plus guard digits via mpmath.

Unit-circle omega values use the closed form
1/[m] = exp(-pi*i*(m-1)/n) * sin(pi/n)/sin(m*pi/n), which avoids cancellation
for m close to n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath as mp

from . import sums, words
from .errors import LengthError, NotAdmissibleError, RangeError
from .words import X1, WordSum

GUARD_DIGITS = 15


@dataclass(frozen=True)
class BigReal:
    """An mpmath real plus the number of decimal digits it certifies."""

    value: mp.mpf
    certified_digits: int

    def to_json(self) -> dict:
        with mp.workdps(self.certified_digits + 5):
            s = mp.nstr(
                self.value, self.certified_digits, strip_zeros=False, min_fixed=1, max_fixed=0
            )
        return {"value": s, "certified_digits": self.certified_digits}

    def __float__(self):
        return float(self.value)


@dataclass(frozen=True)
class BigComplex:
    re: BigReal
    im: BigReal

    @property
    def value(self) -> mp.mpc:
        return mp.mpc(self.re.value, self.im.value)

    def to_json(self) -> dict:
        return {
            "re": self.re.to_json(),
            "im": self.im.to_json(),
            "certified_digits": self.re.certified_digits,
        }


def _li_truncation_order(r: int, digits: int) -> int:
    """Smallest M with 1.5 * 2^-M * (M+1)^(r-1) < 10^-(digits+8)."""
    target = (digits + 8) * math.log(10)
    m = max(8 * r, int(3.33 * (digits + 8)))
    while math.log(1.5) - m * math.log(2) + (r - 1) * math.log(m + 1) >= -target:
        m += 16
    return m


@functools.lru_cache(maxsize=None)
def _li_half(index, digits: int) -> mp.mpf:
    """Li_{s_1,...,s_r}(1/2) = sum over m_1 > ... > m_r of 2^-m_1 / prod m^s,
    truncated with a certified geometric tail bound."""
    if not index:
        return mp.mpf(1)
    r = len(index)
    order = _li_truncation_order(r, digits)
    with mp.workdps(digits + GUARD_DIGITS):
        level = sums.chain_levels(index, order + 1, lambda m, s: mp.mpf(m) ** (-s), mp.mpf(0))
        half = mp.mpf(1) / 2
        total = mp.mpf(0)
        power = mp.mpf(1)
        for m in range(1, order + 1):
            power *= half
            total += power * level[m]
        return +total


def _dual_prefix(word) -> tuple:
    """Reverse the word and swap the letters (the left factor of the split)."""
    return tuple(X1 - l for l in reversed(word))


@functools.lru_cache(maxsize=None)
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


def mzv_num(u: WordSum, digits: int = 60) -> BigReal:
    """Linear combination of multiple zeta values, accurate to `digits`."""
    if not u.in_h0():
        raise NotAdmissibleError("mzv_num needs admissible monomials")
    with mp.workdps(digits + GUARD_DIGITS):
        total = mp.mpf(0)
        for w, c in u.items():
            total += mp.mpf(c.numerator) / c.denominator * _zeta_word(w, digits)
        return BigReal(+total, digits)


def mt_num(index, l: int, digits: int = 60) -> BigReal:
    """Mordell-Tornheim value zeta^MT(index; l), always convergent through the
    admissible word x0^l (y_{k_1} sh ... sh y_{k_r})."""
    index = words.check_index(index)
    if not index:
        raise LengthError("mt_num needs a nonempty index")
    if l < 1:
        raise ValueError("l must be >= 1")
    return mzv_num(words.mt_word(index + (l,)), digits)


def zeta_s_num(index, digits: int = 60) -> BigReal:
    """The real (T = 0, shuffle) symmetric multiple zeta value of the index."""
    return mzv_num(words.zeta_s_word(index), digits)


def omega_limit_num(index, digits: int = 60) -> BigReal:
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
        via_words = mzv_num(
            words.reg_shuffle0(words.phi(words.mt_word(index))), digits
        ).value
        if index[-1] % 2:
            via_words = -via_words
        if abs(total - via_words) > mp.mpf(10) ** (-(digits - 5)):
            raise ArithmeticError(
                f"two evaluation routes for Omega{index} disagree: "
                f"{total} vs {via_words}"
            )
        return BigReal(+total, digits)


def omega_circle_num(index, n: int, digits: int = 30, normalized: bool = False) -> BigComplex:
    """omega_n(index; e^(2 pi i / n)) in big-complex arithmetic.

    With normalized=True, divides out the weight-th power of the prefactor
    e^(i pi / n) (n / pi) sin(pi / n) that tends to 1; that is the quantity
    whose convergence the limit theorem's proof controls directly, and it
    approaches the limit without the O(1/n) phase drift of the raw value.
    """
    index = words.check_index(index)
    r = len(index)
    if r < 2:
        raise LengthError(f"omega_circle_num needs length >= 2, got {index}")
    if n < 2:
        raise RangeError(f"need n >= 2, got {n}")
    with mp.workdps(digits + GUARD_DIGITS):
        pi_n = mp.pi / n
        sin_pi_n = mp.sin(pi_n)
        inv_qint = [mp.mpc(0)] * n
        for m in range(1, n):
            inv_qint[m] = mp.expjpi(mp.mpf(-(m - 1)) / n) * sin_pi_n / mp.sin(m * pi_n)
        q_pow = [mp.expjpi(mp.mpf(2 * j) / n) for j in range(n)]

        def f(m, k):
            return q_pow[((k - 1) * m) % n] * inv_qint[m] ** k

        val = sums.composition_sum(index, n, f, mp.mpc(0))
        if normalized:
            val /= (mp.expjpi(mp.mpf(1) / n) * n / mp.pi * sin_pi_n) ** sum(index)
        return BigComplex(BigReal(+val.real, digits), BigReal(+val.imag, digits))
