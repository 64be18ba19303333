"""The two nested sums behind every value in the toolkit, over any ring.

The finite, cyclotomic and numeric evaluators all sum a product of weights
f(m_a, k_a) over one of two ranges of positive integers (m_1, ..., m_r):

* decreasing chains top > m_1 > ... > m_r > 0 (multiple harmonic sums,
  z-values at roots of unity, q-series coefficients, Li(1/2) series);
* compositions m_1 + ... + m_r = n (omega values).

Each caller supplies its weight f(m, k) and the zero of its ring (residues,
Fraction, CycloElem, mpf, mpc); the sums use only + and * on the values,
always in the same order, so exact and fixed-precision callers get the same
results as their own loops would.
"""

from __future__ import annotations


def chain_levels(index, top: int, f, zero) -> list:
    """Levels of the sum over top > m_1 > ... > m_r > 0 for r = len(index) >= 1.

    Returns `level` of length top with level[m] the sum of
    f(m_1, k_1) * ... * f(m_r, k_r) over the chains with m_1 = m (level[0]
    is zero); sum(level) is the full nested sum.  One prefix-sum pass per
    entry of the index, last entry first.
    """
    level = [zero] + [f(m, index[-1]) for m in range(1, top)]
    for k in reversed(index[:-1]):
        prefix = zero
        new = [zero] * top
        for m in range(1, top):
            new[m] = f(m, k) * prefix
            prefix = prefix + level[m]
        level = new
    return level


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
            new[s] = sum((cur[s - m] * w[m] for m in range(1, s - j + 1)), zero)
        cur = new
    return cur[n]
