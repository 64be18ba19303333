"""The nested chain sum behind the harmonic, z and Li(1/2) values, over any ring.

The finite, cyclotomic and numeric evaluators sum a product of weights
f(m_a, k_a) over decreasing chains top > m_1 > ... > m_r > 0 of positive
integers: multiple harmonic sums, z-values at roots of unity, q-series
coefficients, Li(1/2) series.

Each caller supplies its weight f(m, k) and the zero of its ring, a Python
value (residues, packed group-ring integers, fixed-point integers, mpc); the
sum uses only + and the ring's product on the values, always in the same
order, so exact and fixed-precision callers get the same results as their
own loops would.  `chain_pass`, the step from one level to the next, is the
whole loop: `chain_levels` runs it over one index, and the numeric evaluator
over the trie of many indices' suffixes, flooring each fixed-point level
after its pass.  The omega values, sums over compositions
m_1 + ... + m_r = n, are products of prefix series, which all three
evaluators keep per prefix in a ring of one modulus that their caller drops
before the next: modulo p (modular.prime_ring), at zeta_n on packed integers
(cyclo.packed_ring), and modulo primes l = 1 (mod n) (cyclo.mod_ring).
"""

from __future__ import annotations

import itertools
import operator


def chain_levels(index, top: int, f, zero) -> list:
    """Levels of the sum over top > m_1 > ... > m_r > 0 for r = len(index) >= 1.

    Returns `level` of length top with level[m] the sum of
    f(m_1, k_1) * ... * f(m_r, k_r) over the chains with m_1 = m (level[0]
    is zero); sum(level) is the full nested sum.  One `chain_pass` per
    entry of the index after the last, last entry first.
    """
    level = [zero] + [f(m, index[-1]) for m in range(1, top)]
    for k in reversed(index[:-1]):
        level = chain_pass(level, [zero] + [f(m, k) for m in range(1, top)], zero)
    return level


def chain_pass(level, weights, zero) -> list:
    """The level one entry longer: new[m] = weights[m] * (level[0] + ... +
    level[m - 1]) for 0 < m < len(level), and new[0] = zero.

    level[0] stands for the chains that end before m = 1: zero for every
    level of `chain_levels`, one for the empty index, whose pass gives the
    weights themselves.  The prefix sums add the level in order.
    """
    return [zero, *map(operator.mul, weights[1:], itertools.accumulate(level[:-1]))]
