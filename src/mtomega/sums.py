"""The nested chain sum behind the harmonic, z and Li(1/2) values, over any ring.

The finite, cyclotomic and numeric evaluators sum a product of weights
f(m_a, k_a) over decreasing chains top > m_1 > ... > m_r > 0 of positive
integers: multiple harmonic sums, z-values at roots of unity, q-series
coefficients, Li(1/2) series.

Each caller supplies its weight f(m, k) and the zero of its ring, a Python
value (residues, packed group-ring integers, fixed-point integers, mpc); the
sum uses only + and the ring's product on the values, always in the same
order, so exact and fixed-precision callers get the same results as their
own loops would.  The omega values, sums over compositions
m_1 + ... + m_r = n, are products of prefix series kept per prefix in all
three evaluators: cached modulo p (modular.omega_mod), in the per-n rings of
cyclo.mod_ring that the miner drops with their n modulo primes l = 1 (mod n)
(cyclo.omega_gen_mod), and at zeta_n (cyclo.omega_at_root) on packed integers.
"""

from __future__ import annotations

import operator


def chain_levels(index, top: int, f, zero, mul=operator.mul) -> list:
    """Levels of the sum over top > m_1 > ... > m_r > 0 for r = len(index) >= 1.

    Returns `level` of length top with level[m] the sum of
    f(m_1, k_1) * ... * f(m_r, k_r) over the chains with m_1 = m (level[0]
    is zero); sum(level) is the full nested sum.  One prefix-sum pass per
    entry of the index, last entry first.  `mul` is the ring's product
    (a fixed-point caller rescales there).
    """
    level = [zero] + [f(m, index[-1]) for m in range(1, top)]
    for k in reversed(index[:-1]):
        prefix = zero
        new = [zero] * top
        for m in range(1, top):
            new[m] = mul(f(m, k), prefix)
            prefix = prefix + level[m]
        level = new
    return level
