"""The ring-generic nested sums against brute-force enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mtomega import sums

WEIGHTS = {
    "int": (lambda m, k: m * m + 3 * k - m * k, 0),
    "Fraction": (lambda m, k: Fraction(k, m + k) - Fraction(1, m**k), Fraction(0)),
}


def indices(r):
    return itertools.product((1, 2), repeat=r)


def product(f, ms, index):
    return math.prod((f(m, k) for m, k in zip(ms, index)), start=1)


@pytest.mark.parametrize("ring", WEIGHTS)
def test_chain_levels_bruteforce(ring):
    f, zero = WEIGHTS[ring]
    for r in range(1, 5):
        for index in indices(r):
            for top in range(1, 10):
                expected = [zero] * top
                for ms in itertools.combinations(range(top - 1, 0, -1), r):
                    expected[ms[0]] += product(f, ms, index)
                assert sums.chain_levels(index, top, f, zero) == expected, (index, top)


@pytest.mark.parametrize("ring", WEIGHTS)
def test_composition_sum_bruteforce(ring):
    f, zero = WEIGHTS[ring]
    for r in range(1, 5):
        for index in indices(r):
            for n in range(0, 10):
                expected = sum(
                    (
                        product(f, ms, index)
                        for ms in itertools.product(range(1, n + 1), repeat=r)
                        if sum(ms) == n
                    ),
                    zero,
                )
                assert sums.composition_sum(index, n, f, zero) == expected, (index, n)


def test_composition_sum_stacked_dot():
    # int64 arrays over (modulus, column), the truncated products formed by
    # one dot per partial sum that reduces there, against ints mod each modulus
    f_int, _ = WEIGHTS["int"]
    moduli = np.array([[101], [33554393]])
    cols = np.arange(3)

    def f(m, k):
        return (f_int(m, k) + cols) % moduli

    def dot(a, b):
        return np.einsum("i...,i...->...", a, b) % moduli

    zero = np.zeros((2, 3), dtype=np.int64)
    for r in range(1, 5):
        for index in indices(r):
            for n in range(0, 10):
                got = sums.composition_sum(index, n, f, zero, dot) % moduli
                want = [
                    [sums.composition_sum(index, n, lambda m, k: f_int(m, k) + c, 0) % p for c in cols]
                    for p in moduli[:, 0].tolist()
                ]
                assert got.tolist() == want, (index, n)
