"""The ring-generic chain sum and the composition-sum oracle against brute-force
enumeration."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from mtomega import sums

import oracles

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
def test_chain_pass_from_the_empty_index(ring):
    # a level with level[0] = 1 stands for the empty index: one pass per
    # entry from it gives chain_levels, as a walk over a suffix trie does
    f, zero = WEIGHTS[ring]
    top = 9
    for r in range(1, 5):
        for index in indices(r):
            level = [zero + 1] + [zero] * (top - 1)
            for k in reversed(index):
                level = sums.chain_pass(level, [zero] + [f(m, k) for m in range(1, top)], zero)
            assert level == sums.chain_levels(index, top, f, zero), index


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
                assert oracles.composition_sum(index, n, f, zero) == expected, (index, n)


def test_sums_imports_no_numpy():
    # the generic core runs on Python values only; the int64-array
    # evaluators bring numpy with them
    src = os.path.dirname(os.path.dirname(sums.__file__))
    code = "import sys, mtomega.sums; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
