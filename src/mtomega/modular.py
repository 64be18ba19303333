"""Finite-side arithmetic: harmonic and omega sums mod p, Bernoulli numbers.

Residues are plain ints in [0, p); the prime is always explicit in the call,
and every entry point rejects a modulus that is not prime with RangeError.
"""

from __future__ import annotations

import functools

import numpy as np

from . import sums, words
from .errors import DenominatorError, LengthError, RangeError

#: A residue is an int reduced into [0, p).
Residue = int


def primes_upto(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, v in enumerate(sieve) if v]


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes p with lo < p < hi."""
    return [p for p in primes_upto(hi - 1) if p > lo]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


@functools.lru_cache(maxsize=256)
def _check_prime(p: int) -> None:
    """Raise RangeError unless p is prime; cached, since the hot callers
    revisit the same few primes many times."""
    if not is_prime(p):
        raise RangeError(f"modulus must be prime, got {p}")


@functools.lru_cache(maxsize=256)
def _inverses(p: int) -> tuple:
    """Inverse table mod p: inv[m] for 1 <= m < p (inv[0] unused)."""
    inv = [0] * p
    if p > 1:
        inv[1] = 1
    for m in range(2, p):
        inv[m] = (-(p // m) * inv[p % m]) % p
    return tuple(inv)


def hsum_mod(index, p: int) -> Residue:
    """Multiple harmonic sum H_p(index) mod p.

    Nested sum over p > m_1 > ... > m_r > 0 of the product of m_a^(-k_a).
    """
    index = words.check_index(index)
    _check_prime(p)
    if not index:
        return 1
    inv = _inverses(p)
    return sum(sums.chain_levels(index, p, lambda m, k: pow(inv[m], k, p), 0)) % p


@functools.lru_cache(maxsize=None)
def _power_array(p: int, k: int) -> np.ndarray:
    inv = _inverses(p)
    arr = np.zeros(p, dtype=np.int64)
    for m in range(1, p):
        arr[m] = pow(inv[m], k, p)
    return arr


@functools.lru_cache(maxsize=None)
def _omega_mod_sorted(index, p: int) -> Residue:
    c = _power_array(p, index[0])
    for ka in index[1:]:
        c = np.convolve(c, _power_array(p, ka))[: p + 1] % p
    return int(c[p]) if len(c) > p else 0


def omega_mod(index, p: int) -> Residue:
    """omega_p(index) mod p: sum over compositions m_1+...+m_r = p of the
    product m_a^(-k_a), via convolution of power arrays.  Needs r >= 2."""
    index = words.check_index(index)
    if len(index) < 2:
        raise LengthError(f"omega_mod needs length >= 2, got {index}")
    _check_prime(p)
    if p < len(index):
        return 0
    # symmetric in the index, so cache on the sorted tuple
    return _omega_mod_sorted(tuple(sorted(index, reverse=True)), p)


def zeta_word_mod(u: words.WordSum, p: int) -> Residue:
    """Linear extension of w -> hsum_mod(index_of_word(w), p)."""
    _check_prime(p)
    total = 0
    for w, c in u.items():
        if c.denominator % p == 0:
            raise DenominatorError(f"coefficient {c} has denominator divisible by {p}")
        cm = c.numerator * pow(c.denominator, p - 2, p) % p
        total = (total + cm * hsum_mod(words.index_of_word(w), p)) % p
    return total


@functools.lru_cache(maxsize=256)
def _bernoulli_mod(p: int) -> tuple:
    """B_0..B_{p-3} mod p via the binomial recurrence (B_1 = -1/2)."""
    n = p - 3
    inv = _inverses(p)
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


def bern_div_mod(k: int, p: int) -> Residue:
    """B_{p-k}/k mod p; defined for 2 <= k <= p-2.

    For k even (p-k odd >= 3) the Bernoulli number vanishes outright; for k
    odd the index p-k is even and at most p-3, inside the p-integral range of
    the recurrence table.
    """
    _check_prime(p)
    if not 2 <= k <= p - 2:
        raise RangeError(f"need 2 <= k <= p-2, got k={k}, p={p}")
    idx = p - k
    if idx % 2 == 1 and idx >= 3:
        return 0
    return _bernoulli_mod(p)[idx] * _inverses(p)[k % p] % p


def format_index(index) -> str:
    return ".".join(str(k) for k in index)


def parse_index(s: str):
    try:
        parts = tuple(int(x) for x in s.split("."))
    except ValueError:
        raise ValueError(f"bad index syntax (want k1.k2.k3): {s!r}") from None
    return words.check_index(parts)
