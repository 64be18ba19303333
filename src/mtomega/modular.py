"""Finite-side arithmetic: harmonic and omega sums mod p, Bernoulli quotients.

Residues are plain ints in [0, p), for a prime p below MAX_PRIME; any other
modulus raises RangeError.  The omega values are series products of float64
arrays, exact because `_mod_product` sums the nonnegative integer products
directly and keeps every partial sum below 2^53.  Those arrays live in the
ring of their prime (prime_ring), which the caller keeps while it reads the
values at that prime and drops before the next.  numpy is imported where the
arrays are built, so commands that never build them never load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import sums, words
from .errors import LengthError, RangeError

if TYPE_CHECKING:  # the annotations only; see the module docstring
    import numpy as np

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


#: The least strong pseudoprime to all twelve bases 2..37 (Sorenson and
#: Webster, Math. Comp. 86, 2017): below it the bases decide primality.
MILLER_RABIN_LIMIT = 318665857834031151167461
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test to the prime bases 2..37; RangeError
    from MILLER_RABIN_LIMIT on, where those bases no longer decide."""
    if n >= MILLER_RABIN_LIMIT:
        raise RangeError(f"primality is decided only below {MILLER_RABIN_LIMIT}, got {n}")
    if n < 2 or any(n % a == 0 for a in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for a in _BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << r, n) for r in range(s)):
            return False
    return True


#: `_mod_product` splits a factor into limbs of 53 - 2 bitlen(p) bits, two of
#: them at most while p < 2^21.
MAX_PRIME = 2**21


def _check_prime(p: int) -> None:
    """Raise RangeError unless p is a prime below MAX_PRIME."""
    if p >= MAX_PRIME:
        raise RangeError(f"modulus must be below 2^21, got {p}")
    if not is_prime(p):
        raise RangeError(f"modulus must be prime, got {p}")


class _PrimeRing:
    """The power arrays (per k) and prefix series (per sorted prefix) of p."""

    def __init__(self, p: int):
        self.p, self.powers, self.series = p, {}, {}


def prime_ring(p: int) -> _PrimeRing:
    """The ring of omega_mod at p; RangeError unless p is a prime below MAX_PRIME."""
    _check_prime(p)
    return _PrimeRing(p)


def _inverses(p: int) -> np.ndarray:
    """m^(-1) mod p at position m, for 0 <= m < p (position 0 holds 0), as
    float64: g^(p-1-i) at g^i, g a primitive root (1 at p = 2)."""
    import numpy as np

    m = p - 1  # g has order m when g^(m/q) != 1 for every divisor q > 1 of m
    qs = [q for d in range(1, int(m**0.5) + 1) if m % d == 0 for q in (d, m // d) if q > 1]
    g = next(g for g in range(1, p) if all(pow(g, m // q, p) != 1 for q in qs))
    powers = np.ones(1, dtype=np.int64)  # g^i by doubling, products below 2^42
    while len(powers) < m:
        powers = np.concatenate((powers, powers[: m - len(powers)] * pow(g, len(powers), p) % p))
    return np.bincount(powers, np.roll(powers[::-1], 1), p)


def hsum_mod(index, p: int) -> Residue:
    """Multiple harmonic sum H_p(index) mod p.

    Nested sum over p > m_1 > ... > m_r > 0 of the product of m_a^(-k_a).
    """
    index = words.check_index(index)
    _check_prime(p)
    if not index:
        return 1
    return sum(sums.chain_levels(index, p, lambda m, k: pow(m, -k, p), 0)) % p


def _mod_product(f, a, b, p: int):
    """f(a, b) mod p, f summing at most p products (a dot, a convolution) of
    float64 residues: in one product while p (p - 1)^2 < 2^53, else with b cut
    into limbs below 2^L, L = 53 - 2 bitlen(p), so that sums stay below 2^53."""
    if p * (p - 1) ** 2 < 2**53:
        return f(a, b) % p
    shift = float(1 << (53 - 2 * p.bit_length()))
    high, low = b // shift, b % shift
    return (f(a, high) % p * shift + f(a, low) % p) % p


def _power_array(ring: _PrimeRing, k: int) -> np.ndarray:
    """m^(-k) mod p at position m, for 0 <= m < p (position 0 holds 0), as
    float64; from the halves of k, so the recursion is about log2(k) deep."""
    if k not in ring.powers:
        if k == 1:
            arr = _inverses(ring.p)
        else:  # products below p^2 < 2^42 are exact
            arr = _power_array(ring, k // 2) * _power_array(ring, k - k // 2) % ring.p
        arr.setflags(write=False)  # kept and shared by every caller
        ring.powers[k] = arr
    return ring.powers[k]


def _series_mod(ring: _PrimeRing, prefix) -> np.ndarray:
    """Coefficients of x^0..x^(p-1), mod p, of the product over the parts k
    of sum_m m^(-k) x^m; kept per prefix, which the sorted indices share."""
    import numpy as np

    if prefix not in ring.series:
        series = _power_array(ring, prefix[-1])
        if len(prefix) > 1:
            head, p = _series_mod(ring, prefix[:-1]), ring.p
            series = _mod_product(lambda a, b: np.convolve(a, b)[:p], head, series, p)
            series.setflags(write=False)
        ring.series[prefix] = series
    return ring.series[prefix]


def omega_mod(index, ring: _PrimeRing) -> Residue:
    """omega_p(index) mod p, p = ring.p: sum over compositions m_1+...+m_r = p
    of the product m_a^(-k_a), via convolution of power arrays.  Needs r >= 2."""
    index = words.check_index(index)
    if len(index) < 2:
        raise LengthError(f"omega_mod needs length >= 2, got {index}")
    # symmetric in the index: sorted ascending, indices of one weight share
    # their leading parts, and only the coefficient of x^p of the last
    # product is formed (0 when p < r, as no composition exists)
    index, p = tuple(sorted(index)), ring.p
    head = _series_mod(ring, index[:-1])
    weights = _power_array(ring, index[-1])[p - 1 : 0 : -1]
    return int(_mod_product(lambda a, b: a.dot(b), head[1:], weights, p))


def bern_div_mod(k: int, p: int) -> Residue:
    """B_{p-k}/k mod p; defined for 2 <= k <= p-2.

    For k even (p-k odd >= 3) the Bernoulli number vanishes outright.  For k
    odd, m = p-k is even with 2 <= m <= p-3, where B_m is p-integral and the
    power sum over a < p of a^m is p*B_m mod p^2: O(p log p) per call.
    """
    _check_prime(p)
    if not 2 <= k <= p - 2:
        raise RangeError(f"need 2 <= k <= p-2, got k={k}, p={p}")
    m = p - k
    if m % 2 == 1:
        return 0
    p2 = p * p
    bern = sum(pow(a, m, p2) for a in range(1, p)) % p2 // p
    return bern * pow(k, -1, p) % p


def format_index(index) -> str:
    return ".".join(str(k) for k in index)


def parse_index(s: str):
    try:
        parts = tuple(int(x) for x in s.split("."))
    except ValueError:
        raise ValueError(f"bad index syntax (want k1.k2.k3): {s!r}") from None
    return words.check_index(parts)
