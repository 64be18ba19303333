"""Exact arithmetic in cyclotomic fields and q-series evaluation.

Elements of Q(zeta_n) (CycloElem) are stored as an integer coefficient
vector of length phi(n) (a polynomial in zeta reduced mod the n-th
cyclotomic polynomial Phi_n) over a single positive integer denominator,
kept in lowest terms; the `coeffs` property exposes the rational vector.

The evaluators here are the exact counterparts of the finite-side sums:
omega_at_root sums over compositions of n, z_at_root over strictly decreasing
tuples below n, both with the q-power weights F_k(m) = q^((k-1)m)/[m]^k and
F_1hat(m) = q^m/[m], and hbar specializing to 1 - zeta_n.

They evaluate in the group ring Z[x]/(x^n - 1), which maps onto Z[zeta_n]
by x -> zeta_n, and reduce mod Phi_n once per value.  1/[m] is the 0/1
vector sum_{i<m'} x^(m i) (m m' = 1 mod n) when [m] is a unit, and
-(1 - x) sum_{j<N} j x^(m j) / N with N = n/gcd(m, n) otherwise, so every
weight is an integer vector over a power of one per-n denominator and no
field inverse is needed.  Adding multiples of 1 + x + ... + x^(n-1), which
vanishes at zeta_n, makes all entries nonnegative; a vector is then packed
into one Python int, a_i in bits [b i, b (i+1)), so a polynomial product is
one integer product (Kronecker substitution).  The width b comes from a
bound on the coefficient sum of every partial result, which bounds every
coefficient, so the packed arithmetic is exact.  An omega value, here and
modulo primes below, is the coefficient of t^n of a product of series in t,
one kept per ascending-sorted index prefix, as in modular.omega_mod.  The
evaluators take the ring of n (packed_ring), which keeps those series and
the values formed on it until the caller drops it, before the next n.

For the cyclotomic miner omega also runs modulo primes l = 1 (mod n), which
split in Q(zeta_n): the phi(n) embeddings identify Z[1/n][zeta_n]/(l) with
F_l^phi(n) (mod_ring, a new ring per call, keeping the tables formed on it),
and coordinate_bound lets vanishing modulo enough primes prove an integer
combination of values zero.  numpy is imported where those int64 arrays
are built, so commands that never build them never load it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from fractions import Fraction
from typing import TYPE_CHECKING

from . import modular, sums, words
from .errors import LengthError, NotIntegralError, RangeError
from .words import HAT1, HbarSum

if TYPE_CHECKING:  # the annotations only; see the module docstring
    import numpy as np


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial,
    computed by dividing x^n - 1 by the cyclotomic polynomials of the proper
    divisors of n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divide_exact(num, cyclotomic_poly(d))
    return tuple(num)


def _poly_divide_exact(num, den):
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c % den[-1]:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[i - dd] = q
        if q:
            for j, dj in enumerate(den):
                num[i - dd + j] -= q * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


class CycloCtx:
    """Shared immutable data for Q(zeta_n): n and the cyclotomic modulus."""

    _instances: dict = {}

    def __new__(cls, n: int):
        if n in cls._instances:
            return cls._instances[n]
        if n < 2:
            raise RangeError(f"need n >= 2, got {n}")
        self = super().__new__(cls)
        self.n = n
        self.phi_n = cyclotomic_poly(n)
        self.degree = len(self.phi_n) - 1
        cls._instances[n] = self
        return self

    def __repr__(self):
        return f"CycloCtx({self.n})"

    def _reduce(self, coeffs: list) -> tuple:
        """Reduce an integer polynomial mod the (monic) cyclotomic modulus."""
        deg = self.degree
        phi = self.phi_n
        c = list(coeffs)
        for i in range(len(c) - 1, deg - 1, -1):
            q = c[i]
            if q:
                for j in range(deg + 1):
                    c[i - deg + j] -= q * phi[j]
        c = c[:deg]
        c.extend([0] * (deg - len(c)))
        return tuple(c)


class CycloElem:
    """Element of Q(zeta_n): integer vector over a positive denominator."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: CycloCtx, num, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        num = list(num)
        if len(num) > ctx.degree:
            num = list(ctx._reduce(num))
        else:
            num.extend([0] * (ctx.degree - len(num)))
        if den < 0:
            num = [-c for c in num]
            den = -den
        g = math.gcd(den, *num) if any(num) else den
        if g > 1:
            num = [c // g for c in num]
            den //= g
        if not any(num):
            den = 1
        self.ctx = ctx
        self.num = tuple(num)
        self.den = den

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, ctx) -> "CycloElem":
        return cls(ctx, [])

    @classmethod
    def one(cls, ctx) -> "CycloElem":
        return cls(ctx, [1])

    # -- views -------------------------------------------------------------
    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.num)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if not isinstance(other, CycloElem):
            return NotImplemented
        return self.ctx.n == other.ctx.n and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.ctx.n, self.num, self.den))

    def __repr__(self):
        return f"CycloElem(n={self.ctx.n}, {list(self.coeffs)})"

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other):
        if self.ctx is not other.ctx:
            raise ValueError("mixed cyclotomic contexts")

    def __add__(self, other):
        self._check(other)
        d1, d2 = self.den, other.den
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        return CycloElem(
            self.ctx,
            [a * m1 + b * m2 for a, b in zip(self.num, other.num)],
            d1 * m1,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        e = CycloElem.__new__(CycloElem)
        e.ctx, e.num, e.den = self.ctx, tuple(-c for c in self.num), self.den
        return e

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElem(
                self.ctx, [other.numerator * x for x in self.num], self.den * other.denominator
            )
        self._check(other)
        conv = [0] * (len(self.num) + len(other.num) - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(other.num):
                    if y:
                        conv[i + j] += x * y
        return CycloElem(self.ctx, conv, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise RangeError(f"negative exponent {k}: no field inverse is provided")
        out = CycloElem.one(self.ctx)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def to_json(self) -> dict:
        return {"n": self.ctx.n, "coeffs": [str(c) for c in self.coeffs]}


def one_minus_zeta(ctx: CycloCtx) -> CycloElem:
    return CycloElem(ctx, [1, -1])


def _one_minus_zeta_pow(ring: _PackedRing, m: int) -> CycloElem:
    if m not in ring.hbar:
        ring.hbar[m] = one_minus_zeta(ring.ctx) ** m
    return ring.hbar[m]


# ---------------------------------------------------------------------------
# the group ring Z[x]/(x^n - 1), packed into one integer


def _exponent(k) -> int:
    """The power of 1/[m] in the weight of the letter k (the hat letter has 1)."""
    return 1 if k == HAT1 else k


def _scaled_inverse(n: int, den: int, m: int) -> list:
    """den/[m] at x = zeta_n as a nonnegative integer vector of length n,
    for 1 <= m < n and den a multiple of n/gcd(m, n) (_PackedRing.den).

    A unit [m] (gcd(m, n) = 1) has 1/[m] = (1 - x)/(1 - x^m) =
    sum_{i<m'} x^(m i) with m m' = 1 mod n.  Otherwise y = x^m has order
    N = n/gcd(m, n), and (1 - y) sum_{j<N} j y^j = -N gives
    1/[m] = -(1 - x) sum_{j<N} j x^(m j) / N; adding N - 1 times
    1 + x + ... + x^(n-1), which is zero at zeta_n, makes every entry
    nonnegative.
    """
    if math.gcd(m, n) == 1:
        vec = [0] * n
        for i in range(pow(m, -1, n)):
            vec[m * i % n] = den
        return vec
    order = n // math.gcd(m, n)
    step = den // order
    vec = [step * (order - 1)] * n
    for j in range(order):
        vec[m * j % n] -= step * j
        vec[(m * j + 1) % n] += step * j
    return vec


class _PackedRing:
    """Z[x]/(x^n - 1) with every element a Python int sum_i a_i 2^(bits i)
    (Kronecker substitution), all a_i nonnegative and below 2^bits - 1.

    Then the integer product is the polynomial product, and folding the
    slots at and above n back onto slot mod n (_fold) reduces mod x^n - 1;
    both are exact while no coefficient reaches 2^bits - 1, which widen()
    guarantees.  The nested sums get the packed weights den^e F_k(m) with
    e = _exponent(k) and multiply them as plain ints; series() folds each
    entry it forms, element() folds once and reduces mod Phi_n once.

    den is the lcm of the orders n/gcd(m, n) of the non-unit [m], m < n
    (1 when n is prime), and masses[m] the coefficient sum of
    _scaled_inverse(n, den, m) (masses[0] = 0).  The ring also keeps the
    values formed on it: omega per sorted index, z per e-word, and
    (1 - zeta_n)^m per m, in `omega`, `z` and `hbar`.
    """

    def __init__(self, n: int):
        self.ctx = CycloCtx(n)  # RangeError below n = 2
        self.n = n
        orders = [n // math.gcd(m, n) for m in range(1, n)]  # the order of x^m
        self.den = den = math.lcm(*(o for o in orders if o < n))
        self.masses = [0] + [
            den * pow(m, -1, n) if order == n else den // order * (order - 1) * n
            for m, order in enumerate(orders, 1)
        ]
        self.nbytes = 0
        self._series, self.omega, self.z, self.hbar = {}, {}, {(): CycloElem.one(self.ctx)}, {}

    def widen(self, index) -> "_PackedRing":
        """Make the coefficients wide enough for the nested sums over index.

        Every vector is nonnegative, so no coefficient exceeds the
        coefficient sum (the value at x = 1), which is additive and
        multiplicative.  Each value the chain sum or a series forms,
        partial sums included, is a sub-sum of the expansion of
        prod_a sum_{m<n} den^e F_{k_a}(m), so the coefficient sum of that
        product bounds every coefficient.  A ring already wide enough keeps
        its weights; a wider one drops them and re-slots the stored series,
        exactly, as a prefix's entries stay below bound(prefix) <= bound(index).
        """
        nbytes = self.bound(index).bit_length() // 8 + 1
        if nbytes > self.nbytes:
            old, pad = self.nbytes, bytes(nbytes - self.nbytes)
            self.nbytes = nbytes
            self.bits = 8 * nbytes
            self.size = self.bits * self.n
            self.mask = (1 << self.size) - 1
            self._weights = {}
            for series in self._series.values():
                for t, c in enumerate(series):
                    data = c.to_bytes(old * self.n, "little")
                    slots = [data[i : i + old] for i in range(0, len(data), old)]
                    series[t] = int.from_bytes(pad.join(slots), "little")
        return self

    def bound(self, index) -> int:
        """The coefficient sum of prod_a sum_{m<n} den^e F_{k_a}(m)."""
        return math.prod(sum(c ** _exponent(k) for c in self.masses) for k in index)

    def _fold(self, p: int) -> int:
        size, mask = self.size, self.mask
        while p >> size:
            p = (p & mask) + (p >> size)
        return p

    def weights(self, k) -> list:
        """den^e F_k(m) at position m < n (0 at m = 0): den/[m] for k = 1,
        x^m den/[m] for the hat letter, and F_k(m) = F_(k-1)(m) F_1hat(m) =
        x^((k-1)m) (den/[m])^k above."""
        row = self._weights.get(k)
        if row is None:
            if k == 1:
                nb, row = self.nbytes, [0]
                for m in range(1, self.n):
                    data = [c.to_bytes(nb, "little") for c in _scaled_inverse(self.n, self.den, m)]
                    row.append(int.from_bytes(b"".join(data), "little"))
            elif k == HAT1:
                row = [self._fold(w << (self.bits * m)) for m, w in enumerate(self.weights(1))]
            else:
                row = [self._fold(a * b) for a, b in zip(self.weights(k - 1), self.weights(HAT1))]
            self._weights[k] = row
        return row

    def series(self, prefix) -> list:
        """Coefficients of t^0..t^(n-1), each folded, of the product over the
        parts k of prefix of sum_{0<m<n} den^e F_k(m) t^m; kept per prefix,
        which the ascending-sorted indices of one weight share."""
        series = self._series.get(prefix)
        if series is None:
            head = self.series(prefix[:-1]) if len(prefix) > 1 else [1] + [0] * (self.n - 1)
            weights = self.weights(prefix[-1])[1:]
            terms = (map(operator.mul, reversed(head[:s]), weights) for s in range(self.n))
            series = [self._fold(sum(t)) for t in terms]
            self._series[prefix] = series
        return series

    def element(self, p: int, index) -> CycloElem:
        """The value p / den^(sum of the exponents of index) in Q(zeta_n)."""
        nb = self.nbytes
        data = self._fold(p).to_bytes(self.size // 8, "little")
        vec = [int.from_bytes(data[i : i + nb], "little") for i in range(0, len(data), nb)]
        weight = sum(map(_exponent, index))
        return CycloElem(self.ctx, vec, self.den**weight)

    @functools.cached_property
    def power_norm(self) -> int:
        """The largest coordinate of any x^i mod Phi_n, i < n."""
        return max(max(map(abs, self.ctx._reduce([0] * i + [1]))) for i in range(self.n))


def packed_ring(n: int) -> _PackedRing:
    """The ring of the values at zeta_n, n >= 2, and of those formed on it."""
    return _PackedRing(n)


def omega_at_root(index, ring: _PackedRing) -> CycloElem:
    """omega_n(index; zeta_n) in Q(zeta_n), exactly, n = ring.n.

    Sum over compositions m_1 + ... + m_r = n of the product of the F-weights;
    empty when n < r.  Needs r >= 2 (the r = 1 value would involve 1/[n] = 0).
    """
    index = words.check_index(index)
    if len(index) < 2:
        raise LengthError(f"omega_at_root needs length >= 2, got {index}")
    if ring.n < len(index):
        return CycloElem.zero(ring.ctx)
    # symmetric in the index: sorted ascending, indices share series prefixes,
    # and only the coefficient of t^n of the last product is formed
    index = tuple(sorted(index))
    if index not in ring.omega:
        head, weights = ring.widen(index).series(index[:-1]), ring.weights(index[-1])[1:]
        ring.omega[index] = ring.element(sum(map(operator.mul, reversed(head), weights)), index)
    return ring.omega[index]


def omega_gen(m: int, index, ring: _PackedRing) -> CycloElem:
    """The generator value (1 - zeta_n)^m * omega_n(index; zeta_n)."""
    val = omega_at_root(index, ring)
    return val * _one_minus_zeta_pow(ring, m) if m else val


# ---------------------------------------------------------------------------
# omega values modulo primes l = 1 (mod n), at every embedding

PRIME_LIMIT = 1 << 25  # n < 2^13 products of residues below it fit in int64
PRIME_BATCH = 4  # primes evaluated together, as one array


@functools.lru_cache(maxsize=None)
def root_primes(n: int, batch: int = 0) -> tuple:
    """The batch-th PRIME_BATCH primes l = 1 (mod n), counting down from
    PRIME_LIMIT.  Such an l splits completely in Q(zeta_n)."""
    if not 2 <= n < 1 << 13:
        raise RangeError(f"values modulo primes need 2 <= n < 8192, got {n}")
    ell = root_primes(n, batch - 1)[-1] if batch else (PRIME_LIMIT - 2) // n * n + 1 + n
    out = []
    while len(out) < PRIME_BATCH:
        ell -= n
        if ell <= math.isqrt(PRIME_LIMIT):
            raise RangeError(f"fewer than {PRIME_BATCH * (batch + 1)} primes l = 1 (mod {n})")
        if modular.is_prime(ell):
            out.append(ell)
    return tuple(out)


class _ModRing(types.SimpleNamespace):
    """The tables of one n and batch of mod_ring, and those formed on them."""


def mod_ring(n: int, batch: int = 0) -> _ModRing:
    """Z[x]/(x^n - 1) mapped to F_l^phi(n) for each prime l of
    root_primes(n, batch): x -> r^j for the j < n coprime to n, where
    r = a^((l - 1)/n) for the least a >= 2 of order n.

    The ring holds n, the primes and their column `col`, the images `powers`
    of x^m over (m < n, prime, j), the packed ring `packed` of n, the
    weights F_1, F_2, ... formed so far (F_1 = 1/[m], den/[m] of
    _scaled_inverse times den^-1, 0 at m = 0), and dicts of the prefix
    series and sorted-index omega values formed on it.
    """
    import numpy as np

    primes = root_primes(n, batch)
    divisors = [d for d in range(1, n) if n % d == 0]
    z = []
    for ell in primes:
        roots = (pow(a, (ell - 1) // n, ell) for a in itertools.count(2))
        r = next(x for x in roots if all(pow(x, d, ell) != 1 for d in divisors))
        z.append([pow(r, j, ell) for j in range(1, n) if math.gcd(j, n) == 1])
    col = np.array(primes)[:, None]
    powers = [np.ones_like(z)]
    for _ in range(1, n):
        powers.append(powers[-1] * z % col)
    powers = np.stack(powers)
    packed = packed_ring(n)
    scaled = np.array([[0] * n] + [_scaled_inverse(n, packed.den, m) for m in range(1, n)])
    den_inv = np.array([[pow(packed.den, -1, ell)] for ell in primes])
    f1 = np.tensordot(scaled, powers, 1) % col * den_inv % col
    return _ModRing(
        n=n, primes=primes, col=col, powers=powers, packed=packed, weights=[f1], series={}, omega={}
    )


def _mod_weights(ring: _ModRing, k: int) -> np.ndarray:
    """F_k(m) = F_(k-1)(m) x^m/[m] over (m, prime, j)."""
    weights = ring.weights
    while len(weights) < k:
        weights.append(weights[-1] * ring.powers % ring.col * weights[0] % ring.col)
    return weights[k - 1]


def _series_mod(ring: _ModRing, prefix) -> np.ndarray:
    """Coefficients of x^0..x^(n-1), over (prime, j), of the product over the
    parts k of sum_m F_k(m) x^m; kept per prefix, which the callers share."""
    import numpy as np

    if prefix not in ring.series:
        series = _mod_weights(ring, prefix[-1])
        if len(prefix) > 1:
            # window[s] is head[s-n+1 .. s], zero below 0, so each truncated
            # product is one reduction: n < 2^13 products below 2^50 fit in int64
            head = np.concatenate([np.zeros_like(series[1:]), _series_mod(ring, prefix[:-1])])
            window = np.lib.stride_tricks.sliding_window_view(head, ring.n, axis=0)
            series = np.einsum("s...m,m...->s...", window, series[::-1]) % ring.col
            series.setflags(write=False)  # kept and shared by every caller
        ring.series[prefix] = series
    return ring.series[prefix]


def omega_gen_mod(m: int, index, ring: _ModRing) -> np.ndarray:
    """omega_gen(m, index, ring.n), len(index) >= 2, over (prime, j) of the ring."""
    import numpy as np

    index = tuple(sorted(index))  # symmetric: sorted prefixes are shared
    val = ring.omega.get(index)
    if val is None:
        # only the coefficient of x^n of the last product is formed
        head, weights = _series_mod(ring, index[:-1]), _mod_weights(ring, index[-1])
        val = ring.omega[index] = np.einsum("m...,m...->...", head[1:], weights[:0:-1]) % ring.col
        val.setflags(write=False)  # kept and shared by every caller
    for _ in range(m):
        val = val * (1 + ring.col - ring.powers[1]) % ring.col
    return val


def coordinate_bound(m: int, index, ring: _PackedRing) -> int:
    """beta_g for g = (m, index): den^w sum_g a_g omega_gen(g), a_g integers,
    w the weight, has power-basis coordinates of size <= sum_g |a_g| beta_g.
    Its g-term is (den (1 - x))^m P(zeta_n), P of 1-norm at most widen's
    bound, and each x^i mod Phi_n has coordinates at most ring.power_norm."""
    return (2 * ring.den) ** m * ring.bound(index) * ring.power_norm


def _z_at_root_eword(eword, ring: _PackedRing) -> CycloElem:
    if eword not in ring.z:  # the empty e-word, of value 1, is there from the start
        weights = ring.widen(eword).weights
        levels = sums.chain_levels(eword, ring.n, lambda m, k: weights(k)[m], 0)
        ring.z[eword] = ring.element(sum(levels), eword)
    return ring.z[eword]


def z_at_root(u, ring: _PackedRing) -> CycloElem:
    """z_n(u) at q = zeta_n (n = ring.n) for an HbarSum, an extended index, or an index.

    Sum over n > m_1 > ... > m_r > 0 of the product of F-weights; the central
    variable hbar specializes to 1 - zeta_n.
    """
    if not isinstance(u, HbarSum):
        ew = tuple(u)
        words._check_eword(ew)
        return _z_at_root_eword(ew, ring)
    total = CycloElem.zero(ring.ctx)
    for (h, ew), c in u.items():
        term = _z_at_root_eword(ew, ring)
        if h:
            term = term * _one_minus_zeta_pow(ring, h)
        total = total + term * c
    return total


def reduce_at_one(x: CycloElem, p: int) -> int:
    """Image of x under Z[zeta_p] -> Z[zeta_p]/(1 - zeta_p) = F_p.

    The residue of an integral element y/d is the coefficient sum of y over
    d, mod p.  An element y/d in lowest terms with p | d is never integral:
    p does not divide every coefficient of y, and the power basis is a
    Z-basis of Z[zeta_p], so p does not divide y in Z[zeta_p].  Since
    (p) = (1 - zeta_p)^(p-1), y has (1 - zeta_p)-valuation below p - 1
    while d has at least p - 1.  Such inputs raise NotIntegralError.
    """
    if x.ctx.n != p or not modular.is_prime(p):
        raise RangeError(f"reduce_at_one needs a prime context matching p={p}")
    if x.den % p == 0:
        raise NotIntegralError("element is not integral at (1 - zeta_p): p divides its denominator")
    return sum(x.num) * pow(x.den, p - 2, p) % p


def check_q_kamano(index, ring: _PackedRing) -> bool:
    """Exact check of the q-lift of Kamano's theorem:

    omega_n(k; zeta_n) = (-1)^{k_r} sum_j C(k_r-1, j-1) (1-zeta)^{k_r-j}
                         z_n(a^j (e_{k_1} sh_hbar ... sh_hbar e_{k_{r-1}})).
    """
    index = words.check_index(index)
    if len(index) < 2:
        raise LengthError(f"check_q_kamano needs length >= 2, got {index}")
    lhs = omega_at_root(index, ring)
    kr = index[-1]
    base = words.shuffle_hbar_many([words.e(k) for k in index[:-1]])
    rhs = CycloElem.zero(ring.ctx)
    for j in range(1, kr + 1):
        coeff = math.comb(kr - 1, j - 1)
        term = z_at_root(words.a_mult(j, base), ring)
        if kr - j:
            term = term * _one_minus_zeta_pow(ring, kr - j)
        rhs = rhs + coeff * term
    if kr % 2:
        rhs = -rhs
    return lhs == rhs


def check_sym_sum(index, ring: _PackedRing) -> bool:
    """Exact check of the binomial-weighted vanishing sum for all parts >= 2:
    the terms of words.vanishing_sum_terms(index), each evaluated as
    coefficient * (1-zeta)^m * omega_n(l; zeta_n), add up to zero.
    """
    index = words.check_index(index)
    if len(index) < 2 or min(index) < 2:
        raise RangeError(f"need r >= 2 and all parts >= 2, got {index}")
    terms = words.vanishing_sum_terms(index).items()
    return not sum((c * omega_gen(m, l, ring) for (m, l), c in terms), CycloElem.zero(ring.ctx))
