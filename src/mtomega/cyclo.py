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
coefficient, so the packed arithmetic is exact.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import sums, words
from .errors import (
    LengthError,
    NotIntegralError,
    PoleError,
    RangeError,
)
from .words import HAT1, HbarSum


# Cache bounds.  The most distinct keys a benchmark workload uses are 642
# omega values, 116 powers of 1 - zeta and 29 values of n (cyclotomic) and
# 627 z values (verify).
_CACHE_VALUES = 2048  # omega and z values, powers of 1 - zeta
_CACHE_N = 128  # packed rings with their weight tables, one per n


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


def _convolve(a, b) -> list:
    """Product of two integer polynomials given as coefficient sequences."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    return conv


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
    def from_rational(cls, ctx, value) -> "CycloElem":
        value = Fraction(value)
        return cls(ctx, [value.numerator], value.denominator)

    @classmethod
    def zero(cls, ctx) -> "CycloElem":
        return cls(ctx, [])

    @classmethod
    def one(cls, ctx) -> "CycloElem":
        return cls(ctx, [1])

    @classmethod
    def zeta_pow(cls, ctx, j: int) -> "CycloElem":
        j %= ctx.n
        return cls(ctx, [0] * j + [1])

    @classmethod
    def from_coeffs(cls, ctx, coeffs) -> "CycloElem":
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        return cls(ctx, [int(c * den) for c in coeffs], den)

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
            other = CycloElem.from_rational(self.ctx, other)
        self._check(other)
        return CycloElem(self.ctx, _convolve(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloElem.one(self.ctx)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "CycloElem":
        return cyclo_inv(self)

    def to_json(self) -> dict:
        return {"n": self.ctx.n, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "CycloElem":
        ctx = CycloCtx(int(data["n"]))
        return cls.from_coeffs(ctx, [Fraction(c) for c in data["coeffs"]])


def cyclo_inv(x: CycloElem) -> CycloElem:
    """Field inverse via the extended Euclidean algorithm against the modulus."""
    if not x:
        raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
    ctx = x.ctx
    # work over Q[x]: r0 = modulus, r1 = x; keep only the x-cofactor
    r0 = [Fraction(c) for c in ctx.phi_n]
    r1 = [Fraction(c, x.den) for c in x.num]
    t0 = [Fraction(0)]
    t1 = [Fraction(1)]

    def deg(p):
        d = len(p) - 1
        while d >= 0 and not p[d]:
            d -= 1
        return d

    while True:
        d1 = deg(r1)
        if d1 < 0:
            raise ZeroDivisionError("not invertible (should not happen mod Phi_n)")
        if d1 == 0:
            c = r1[0]
            return CycloElem.from_coeffs(ctx, [t / c for t in t1])
        d0 = deg(r0)
        q = [Fraction(0)] * (d0 - d1 + 1)
        r = list(r0)
        for i in range(d0, d1 - 1, -1):
            f = r[i] / r1[d1]
            q[i - d1] = f
            if f:
                for j in range(d1 + 1):
                    r[i - d1 + j] -= f * r1[j]
        # t_next = t0 - q * t1
        tn = [Fraction(0)] * max(len(t0), len(q) + len(t1) - 1)
        for i, c in enumerate(t0):
            tn[i] += c
        for i, a in enumerate(q):
            if a:
                for j, b in enumerate(t1):
                    tn[i + j] -= a * b
        r0, r1 = r1, r
        t0, t1 = t1, tn


def q_int(ctx: CycloCtx, m: int) -> CycloElem:
    """The q-integer [m] = 1 + zeta + ... + zeta^(m-1) at q = zeta_n."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return CycloElem(ctx, [1] * m)


def one_minus_zeta(ctx: CycloCtx) -> CycloElem:
    return CycloElem(ctx, [1, -1])


@functools.lru_cache(maxsize=_CACHE_VALUES)
def _one_minus_zeta_pow(n: int, m: int) -> CycloElem:
    ctx = CycloCtx(n)
    return one_minus_zeta(ctx) ** m


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
    e = _exponent(k), multiply them as plain ints, and may leave products
    unfolded; element() folds once and reduces mod Phi_n once.

    den is the lcm of the orders n/gcd(m, n) of the non-unit [m], m < n
    (1 when n is prime), and masses[m] the coefficient sum of
    _scaled_inverse(n, den, m) (masses[0] = 0).
    """

    def __init__(self, n: int):
        self.n = n
        orders = [n // math.gcd(m, n) for m in range(1, n)]  # the order of x^m
        self.den = den = math.lcm(*(o for o in orders if o < n))
        self.masses = [0] + [
            den * pow(m, -1, n) if order == n else den // order * (order - 1) * n
            for m, order in enumerate(orders, 1)
        ]
        self.nbytes = 0

    def widen(self, index) -> "_PackedRing":
        """Make the coefficients wide enough for the nested sums over index.

        Every vector is nonnegative, so no coefficient exceeds the
        coefficient sum (the value at x = 1), which is additive and
        multiplicative.  Each value the chain or composition sum forms,
        partial sums included, is a sub-sum of the expansion of
        prod_a sum_{m<n} den^e F_{k_a}(m), so the coefficient sum of that
        product bounds every coefficient.  A ring already wide enough keeps
        its weights.
        """
        bound = math.prod(sum(c ** _exponent(k) for c in self.masses) for k in index)
        nbytes = bound.bit_length() // 8 + 1
        if nbytes > self.nbytes:
            self.nbytes = nbytes
            self.bits = 8 * nbytes
            self.size = self.bits * self.n
            self.mask = (1 << self.size) - 1
            self._weights = {}
        return self

    def _fold(self, p: int) -> int:
        size, mask = self.size, self.mask
        while p >> size:
            p = (p & mask) + (p >> size)
        return p

    def weight(self, m: int, k) -> int:
        """den^e F_k(m): den/[m] for k = 1, x^m den/[m] for the hat letter,
        and F_k(m) = F_(k-1)(m) F_1hat(m) = x^((k-1)m) (den/[m])^k above."""
        key = (m, k)
        w = self._weights.get(key)
        if w is None:
            if k == 1:
                vec = _scaled_inverse(self.n, self.den, m)
                nb = self.nbytes
                w = int.from_bytes(b"".join([c.to_bytes(nb, "little") for c in vec]), "little")
            elif k == HAT1:
                w = self._fold(self.weight(m, 1) << (self.bits * m))
            else:
                w = self._fold(self.weight(m, k - 1) * self.weight(m, HAT1))
            self._weights[key] = w
        return w

    def element(self, p: int, index) -> CycloElem:
        """The value p / den^(sum of the exponents of index) in Q(zeta_n)."""
        nb = self.nbytes
        data = self._fold(p).to_bytes(self.size // 8, "little")
        vec = [int.from_bytes(data[i : i + nb], "little") for i in range(0, len(data), nb)]
        weight = sum(map(_exponent, index))
        return CycloElem(CycloCtx(self.n), vec, self.den**weight)


@functools.lru_cache(maxsize=_CACHE_N)
def _packed_ring(n: int) -> _PackedRing:
    return _PackedRing(n)


@functools.lru_cache(maxsize=_CACHE_VALUES)
def _omega_at_root_sorted(index, n: int) -> CycloElem:
    ring = _packed_ring(n).widen(index)
    return ring.element(sums.composition_sum(index, n, ring.weight, 0), index)


def omega_at_root(index, n: int) -> CycloElem:
    """omega_n(index; zeta_n) in Q(zeta_n), exactly.

    Sum over compositions m_1 + ... + m_r = n of the product of the F-weights;
    empty when n < r.  Needs r >= 2 (the r = 1 value would involve 1/[n] = 0).
    """
    index = words.check_index(index)
    if len(index) < 2:
        raise LengthError(f"omega_at_root needs length >= 2, got {index}")
    if n < len(index):
        return CycloElem.zero(CycloCtx(n))
    # symmetric in the index
    return _omega_at_root_sorted(tuple(sorted(index, reverse=True)), n)


def omega_gen(m: int, index, n: int) -> CycloElem:
    """The generator value (1 - zeta_n)^m * omega_n(index; zeta_n)."""
    val = omega_at_root(index, n)
    return val * _one_minus_zeta_pow(n, m) if m else val


@functools.lru_cache(maxsize=_CACHE_VALUES)
def _z_at_root_eword(eword, n: int) -> CycloElem:
    if not eword:
        return CycloElem.one(CycloCtx(n))
    ring = _packed_ring(n).widen(eword)
    return ring.element(sum(sums.chain_levels(eword, n, ring.weight, 0)), eword)


def z_at_root(u, n: int) -> CycloElem:
    """z_n(u) at q = zeta_n for an HbarSum, an extended index, or an index.

    Sum over n > m_1 > ... > m_r > 0 of the product of F-weights; the central
    variable hbar specializes to 1 - zeta_n.
    """
    ctx = CycloCtx(n)
    if not isinstance(u, HbarSum):
        ew = tuple(u)
        words._check_eword(ew)
        return _z_at_root_eword(ew, n)
    total = CycloElem.zero(ctx)
    for (h, ew), c in u.items():
        term = _z_at_root_eword(ew, n)
        if h:
            term = term * _one_minus_zeta_pow(n, h)
        total = total + term * c
    return total


def reduce_at_one(x: CycloElem, p: int) -> int:
    """Image of x under Z[zeta_p] -> Z[zeta_p]/(1 - zeta_p) = F_p.

    The residue of an integral element is its coefficient sum mod p.  A
    denominator divisible by p is cleared by exact division by 1 - zeta_p,
    using (1-zeta_p)^(p-1) = p * u with u = 1/([1][2]...[p-1]) of residue -1
    (Wilson); non-integral inputs raise NotIntegralError.
    """
    from .modular import is_prime

    if x.ctx.n != p or not is_prime(p):
        raise RangeError(f"reduce_at_one needs a prime context matching p={p}")
    s = 0
    d = x.den
    while d % p == 0:
        d //= p
        s += 1
    if s == 0:
        return sum(x.num) * pow(d % p, p - 2, p) % p if d % p else 0
    ctx = x.ctx
    # c = p/(1 - zeta) = -sum_{j<p} j zeta^j, from (1 - zeta) sum_{j<p} j zeta^j = -p:
    # dividing by 1 - zeta is multiplying by c and dividing by p.
    c = CycloElem(ctx, [-j for j in range(p)]).num
    num = list(x.num)
    for _ in range(s * (p - 1)):
        num = list(ctx._reduce(_convolve(num, c)))
        if any(v % p for v in num):
            raise NotIntegralError(
                "element is not integral at (1 - zeta_p) after clearing units"
            )
        num = [v // p for v in num]
    res = sum(num) * pow(d % p, p - 2, p) % p
    return (-res) % p if s % 2 else res


def l_series_rational(u, q, order: int) -> list:
    """Truncated q-polylogarithm coefficients u_1..u_order at exact rational q.

    Works for an HbarSum or a plain (extended) index; hbar acts as 1 - q.
    Raises PoleError when some q-integer [m] vanishes for m <= order.
    """
    q = Fraction(q)
    if q == 1:
        raise PoleError("q = 1 is outside the domain")
    qpow = [Fraction(1)]
    for _ in range(order):
        qpow.append(qpow[-1] * q)
    qint = [None] * (order + 1)
    for m in range(1, order + 1):
        val = (1 - qpow[m]) / (1 - q)
        if val == 0:
            raise PoleError(f"[{m}] vanishes at q = {q}")
        qint[m] = val

    def f(m, k):
        if k == HAT1:
            return qpow[m] / qint[m]
        return qpow[m] ** (k - 1) / qint[m] ** k

    def coeffs_for(ew):
        if not ew:
            return [Fraction(0)] * order  # L(1) = 1 has no positive coefficients
        return sums.chain_levels(ew, order + 1, f, Fraction(0))[1:]

    if not isinstance(u, HbarSum):
        ew = tuple(u)
        return coeffs_for(ew)
    out = [Fraction(0)] * order
    for (h, ew), c in u.items():
        scale = c * (1 - q) ** h
        for i, v in enumerate(coeffs_for(ew)):
            out[i] += scale * v
    return out


def check_q_kamano(index, n: int) -> bool:
    """Exact check of the q-lift of Kamano's theorem:

    omega_n(k; zeta_n) = (-1)^{k_r} sum_j C(k_r-1, j-1) (1-zeta)^{k_r-j}
                         z_n(a^j (e_{k_1} sh_hbar ... sh_hbar e_{k_{r-1}})).
    """
    index = words.check_index(index)
    if len(index) < 2:
        raise LengthError(f"check_q_kamano needs length >= 2, got {index}")
    lhs = omega_at_root(index, n)
    kr = index[-1]
    base = words.shuffle_hbar_many([words.e(k) for k in index[:-1]])
    ctx = CycloCtx(n)
    rhs = CycloElem.zero(ctx)
    for j in range(1, kr + 1):
        coeff = math.comb(kr - 1, j - 1)
        term = z_at_root(words.a_mult(j, base), n)
        if kr - j:
            term = term * _one_minus_zeta_pow(n, kr - j)
        rhs = rhs + coeff * term
    if kr % 2:
        rhs = -rhs
    return lhs == rhs


def check_sym_sum(index, n: int) -> bool:
    """Exact check of the binomial-weighted vanishing sum for all parts >= 2:
    the terms of words.vanishing_sum_terms(index), each evaluated as
    coefficient * (1-zeta)^m * omega_n(l; zeta_n), add up to zero.
    """
    index = words.check_index(index)
    if len(index) < 2 or min(index) < 2:
        raise RangeError(f"need r >= 2 and all parts >= 2, got {index}")
    zero = CycloElem.zero(CycloCtx(n))
    terms = words.vanishing_sum_terms(index).items()
    return not sum((c * omega_gen(m, l, n) for (m, l), c in terms), zero)
