"""Word algebras underlying multiple zeta and multiple omega values.

Two commutative algebras live here.  The first is Hoffman's algebra: the
rational span of words over the alphabet {x0, x1}, equipped with the shuffle
product.  Indices (tuples of positive integers) correspond to the words
y_k = x0^(k-1) x1; a word lies in the subalgebra h1 when it is empty or ends
in x1, and in h0 when it is additionally empty or starts with x0.

The second is the hbar-deformed span: rational combinations of words in the
letters e_k (k a positive integer or the extra symbol "1hat") weighted by a
nonnegative power of the central variable hbar, with the deformed shuffle
product.  In terms of the raw letters a, b one has e_1hat = ab and
e_k = a^(k-1)(a+hbar)b; the e-words form a linear basis of the subalgebra
they generate, and the deformed shuffle closes on that basis.

Everything is exact: coefficients are plain ints, since no operation here
divides, and `fractions.Fraction` only where a non-int scalar comes in.
Equality is coefficient-wise, and terms are kept in a canonical
order (length, then lexicographic), so reprs are deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .errors import EmptyWordError, LengthError, NotInH1Error

X0 = 0
X1 = 1

#: The extra letter adjoined to the positive integers for extended indices.
HAT1 = "1hat"

Word = tuple  # tuple of X0/X1 letters
Index = tuple  # tuple of positive integers
EWord = tuple  # tuple over {1, 2, ...} | {HAT1}

Scalar = Union[int, Fraction]

# `verify identity-words --max-weight 9` fills 1654 keys of `_shuffle_words`,
# the most of any benchmark command; `dims symmetric --weights 3..8`, whose
# regularization adds the x1^l keys, fills 737.
_CACHE_WORDS = 8192


# ---------------------------------------------------------------------------
# indices


def check_index(index) -> Index:
    index = tuple(index)
    if not all(isinstance(k, int) and k >= 1 for k in index):
        raise ValueError(f"not an index (needs positive integer parts): {index!r}")
    return index


def indices_of_weight(w: int, min_len: int = 1, min_part: int = 1) -> Iterator[Index]:
    """All ordered indices of the given weight, lexicographically descending."""

    def rec(rest, parts):
        if rest == 0:
            if len(parts) >= min_len:
                yield tuple(parts)
            return
        for k in range(rest, min_part - 1, -1):
            if rest - k == 0 or rest - k >= min_part:
                yield from rec(rest - k, parts + [k])

    if w == 0 and min_len == 0:
        yield ()
        return
    yield from rec(w, [])


def partitions_of_weight(w: int) -> list[Index]:
    """Unordered indices (descending tuples) of length >= 2 of the given weight."""
    out = []

    def rec(rest, max_part, parts):
        if rest == 0:
            if len(parts) >= 2:
                out.append(tuple(parts))
            return
        for k in range(min(rest, max_part), 0, -1):
            rec(rest - k, k, parts + [k])

    rec(w, w, [])
    out.sort(reverse=True)
    return out


def vanishing_sum_terms(index: Index) -> dict:
    """Terms of the binomial-weighted vanishing sum (Theorem 5.1) of an index
    whose parts are all >= 2, as {(m, l): coefficient} with l sorted
    descending.  The theorem says that

      sum_j sum_l {prod_{p<j} C(k_p-2, l_p-2)} C(k_j-2, l_j-1)
                  {prod_{p>j} C(k_p-1, l_p-1)} (1-zeta)^m omega_n(l; zeta_n) = 0

    with m = sum(k) - sum(l) - 1, for every n; omega is symmetric in l, so
    the terms are collected on the sorted l.
    """
    acc = {}
    for j in range(len(index)):
        # part p contributes C(top_p, l_p - shift_p) for l_p - shift_p in 0..top_p
        parts = [
            (k - 2, 2) if p < j else (k - 2, 1) if p == j else (k - 1, 1)
            for p, k in enumerate(index)
        ]
        for us in itertools.product(*(range(top + 1) for top, _shift in parts)):
            ls = tuple(u + shift for u, (_top, shift) in zip(us, parts))
            coeff = math.prod(math.comb(top, u) for u, (top, _shift) in zip(us, parts))
            key = (sum(index) - sum(ls) - 1, tuple(sorted(ls, reverse=True)))
            acc[key] = acc.get(key, 0) + coeff
    return acc


def corollary52_terms(index: Index) -> list[Index]:
    """The indices of Corollary 5.2's vanishing sum over an index with parts
    >= 2: sum_j omega(k_1, ..., k_j - 1, ..., k_r) = 0, one index per j."""
    return [index[:j] + (k - 1,) + index[j + 1 :] for j, k in enumerate(index)]


def eword_weight(eword: EWord) -> int:
    return sum(1 if l == HAT1 else l for l in eword)


def _eletter_key(letter):
    return (1, 0) if letter == HAT1 else (letter, 1)


def _eword_key(eword: EWord):
    return (len(eword), tuple(_eletter_key(l) for l in eword))


# ---------------------------------------------------------------------------
# rational linear combinations of words


def _add_into(out: dict, pairs, scale=1) -> dict:
    """Add scale * c into out[key] for each (key, c) pair, dropping zero sums."""
    for key, c in pairs:
        s = out.get(key, 0) + c * scale
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _linear(terms: dict, rule) -> dict:
    """Extend rule(key) -> ((key', m), ...) linearly to a whole combination."""
    out = {}
    for key, c in terms.items():
        _add_into(out, rule(key), c)
    return out


def _bilinear(t1: dict, t2: dict, rule) -> dict:
    """Extend rule(key1, key2) -> ((key, m), ...) bilinearly to two combinations."""
    out = {}
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            _add_into(out, rule(k1, k2), c1 * c2)
    return out


def _scalar(c) -> Scalar:
    """An int stays an int; any other scalar (bool, float, numpy integer,
    Fraction) becomes a Fraction."""
    return c if type(c) is int else Fraction(c)


def _coerce_terms(terms) -> dict:
    if not terms:
        return {}
    pairs = terms.items() if hasattr(terms, "items") else terms
    return _add_into({}, ((key, _scalar(c)) for key, c in pairs))


class _LinComb:
    """Shared behaviour of WordSum and HbarSum: a dict key -> int or Fraction."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = _coerce_terms(terms)

    @classmethod
    def zero(cls):
        return cls()

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: self._key(kv[0]))

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._wrap(_add_into(dict(self._terms), other._terms.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar: Scalar):
        c = _scalar(scalar)
        if not c:
            return type(self)()
        return self._wrap({k: c * v for k, v in self._terms.items()})

    def __mul__(self, scalar: Scalar):
        return self.__rmul__(scalar)

    @classmethod
    def _wrap(cls, terms: dict):
        obj = cls.__new__(cls)
        obj._terms = terms
        return obj

    @staticmethod
    def _key(key):
        raise NotImplementedError


class WordSum(_LinComb):
    """Exact rational linear combination of words over {x0, x1}."""

    @classmethod
    def monomial(cls, word: Word, coeff: Scalar = 1) -> "WordSum":
        return cls({tuple(word): coeff})

    @classmethod
    def unit(cls) -> "WordSum":
        return cls.monomial(())

    @staticmethod
    def _key(word):
        return (len(word), word)

    def in_h1(self) -> bool:
        return all(not w or w[-1] == X1 for w in self._terms)

    def in_h0(self) -> bool:
        return all(not w or (w[0] == X0 and w[-1] == X1) for w in self._terms)

    def max_weight(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def concat(self, other: "WordSum") -> "WordSum":
        """Concatenation (noncommutative) product, extended bilinearly."""
        return self._wrap(_bilinear(self._terms, other._terms, _concat_words))

    def prepend(self, word: Word) -> "WordSum":
        word = tuple(word)
        return self._wrap({word + w: c for w, c in self._terms.items()})

    def __str__(self):
        if not self._terms:
            return "0"
        bits = []
        for w, c in self.items():
            name = word_to_str(w) if w else "1"
            bits.append(f"{c}*{name}" if (c != 1 or not w) else name)
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return f"WordSum({str(self)!r})"


def _concat_words(w1: Word, w2: Word) -> tuple:
    return ((w1 + w2, 1),)


def word_to_str(word: Word) -> str:
    return "".join("x0" if l == X0 else "x1" for l in word)


# ---------------------------------------------------------------------------
# the shuffle product


@functools.lru_cache(maxsize=_CACHE_WORDS)
def _shuffle_words(w1: Word, w2: Word) -> tuple:
    """Shuffle of two monomials as a sorted tuple of (word, multiplicity)."""
    if not w1:
        return ((w2, 1),)
    if not w2:
        return ((w1, 1),)
    acc = _add_into({}, (((w1[0],) + w, m) for w, m in _shuffle_words(w1[1:], w2)))
    _add_into(acc, (((w2[0],) + w, m) for w, m in _shuffle_words(w1, w2[1:])))
    return tuple(sorted(acc.items()))


def shuffle(u: WordSum, v: WordSum) -> WordSum:
    """Shuffle product, extended bilinearly from the recursion on words."""
    return WordSum._wrap(_bilinear(u._terms, v._terms, _shuffle_words))


def shuffle_many(factors: Sequence[WordSum]) -> WordSum:
    out = WordSum.unit()
    for f in factors:
        out = shuffle(out, f)
    return out


# ---------------------------------------------------------------------------
# indices <-> words


def word_of_index(index: Index) -> Word:
    """y-encoding: each part k contributes x0^(k-1) x1."""
    index = check_index(index)
    out = []
    for k in index:
        out.extend([X0] * (k - 1))
        out.append(X1)
    return tuple(out)


def index_of_word(word: Word) -> Index:
    """Inverse of the y-encoding; requires a word in h1."""
    if word and word[-1] != X1:
        raise NotInH1Error(f"word does not end in x1: {word_to_str(word)}")
    out = []
    run = 0
    for letter in word:
        if letter == X0:
            run += 1
        else:
            out.append(run + 1)
            run = 0
    return tuple(out)


def y_word(index: Index) -> WordSum:
    return WordSum.monomial(word_of_index(index))


# ---------------------------------------------------------------------------
# Mordell-Tornheim words, phi, regularization


def mt_word(index: Index) -> WordSum:
    """x0^{k_r} (y_{k_1} sh ... sh y_{k_{r-1}}); every monomial admissible."""
    index = check_index(index)
    if len(index) < 2:
        raise LengthError(f"need length >= 2, got {index}")
    sh = shuffle_many([y_word((k,)) for k in index[:-1]])
    return sh.prepend((X0,) * index[-1])


def phi(u: WordSum) -> WordSum:
    """The sign-alternating reversal map on h1.

    On a monomial y_{k_1}...y_{k_r} it returns
    sum_{a=0..r} (-1)^{k_1+...+k_a} (y_{k_a}...y_{k_1}) sh (y_{k_{a+1}}...y_{k_r}).
    """
    return WordSum._wrap(_linear(u._terms, _phi_word))


@functools.lru_cache(maxsize=_CACHE_WORDS)
def _phi_word(word: Word) -> tuple:
    """phi of a monomial, as ((word, coeff), ...)."""
    k = index_of_word(word)
    out = {}
    for a in range(len(k) + 1):
        left = word_of_index(tuple(reversed(k[:a])))
        _add_into(out, _shuffle_words(left, word_of_index(k[a:])), (-1) ** sum(k[:a]))
    return tuple(out.items())


@functools.lru_cache(maxsize=_CACHE_WORDS)
def _reg0_word(word: Word) -> tuple:
    """T=0 shuffle regularization of a monomial, as ((word, coeff), ...):
    reg0(x1^l x0 v) = (-1)^l x0 (x1^l sh v), and reg0(x1^l) = 0 for l >= 1."""
    ell = next((i for i, letter in enumerate(word) if letter == X0), len(word))
    if ell == 0:
        return ((word, 1),)
    if ell == len(word):
        return ()
    sign = (-1) ** ell
    return tuple(((X0,) + w, sign * m) for w, m in _shuffle_words(word[:ell], word[ell + 1 :]))


def reg_shuffle0(u: WordSum) -> WordSum:
    """Project h1 onto h0 along the ideal generated by shuffle powers of x1.

    This is the T = 0 specialization of the shuffle regularization: the unique
    w0 in h0 with u = w0 + sum_i w_i sh x1^(sh i).
    """
    if not u.in_h1():
        raise NotInH1Error("reg_shuffle0 needs all monomials in h1")
    return WordSum._wrap(_linear(u._terms, _reg0_word))


def zeta_s_word(index: Index) -> WordSum:
    """Word-level symmetric value: the alternating sum of regularized halves.

    Applying the numeric zeta map to the result gives the (T=0, shuffle)
    symmetric multiple zeta value of the index.
    """
    index = check_index(index)
    if not index:
        raise LengthError("zeta_s_word needs a nonempty index")
    r = len(index)
    out = WordSum.zero()
    for a in range(r + 1):
        sign = (-1) ** sum(index[:a])
        left = reg_shuffle0(y_word(tuple(reversed(index[:a]))))
        right = reg_shuffle0(y_word(index[a:]))
        out = out + sign * shuffle(left, right)
    return out


def check_identity_words(index: Index) -> bool:
    """Exact check of the word identity behind the symmetric omega formula:

    phi((-1)^{k_r} x0^{k_r}(y_{k_1} sh ... sh y_{k_{r-1}}))
      = sum_a (-1)^{k_a} x0^{k_a}(shuffle of the other y's).
    """
    index = check_index(index)
    if len(index) < 2:
        raise LengthError(f"need length >= 2, got {index}")
    lhs = ((-1) ** index[-1]) * phi(mt_word(index))
    rhs = WordSum.zero()
    for a, ka in enumerate(index):
        rest = [y_word((k,)) for i, k in enumerate(index) if i != a]
        rhs = rhs + ((-1) ** ka) * shuffle_many(rest).prepend((X0,) * ka)
    return lhs == rhs


# ---------------------------------------------------------------------------
# hbar-deformed algebra


class HbarSum(_LinComb):
    """Rational combination of (hbar-power, e-word) pairs.

    Represents an element of the deformed subalgebra in the e-monomial basis;
    hbar-exponents are kept nonnegative on purpose, so an accidental
    hbar^(-1) in a computation fails loudly instead of propagating.
    """

    @classmethod
    def monomial(cls, eword: EWord, coeff: Scalar = 1, hbar: int = 0) -> "HbarSum":
        if hbar < 0:
            raise ValueError("negative hbar exponent")
        return cls({(hbar, tuple(eword)): coeff})

    @classmethod
    def unit(cls) -> "HbarSum":
        return cls.monomial(())

    @staticmethod
    def _key(key):
        h, ew = key
        return (h,) + _eword_key(ew)

    def max_weight(self) -> int:
        return max((h + eword_weight(ew) for h, ew in self._terms), default=0)

    def __str__(self):
        if not self._terms:
            return "0"
        bits = []
        for (h, ew), c in self.items():
            name = "*".join(
                ["1"] * (not h and not ew)
                + ([f"hbar^{h}" if h > 1 else "hbar"] if h else [])
                + ([f"e({','.join(str(l) for l in ew)})"] if ew else [])
            )
            bits.append(f"{c}*{name}" if c != 1 else name)
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return f"HbarSum({str(self)!r})"


def e(k) -> HbarSum:
    """Single-letter monomial e_k (k a positive integer or HAT1)."""
    _check_eword((k,))
    return HbarSum.monomial((k,))


def _check_eword(ew):
    for l in ew:
        if l != HAT1 and not (isinstance(l, int) and l >= 1):
            raise ValueError(f"bad e-letter: {l!r}")


def _amult_term(key) -> tuple:
    """One left multiplication by a: a e_1hat = e_2 - hbar e_1hat, a e_k = e_{k+1}."""
    h, ew = key
    if not ew:
        raise EmptyWordError("left multiplication by `a` on an empty e-word")
    if ew[0] == HAT1:
        return (((h, (2,) + ew[1:]), 1), ((h + 1, (HAT1,) + ew[1:]), -1))
    return (((h, (ew[0] + 1,) + ew[1:]), 1),)


def a_mult(j: int, u: HbarSum) -> HbarSum:
    """Apply left multiplication by the letter a, j times."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    for (h, ew) in u._terms:
        if not ew:
            raise EmptyWordError("a_mult needs every monomial nonempty")
    for _ in range(j):
        u = HbarSum._wrap(_linear(u._terms, _amult_term))
    return u


def _sh_e_prepend(letter, terms, factor=1):
    return tuple(((h, (letter,) + ew), factor * c) for (h, ew), c in terms)


def _sh_e_hshift(terms):
    return tuple(((h + 1, ew), c) for (h, ew), c in terms)


def _sh_e_amult(terms):
    return tuple(_linear(dict(terms), _amult_term).items())


def _sh_e_merge(*parts):
    acc = _add_into({}, itertools.chain(*parts))
    return tuple(sorted(acc.items(), key=lambda kv: HbarSum._key(kv[0])))


@functools.lru_cache(maxsize=_CACHE_WORDS)
def _shuffle_ewords(w1: EWord, w2: EWord) -> tuple:
    """Deformed shuffle of two e-monomials, closed in the e-basis.

    The recursion below implements the five leading-letter case rules plus
    the peeling rule e_1 w = e_1hat w + (e_1 - e_1hat) w, which reduces a
    leading e_1 to the cases the other rules cover.  The product is
    commutative, so the arguments are swapped to put a leading e_1, and
    failing that a leading e_1hat, first; only those orders have rules.
    """
    if not w1:
        return (((0, w2), 1),)
    if not w2:
        return (((0, w1), 1),)
    k1, k2 = w1[0], w2[0]
    if (k2 == 1 and k1 != 1) or (k2 == HAT1 and k1 not in (1, HAT1)):
        return _shuffle_ewords(w2, w1)
    if k1 == 1:
        rest = _shuffle_ewords(w1[1:], w2)
        return _sh_e_merge(
            _shuffle_ewords((HAT1,) + w1[1:], w2),
            _sh_e_prepend(1, rest),
            _sh_e_prepend(HAT1, rest, -1),
        )
    if k1 == HAT1 and k2 == HAT1:
        rest = _shuffle_ewords(w1[1:], w2[1:])
        return _sh_e_merge(
            _sh_e_prepend(HAT1, _shuffle_ewords(w1[1:], w2)),
            _sh_e_prepend(HAT1, _shuffle_ewords(w1, w2[1:])),
            _sh_e_prepend(HAT1, _sh_e_prepend(1, rest)),
            _sh_e_prepend(HAT1, _sh_e_prepend(HAT1, rest, -1)),
        )
    if k1 == HAT1:  # k2 >= 2, so w2 = a w2d in raw letters
        w2d = (k2 - 1,) + w2[1:]
        return _sh_e_merge(
            _sh_e_prepend(HAT1, _shuffle_ewords(w1[1:], w2)),
            _sh_e_amult(_shuffle_ewords(w1, w2d)),
            _sh_e_hshift(_sh_e_prepend(HAT1, _shuffle_ewords(w1[1:], w2d))),
        )
    # both letters >= 2: w_i = a w_id
    w1d = (k1 - 1,) + w1[1:]
    w2d = (k2 - 1,) + w2[1:]
    return _sh_e_amult(
        _sh_e_merge(
            _shuffle_ewords(w1d, w2),
            _shuffle_ewords(w1, w2d),
            _sh_e_hshift(_shuffle_ewords(w1d, w2d)),
        )
    )


def shuffle_hbar(u: HbarSum, v: HbarSum) -> HbarSum:
    """Deformed shuffle product, bilinear over the hbar coefficient ring."""

    def rule(k1, k2):
        h12 = k1[0] + k2[0]
        return (((h + h12, ew), m) for (h, ew), m in _shuffle_ewords(k1[1], k2[1]))

    return HbarSum._wrap(_bilinear(u._terms, v._terms, rule))


def shuffle_hbar_many(factors: Sequence[HbarSum]) -> HbarSum:
    out = HbarSum.unit()
    for f in factors:
        out = shuffle_hbar(out, f)
    return out


# ---------------------------------------------------------------------------
# generating-series identities


class TPoly:
    """Polynomial in commuting variables t_1..t_m with WordSum coefficients.

    Stored as {(exponents, word): coefficient} and truncated at a fixed total
    degree; used to verify the generating-series identities behind the word
    identity theorem by coefficient extraction.
    """

    __slots__ = ("maxdeg", "terms")

    def __init__(self, maxdeg: int, terms=None):
        self.maxdeg = maxdeg
        self.terms = {k: c for k, c in (terms or {}).items() if sum(k[0]) <= maxdeg}

    @classmethod
    def unit(cls, nvars, maxdeg):
        return cls(maxdeg, {((0,) * nvars, ()): 1})

    def __add__(self, other):
        return TPoly(self.maxdeg, _add_into(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return TPoly(self.maxdeg, _add_into(dict(self.terms), other.terms.items(), -1))

    def _product(self, other, word_rule):
        maxdeg = self.maxdeg

        def rule(k1, k2):
            e = tuple(a + b for a, b in zip(k1[0], k2[0]))
            if sum(e) > maxdeg:
                return ()
            return (((e, w), m) for w, m in word_rule(k1[1], k2[1]))

        return TPoly(maxdeg, _bilinear(self.terms, other.terms, rule))

    def concat(self, other):
        return self._product(other, _concat_words)

    def shuffle(self, other):
        return self._product(other, _shuffle_words)

    def map_words(self, word_rule):
        """Apply a linear map, given on monomials, to every coefficient."""
        return TPoly(
            self.maxdeg,
            _linear(self.terms, lambda k: (((k[0], w), m) for w, m in word_rule(k[1]))),
        )


def y_series(nvars: int, maxdeg: int, form: Sequence[int]) -> TPoly:
    """y evaluated at the linear form sum_i form[i]*t_i, truncated."""
    terms = {}
    for d in range(maxdeg + 1):
        for exps in _compositions_with_zeros(d, nvars):
            c = _multinomial(d, exps)
            for i, ei in enumerate(exps):
                c *= form[i] ** ei
            if c:
                terms[(exps, word_of_index((d + 1,)))] = c
    return TPoly(maxdeg, terms)


def _compositions_with_zeros(total, n):
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions_with_zeros(total - first, n - 1):
            yield (first,) + rest


def _multinomial(total, exps):
    out = math.factorial(total)
    for ei in exps:
        out //= math.factorial(ei)
    return out


def s_subset(nvars: int, maxdeg: int, subset: Sequence[int]) -> TPoly:
    """Shuffle product of y(t_p) over p in subset (1-based variable labels)."""
    out = TPoly.unit(nvars, maxdeg)
    for p in subset:
        form = [0] * nvars
        form[p - 1] = 1
        out = out.shuffle(y_series(nvars, maxdeg, form))
    return out


@dataclass(frozen=True)
class IdentityCheck:
    identity: str
    instance: str
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def _tpoly_compare(identity, instance, lhs, rhs) -> IdentityCheck:
    """Compare two TPolys coefficient by coefficient."""
    failures = tuple(sorted({e for e, _w in (lhs - rhs).terms}))
    return IdentityCheck(identity, instance, failures)


def check_generating_identities(max_weight: int) -> list[IdentityCheck]:
    """Verify the generating-series identities by coefficient extraction.

    Every identity is expanded as a polynomial in its t-variables with
    WordSum coefficients, truncated so the word weights stay <= max_weight,
    and compared side against side for every exponent tuple.
    """
    if max_weight < 2:
        raise ValueError("max_weight must be >= 2")
    results = []

    # product rule for y-series factors (used to prove the word identity):
    # y(t1) w sh y(t2) w' = y(t1+t2) (w sh y(t2) w' + y(t1) w sh w')
    test_words = [(), (X1,), (X0, X1), (X1, X1)]
    for w1 in test_words:
        for w2 in test_words:
            base = 2 + len(w1) + len(w2)
            d = max_weight - base
            if d < 0:
                continue
            mw1 = TPoly(d, {((0, 0), w1): 1})
            mw2 = TPoly(d, {((0, 0), w2): 1})
            y1 = y_series(2, d, [1, 0]).concat(mw1)
            y2 = y_series(2, d, [0, 1]).concat(mw2)
            lhs = y1.shuffle(y2)
            rhs = y_series(2, d, [1, 1]).concat(mw1.shuffle(y2) + y1.shuffle(mw2))
            results.append(
                _tpoly_compare(
                    "y-series-product-rule",
                    f"w={word_to_str(w1) or '1'},w'={word_to_str(w2) or '1'}",
                    lhs,
                    rhs,
                )
            )

    # closed form of the r-fold shuffle as ordered products over permutations
    for r in range(2, 5):
        d = max_weight - r
        if d < 0:
            continue
        lhs = s_subset(r, d, range(1, r + 1))
        rhs = TPoly(d)
        for sigma in itertools.permutations(range(r)):
            prod = TPoly.unit(r, d)
            for j in range(1, r + 1):
                form = [0] * r
                for i in range(j):
                    form[sigma[i]] = 1
                prod = y_series(r, d, form).concat(prod)
            rhs = rhs + prod
        results.append(
            _tpoly_compare("shuffle-ordered-product", f"r={r}", lhs, rhs)
        )

    # phi on y(u) S_I and on S_I
    for s in range(0, 3):
        nv = s + 1  # slot 0 is u, slots 1..s are t_1..t_s
        d = max_weight - (s + 1)
        if d < 0:
            continue
        subset = list(range(2, s + 2))  # s_subset's 1-based labels of t_1..t_s
        u_form = [0] * nv
        u_form[0] = 1
        mu_form = [0] * nv
        mu_form[0] = -1
        s_full = s_subset(nv, d, subset)
        lhs = y_series(nv, d, u_form).concat(s_full).map_words(_phi_word)
        rhs = y_series(nv, d, u_form).concat(s_full) - y_series(nv, d, mu_form).shuffle(s_full)
        for b in subset:
            form = [0] * nv
            form[b - 1] = -1
            rhs = rhs + y_series(nv, d, form).concat(
                y_series(nv, d, mu_form).shuffle(s_subset(nv, d, [p for p in subset if p != b]))
            )
        results.append(
            _tpoly_compare("phi-of-y(u)-times-shuffles", f"|I|={s}", lhs, rhs)
        )

    for s in range(1, 4):
        nv = s
        d = max_weight - s
        if d < 0:
            continue
        subset = list(range(1, s + 1))
        s_full = s_subset(nv, d, subset)
        lhs = s_full.map_words(_phi_word)
        rhs = s_full
        for b in subset:
            form = [0] * nv
            form[b - 1] = -1
            rhs = rhs - y_series(nv, d, form).concat(
                s_subset(nv, d, [p for p in subset if p != b])
            )
        results.append(_tpoly_compare("phi-of-shuffles", f"|I|={s}", lhs, rhs))

    return results
