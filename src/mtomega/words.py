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

Everything is exact: coefficients are `fractions.Fraction`, equality is
coefficient-wise, and terms are kept in a canonical order (length, then
lexicographic), so reprs and serializations are deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
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


# ---------------------------------------------------------------------------
# indices


def is_admissible(index: Index) -> bool:
    """True when the index is empty or its first part is at least 2."""
    return not index or index[0] >= 2


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


def partitions_of_weight(w: int, min_len: int = 2) -> list[Index]:
    """Unordered indices (descending tuples) of the given weight."""
    out = []

    def rec(rest, max_part, parts):
        if rest == 0:
            if len(parts) >= min_len:
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


def _coerce_terms(terms) -> dict:
    out = {}
    if terms:
        for key, c in (terms.items() if hasattr(terms, "items") else terms):
            c = Fraction(c)
            if c:
                out[key] = out.get(key, Fraction(0)) + c
                if not out[key]:
                    del out[key]
    return out


class _LinComb:
    """Shared behaviour of WordSum and HbarSum: a dict key -> Fraction."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = _coerce_terms(terms)

    @classmethod
    def zero(cls):
        return cls()

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: self._key(kv[0]))

    def coeff(self, key) -> Fraction:
        return self._terms.get(key, Fraction(0))

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return self._wrap(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar: Scalar):
        c = Fraction(scalar)
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
        out = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                k = w1 + w2
                s = out.get(k, Fraction(0)) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return self._wrap(out)

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

    def to_json(self) -> dict:
        return {
            "terms": [
                {"coeff": str(c), "word": word_to_str(w)} for w, c in self.items()
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "WordSum":
        return cls(
            {word_from_str(t["word"]): Fraction(t["coeff"]) for t in data["terms"]}
        )


def word_to_str(word: Word) -> str:
    return "".join("x0" if l == X0 else "x1" for l in word)


def word_from_str(s: str) -> Word:
    if len(s) % 2:
        raise ValueError(f"bad word string: {s!r}")
    out = []
    for i in range(0, len(s), 2):
        pair = s[i : i + 2]
        if pair == "x0":
            out.append(X0)
        elif pair == "x1":
            out.append(X1)
        else:
            raise ValueError(f"bad word string: {s!r}")
    return tuple(out)


# ---------------------------------------------------------------------------
# the shuffle product


@functools.lru_cache(maxsize=None)
def _shuffle_words(w1: Word, w2: Word) -> tuple:
    """Shuffle of two monomials as a sorted tuple of (word, multiplicity)."""
    if not w1:
        return ((w2, 1),)
    if not w2:
        return ((w1, 1),)
    acc = Counter()
    for word, m in _shuffle_words(w1[1:], w2):
        acc[(w1[0],) + word] += m
    for word, m in _shuffle_words(w1, w2[1:]):
        acc[(w2[0],) + word] += m
    return tuple(sorted(acc.items()))


def shuffle(u: WordSum, v: WordSum) -> WordSum:
    """Shuffle product, extended bilinearly from the recursion on words."""
    out = {}
    for w1, c1 in u._terms.items():
        for w2, c2 in v._terms.items():
            c = c1 * c2
            for word, m in _shuffle_words(w1, w2):
                s = out.get(word, Fraction(0)) + m * c
                if s:
                    out[word] = s
                elif word in out:
                    del out[word]
    return WordSum._wrap(out)


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
    out = WordSum.zero()
    for w, c in u._terms.items():
        k = index_of_word(w)
        r = len(k)
        for a in range(r + 1):
            sign = (-1) ** sum(k[:a])
            left = word_of_index(tuple(reversed(k[:a])))
            right = word_of_index(k[a:])
            out = out + (c * sign) * WordSum(
                dict(_shuffle_words(left, right))
            )
    return out


@functools.lru_cache(maxsize=None)
def _reg0_word(word: Word) -> tuple:
    """T=0 shuffle regularization of a monomial, as ((word, coeff), ...)."""
    if not word or word[0] == X0:
        return ((word, Fraction(1)),)
    # word = x1 v with leading x1-run of length ell; then
    # x1 sh v = ell*word + R with R supported on smaller leading runs,
    # and reg0(x1 sh v) = 0, so reg0(word) = -(1/ell) reg0(R).
    v = word[1:]
    ell = 1
    while ell < len(word) and word[ell] == X1:
        ell += 1
    acc = {}
    for w, m in _shuffle_words((X1,), v):
        if w == word:
            continue
        for w0, c in _reg0_word(w):
            s = acc.get(w0, Fraction(0)) - Fraction(m, ell) * c
            if s:
                acc[w0] = s
            elif w0 in acc:
                del acc[w0]
    return tuple(sorted(acc.items(), key=lambda kv: (len(kv[0]), kv[0])))


def reg_shuffle0(u: WordSum) -> WordSum:
    """Project h1 onto h0 along the ideal generated by shuffle powers of x1.

    This is the T = 0 specialization of the shuffle regularization: the unique
    w0 in h0 with u = w0 + sum_i w_i sh x1^(sh i).
    """
    if not u.in_h1():
        raise NotInH1Error("reg_shuffle0 needs all monomials in h1")
    out = {}
    for w, c in u._terms.items():
        for w0, c0 in _reg0_word(w):
            s = out.get(w0, Fraction(0)) + c * c0
            if s:
                out[w0] = s
            elif w0 in out:
                del out[w0]
    return WordSum._wrap(out)


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

    def hbar_shift(self, j: int = 1) -> "HbarSum":
        if j < 0:
            raise ValueError("negative hbar exponent")
        return self._wrap({(h + j, ew): c for (h, ew), c in self._terms.items()})

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

    def to_json(self) -> dict:
        return {
            "terms": [
                {"coeff": str(c), "hbar": h, "eword": list(ew)}
                for (h, ew), c in self.items()
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "HbarSum":
        terms = {}
        for t in data["terms"]:
            ew = tuple(l if l == HAT1 else int(l) for l in t["eword"])
            terms[(int(t["hbar"]), ew)] = Fraction(t["coeff"])
        return cls(terms)


def e(k) -> HbarSum:
    """Single-letter monomial e_k (k a positive integer or HAT1)."""
    _check_eword((k,))
    return HbarSum.monomial((k,))


def _check_eword(ew):
    for l in ew:
        if l != HAT1 and not (isinstance(l, int) and l >= 1):
            raise ValueError(f"bad e-letter: {l!r}")


def _amult_term(h: int, ew: EWord) -> tuple:
    """One left multiplication by a: a e_1hat = e_2 - hbar e_1hat, a e_k = e_{k+1}."""
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
        out = {}
        for (h, ew), c in u._terms.items():
            for key, m in _amult_term(h, ew):
                s = out.get(key, Fraction(0)) + m * c
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        u = HbarSum._wrap(out)
    return u


def _sh_e_prepend(letter, terms, factor=1):
    return tuple(((h, (letter,) + ew), factor * c) for (h, ew), c in terms)


def _sh_e_hshift(terms):
    return tuple(((h + 1, ew), c) for (h, ew), c in terms)


def _sh_e_amult(terms):
    acc = Counter()
    for (h, ew), c in terms:
        for key, m in _amult_term(h, ew):
            acc[key] += m * c
    return tuple((k, v) for k, v in acc.items() if v)


def _sh_e_merge(*parts):
    acc = Counter()
    for part in parts:
        for key, c in part:
            acc[key] += c
    return tuple(
        sorted(
            ((k, v) for k, v in acc.items() if v),
            key=lambda kv: (kv[0][0],) + _eword_key(kv[0][1]),
        )
    )


@functools.lru_cache(maxsize=None)
def _shuffle_ewords(w1: EWord, w2: EWord) -> tuple:
    """Deformed shuffle of two e-monomials, closed in the e-basis.

    The recursion below implements the five leading-letter case rules plus
    the peeling rule e_1 w = e_1hat w + (e_1 - e_1hat) w, which reduces a
    leading e_1 on either side to the cases the other rules cover.
    """
    if not w1:
        return (((0, w2), 1),)
    if not w2:
        return (((0, w1), 1),)
    k1, k2 = w1[0], w2[0]
    if k1 == 1:
        rest = _shuffle_ewords(w1[1:], w2)
        return _sh_e_merge(
            _shuffle_ewords((HAT1,) + w1[1:], w2),
            _sh_e_prepend(1, rest),
            _sh_e_prepend(HAT1, rest, -1),
        )
    if k2 == 1:
        rest = _shuffle_ewords(w1, w2[1:])
        return _sh_e_merge(
            _shuffle_ewords(w1, (HAT1,) + w2[1:]),
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
    if k2 == HAT1:
        w1d = (k1 - 1,) + w1[1:]
        return _sh_e_merge(
            _sh_e_prepend(HAT1, _shuffle_ewords(w1, w2[1:])),
            _sh_e_amult(_shuffle_ewords(w1d, w2)),
            _sh_e_hshift(_sh_e_prepend(HAT1, _shuffle_ewords(w1d, w2[1:]))),
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
    out = {}
    for (h1, w1), c1 in u._terms.items():
        for (h2, w2), c2 in v._terms.items():
            c = c1 * c2
            for (h, ew), m in _shuffle_ewords(w1, w2):
                key = (h + h1 + h2, ew)
                s = out.get(key, Fraction(0)) + m * c
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
    return HbarSum._wrap(out)


def shuffle_hbar_many(factors: Sequence[HbarSum]) -> HbarSum:
    out = HbarSum.unit()
    for f in factors:
        out = shuffle_hbar(out, f)
    return out


def rho(u: HbarSum) -> WordSum:
    """Algebra map to h1: kills hbar, sends e_1hat to y_1 and e_k to y_k."""
    out = {}
    for (h, ew), c in u._terms.items():
        if h > 0:
            continue
        word = []
        for l in ew:
            if l == HAT1:
                word.append(X1)
            else:
                word.extend([X0] * (l - 1))
                word.append(X1)
        key = tuple(word)
        s = out.get(key, Fraction(0)) + c
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return WordSum._wrap(out)


# ---------------------------------------------------------------------------
# generating-series identities


class TPoly:
    """Polynomial in commuting variables t_1..t_m with WordSum coefficients.

    Truncated at a fixed total degree; used to verify the generating-series
    identities behind the word identity theorem by coefficient extraction.
    """

    __slots__ = ("nvars", "maxdeg", "coeffs")

    def __init__(self, nvars: int, maxdeg: int, coeffs=None):
        self.nvars = nvars
        self.maxdeg = maxdeg
        self.coeffs = {}
        if coeffs:
            for exps, ws in coeffs.items():
                if sum(exps) <= maxdeg and ws:
                    self.coeffs[exps] = ws

    @classmethod
    def unit(cls, nvars, maxdeg):
        return cls(nvars, maxdeg, {(0,) * nvars: WordSum.unit()})

    def __eq__(self, other):
        return (
            self.nvars == other.nvars
            and {k: v for k, v in self.coeffs.items() if v}
            == {k: v for k, v in other.coeffs.items() if v}
        )

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, ws in other.coeffs.items():
            s = out.get(e, WordSum.zero()) + ws
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return TPoly(self.nvars, self.maxdeg, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return TPoly(
            self.nvars, self.maxdeg, {e: scalar * ws for e, ws in self.coeffs.items()}
        )

    def _binary(self, other, combine):
        out = {}
        for e1, w1 in self.coeffs.items():
            for e2, w2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) > self.maxdeg:
                    continue
                s = out.get(e, WordSum.zero()) + combine(w1, w2)
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return TPoly(self.nvars, self.maxdeg, out)

    def concat(self, other):
        return self._binary(other, lambda a, b: a.concat(b))

    def shuffle(self, other):
        return self._binary(other, shuffle)

    def map_coeffs(self, f):
        return TPoly(self.nvars, self.maxdeg, {e: f(ws) for e, ws in self.coeffs.items()})


def y_series(nvars: int, maxdeg: int, form: Sequence[int]) -> TPoly:
    """y evaluated at the linear form sum_i form[i]*t_i, truncated."""
    coeffs = {}
    for d in range(maxdeg + 1):
        for exps in _compositions_with_zeros(d, nvars):
            c = _multinomial(d, exps)
            for i, ei in enumerate(exps):
                c *= form[i] ** ei
            if not c:
                continue
            ws = WordSum.monomial(word_of_index((d + 1,)), c)
            key = exps
            coeffs[key] = coeffs.get(key, WordSum.zero()) + ws
    return TPoly(nvars, maxdeg, coeffs)


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
    checked: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def _tpoly_compare(identity, instance, lhs, rhs) -> IdentityCheck:
    keys = set(lhs.coeffs) | set(rhs.coeffs)
    failures = tuple(
        sorted(
            e
            for e in keys
            if lhs.coeffs.get(e, WordSum.zero()) != rhs.coeffs.get(e, WordSum.zero())
        )
    )
    return IdentityCheck(identity, instance, len(keys), failures)


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
            mw1 = TPoly(2, d, {(0, 0): WordSum.monomial(w1)})
            mw2 = TPoly(2, d, {(0, 0): WordSum.monomial(w2)})
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
        rhs = TPoly(r, d)
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
        nv = s + 1  # variable 0 is u, variables 1..s are t_1..t_s
        d = max_weight - (s + 1)
        if d < 0:
            continue
        subset = list(range(1, s + 1))

        def yv(formvals):
            return y_series(nv, d, formvals)

        def s_sub(sub):
            out = TPoly.unit(nv, d)
            for p in sub:
                form = [0] * nv
                form[p] = 1  # t_p sits at slot p
                out = out.shuffle(yv(form))
            return out

        u_form = [0] * nv
        u_form[0] = 1
        mu_form = [0] * nv
        mu_form[0] = -1
        s_full = s_sub(subset)
        lhs = yv(u_form).concat(s_full).map_coeffs(phi)
        rhs = yv(u_form).concat(s_full) - yv(mu_form).shuffle(s_full)
        for b in subset:
            form = [0] * nv
            form[b] = -1
            rhs = rhs + yv(form).concat(
                yv(mu_form).shuffle(s_sub([p for p in subset if p != b]))
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
        lhs = s_full.map_coeffs(phi)
        rhs = TPoly(nv, d) + s_full
        for b in subset:
            form = [0] * nv
            form[b - 1] = -1
            rhs = rhs - y_series(nv, d, form).concat(
                s_subset(nv, d, [p for p in subset if p != b])
            )
        results.append(_tpoly_compare("phi-of-shuffles", f"|I|={s}", lhs, rhs))

    return results
