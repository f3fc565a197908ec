"""Exact arithmetic in the rational group ring of a free group, and the free
differential (Fox) calculus.

Elements are finite Q-linear combinations of freely reduced words with exact
rational coefficients, never floats.  The derivative of a
word r with respect to generator j collects +u for every occurrence
r = u x_j v and -(u x_j^-1) for every occurrence r = u x_j^-1 v; this is the
unique derivation with d(x_i)/d(x_j) = delta_ij.

Products run on the term-dict kernel below.  `GroupRingElement` stores a
term dict and builds `Word` and `Fraction` values only in its public views
(`terms`, `coefficient`, `support`, formatting).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .words import (
    CyclicWord,
    Presentation,
    Word,
    _trusted,
    format_word,
    letter_order,
    parse_letters,
)


# -- term-dict kernel ---------------------------------------------------
#
# A term dict maps reduced words, packed into one int each, to nonzero
# coefficients: ints while integral (Fox derivatives and unit-normalized
# rows always are), `Fraction` otherwise; equal ints and Fractions compare
# and hash alike, so nothing observable depends on which.  A packed word of
# rank n has one `_width(n)`-bit digit per letter, first letter most
# significant: x_a is digit a, X_a digit n + a, and the empty word is 0.
# Digits are nonzero, so a word's length is its bit length in whole digits,
# and u*v without cancellation is (u << width*|v|) | v.  Packed words never
# leave `fox` and `novikov`.

Terms = dict[int, int | Fraction]


def _width(rank: int) -> int:
    """Bits per letter digit: whole hex digits holding the digits 1..2*rank."""
    return max(4, 4 * -(-(2 * rank).bit_length() // 4))


def _pack(letters: Iterable[int], rank: int) -> int:
    """The packed form of a letter sequence (`_unpack` inverts it).

    >>> _pack((1, -2, 2), 2) == 0x142
    True
    >>> [_unpack(_pack(w, n), n) for w, n in (((1, -2, 2), 2), ((), 3), ((-9,), 9))]
    [(1, -2, 2), (), (-9,)]
    """
    width = _width(rank)
    w = 0
    for a in letters:
        w = (w << width) | (a if a > 0 else rank - a)
    return w


def _unpack(w: int, rank: int) -> tuple[int, ...]:
    """The letter tuple of a packed word."""
    width, mask, _ = _kernel_tables(rank)
    out = []
    while w:
        d = w & mask
        out.append(d if d <= rank else rank - d)
        w >>= width
    return tuple(reversed(out))


# shared Fraction objects for the small integral coefficients that dominate
_SMALL_FRACTIONS = {c: Fraction(c) for c in range(-16, 17) if c}


def parse_fraction(text: str) -> Fraction:
    """An exact rational such as ``1/6`` or ``0.5``; exponent notation and a
    zero denominator are ValueErrors like any other malformed number.

    >>> parse_fraction("2/12")
    Fraction(1, 6)
    >>> parse_fraction("1/0")
    Traceback (most recent call last):
        ...
    ValueError: zero denominator in '1/0'
    """
    if "e" in text.lower():
        # Fraction would expand a mantissa-exponent form such as 1e-100000000
        # digit by digit before any range check could refuse it
        raise ValueError(f"exponent notation is not accepted: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _coeff(c) -> int | Fraction:
    """An exact coefficient in kernel form; floats are refused, since a
    binary float is not the rational it was meant to be, and text goes
    through `parse_fraction`."""
    if isinstance(c, float):
        raise TypeError(f"group-ring coefficients must be exact, not float: {c!r}")
    c = parse_fraction(c) if isinstance(c, str) else Fraction(c)
    return int(c.numerator) if c.denominator == 1 else c


def _fraction(c: int | Fraction) -> Fraction:
    """The public `Fraction` of a kernel coefficient."""
    return c if type(c) is Fraction else _SMALL_FRACTIONS.get(c) or Fraction(c)


@dataclass(frozen=True, slots=True, eq=False)
class GroupRingElement:
    """Immutable Q[F_n] element: a term dict from packed reduced words to
    nonzero exact coefficients, viewed as a mapping from `Word` to `Fraction`.

    >>> x1 = GroupRingElement.from_letters((1,), rank=2)
    >>> (x1 * x1.inverse_unit()).is_one()
    True
    """

    _terms: Terms
    rank: int

    def __init__(
        self,
        terms: Mapping[Word, Fraction] | Iterable[tuple[Word, Fraction]],
        rank: int,
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = []
        for w, c in items:
            if not isinstance(w, Word):
                raise TypeError("group ring terms are indexed by Word")
            if w.rank != rank:
                raise ValueError("term rank mismatch")
            checked.append((_pack(w.letters, rank), _coeff(c)))
        object.__setattr__(self, "_terms", _add_terms({}, checked))
        object.__setattr__(self, "rank", rank)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(rank: int) -> "GroupRingElement":
        return _trusted(GroupRingElement, {}, rank)

    @staticmethod
    def one(rank: int) -> "GroupRingElement":
        return _trusted(GroupRingElement, {0: 1}, rank)

    @staticmethod
    def from_word(w: Word, coeff: Fraction | int = 1) -> "GroupRingElement":
        return GroupRingElement([(w, coeff)], w.rank)

    @staticmethod
    def from_letters(letters: Sequence[int], rank: int, coeff: Fraction | int = 1):
        return GroupRingElement.from_word(Word(letters, rank), coeff)

    # -- queries ------------------------------------------------------
    def terms(self) -> dict[Word, Fraction]:
        rank = self.rank
        items = self._terms.items()
        return {_trusted(Word, _unpack(w, rank), rank): _fraction(c) for w, c in items}

    def coefficient(self, w: Word) -> Fraction:
        mine = isinstance(w, Word) and w.rank == self.rank
        return _fraction(self._terms.get(_pack(w.letters, self.rank), 0) if mine else 0)

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def support(self) -> list[Word]:
        return [_trusted(Word, w, self.rank) for w, _ in _sorted_terms(self)]

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        acc = _add_terms(dict(self._terms), other._terms.items())
        return _trusted(GroupRingElement, acc, self.rank)

    def __neg__(self) -> "GroupRingElement":
        terms = {w: -c for w, c in self._terms.items()}
        return _trusted(GroupRingElement, terms, self.rank)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def scale(self, c: Fraction | int) -> "GroupRingElement":
        c = _coeff(c)
        terms = {w: _coeff(c * k) for w, k in self._terms.items()} if c else {}
        return _trusted(GroupRingElement, terms, self.rank)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        return ring_multiply(self, other)

    def inverse_unit(self) -> "GroupRingElement":
        """Inverse of a single-term element c*w (a unit of the group ring)."""
        if len(self._terms) != 1:
            raise ValueError("only single-term elements are invertible here")
        (w, c), = self._terms.items()
        inverse = _pack((-a for a in reversed(_unpack(w, self.rank))), self.rank)
        terms = {inverse: _coeff(1 / Fraction(c))}
        return _trusted(GroupRingElement, terms, self.rank)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.rank == other.rank
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"<ring {format_ring_element(self)}>"

    def _check(self, other: "GroupRingElement") -> None:
        if not isinstance(other, GroupRingElement):
            raise TypeError("expected GroupRingElement")
        if other.rank != self.rank:
            raise ValueError("rank mismatch")


def _add_terms(acc: Terms, pairs: Iterable[tuple]) -> Terms:
    """Add (packed word, coefficient) pairs into `acc` in place, dropping zero
    sums; returns `acc`."""
    for w, c in pairs:
        s = acc.get(w, 0) + c
        if s:
            acc[w] = s
        else:
            acc.pop(w, None)
    return acc


def _sorted_terms(e: GroupRingElement) -> list[tuple[tuple[int, ...], int | Fraction]]:
    """(letters, coefficient) pairs in display order: shortest word first,
    then by `letter_order`."""
    items = [(_unpack(w, e.rank), c) for w, c in e._terms.items()]
    return sorted(items, key=lambda t: (len(t[0]), tuple(map(letter_order, t[0]))))


@lru_cache(maxsize=64)
def _kernel_tables(rank: int) -> tuple[int, int, tuple[int, ...]]:
    """Digit width, mask and digit inverses at one rank (-1 for the empty word)."""
    inverse = (-1, *range(rank + 1, 2 * rank + 1), *range(1, rank + 1))
    return _width(rank), (1 << _width(rank)) - 1, inverse


def _mul_terms(a: Terms, b: Terms, rank: int, acc: Terms | None = None) -> Terms:
    """Add the product a*b of rank-`rank` term dicts into `acc` (a new dict
    by default) and return it.

    Both factors hold reduced words, so u*v can cancel only where u ends and
    v begins: while the last digit of u is the inverse of the first digit of
    v, drop both, then join the rest.
    """
    if acc is None:
        acc = {}
    get = acc.get
    width, mask, inverse = _kernel_tables(rank)
    b_items = []  # (v, coefficient, width*|v|, the last digit of u that cancels v)
    for v, cv in b.items():
        shift = -(-v.bit_length() // width) * width
        b_items.append((v, cv, shift, inverse[v >> (shift - width) if v else 0]))
    for u, cu in a.items():
        last = u & mask
        for v, cv, shift, cancels in b_items:
            if cancels == last:
                x, k = u >> width, shift - width
                while k and x & mask == inverse[(v >> (k - width)) & mask]:
                    x >>= width
                    k -= width
                w = (x << k) | (v & ((1 << k) - 1))
            else:
                w = (u << shift) | v
            c = get(w, 0) + cu * cv
            if c:
                acc[w] = c
            else:
                del acc[w]
    return acc


def ring_multiply(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Bilinear extension of concatenate-and-reduce.

    >>> e = parse_ring_element("1*[x1] + 1*[x2]", rank=2)
    >>> f = parse_ring_element("1*[X1] + 1*[x2]", rank=2)
    >>> format_ring_element(ring_multiply(e, f))
    '1*[] + 1*[x1 x2] + 1*[x2 X1] + 1*[x2 x2]'
    """
    a._check(b)
    terms = _mul_terms(a._terms, b._terms, a.rank)
    return _trusted(GroupRingElement, terms, a.rank)


def fox_derivative(r: Word | CyclicWord, j: int) -> GroupRingElement:
    """d(r)/d(x_j): +prefix per x_j occurrence, -(prefix.x_j^-1) per inverse
    occurrence; CyclicWord input differentiates the stored representative.

    >>> r = Word((1, 2, -1, -2), rank=2)
    >>> format_ring_element(fox_derivative(r, 1))
    '1*[] + -1*[x1 x2 X1]'
    >>> format_ring_element(fox_derivative(r, 2))
    '1*[x1] + -1*[x1 x2 X1 X2]'
    """
    rank = r.rank
    if not (1 <= j <= rank):
        raise ValueError("generator index out of range")
    width = _width(rank)
    acc: Terms = {}
    prefix = 0  # packed prefixes of a reduced word are reduced and distinct
    for a in r.letters:
        if a == j:
            acc[prefix] = 1
        prefix = (prefix << width) | (a if a > 0 else rank - a)
        if a == -j:
            acc[prefix] = -1
    return _trusted(GroupRingElement, acc, rank)


@dataclass(frozen=True)
class JacobianMatrix:
    """m x n matrix of Fox derivatives of the relators."""

    entries: tuple[tuple[GroupRingElement, ...], ...]
    rank: int

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return self.rank

    def __getitem__(self, ij: tuple[int, int]) -> GroupRingElement:
        return self.entries[ij[0]][ij[1]]


def jacobian(p: Presentation) -> JacobianMatrix:
    """Row i = Fox derivatives of relator i's basepoint representative."""
    rows = tuple(
        tuple(fox_derivative(r, j) for j in range(1, p.rank + 1)) for r in p.relators
    )
    return JacobianMatrix(rows, p.rank)


# -- text form: `3/2*[x1 X2] + -1*[]` ---------------------------------

_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>-?\d+(?:/\d+)?)\s*\*\s*)?\[(?P<word>[^\]]*)\]\s*$"
)


def format_ring_element(e: GroupRingElement) -> str:
    parts = (f"{c}*[{format_word(w)}]" for w, c in _sorted_terms(e))
    return " + ".join(parts) or "0"


def parse_ring_element(text: str, rank: int) -> GroupRingElement:
    text = text.strip()
    if text == "0":
        return GroupRingElement.zero(rank)
    items: list[tuple[Word, Fraction]] = []
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad group-ring term: {chunk!r}")
        coeff = parse_fraction(m.group("coeff") or "1")
        body = m.group("word").strip()
        letters = parse_letters(body) if body else ()
        items.append((Word(letters, rank), coeff))
    return GroupRingElement(items, rank)
