"""Exact arithmetic in the rational group ring of a free group, and the free
differential (Fox) calculus.

Elements are finite Q-linear combinations of freely reduced words; all
coefficients are `fractions.Fraction`, never floats.  The derivative of a
word r with respect to generator j collects +u for every occurrence
r = u x_j v and -(u x_j^-1) for every occurrence r = u x_j^-1 v; this is the
unique derivation with d(x_i)/d(x_j) = delta_ij.

Products run on a term-dict kernel: a dict from reduced letter tuples to
nonzero coefficients, kept as Python ints while they are integral (Fox
derivatives and unit-normalized rows always are) and as `Fraction` only
otherwise.  `GroupRingElement` is the validated public view of such a dict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .words import (
    CyclicWord,
    Presentation,
    Word,
    _trusted_word,
    format_word,
    letter_order,
    parse_letters,
)


class GroupRingElement:
    """Immutable Q[F_n] element: mapping from reduced words to rationals.

    >>> x1 = GroupRingElement.from_letters((1,), rank=2)
    >>> (x1 * x1.inverse_unit()).is_one()
    True
    """

    __slots__ = ("_terms", "rank")

    def __init__(
        self,
        terms: Mapping[Word, Fraction] | Iterable[tuple[Word, Fraction]],
        rank: int,
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Word, Fraction] = {}
        for w, c in items:
            if not isinstance(w, Word):
                raise TypeError("group ring terms are indexed by Word")
            if w.rank != rank:
                raise ValueError("term rank mismatch")
            c = Fraction(c)
            if w in acc:
                c = acc[w] + c
            if c == 0:
                acc.pop(w, None)
            else:
                acc[w] = c
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, *args):
        raise AttributeError("GroupRingElement is immutable")

    @staticmethod
    def _trusted(terms: dict[Word, Fraction], rank: int) -> "GroupRingElement":
        """Wrap a dict already known to hold rank-`rank` words with nonzero
        `Fraction` coefficients; nothing is checked or copied."""
        e = object.__new__(GroupRingElement)
        object.__setattr__(e, "_terms", terms)
        object.__setattr__(e, "rank", rank)
        return e

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(rank: int) -> "GroupRingElement":
        return GroupRingElement((), rank)

    @staticmethod
    def one(rank: int) -> "GroupRingElement":
        return GroupRingElement([(Word((), rank), Fraction(1))], rank)

    @staticmethod
    def from_word(w: Word, coeff: Fraction | int = 1) -> "GroupRingElement":
        return GroupRingElement([(w, Fraction(coeff))], w.rank)

    @staticmethod
    def from_letters(letters: Sequence[int], rank: int, coeff: Fraction | int = 1):
        return GroupRingElement.from_word(Word(letters, rank), coeff)

    # -- queries ------------------------------------------------------
    def terms(self) -> dict[Word, Fraction]:
        return dict(self._terms)

    def coefficient(self, w: Word) -> Fraction:
        return self._terms.get(w, Fraction(0))

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self == GroupRingElement.one(self.rank)

    def support(self) -> list[Word]:
        return sorted(self._terms, key=_word_sort_key)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        acc = dict(self._terms)
        for w, c in other._terms.items():
            s = acc.get(w, Fraction(0)) + c
            if s == 0:
                acc.pop(w, None)
            else:
                acc[w] = s
        return GroupRingElement._trusted(acc, self.rank)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement._trusted(
            {w: -c for w, c in self._terms.items()}, self.rank
        )

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def scale(self, c: Fraction | int) -> "GroupRingElement":
        c = Fraction(c)
        if c == 0:
            return GroupRingElement.zero(self.rank)
        return GroupRingElement._trusted(
            {w: c * k for w, k in self._terms.items()}, self.rank
        )

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        return ring_multiply(self, other)

    def inverse_unit(self) -> "GroupRingElement":
        """Inverse of a single-term element c*w (a unit of the group ring)."""
        if len(self._terms) != 1:
            raise ValueError("only single-term elements are invertible here")
        (w, c), = self._terms.items()
        return GroupRingElement([(w.inverse(), 1 / c)], self.rank)

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


def _word_sort_key(w: Word):
    return (len(w), tuple(letter_order(a) for a in w.letters))


# -- term-dict kernel ---------------------------------------------------
#
# A term dict maps freely reduced letter tuples to nonzero coefficients,
# ints while integral, `Fraction` otherwise.

Terms = dict[tuple[int, ...], int | Fraction]


def _kernel_terms(e: GroupRingElement) -> Terms:
    """Term dict of a public element, integral coefficients as ints."""
    return {
        w.letters: c.numerator if c.denominator == 1 else c
        for w, c in e._terms.items()
    }


# shared Fraction objects for the small integral coefficients that dominate
_SMALL_FRACTIONS = {c: Fraction(c) for c in range(-16, 17) if c}


def _from_kernel(terms: Terms, rank: int) -> GroupRingElement:
    """Trusted constructor for kernel output: the words are reduced and in
    range by construction and the coefficients nonzero, so only the public
    types are built."""
    small = _SMALL_FRACTIONS.get
    return GroupRingElement._trusted(
        {
            _trusted_word(w, rank): small(c) or Fraction(c)
            for w, c in terms.items()
        },
        rank,
    )


def _mul_terms(a: Terms, b: Terms, acc: Terms | None = None) -> Terms:
    """Add the product a*b into `acc` (a new dict by default) and return it.

    Both factors hold reduced words, so u*v can cancel only where u ends and
    v begins: strip the longest suffix of u that is inverse to a prefix of
    v and join the rest.
    """
    if acc is None:
        acc = {}
    get = acc.get
    b_items = list(b.items())
    for u, cu in a.items():
        nu = len(u)
        last_inv = -u[-1] if u else 0
        for v, cv in b_items:
            if v and v[0] == last_inv:
                k = 1
                top = min(nu, len(v))
                while k < top and u[nu - 1 - k] == -v[k]:
                    k += 1
                w = u[: nu - k] + v[k:]
            else:
                w = u + v
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
    return _from_kernel(_mul_terms(_kernel_terms(a), _kernel_terms(b)), a.rank)


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
    letters = r.letters
    acc: Terms = {}
    # prefixes of a reduced word are reduced
    for k, a in enumerate(letters):
        if a == j:
            w, c = letters[:k], 1
        elif a == -j:
            w, c = letters[: k + 1], -1
        else:
            continue
        s = acc.get(w, 0) + c
        if s:
            acc[w] = s
        else:
            del acc[w]
    return _from_kernel(acc, rank)


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
    if e.is_zero():
        return "0"
    parts = []
    for w in e.support():
        body = format_word(w) if len(w) else ""
        parts.append(f"{e.coefficient(w)}*[{body}]")
    return " + ".join(parts)


def parse_ring_element(text: str, rank: int) -> GroupRingElement:
    text = text.strip()
    if text == "0":
        return GroupRingElement.zero(rank)
    items: list[tuple[Word, Fraction]] = []
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad group-ring term: {chunk!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        body = m.group("word").strip()
        letters = parse_letters(body) if body else ()
        items.append((Word(letters, rank), coeff))
    return GroupRingElement(items, rank)
