"""Free-group words as sequences of signed generator indices.

A letter is a nonzero integer: ``3`` means the generator x3, ``-3`` its
inverse.  Words are freely reduced letter tuples, cyclic words are freely
*and* cyclically reduced (first letter is not the inverse of the last).
Cyclic words keep a fixed basepoint representative: rotations are distinct
objects, which matches counting ordered tuples of words and gives a scan
order for "first minimal vertex" searches elsewhere in the package.

Letters are ordered x1 < x1^-1 < x2 < x2^-1 < ...; this fixed order drives
deterministic enumeration and is reused as the well-ordering on integer
vectors wherever one is needed.

Text encoding: ``x3`` is the letter 3, ``X3`` the letter -3; whitespace is
ignored, e.g. ``"x1 x2 X1 X2"``.
"""

from __future__ import annotations

import random
import re
from typing import Iterable, Iterator, Sequence


def letter_inverse(a: int) -> int:
    """Inverse of a letter: x_g <-> x_g^-1."""
    return -a


def letter_order(a: int) -> int:
    """Position of the letter in the fixed order x1 < x1^-1 < x2 < ...

    >>> sorted([2, -1, 1, -2], key=letter_order)
    [1, -1, 2, -2]
    """
    if a == 0:
        raise ValueError("0 is not a letter")
    return 2 * (abs(a) - 1) + (1 if a < 0 else 0)


def _check_letters(letters: Sequence[int], rank: int) -> None:
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    for a in letters:
        if a == 0 or abs(a) > rank:
            raise ValueError(f"letter {a} out of range for rank {rank}")


class Word:
    """A freely reduced word over generators x1..x_rank.

    >>> w = Word((1, 2, -1), 2)
    >>> len(w), w.letters
    (3, (1, 2, -1))
    >>> w.inverse()
    Word('x1 X2 X1', rank=2)
    >>> Word((1, -1), 2)
    Traceback (most recent call last):
        ...
    ValueError: word is not freely reduced at position 0
    """

    __slots__ = ("letters", "rank")

    def __init__(self, letters: Iterable[int], rank: int):
        letters = tuple(letters)
        _check_letters(letters, rank)
        for k in range(len(letters) - 1):
            if letters[k] == -letters[k + 1]:
                raise ValueError(f"word is not freely reduced at position {k}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, k):
        return self.letters[k]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.letters == other.letters
            and self.rank == other.rank
        )

    def __hash__(self) -> int:
        return hash((self.letters, self.rank))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        return reduce(self.letters + other.letters, self.rank)

    def inverse(self) -> "Word":
        return Word(tuple(-a for a in reversed(self.letters)), self.rank)

    def is_identity(self) -> bool:
        return not self.letters

    def is_cyclically_reduced(self) -> bool:
        w = self.letters
        return not w or w[0] != -w[-1]

    def exponent_sum(self, g: int) -> int:
        """Signed count of x_g letters."""
        return sum(1 if a == g else -1 if a == -g else 0 for a in self.letters)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, rank={self.rank})"


def _trusted_word(letters: tuple[int, ...], rank: int) -> Word:
    """A Word from a letter tuple already known to be freely reduced and in
    range for `rank`; nothing is checked."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "rank", rank)
    return w


class CyclicWord:
    """A cyclically reduced word with a marked basepoint representative.

    Edge ``k`` carries letter ``letters[k]`` and joins vertex ``k`` to
    vertex ``k+1 mod l``; vertex 0 is the basepoint.

    >>> r = CyclicWord((1, 2, -1, -2), 2)
    >>> r.cyclic_letter(5)
    2
    >>> r.rotation(1)
    CyclicWord('x2 X1 X2 x1', rank=2)
    """

    __slots__ = ("letters", "rank")

    def __init__(self, letters: Iterable[int], rank: int):
        letters = tuple(letters)
        if not letters:
            raise ValueError("cyclic word must be nonempty")
        _check_letters(letters, rank)
        for k in range(len(letters)):
            if letters[k] == -letters[(k + 1) % len(letters)]:
                raise ValueError(f"word is not cyclically reduced at position {k}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicWord is immutable")

    @property
    def base(self) -> Word:
        """The basepoint representative as a plain Word."""
        return Word(self.letters, self.rank)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CyclicWord)
            and self.letters == other.letters
            and self.rank == other.rank
        )

    def __hash__(self) -> int:
        return hash((CyclicWord, self.letters, self.rank))

    def cyclic_letter(self, k: int) -> int:
        return self.letters[k % len(self.letters)]

    def cyclic_subword(self, start: int, length: int) -> Word:
        """The subword of `length` letters read from cyclic position `start`."""
        if length > len(self.letters):
            raise ValueError("subword longer than the cycle")
        lts = self.letters
        l = len(lts)
        start %= l
        out = lts[start : start + length]
        if len(out) < length:
            out = out + lts[: length - len(out)]
        return Word(out, self.rank)

    def rotation(self, k: int) -> "CyclicWord":
        """Representative with basepoint moved forward by k edges."""
        l = len(self.letters)
        k %= l
        return CyclicWord(self.letters[k:] + self.letters[:k], self.rank)

    def inverse(self) -> "CyclicWord":
        return CyclicWord(tuple(-a for a in reversed(self.letters)), self.rank)

    def exponent_sum(self, g: int) -> int:
        return self.base.exponent_sum(g)

    def __repr__(self) -> str:
        return f"CyclicWord({format_word(self)!r}, rank={self.rank})"


class Substitution:
    """A homomorphism of free groups given by generator images.

    ``images[i]`` is the image of x_{i+1}; all images share a target rank.

    >>> s = Substitution([Word((1, 2), 2), Word((-2, 1), 2)])
    >>> substitute(s, Word((1, 2), 2))
    Word('x1 x1', rank=2)
    """

    __slots__ = ("images", "target_rank")

    def __init__(self, images: Sequence[Word]):
        images = tuple(images)
        if not images:
            raise ValueError("substitution needs at least one generator image")
        ranks = {w.rank for w in images}
        if len(ranks) != 1:
            raise ValueError("generator images have mixed target ranks")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "target_rank", images[0].rank)

    def __setattr__(self, name, value):
        raise AttributeError("Substitution is immutable")

    @property
    def source_rank(self) -> int:
        return len(self.images)

    def image_of_letter(self, a: int) -> Word:
        w = self.images[abs(a) - 1]
        return w if a > 0 else w.inverse()


class Presentation:
    """A group presentation: rank n plus an ordered tuple of relators."""

    __slots__ = ("rank", "relators")

    def __init__(self, rank: int, relators: Sequence[CyclicWord]):
        relators = tuple(relators)
        for r in relators:
            if r.rank != rank:
                raise ValueError("relator rank does not match presentation rank")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "relators", relators)

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    @property
    def deficiency(self) -> int:
        return self.rank - len(self.relators)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presentation)
            and self.rank == other.rank
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.relators))

    def __repr__(self) -> str:
        rels = ", ".join(format_word(r) for r in self.relators)
        return f"Presentation(rank={self.rank}, relators=[{rels}])"


def reduce(letters: Iterable[int], rank: int) -> Word:
    """Freely reduce a raw letter sequence.

    >>> reduce([1, -1], 2).letters
    ()
    >>> reduce([1, 2, -2, 1], 2).letters
    (1, 1)
    >>> reduce([1, -2, 2, -1, 2], 2).letters
    (2,)
    """
    stack: list[int] = []
    for a in letters:
        if a == 0 or abs(a) > rank:
            raise ValueError(f"letter {a} out of range for rank {rank}")
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    return Word(stack, rank)


def reduce_letters(letters: Sequence[int]) -> tuple[int, ...]:
    """Free reduction on a raw tuple, without range checks or Word wrapping."""
    stack: list[int] = []
    for a in letters:
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    return tuple(stack)


def cyclic_reduce(w: Word) -> tuple[CyclicWord, Word]:
    """Split a reduced word as conjugator * base * conjugator^-1.

    Returns (base, conjugator) with base cyclically reduced.  Raises if the
    word cyclically reduces to the empty word.

    >>> base, c = cyclic_reduce(Word((1, 2, -1), 2))
    >>> base.letters, c.letters
    ((2,), (1,))
    """
    lts = w.letters
    lo, hi = 0, len(lts)
    while hi - lo >= 2 and lts[lo] == -lts[hi - 1]:
        lo += 1
        hi -= 1
    if lo == hi:
        raise ValueError("word cyclically reduces to the empty word")
    return CyclicWord(lts[lo:hi], w.rank), Word(lts[:lo], w.rank)


def substitute(s: Substitution, w: Word) -> Word:
    """Apply a substitution homomorphism and freely reduce the image."""
    if w.rank > s.source_rank:
        raise ValueError(
            f"word over rank {w.rank} but substitution has {s.source_rank} images"
        )
    out: list[int] = []
    for a in w.letters:
        out.extend(s.image_of_letter(a).letters)
    return reduce(out, s.target_rank)


def _letters_in_order(rank: int) -> list[int]:
    out = []
    for g in range(1, rank + 1):
        out.append(g)
        out.append(-g)
    return out


def enumerate_cyclically_reduced(rank: int, length: int) -> Iterator[CyclicWord]:
    """Yield every cyclically reduced word of the given length, in the
    lexicographic order induced by x1 < x1^-1 < x2 < x2^-1 < ...

    >>> [format_word(w) for w in enumerate_cyclically_reduced(1, 2)]
    ['x1 x1', 'X1 X1']
    """
    if rank < 1 or length < 1:
        raise ValueError("rank and length must be at least 1")
    alphabet = _letters_in_order(rank)
    prefix: list[int] = []

    def rec() -> Iterator[CyclicWord]:
        if len(prefix) == length:
            if prefix[0] != -prefix[-1] or length == 1:
                yield CyclicWord(tuple(prefix), rank)
            return
        for a in alphabet:
            if prefix and prefix[-1] == -a:
                continue
            prefix.append(a)
            yield from rec()
            prefix.pop()

    return rec()


def count_cyclically_reduced(rank: int, length: int) -> int:
    """Number of cyclically reduced words of the given length.

    Closed form (2n-1)^l + (1 if l is odd else 2n-1), the trace of the l-th
    power of the 2n x 2n non-backtracking letter matrix;
    `enumerate_cyclically_reduced` is the oracle.

    >>> count_cyclically_reduced(2, 3), count_cyclically_reduced(2, 4)
    (28, 84)
    """
    if rank < 1 or length < 1:
        raise ValueError("rank and length must be at least 1")
    q = 2 * rank - 1
    return q**length + (1 if length % 2 else q)


def sample_reduced(rank: int, length: int, rng: random.Random) -> Word:
    """Uniform freely reduced word: non-backtracking letter walk."""
    if rank < 1 or length < 0:
        raise ValueError("need rank >= 1 and length >= 0")
    letters: list[int] = []
    alphabet = _letters_in_order(rank)
    for _ in range(length):
        if letters:
            choices = [a for a in alphabet if a != -letters[-1]]
        else:
            choices = alphabet
        letters.append(choices[rng.randrange(len(choices))])
    return Word(letters, rank)


def sample_cyclically_reduced(rank: int, length: int, rng) -> CyclicWord:
    """Uniform cyclically reduced word of the given length, by rejection.

    Draws uniform non-backtracking sequences (first letter uniform over 2n,
    each later letter uniform over the 2n-1 non-cancelling ones) and accepts
    iff the result is cyclically reduced.  Every cyclically reduced word has
    the same chance per draw, so acceptance gives the exact uniform
    distribution; the acceptance rate is at least (2n-2)/(2n-1).

    `rng` is a random.Random instance or an integer seed.
    """
    if rank < 2:
        raise ValueError("sampling needs rank >= 2")
    if length < 1:
        raise ValueError("length must be >= 1")
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    while True:
        w = sample_reduced(rank, length, rng)
        if w.is_cyclically_reduced():
            return CyclicWord(w.letters, rank)


_LETTER_RE = re.compile(r"[xX][1-9][0-9]*")


def parse_letters(text: str) -> tuple[int, ...]:
    """Parse the text encoding into a raw letter tuple (no reduction)."""
    stripped = re.sub(r"\s+", "", text)
    pos = 0
    out: list[int] = []
    while pos < len(stripped):
        m = _LETTER_RE.match(stripped, pos)
        if not m:
            raise ValueError(f"bad word syntax at {stripped[pos:pos + 10]!r}")
        tok = m.group(0)
        g = int(tok[1:])
        out.append(g if tok[0] == "x" else -g)
        pos = m.end()
    return tuple(out)


def parse_word(text: str, rank: int | None = None) -> Word:
    """Parse and freely reduce a word in the text encoding.

    >>> parse_word("x1 x2 X1 X2").letters
    (1, 2, -1, -2)
    """
    letters = parse_letters(text)
    if rank is None:
        rank = max((abs(a) for a in letters), default=0)
    return reduce(letters, rank)


def parse_cyclic_word(text: str, rank: int | None = None) -> CyclicWord:
    """Parse a cyclically reduced word; raises if the text is not one."""
    letters = parse_letters(text)
    if rank is None:
        rank = max((abs(a) for a in letters), default=0)
    return CyclicWord(letters, rank)


def format_word(w: Word | CyclicWord | Sequence[int]) -> str:
    """Render letters in the text encoding; the empty word renders as ''."""
    letters = w.letters if isinstance(w, (Word, CyclicWord)) else tuple(w)
    return " ".join(f"x{a}" if a > 0 else f"X{-a}" for a in letters)
