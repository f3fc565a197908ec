"""Free-group words as sequences of signed generator indices.

A letter is a nonzero integer: ``3`` means the generator x3, ``-3`` its
inverse.  Words are freely reduced letter tuples, cyclic words are freely
*and* cyclically reduced (first letter is not the inverse of the last).
Reducedness is checked in C, as no zero sum of neighbours (a and -a sum to 0).
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

import operator
import random
import re
from dataclasses import dataclass
from functools import cache
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
    """Raise unless every distinct letter is a value in +-1..+-rank, so integral."""
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    bad = [a for a in set(letters) if not (0 < abs(a) <= rank and a == int(a))]
    if bad:
        raise ValueError(f"letter {min(bad, key=letters.index)} out of range for rank {rank}")


class _Letters:
    """What `Word` and `CyclicWord` share: a letter tuple over a rank."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def exponent_sum(self, g: int) -> int:
        """Signed count of x_g letters."""
        return self.letters.count(g) - self.letters.count(-g)

    def inverse(self):
        return _trusted(type(self), tuple(map(operator.neg, reversed(self.letters))), self.rank)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_word(self)!r}, rank={self.rank})"


@dataclass(frozen=True, slots=True, repr=False, init=False)
class Word(_Letters):
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

    letters: tuple[int, ...]
    rank: int

    def __init__(self, letters: Iterable[int], rank: int):
        letters = tuple(letters)
        _check_letters(letters, rank)
        if not all(map(operator.add, letters, letters[1:])):  # the loop only names the position
            k = next(k for k in range(len(letters) - 1) if letters[k] == -letters[k + 1])
            raise ValueError(f"word is not freely reduced at position {k}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "rank", rank)

    def __getitem__(self, k):
        return self.letters[k]

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        return reduce(self.letters + other.letters, self.rank)

    def is_identity(self) -> bool:
        return not self.letters

    def is_cyclically_reduced(self) -> bool:
        w = self.letters
        return not w or w[0] != -w[-1]


@dataclass(frozen=True, slots=True, repr=False, init=False)
class CyclicWord(_Letters):
    """A cyclically reduced word with a marked basepoint representative.

    Edge ``k`` carries letter ``letters[k]`` and joins vertex ``k`` to
    vertex ``k+1 mod l``; vertex 0 is the basepoint.

    >>> r = CyclicWord((1, 2, -1, -2), 2)
    >>> r.cyclic_letter(5)
    2
    >>> r.rotation(1)
    CyclicWord('x2 X1 X2 x1', rank=2)
    """

    letters: tuple[int, ...]
    rank: int

    def __init__(self, letters: Iterable[int], rank: int):
        letters = tuple(letters)
        if not letters:
            raise ValueError("cyclic word must be nonempty")
        _check_letters(letters, rank)
        after = letters[1:] + letters[:1]
        if not all(map(operator.add, letters, after)):  # the loop only names the position
            k = next(k for k, (a, b) in enumerate(zip(letters, after)) if a == -b)
            raise ValueError(f"word is not cyclically reduced at position {k}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "rank", rank)

    def cyclic_letter(self, k: int) -> int:
        return self.letters[k % len(self.letters)]

    def cyclic_subword(self, start: int, length: int) -> Word:
        """The subword of `length` letters read from cyclic position `start`."""
        if length < 0:
            raise ValueError(f"negative subword length {length}")
        if length > len(self.letters):
            raise ValueError("subword longer than the cycle")
        lts = self.letters
        start %= len(lts)
        out = lts[start : start + length]
        if len(out) < length:
            out = out + lts[: length - len(out)]
        return _trusted(Word, out, self.rank)

    def rotation(self, k: int) -> "CyclicWord":
        """Representative with basepoint moved forward by k edges."""
        l = len(self.letters)
        k %= l
        return _trusted(CyclicWord, self.letters[k:] + self.letters[:k], self.rank)


def _trusted(cls, *values):
    """An instance of the frozen slotted dataclass `cls` holding `values` in
    field order, built without a check or a copy.

    The caller vouches for what the validating constructor would check:
    letter tuples are reduced (cyclically, for a `CyclicWord`) and in range,
    a `Slope` holds plain ints, and a `GroupRingElement`'s term dict holds
    reduced words with nonzero coefficients; that dict is handed over, and
    the caller never mutates it again.
    """
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Substitution:
    """A homomorphism of free groups given by generator images.

    ``images[i]`` is the image of x_{i+1}; all images share a target rank.
    ``letter_images[a]`` is the image's letters for the letter a, from the
    table ((), w_1, .., w_n, w_n^-1, .., w_1^-1): a negative a wraps to an inverse.

    >>> s = Substitution([Word((1, 2), 2), Word((-2, 1), 2)])
    >>> substitute(s, Word((1, 2), 2))
    Word('x1 x1', rank=2)
    >>> s.raw_image(Word((1, -2), 2))
    [1, 2, -1, 2]
    >>> s.letter_images[-1]
    (-2, -1)
    """

    images: tuple[Word, ...]
    target_rank: int
    letter_images: tuple[tuple[int, ...], ...]

    def __init__(self, images: Sequence[Word]):
        images = tuple(images)
        if not images:
            raise ValueError("substitution needs at least one generator image")
        if len({w.rank for w in images}) != 1:
            raise ValueError("generator images have mixed target ranks")
        letters = [w.letters for w in images]
        inverses = [w.inverse().letters for w in reversed(images)]
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "target_rank", images[0].rank)
        object.__setattr__(self, "letter_images", ((), *letters, *inverses))

    @property
    def source_rank(self) -> int:
        return len(self.images)

    def raw_image(self, w: Word | CyclicWord) -> list[int]:
        """The letters of the images of w's letters, concatenated without
        free reduction."""
        images = self._images_of(w)
        out: list[int] = []
        for a in w.letters:
            out.extend(images[a])
        return out

    def _images_of(self, w: Word | CyclicWord) -> tuple[tuple[int, ...], ...]:
        """The letter images, once w is known to be over the source rank."""
        if w.rank > self.source_rank:
            raise ValueError(
                f"word over rank {w.rank} but substitution has {self.source_rank} images"
            )
        return self.letter_images


@dataclass(frozen=True, slots=True)
class Presentation:
    """A group presentation: rank n plus an ordered tuple of relators."""

    rank: int
    relators: tuple[CyclicWord, ...]

    def __init__(self, rank: int, relators: Sequence[CyclicWord]):
        relators = tuple(relators)
        for r in relators:
            if r.rank != rank:
                raise ValueError("relator rank does not match presentation rank")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "relators", relators)

    def __repr__(self) -> str:
        rels = ", ".join(format_word(r) for r in self.relators)
        return f"Presentation(rank={self.rank}, relators=[{rels}])"


def shared_rank(relators: Sequence[CyclicWord]) -> int:
    """The rank of a nonempty relator tuple; raises unless every relator
    has it."""
    if len(relators) == 0:
        raise ValueError("need at least one relator")
    rank = relators[0].rank
    if any(r.rank != rank for r in relators):
        raise ValueError("relators must share a rank")
    return rank


def reduce(letters: Iterable[int], rank: int) -> Word:
    """Freely reduce a raw letter sequence.

    >>> reduce([1, -1], 2).letters
    ()
    >>> reduce([1, 2, -2, 1], 2).letters
    (1, 1)
    >>> reduce([1, -2, 2, -1, 2], 2).letters
    (2,)
    """
    letters = tuple(letters)
    _check_letters(letters, rank)
    return _trusted(Word, reduce_letters(letters), rank)


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
    return _trusted(CyclicWord, lts[lo:hi], w.rank), _trusted(Word, lts[:lo], w.rank)


def substitute(s: Substitution, w: Word | CyclicWord) -> Word:
    """Apply a substitution homomorphism to a word, or to a cyclic word read
    from its basepoint, and freely reduce the image.

    Every image is reduced, so letters cancel only where the image of the next
    letter meets the reduced image so far: each image is appended after
    cancelling its head against that tail."""
    images = s._images_of(w)
    out: list[int] = []
    for a in w.letters:
        image = images[a]
        j = 0
        while out and j < len(image) and out[-1] == -image[j]:
            out.pop()
            j += 1
        out.extend(image[j:] if j else image)
    return _trusted(Word, tuple(out), s.target_rank)


@cache
def _letters_in_order(rank: int) -> tuple[int, ...]:
    return tuple(a for g in range(1, rank + 1) for a in (g, -g))


def enumerate_cyclically_reduced(rank: int, length: int) -> Iterator[CyclicWord]:
    """Yield every cyclically reduced word of the given length, in the
    lexicographic order induced by x1 < x1^-1 < x2 < x2^-1 < ...

    >>> [format_word(w) for w in enumerate_cyclically_reduced(1, 2)]
    ['x1 x1', 'X1 X1']
    """
    if rank < 1 or length < 1:
        raise ValueError("rank and length must be at least 1")
    alphabet = _letters_in_order(rank)
    # depth-first over reduced prefixes; children are pushed in reverse
    follow = {a: [b for b in reversed(alphabet) if b != -a] for a in alphabet}

    def words() -> Iterator[CyclicWord]:
        stack = [(a,) for a in reversed(alphabet)]
        while stack:
            w = stack.pop()
            if len(w) < length:
                stack += [w + (b,) for b in follow[w[-1]]]
            elif length == 1 or w[-1] != -w[0]:
                yield _trusted(CyclicWord, w, rank)

    return words()


def enumerate_necklaces(rank: int, length: int) -> Iterator[tuple[CyclicWord, int]]:
    """Yield one cyclically reduced word per rotation class, as (least
    rotation, period), in the lexicographic order of
    `enumerate_cyclically_reduced`; the period is the size of the class.

    FKM generation (Ruskey-Savage-Wang 1992) of the prenecklaces over the
    letter order: a prefix a_1..a_t whose longest Lyndon prefix has length
    p is extended by a_{t+1-p} (keeping p) or by any later letter (p becomes
    t+1), and a full prefix is a necklace of period p iff p divides the
    length.  A prefix of a necklace is a prenecklace, so cutting every
    prefix whose last two letters are inverse loses no reduced necklace;
    the wrap (last letter against first) is checked at full length.

    >>> [(format_word(w), p) for w, p in enumerate_necklaces(1, 2)]
    [('x1 x1', 1), ('X1 X1', 1)]
    >>> [(format_word(w), p) for w, p in enumerate_necklaces(2, 2)][:3]
    [('x1 x1', 1), ('x1 x2', 2), ('x1 X2', 2)]
    """
    if rank < 1 or length < 1:
        raise ValueError("rank and length must be at least 1")
    alphabet = _letters_in_order(rank)
    k = len(alphabet)

    def necklaces() -> Iterator[tuple[CyclicWord, int]]:
        # a[t] is the letter index at position t (1-based; a[0] is unused);
        # index i ^ 1 is the inverse of index i.  A stack entry (t, p, i)
        # sets a[t] = i with Lyndon-prefix length p; children are pushed
        # largest first, so they pop in ascending order.
        a = [0] * (length + 1)
        stack = [(1, 1, i) for i in range(k - 1, -1, -1)]
        while stack:
            t, p, i = stack.pop()
            a[t] = i
            if t == length:
                if length % p == 0 and a[1] != i ^ 1:
                    yield _trusted(CyclicWord, tuple([alphabet[j] for j in a[1:]]), rank), p
                continue
            back, bad = a[t + 1 - p], i ^ 1
            stack += [(t + 1, t + 1, j) for j in range(k - 1, back, -1) if j != bad]
            if back != bad:
                stack.append((t + 1, p, back))

    return necklaces()


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
    return _trusted(Word, _walk(rank, length, rng), rank)


def _walk(rank: int, length: int, rng: random.Random) -> tuple[int, ...]:
    """The letters of a uniform non-backtracking walk.

    The first letter is alphabet[i] for i uniform below 2n, each later one
    is one of the alphabet minus the previous letter alphabet[i]'s inverse,
    alphabet[i ^ 1]: choice k below 2n-1 is alphabet[k + (k >= i ^ 1)].
    A draw below q takes ``getrandbits(q.bit_length())`` until the value is
    below q, which is how CPython's ``rng.randrange(q)`` draws, so the walk
    reads the same bits as ``randrange(2n)`` then ``randrange(2n-1)``
    calls and leaves the generator in the same state."""
    if not length:
        return ()
    alphabet = _letters_in_order(rank)
    bits = rng.getrandbits
    q = 2 * rank - 1
    k = (q + 1).bit_length()
    i = bits(k)
    while i > q:
        i = bits(k)
    letters = [alphabet[i]]
    append = letters.append
    k = q.bit_length()
    for _ in range(length - 1):
        c = bits(k)
        while c >= q:
            c = bits(k)
        i = c + (c >= i ^ 1)
        append(alphabet[i])
    return tuple(letters)


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
        w = _walk(rank, length, rng)
        if w[0] != -w[-1]:
            return _trusted(CyclicWord, w, rank)


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


def infer_rank(words: Iterable[Sequence[int]]) -> int:
    """The least rank holding every letter of `words`."""
    return max((abs(a) for w in words for a in w), default=0)


def parse_word(text: str, rank: int | None = None) -> Word:
    """Parse and freely reduce a word in the text encoding.

    >>> parse_word("x1 x2 X1 X2").letters
    (1, 2, -1, -2)
    """
    letters = parse_letters(text)
    return reduce(letters, rank if rank is not None else infer_rank([letters]))


def parse_cyclic_word(text: str, rank: int | None = None) -> CyclicWord:
    """Parse a cyclically reduced word; raises if the text is not one."""
    letters = parse_letters(text)
    return CyclicWord(letters, rank if rank is not None else infer_rank([letters]))


def format_word(w: Word | CyclicWord | Sequence[int]) -> str:
    """Render letters in the text encoding; the empty word renders as ''."""
    letters = w.letters if isinstance(w, (Word, CyclicWord)) else tuple(w)
    return " ".join(f"x{a}" if a > 0 else f"X{-a}" for a in letters)
