"""Abelianization data for a presentation: exponent-sum matrix, first Betti
number, and the lattice of slopes.

A slope is a homomorphism phi: F_n -> Z recorded by its values on the
generators.  The slopes that matter are those annihilating every relator,
i.e. the integer kernel of the exponent-sum matrix; a slope is *valid* when
additionally no generator maps to 0.  All arithmetic here is exact integer
arithmetic (Hermite elimination), never floating point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .words import CyclicWord, Presentation, Word, _trusted


@dataclass(frozen=True, slots=True)
class Slope:
    """Integer vector of generator images under phi: F_n -> Z; each value
    must be an integer (`operator.index`), so a float raises TypeError.

    >>> phi = Slope((0, -1))
    >>> phi.of_letter(2), phi.of_letter(-2), phi.of_letter(1)
    (-1, 1, 0)
    """

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        object.__setattr__(self, "values", tuple(map(operator.index, values)))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> int:
        return self.values[k]

    def of_generator(self, g: int) -> int:
        return self.values[g - 1]

    def of_letter(self, a: int) -> int:
        v = self.values[abs(a) - 1]
        return v if a > 0 else -v

    def of_word(self, w: Word | CyclicWord | Sequence[int]) -> int:
        letters = w.letters if isinstance(w, (Word, CyclicWord)) else w
        return sum(self.of_letter(a) for a in letters)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def is_valid(self) -> bool:
        return all(v != 0 for v in self.values)

    def __neg__(self) -> "Slope":
        return Slope(tuple(-v for v in self.values))

    def scaled(self, c: int) -> "Slope":
        return Slope(tuple(c * v for v in self.values))


@dataclass(frozen=True)
class AbelMatrix:
    """m x n exponent-sum matrix; row i counts the letters of relator i."""

    rows: tuple[tuple[int, ...], ...]
    rank: int  # ambient generator count n

    @property
    def nrows(self) -> int:
        return len(self.rows)


def abelianization_matrix(p: Presentation) -> AbelMatrix:
    """Entry (i, j) is the signed count of x_j letters in relator i.

    >>> from .words import parse_cyclic_word
    >>> r = parse_cyclic_word("x1 x2 x1 X2", rank=2)
    >>> abelianization_matrix(Presentation(2, [r])).rows
    ((2, 0),)
    """
    gens = range(1, p.rank + 1)
    rows = tuple(
        tuple([r.letters.count(g) - r.letters.count(-g) for g in gens])
        for r in p.relators
    )
    return AbelMatrix(rows, p.rank)


def _columns(rows: Sequence[Sequence[int]], ncols: int | None = None) -> int:
    """ncols, or the first row's length (0 for no rows); every row must have it."""
    n = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    for r in rows:  # a plain loop: a third of the cost of any() on small matrices
        if len(r) != n:
            raise ValueError("ragged matrix")
    return n


def _identity(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def smith_normal_form(
    rows: Sequence[Sequence[int]], ncols: int | None = None
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Exact Smith normal form D = U * A * V with U, V unimodular.

    Returns (D, U, V); D is diagonal with d_1 | d_2 | ... and nonnegative
    diagonal entries.  No runtime path calls it: ranks and kernels come
    from `matrix_rank` and `hermite_row_basis`.

    At diagonal position t the pivot p is the entry of least absolute value
    in the block A[t:, t:], the first in row-major order on a tie (so a
    pivot already at (t, t) stays there), swapped to (t, t).  Floor
    division by p clears row t and column t down to remainders smaller
    than |p|, and a nonzero remainder is the next pivot.  Once they are
    clear, a block entry that p does not divide has its row added to row t,
    where the next clearing leaves such a remainder.  So |p| falls every
    time the position is taken again, and the elimination terminates.

    >>> smith_normal_form([[2, 4], [6, 8]])[0]
    [[2, 0], [0, 4]]
    """
    n = _columns(rows, ncols)
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    U, V = _identity(m), _identity(n)

    def add_row(dst: int, src: int, c: int) -> None:  # row dst += c * row src
        for M in (A, U):
            M[dst] = [a + c * b for a, b in zip(M[dst], M[src])]

    for t in range(min(m, n)):
        while True:
            block = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
            if not block:
                return A, U, V
            _, i, j = min(block)
            A[t], A[i], U[t], U[i] = A[i], A[t], U[i], U[t]
            for row in A + V:
                row[t], row[j] = row[j], row[t]
            p = A[t][t]
            for i in range(t + 1, m):
                add_row(i, t, -(A[i][t] // p))
            for j in range(t + 1, n):
                q = A[t][j] // p
                for row in A + V:
                    row[j] -= q * row[t]
            if any(A[i][t] for i in range(t + 1, m)) or any(A[t][t + 1 :]):
                continue
            bad = next((i for i in range(t + 1, m) if any(x % p for x in A[i][t + 1 :])), None)
            if bad is None:
                break
            add_row(t, bad, 1)
        if A[t][t] < 0:
            A[t], U[t] = [-a for a in A[t]], [-a for a in U[t]]
    return A, U, V


def hermite_row_basis(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite reduction of a lattice basis: staircase pivots,
    positive pivot entries, entries above each pivot reduced into [0, pivot).
    Zero rows are dropped.  Canonical for the row lattice.

    >>> hermite_row_basis([[2, 4], [3, 5], [0, 0]])
    [[1, 1], [0, 2]]
    """
    n = _columns(vectors)
    work = [list(map(int, v)) for v in vectors if any(v)]
    basis: list[list[int]] = []
    # sweep columns left to right; rows in `work` are zero left of the
    # current column, so the pivot columns come out strictly increasing
    for j in range(n):
        if not work:
            break
        live: list[list[int]] = []
        rest: list[list[int]] = []
        for r in work:
            (live if r[j] else rest).append(r)
        work = rest
        if not live:
            continue
        piv = live.pop()
        while live:
            other = live.pop()
            while other[j] != 0:
                q = piv[j] // other[j]
                piv = [a - q * b for a, b in zip(piv, other)]
                piv, other = other, piv
            if any(other):
                work.append(other)
        if piv[j] < 0:
            piv = [-a for a in piv]
        # reduce the earlier rows above this pivot; later pivot rows are
        # zero in column j, so column j stays reduced
        for i, row in enumerate(basis):
            q = row[j] // piv[j]
            if q:
                basis[i] = [a - q * c for a, c in zip(row, piv)]
        basis.append(piv)
    return basis


def matrix_rank(rows: Sequence[Sequence[int]], ncols: int | None = None) -> int:
    """Rank of an integer matrix, by forward elimination with gcd-normalised
    rows: each row is cleared, column by column, against the pivot rows
    kept so far, and becomes the pivot row of the first column it still
    leads.  The rank is the number of pivot rows; nothing is back-reduced.

    >>> matrix_rank([[2, 4], [1, 2], [0, 0]]), matrix_rank([[2, 4], [1, 3]])
    (1, 2)
    """
    n = _columns(rows, ncols)
    pivots: dict[int, list[int]] = {}  # column -> the row leading there
    for r in rows:
        r = list(map(int, r))
        for j in range(n):
            c = r[j]
            if not c:
                continue
            p = pivots.get(j)
            if p is None:
                pivots[j] = r
                break
            a = p[j]
            r = [a * x - c * y for x, y in zip(r, p)]
            g = math.gcd(*r)
            if g > 1:
                r = [x // g for x in r]
    return len(pivots)


def first_betti_number(p: Presentation) -> int:
    """Rank of the free part of the abelianized group: n - rank(A), exactly.

    >>> from .words import parse_cyclic_word
    >>> r = parse_cyclic_word("x1 x2 X1 X2", rank=2)
    >>> first_betti_number(Presentation(2, [r]))
    2
    """
    return p.rank - matrix_rank(abelianization_matrix(p).rows, p.rank)


def slope_basis(p: Presentation) -> list[Slope]:
    """Primitive basis of the kernel lattice {phi : phi(r_i) = 0 for all i}.

    The basis is Hermite-reduced and each vector is normalized so that its
    first nonzero entry is negative; for a rank-1 kernel this is exactly the
    sign rule used by the commutator-insertion maps (first nonzero value of
    phi negative).  Rank-0 kernels give an empty list.

    The kernel comes from one Hermite reduction of the n x (m+n) matrix
    [A^T | I_n], whose row lattice is {(x A^T, x)}: the reduced rows with a
    zero A^T part are the kernel's Hermite basis in their last n entries
    (Cohen 1993, 2.4.3).  Their pivots are positive, so negating each row
    makes its first nonzero entry negative.

    >>> from .words import parse_cyclic_word
    >>> slope_basis(Presentation(2, [parse_cyclic_word("x1 x2")]))
    [Slope(values=(-1, 1))]
    """
    A = abelianization_matrix(p)
    n, m = p.rank, A.nrows
    rows = [[r[j] for r in A.rows] + [int(i == j) for i in range(n)] for j in range(n)]
    return [
        _trusted(Slope, tuple([-a for a in row[m:]]))
        for row in hermite_row_basis(rows)
        if not any(row[:m])
    ]


def _coefficient_range(s: int, pv: int, box: int) -> range:
    """The integers c with |s + c*pv| <= box (pv != 0), by exact floor
    division: c*pv must lie in [-box - s, box - s].

    >>> list(_coefficient_range(1, 2, 4)), list(_coefficient_range(1, -2, 4))
    ([-2, -1, 0, 1], [-1, 0, 1, 2])
    """
    lo, hi = -box - s, box - s
    if pv < 0:
        lo, hi = hi, lo
    return range(-(-lo // pv), hi // pv + 1)


def _coefficient_box_points(basis: list[Slope], box: int) -> Iterator[tuple[int, ...]]:
    """The lattice points of the span with max-norm <= box, lazily, in
    ascending lexicographic order.

    Walks the Hermite staircase depth first.  Row a fixes the coordinates
    from its pivot up to the next pivot (later rows are zero there), so its
    coefficients are limited to the exact ranges those coordinates allow
    and no point outside the box is ever built.  Points that agree before
    row a's pivot are ordered by their pivot entry, which moves with the
    coefficient c in the sign of the pivot, so c runs ascending under a
    positive pivot and descending under a negative one."""
    if not basis:
        return
    rows = [b.values for b in basis]
    n = len(rows[0])
    pivots = [next(j for j, v in enumerate(row) if v) for row in rows] + [n]
    last = len(rows) - 1

    def walk(a: int, p: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        row = rows[a]
        fixed = range(pivots[a], pivots[a + 1])
        if any(not row[i] and abs(p[i]) > box for i in fixed):
            return
        rs = [_coefficient_range(p[i], row[i], box) for i in fixed if row[i]]
        cs = range(max(r.start for r in rs), min(r.stop for r in rs))
        for c in reversed(cs) if row[pivots[a]] < 0 else cs:
            q = tuple([x + c * y for x, y in zip(p, row)]) if c else p
            if a == last:
                yield q
            else:
                yield from walk(a + 1, q)

    yield from walk(0, (0,) * n)


def _box_slopes(p: Presentation, box: int, keep) -> Iterator[Slope]:
    """The kernel slopes v in the box with keep(v), lazily, in ascending
    lexicographic order; each `Slope` is built only when it is reached."""
    if box < 1:
        raise ValueError("box bound must be >= 1")
    for v in _coefficient_box_points(slope_basis(p), box):
        if keep(v):
            yield _trusted(Slope, v)


def _primitive(v: tuple[int, ...]) -> bool:
    return math.gcd(*v) == 1


def enumerate_kernel_slopes(
    p: Presentation, box: int, primitive_only: bool = False
) -> list[Slope]:
    """All nonzero kernel slopes with max-norm <= box, in lexicographic
    order.  With primitive_only, keep one representative per positive ray
    (gcd of the entries equal to 1); the sign still distinguishes phi
    from -phi, which induce different lower sections."""
    return list(_box_slopes(p, box, _primitive if primitive_only else any))


def enumerate_valid_slopes(p: Presentation, box: int) -> list[Slope]:
    """All valid slopes in the box: kernel vectors with every coordinate
    nonzero and max-norm <= box, deduplicated, in lexicographic order.

    >>> from .words import parse_cyclic_word
    >>> sl = enumerate_valid_slopes(Presentation(2, [parse_cyclic_word("x1 x2")]), 2)
    >>> [s.values for s in sl]
    [(-2, 2), (-1, 1), (1, -1), (2, -2)]
    """
    return list(_box_slopes(p, box, all))


def count_slope_classes(
    p: Presentation, slopes: Sequence[Slope]
) -> tuple[int, list[Slope]]:
    """Count equivalence classes among the given slopes, where two slopes
    are equivalent iff they induce identical lower sections on every
    relator.  Returns (class count, first representative of each class).

    A lower section is fixed by its minimal vertices (its flat edges are
    those joining two of them), so they are the class signature.  Raises
    ValueError if a slope fails to annihilate some relator.
    """
    from .mincond import _min_vertices, _profiles  # mincond imports this module

    seen: dict[tuple, Slope] = {}
    for phi in slopes:
        sig = tuple(map(_min_vertices, _profiles(p.relators, phi)))
        seen.setdefault(sig, phi)
    return len(seen), list(seen.values())
