"""Abelianization data for a presentation: exponent-sum matrix, first Betti
number, and the lattice of slopes.

A slope is a homomorphism phi: F_n -> Z recorded by its values on the
generators.  The slopes that matter are those annihilating every relator,
i.e. the integer kernel of the exponent-sum matrix; a slope is *valid* when
additionally no generator maps to 0.  All arithmetic here is exact integer
arithmetic (Smith/Hermite elimination), never floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .words import CyclicWord, Presentation, Word


@dataclass(frozen=True)
class Slope:
    """Integer vector of generator images under phi: F_n -> Z.

    >>> phi = Slope((0, -1))
    >>> phi.of_letter(2), phi.of_letter(-2), phi.of_letter(1)
    (-1, 1, 0)
    """

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        object.__setattr__(self, "values", tuple(int(v) for v in values))

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
    rows = tuple(
        tuple(r.exponent_sum(g) for g in range(1, p.rank + 1)) for r in p.relators
    )
    return AbelMatrix(rows, p.rank)


def _identity(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def smith_normal_form(
    rows: Sequence[Sequence[int]], ncols: int | None = None
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Exact Smith normal form D = U * A * V with U, V unimodular.

    Returns (D, U, V); D is diagonal with d_1 | d_2 | ... and nonnegative
    diagonal entries.  Intended for the small matrices that show up here.
    """
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    n = ncols if ncols is not None else (len(A[0]) if m else 0)
    if any(len(r) != n for r in A):
        raise ValueError("ragged matrix")
    U = _identity(m)
    V = _identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):  # row dst += c * row src
        A[dst] = [a + c * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, c):  # col dst += c * col src
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        # pick the nonzero entry of smallest magnitude as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        # clear row and column t; restart if a remainder creates a smaller pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility d_t | entries of the remaining block
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t] != 0:
                    add_row(i, t, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue  # re-run elimination at the same t
        if A[t][t] < 0:
            negate_row(t)
        t += 1
    return A, U, V


def hermite_row_basis(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite reduction of a lattice basis: staircase pivots,
    positive pivot entries, entries above each pivot reduced into [0, pivot).
    Zero rows are dropped.  Canonical for the row lattice."""
    work = [list(map(int, v)) for v in vectors if any(v)]
    n = len(vectors[0]) if vectors else 0
    basis: list[list[int]] = []
    pivot_of: list[int] = []
    # sweep columns left to right; rows in `work` are zero left of the
    # current column, so the pivot columns come out strictly increasing
    for j in range(n):
        live = [r for r in work if r[j] != 0]
        work = [r for r in work if r[j] == 0]
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
        basis.append(piv)
        pivot_of.append(j)
    for k, (row, j) in enumerate(zip(basis, pivot_of)):
        if row[j] < 0:
            basis[k] = [-a for a in row]
    for k in range(len(basis)):
        j = pivot_of[k]
        for i in range(k):
            q = basis[i][j] // basis[k][j]
            if q:
                basis[i] = [a - q * c for a, c in zip(basis[i], basis[k])]
    return basis


def matrix_rank(rows: Sequence[Sequence[int]], ncols: int | None = None) -> int:
    D, _, _ = smith_normal_form(rows, ncols)
    return sum(1 for k in range(min(len(D), len(D[0]) if D else 0)) if D[k][k] != 0)


def first_betti_number(p: Presentation) -> int:
    """Rank of the free part of the abelianized group: n - rank(A), exactly.

    >>> from .words import parse_cyclic_word
    >>> r = parse_cyclic_word("x1 x2 X1 X2", rank=2)
    >>> first_betti_number(Presentation(2, [r]))
    2
    """
    A = abelianization_matrix(p)
    return p.rank - matrix_rank(A.rows, p.rank)


def slope_basis(p: Presentation) -> list[Slope]:
    """Primitive basis of the kernel lattice {phi : phi(r_i) = 0 for all i}.

    The basis is Hermite-reduced and each vector is normalized so that its
    first nonzero entry is negative; for a rank-1 kernel this is exactly the
    sign rule used by the commutator-insertion maps (first nonzero value of
    phi negative).  Rank-0 kernels give an empty list.

    >>> from .words import parse_cyclic_word
    >>> slope_basis(Presentation(2, [parse_cyclic_word("x1 x2")]))
    [Slope(values=(-1, 1))]
    """
    A = abelianization_matrix(p)
    n = p.rank
    D, _, V = smith_normal_form(A.rows, n)
    r = sum(1 for k in range(min(len(D), n)) if D[k][k] != 0)
    kernel_cols = [[V[i][j] for i in range(n)] for j in range(r, n)]
    if not kernel_cols:
        return []
    basis = hermite_row_basis(kernel_cols)
    out = []
    for row in basis:
        lead = next(v for v in row if v)
        if lead > 0:
            row = [-a for a in row]
        out.append(Slope(row))
    return out


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


def _coefficient_box_points(basis: list[Slope], box: int) -> Iterable[tuple[int, ...]]:
    """All lattice points of the span with max-norm <= box, via the staircase
    structure of the Hermite basis (pivot coordinates bound the coefficients)."""
    if not basis:
        return
    n = len(basis[0])
    rows = [b.values for b in basis]
    pivots = [next(j for j, v in enumerate(row) if v) for row in rows]
    partial = [0] * n
    k = len(rows)

    def rec(a: int):
        if a == k:
            if any(abs(v) > box for v in partial):
                return
            yield tuple(partial)
            return
        j = pivots[a]
        for c in _coefficient_range(partial[j], rows[a][j], box):
            if c:
                for i in range(n):
                    partial[i] += c * rows[a][i]
            yield from rec(a + 1)
            if c:
                for i in range(n):
                    partial[i] -= c * rows[a][i]

    yield from rec(0)


def enumerate_kernel_slopes(
    p: Presentation, box: int, primitive_only: bool = False
) -> list[Slope]:
    """All nonzero kernel slopes with max-norm <= box, in lexicographic
    order.  With primitive_only, keep one representative per positive ray
    (gcd of the entries equal to 1); the sign still distinguishes phi
    from -phi, which induce different lower sections."""
    if box < 1:
        raise ValueError("box bound must be >= 1")
    basis = slope_basis(p)
    out = []
    for v in _coefficient_box_points(basis, box):
        if all(x == 0 for x in v):
            continue
        if primitive_only and math.gcd(*v) != 1:
            continue
        out.append(v)
    out.sort()
    return [Slope(v) for v in out]


def enumerate_valid_slopes(p: Presentation, box: int) -> list[Slope]:
    """All valid slopes in the box: kernel vectors with every coordinate
    nonzero and max-norm <= box, deduplicated, in lexicographic order.

    >>> from .words import parse_cyclic_word
    >>> sl = enumerate_valid_slopes(Presentation(2, [parse_cyclic_word("x1 x2")]), 2)
    >>> [s.values for s in sl]
    [(-2, 2), (-1, 1), (1, -1), (2, -2)]
    """
    if box < 1:
        raise ValueError("box bound must be >= 1")
    basis = slope_basis(p)
    seen = set()
    for v in _coefficient_box_points(basis, box):
        if all(x != 0 for x in v):
            seen.add(v)
    return [Slope(v) for v in sorted(seen)]


def count_slope_classes(
    p: Presentation, slopes: Sequence[Slope]
) -> tuple[int, list[Slope]]:
    """Count equivalence classes among the given slopes, where two slopes
    are equivalent iff they induce identical lower sections on every
    relator.  Returns (class count, first representative of each class).

    Raises ValueError if a slope fails to annihilate some relator.
    """
    from .mincond import lower_section  # local import; mincond owns profiles

    reps: list[Slope] = []
    seen: dict[tuple, Slope] = {}
    for phi in slopes:
        for r in p.relators:
            if phi.of_word(r) != 0:
                raise ValueError(f"slope {phi.values} does not annihilate a relator")
        sig = tuple(
            (ls.min_vertices, ls.flat_min_edges)
            for ls in (lower_section(r, phi) for r in p.relators)
        )
        if sig not in seen:
            seen[sig] = phi
            reps.append(phi)
    return len(reps), reps
