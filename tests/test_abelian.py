import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relators.abelian import (
    Slope,
    _coefficient_box_points,
    _coefficient_range,
    abelianization_matrix,
    count_slope_classes,
    enumerate_kernel_slopes,
    enumerate_valid_slopes,
    first_betti_number,
    hermite_row_basis,
    matrix_rank,
    slope_basis,
    smith_normal_form,
)
from relators.words import (
    CyclicWord,
    Presentation,
    parse_cyclic_word,
    reduce,
    sample_cyclically_reduced,
)


def det(mat):
    """Exact integer determinant by cofactor expansion (tiny matrices only)."""
    k = len(mat)
    if k == 1:
        return mat[0][0]
    total = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * det(minor)
    return total


def rank_over_q(rows, ncols):
    """Oracle: Gaussian elimination over exact rationals."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def snf_rank(rows, ncols=None):
    """Oracle: nonzero diagonal entries of the Smith normal form."""
    D, _, _ = smith_normal_form(rows, ncols)
    return sum(1 for k in range(min(len(D), len(D[0]) if D else 0)) if D[k][k] != 0)


def smith_kernel_basis(rows, n):
    """Oracle: the kernel basis through the Smith normal form D = U A V.
    The columns of V past the rank span the kernel; they are Hermite-reduced
    and each is signed so that its first nonzero entry is negative."""
    D, _, V = smith_normal_form(rows, n)
    r = sum(1 for k in range(min(len(D), n)) if D[k][k] != 0)
    kernel_cols = [[V[i][j] for i in range(n)] for j in range(r, n)]
    out = []
    for row in hermite_row_basis(kernel_cols):
        sign = -1 if next(v for v in row if v) > 0 else 1
        out.append(tuple(sign * a for a in row))
    return out


def two_pass_hermite_basis(vectors):
    """Oracle: the column sweep that rebuilds its row lists at every column
    and back-reduces the whole basis after the sweep."""
    work = [list(map(int, v)) for v in vectors if any(v)]
    n = len(vectors[0]) if vectors else 0
    basis = []
    pivot_of = []
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


def recursive_box_points(basis, box):
    """Oracle: depth-first walk of the coefficient staircase, one recursive
    generator per level, checking the max-norm only at the leaves."""
    if not basis:
        return
    n = len(basis[0])
    rows = [b.values for b in basis]
    pivots = [next(j for j, v in enumerate(row) if v) for row in rows]
    partial = [0] * n
    k = len(rows)

    def rec(a):
        if a == k:
            if any(abs(v) > box for v in partial):
                return
            yield tuple(partial)
            return
        j = pivots[a]
        for c in _coefficient_range(partial[j], rows[a][j], box):
            for i in range(n):
                partial[i] += c * rows[a][i]
            yield from rec(a + 1)
            for i in range(n):
                partial[i] -= c * rows[a][i]

    yield from rec(0)


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


matrices_st = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(matrices_st)
@settings(max_examples=150)
# inputs on which a row/column Euclid loop without a least-entry pivot grows
# its entries without bound
@example([[6, -6, 1, 4, -5], [-1, -3, 6, -4, -6], [-4, 4, 6, 5, 6], [-5, 6, -4, 0, -1],
          [5, 3, 5, -4, -3], [-5, 6, -4, 0, -1]])
@example([[-5, 6, 1, -3, -4], [2, -6, -5, -6, -6], [1, 2, 4, 5, -4], [3, -4, -5, 3, 3],
          [3, 2, 5, 0, 2], [6, 0, 4, -6, 3], [4, 3, 5, 0, -6], [6, 0, 4, -6, 3]])
def test_smith_normal_form_properties(rows):
    d, u, v = smith_normal_form(rows)
    assert matmul(matmul(u, rows), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    # a coefficient blow-up fails here instead of hanging the suite
    assert all(abs(x).bit_length() <= 128 for m in (u, v) for row in m for x in row)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


def test_smith_normal_form_edge_shapes():
    assert smith_normal_form([], 3) == ([], [], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="ragged matrix"):
        smith_normal_form([[1, 2], [3]])


@given(matrices_st)
@settings(max_examples=150)
def test_rank_matches_rational_elimination(rows):
    assert matrix_rank(rows) == rank_over_q(rows, len(rows[0]))


@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
            max_size=5,
        ).map(lambda rows: (rows, n))
    )
)
@settings(max_examples=200)
def test_rank_matches_smith_and_rational_oracles(case):
    rows, n = case
    assert matrix_rank(rows, n) == snf_rank(rows, n) == rank_over_q(rows, n)


@st.composite
def rank_matrices(draw):
    """Integer matrices with zero rows, duplicate and scaled rows, and more
    rows than columns; entries up to 40 so gcd normalisation has work."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-40, 40)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["zero", "duplicate", "scaled", "sum"]))
        if kind == "zero" or not rows:
            rows.append([0] * n)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "scaled":
            c = draw(st.integers(-5, 5))
            rows.append([c * x for x in draw(st.sampled_from(rows))])
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([x + y for x, y in zip(a, b)])
    return draw(st.permutations(rows)), n


@given(rank_matrices())
@settings(max_examples=300)
def test_forward_rank_matches_rational_elimination(case):
    rows, n = case
    assert matrix_rank(rows, n) == rank_over_q(rows, n)
    assert matrix_rank(rows, n) == len(hermite_row_basis(rows))


@pytest.mark.parametrize("rows", [[[1, 2], [3, 4, 5]], [[0, 0], [3, 4, 5]]])
def test_every_elimination_rejects_ragged_rows(rows):
    for eliminate in (hermite_row_basis, matrix_rank, smith_normal_form):
        with pytest.raises(ValueError, match="^ragged matrix$"):
            eliminate(rows)


def test_rank_rejects_ragged_matrices():
    with pytest.raises(ValueError, match="ragged matrix"):
        matrix_rank([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged matrix"):
        matrix_rank([[1, 2]], 3)
    assert matrix_rank([]) == 0


@st.composite
def staircase_bases(draw):
    """Hermite bases of kernel rank 1-3 in up to 5 coordinates, each row
    given either sign, so negative pivots (the slope_basis normalization)
    and positive ones both occur."""
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=k, max_value=5))
    vecs = draw(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
            min_size=k,
            max_size=k,
        )
    )
    basis = hermite_row_basis(vecs)
    assume(len(basis) == k)
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
    return [Slope([s * x for x in row]) for s, row in zip(signs, basis)]


@given(staircase_bases(), st.integers(min_value=1, max_value=6))
@settings(max_examples=300)
def test_box_walk_matches_recursive_oracle(basis, box):
    # the oracle walks coefficient order; the walk yields ascending values
    got = list(_coefficient_box_points(basis, box))
    assert got == sorted(recursive_box_points(basis, box))
    assert all(max(map(abs, v)) <= box for v in got)


def test_box_walk_example_with_negative_pivots():
    for basis in (
        [Slope((-2, 1, 3)), Slope((0, -1, 2))],
        [Slope((2, -1, -3)), Slope((0, 1, -2))],
        [Slope((-2, 1, 3)), Slope((0, 1, -2))],
    ):
        got = list(_coefficient_box_points(basis, 3))
        assert got == sorted(recursive_box_points(basis, 3))
        assert (0, 0, 0) in got and (-2, 0, 5) not in got
    assert list(_coefficient_box_points([], 3)) == []


def test_box_walk_is_lazy():
    basis = [Slope((-1, 0, 0)), Slope((0, -1, 0)), Slope((0, 0, -1))]
    walk = _coefficient_box_points(basis, 10**6)
    assert next(walk) == (-(10**6),) * 3
    assert next(walk) == (-(10**6), -(10**6), 1 - 10**6)


def _random_presentations(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((2, 3, 4))
        m = rng.randrange(1, n)
        length = rng.randrange(1, 13)
        yield Presentation(
            n, tuple(sample_cyclically_reduced(n, length, rng) for _ in range(m))
        )


def test_enumerated_slopes_equal_validated_ones():
    for p in _random_presentations(17, 60):
        for slopes in (
            enumerate_kernel_slopes(p, 3),
            enumerate_kernel_slopes(p, 3, primitive_only=True),
            enumerate_valid_slopes(p, 3),
        ):
            for phi in slopes:
                again = Slope(phi.values)
                assert phi == again and hash(phi) == hash(again)
                assert type(phi.values) is tuple
                assert all(type(v) is int for v in phi.values)


@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(
                    st.integers(min_value=-n, max_value=n).filter(bool),
                    min_size=1,
                    max_size=16,
                ),
                min_size=1,
                max_size=3,
            ),
        )
    )
)
def test_abelianization_matches_signed_letter_sums(case):
    n, raw = case
    rels = []
    for letters in raw:
        lts = list(reduce(letters, n).letters)
        while len(lts) >= 2 and lts[0] == -lts[-1]:
            lts = lts[1:-1]
        if lts:
            rels.append(CyclicWord(lts, n))
    assume(rels)
    rows = abelianization_matrix(Presentation(n, rels)).rows
    assert rows == tuple(
        tuple(sum(1 if a == g else -1 if a == -g else 0 for a in r) for g in range(1, n + 1))
        for r in rels
    )


@given(matrices_st)
@settings(max_examples=100)
def test_hermite_basis_is_canonical(rows):
    basis = hermite_row_basis(rows)
    # projection: re-reducing a reduced basis changes nothing
    assert hermite_row_basis(basis) == basis
    # canonical for the row lattice: invariant under row shuffles and signs
    assert hermite_row_basis(list(reversed(rows))) == basis
    assert hermite_row_basis([[-x for x in r] for r in rows]) == basis
    # staircase with positive pivots, entries above reduced
    pivots = []
    for row in basis:
        j = next(k for k, x in enumerate(row) if x)
        assert row[j] > 0
        pivots.append(j)
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for a, row in enumerate(basis):
        for b in range(a):
            assert 0 <= basis[b][pivots[a]] < row[pivots[a]]


def test_abelianization_matrix_rows_are_exponent_sums():
    p = Presentation(
        3,
        (
            parse_cyclic_word("x1 x2 X1 X2", 3),
            parse_cyclic_word("x1 x1 x3", 3),
        ),
    )
    assert abelianization_matrix(p).rows == ((0, 0, 0), (2, 0, 1))


def test_first_betti_number_examples():
    single = lambda text, n: Presentation(n, (parse_cyclic_word(text, n),))
    assert first_betti_number(single("x1 x2", 2)) == 1
    assert first_betti_number(single("x1 x2 x1 X2", 2)) == 1
    assert first_betti_number(single("x1 x2 X1 X2", 2)) == 2
    two = Presentation(
        3,
        (parse_cyclic_word("x3 x1 X3 X1", 3), parse_cyclic_word("x3 x2 X3 X2", 3)),
    )
    assert first_betti_number(two) == 3


def test_slope_basis_examples():
    p = Presentation(2, (parse_cyclic_word("x1 x2", 2),))
    assert [s.values for s in slope_basis(p)] == [(-1, 1)]
    q = Presentation(2, (parse_cyclic_word("x1 x2 x1 X2", 2),))
    assert [s.values for s in slope_basis(q)] == [(0, -1)]


@st.composite
def exponent_sum_matrices(draw):
    """m x n integer matrices with m up to n + 2, often with zero rows,
    duplicate rows or full rank (a rank-0 kernel)."""
    n = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=n + 2))
    extra = draw(st.sampled_from(("none", "zero", "duplicate", "identity")))
    if extra == "zero":
        rows.append([0] * n)
    elif extra == "duplicate" and rows:
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    elif extra == "identity":
        rows += [[int(i == j) for j in range(n)] for i in range(n)]
    return n, rows


def relator_with_exponent_sums(row, n):
    """A cyclically reduced word whose exponent sums are `row`: each
    generator's letters in one block, or a commutator for a zero row."""
    letters = [g if e > 0 else -g for g, e in enumerate(row, 1) for _ in range(abs(e))]
    return CyclicWord(letters or [1, n, -1, -n], n)


@given(exponent_sum_matrices())
@settings(max_examples=300)
def test_slope_basis_matches_smith_kernel_oracle(case):
    n, rows = case
    assume(n > 1 or all(any(r) for r in rows))  # rank 1 has no zero relator
    p = Presentation(n, tuple(relator_with_exponent_sums(r, n) for r in rows))
    assert abelianization_matrix(p).rows == tuple(tuple(r) for r in rows)
    assert [s.values for s in slope_basis(p)] == smith_kernel_basis(rows, n)


@given(exponent_sum_matrices())
@settings(max_examples=300)
def test_hermite_basis_matches_two_pass_oracle(case):
    # the matrix itself, the kernel input [A^T | I_n] of `slope_basis`
    # (a rank-0 kernel when A has full column rank), and every row twice
    n, rows = case
    stacked = [[r[j] for r in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    for vectors in (rows, stacked, rows + rows, stacked + [[0] * len(stacked[0])]):
        assert hermite_row_basis(vectors) == two_pass_hermite_basis(vectors)


def test_slope_basis_spans_the_kernel():
    p = Presentation(
        3,
        (parse_cyclic_word("x1 x2 x3 X1 X2 X3", 3),),
    )
    basis = slope_basis(p)
    mat = abelianization_matrix(p)
    for s in basis:
        for row in mat.rows:
            assert sum(a * b for a, b in zip(row, s.values)) == 0
        j = next(k for k, x in enumerate(s.values) if x)
        assert s.values[j] < 0  # sign normalization: leading entry negative
    assert len(basis) == 3 - matrix_rank(mat.rows)


def brute_kernel_box(p, box, valid_only):
    mat = abelianization_matrix(p).rows
    n = p.rank
    out = []
    for vals in itertools.product(range(-box, box + 1), repeat=n):
        if all(v == 0 for v in vals):
            continue
        if any(sum(a * b for a, b in zip(row, vals)) for row in mat):
            continue
        if valid_only and any(v == 0 for v in vals):
            continue
        out.append(vals)
    return sorted(out)


def test_kernel_enumeration_matches_box_scan():
    cases = [
        Presentation(2, (parse_cyclic_word("x1 x2", 2),)),
        Presentation(2, (parse_cyclic_word("x1 x2 x1 X2", 2),)),
        Presentation(3, (parse_cyclic_word("x1 x2 x3", 3),)),
        Presentation(
            3,
            (
                parse_cyclic_word("x3 x1 X3 X1", 3),
                parse_cyclic_word("x3 x2 X3 X2", 3),
            ),
        ),
    ]
    for p in cases:
        for box in (1, 2, 3):
            got = sorted(s.values for s in enumerate_kernel_slopes(p, box))
            assert got == brute_kernel_box(p, box, valid_only=False)
            gotv = sorted(s.values for s in enumerate_valid_slopes(p, box))
            assert gotv == brute_kernel_box(p, box, valid_only=True)


def test_valid_slope_box_examples():
    p = Presentation(2, (parse_cyclic_word("x1 x2", 2),))
    assert [s.values for s in enumerate_valid_slopes(p, 2)] == [
        (-2, 2),
        (-1, 1),
        (1, -1),
        (2, -2),
    ]
    q = Presentation(2, (parse_cyclic_word("x1 x2 x1 X2", 2),))
    assert enumerate_valid_slopes(q, 5) == []


def test_primitive_filter():
    p = Presentation(2, (parse_cyclic_word("x1 x2", 2),))
    prim = enumerate_kernel_slopes(p, 2, primitive_only=True)
    assert sorted(s.values for s in prim) == [(-1, 1), (1, -1)]


def test_count_slope_classes_example_and_scaling():
    p = Presentation(2, (parse_cyclic_word("x1 x2", 2),))
    slopes = enumerate_valid_slopes(p, 3)
    k, reps = count_slope_classes(p, slopes)
    assert k == 2
    # scaling a slope never changes its class
    for s in slopes:
        k2, _ = count_slope_classes(p, [s, s.scaled(2), s.scaled(3)])
        assert k2 == 1


def test_count_slope_classes_rejects_non_annihilating():
    p = Presentation(2, (parse_cyclic_word("x1 x2", 2),))
    with pytest.raises(ValueError):
        count_slope_classes(p, [Slope((1, 1))])


def test_slope_accessors():
    s = Slope((0, -2, 3))
    assert len(s) == 3 and s[1] == -2
    assert s.of_generator(3) == 3
    assert s.of_letter(-3) == -3
    assert s.of_word(parse_cyclic_word("x2 x3", 3)) == 1
    assert (-s).values == (0, 2, -3)
    assert s.scaled(2).values == (0, -4, 6)
    assert not s.is_valid()
    assert Slope((1, -1)).is_valid()
    assert Slope((0, 0)).is_zero()


def test_slope_values_must_be_integers():
    # int() would truncate 1.7 to 1 and parse "3"; operator.index refuses both
    for bad in ((1.7, -2), (0, "3"), (Fraction(1), -1)):
        with pytest.raises(TypeError):
            Slope(bad)
    with pytest.raises(TypeError):
        Slope((0, -1)).scaled(0.5)


def test_coefficient_range_is_exact_at_large_magnitude():
    # floats give c <= 3 here: (3*10**17 - 1) / 10**17 rounds to 3.0
    pv, s, box = 10**17, 1, 3 * 10**17
    r = _coefficient_range(s, pv, box)
    assert (r.start, r.stop - 1) == (-3, 2)
    rng = random.Random(5)
    for _ in range(500):
        pv = rng.choice((1, -1)) * rng.randrange(1, 10**rng.randrange(1, 25))
        s = rng.randrange(-(10**24), 10**24)
        box = rng.randrange(0, 10**25)
        ends = sorted((Fraction(-box - s, pv), Fraction(box - s, pv)))
        r = _coefficient_range(s, pv, box)
        assert (r.start, r.stop - 1) == (math.ceil(ends[0]), math.floor(ends[1]))
        for c in (r.start - 1, r.start, r.stop - 1, r.stop):
            assert (abs(s + c * pv) <= box) == (c in r)
