import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relators.abelian import (
    Slope,
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
from relators.words import Presentation, parse_cyclic_word


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
def test_smith_normal_form_properties(rows):
    d, u, v = smith_normal_form(rows)
    assert matmul(matmul(u, rows), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
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


@given(matrices_st)
@settings(max_examples=150)
def test_rank_matches_rational_elimination(rows):
    assert matrix_rank(rows) == rank_over_q(rows, len(rows[0]))


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
