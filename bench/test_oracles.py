"""Hand-worked cases for the benchmark's independent checkers.

    python3 -m pytest -q bench/test_oracles.py
"""

from fractions import Fraction

import oracles as orc
from workloads import _rank, w_words


def test_closed_form_matches_brute_force():
    assert orc.closed_form_count(1, 1) == 2  # x1, X1
    assert orc.closed_form_count(1, 2) == 2  # x1 x1, X1 X1
    assert orc.closed_form_count(2, 2) == 12  # 4 first letters x 3 non-cancelling
    assert orc.closed_form_count(2, 3) == 28
    for n, l in ((1, 3), (2, 1), (2, 4), (2, 5), (3, 3)):
        assert sum(orc.exponent_vectors(n, l).values()) == orc.closed_form_count(n, l)


def test_exponent_vectors_small_cases():
    assert orc.exponent_vectors(1, 2) == {(2,): 1, (-2,): 1}
    vecs = orc.exponent_vectors(2, 2)
    assert vecs[(0, 0)] == 0  # x X is not reduced
    assert vecs[(1, 1)] == 2  # x1 x2, x2 x1
    # odd length: the exponent sums add up to an odd number, never (0, 0)
    assert orc.exponent_vectors(2, 3)[(0, 0)] == 0


def test_stack_reduction_and_substitution():
    assert orc.free_reduce([1, 2, -2, -1, 3]) == (3,)
    assert orc.free_reduce([1, -2, 2, -1, 2]) == (2,)
    assert orc.cyclic_core((1, 2, -1)) == (2,)
    assert orc.cyclic_core((1, 2, 3)) == (1, 2, 3)
    # x1 -> x1 x2, x2 -> X2 x1: x1 x2 -> x1 x2 X2 x1 = x1 x1
    assert orc.substitute_and_reduce((1, 2), [(1, 2), (-2, 1)]) == (1, 1)
    # inverse letters substitute the inverse image: X1 -> X2 X1
    assert orc.substitute_and_reduce((-1, 1), [(1, 2)]) == ()
    assert orc.prefix_heights((2, 1, -2, -1), (0, -1)) == [0, -1, -1, 0, 0]


def test_pieces_hand_worked():
    # x1 x1 x1: x1 x1 sits at two offsets; the whole word counts once
    assert orc.longest_piece_length(orc.PieceTexts([(1, 1, 1)])) == 2
    # x1 x2 and x2 x1 are rotations of each other: a full-length piece
    texts = orc.PieceTexts([(1, 2), (2, 1)])
    assert orc.longest_piece_length(texts) == 2
    assert (0, 2) in orc.pieces_at(texts, 2)
    # the commutator: every letter recurs in the inverse, no 2-letter piece
    comm = orc.PieceTexts([(1, 2, -1, -2)])
    assert orc.longest_piece_length(comm) == 1
    assert orc.violating_pairs(comm, Fraction(1, 6))
    assert not orc.violating_pairs(comm, Fraction(1, 3))


def test_piece_witness_offsets():
    # x1 x2 x2 and x1 x2 X1: x1 x2 at offset 0 of both relators
    texts = orc.PieceTexts([(1, 2, 2), (1, 2, -1)])
    found = orc.pieces_at(texts, 2)
    assert found[(0, 2)] == (0, 0)
    assert texts.window(0, 0, 2) == texts.window(2, 0, 2) == (1, 2)


def test_finite_field_rep_is_a_homomorphism():
    rep = orc.FiniteFieldRep(2, seed=5)
    eye = orc.mat_eye(3)
    assert rep.word((1, -1)) == eye
    assert rep.word((1, 2, -1)) == orc.mat_mul(rep.word((1, 2)), rep.word((-1,)))
    assert rep.element({(): 1}) == eye
    two_x1_plus_3_x2 = orc.mat_add(orc.mat_scale(rep.word((1,)), 2), orc.mat_scale(rep.word((2,)), 3))
    assert rep.element({(1,): 2, (2,): 3}) == two_x1_plus_3_x2
    assert rep.scalar(Fraction(1, 2)) * 2 % orc.P == 1


def test_finite_field_fox_derivative():
    rep = orc.FiniteFieldRep(2, seed=9)
    # d(x1 x2 X1 X2)/dx1 = 1 - x1 x2 X1, d/dx2 = x1 - x1 x2 X1 X2
    assert rep.fox_derivative((1, 2, -1, -2), 1) == rep.element({(): 1, (1, 2, -1): -1})
    assert rep.fox_derivative((1, 2, -1, -2), 2) == rep.element({(1,): 1, (1, 2, -1, -2): -1})


def test_w_words_block_pattern():
    # w_1 for n=3, m=1, phi=(0, 2, -1), N=3: z y z^2 y z^3 y z^-3 y z^-2 y z^-1 y y
    w1 = w_words(3, 1, (0, 2, -1), 3)[0]
    assert w1 == (2, 1, 2, 2, 1, 2, 2, 2, 1, -2, -2, -2, 1, -2, -2, 1, -2, 1, 1)
    psi = (0, -1)
    assert [orc.slope_value(w, psi) for w in w_words(3, 1, (0, 2, -1), 3)] == [0, 2, -1]


def test_rank_over_rationals():
    assert _rank([[1, 0, 0], [2, 0, 0]]) == 1
    assert _rank([[1, 1, 0], [0, 1, 1]]) == 2
    assert _rank([[2, 4], [1, 2]]) == 1
