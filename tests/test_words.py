import itertools
import random

import pytest
from hypothesis import given, strategies as st

from relators.words import (
    CyclicWord,
    Word,
    count_cyclically_reduced,
    cyclic_reduce,
    enumerate_cyclically_reduced,
    format_word,
    letter_inverse,
    letter_order,
    parse_cyclic_word,
    parse_word,
    reduce,
    sample_cyclically_reduced,
    sample_reduced,
)


def brute_force_cyclically_reduced(rank, length):
    """Oracle: filter raw letter sequences by the adjacency conditions."""
    alphabet = [g for i in range(1, rank + 1) for g in (i, -i)]
    out = []
    for letters in itertools.product(alphabet, repeat=length):
        if any(letters[k] == -letters[k - 1] for k in range(1, length)):
            continue
        if length > 1 and letters[0] == -letters[-1]:
            continue
        out.append(letters)
    return out


letters_st = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda a: a != 0),
    max_size=24,
)


def test_letter_inverse():
    assert letter_inverse(1) == -1
    assert letter_inverse(-4) == 4


def test_letter_order_is_the_documented_total_order():
    # x1 < x1^-1 < x2 < x2^-1 < ...
    assert [letter_order(a) for a in (1, -1, 2, -2, 3, -3)] == [0, 1, 2, 3, 4, 5]


def test_parse_format_round_trip():
    for text in ("x1", "X1", "x1 x2 X1 X2", "x10 X3 x10"):
        assert format_word(parse_word(text)) == text


def test_parse_rejects_garbage():
    for bad in ("x0", "y1", "x1 *", "x-1"):
        with pytest.raises(ValueError):
            parse_word(bad)
    # the empty string is the identity as a Word, but never a relator
    assert parse_word("").letters == ()
    with pytest.raises(ValueError):
        parse_cyclic_word("")


def test_reduce_cancels_adjacent_inverses():
    assert reduce([1, -1], 2).letters == ()
    assert reduce([1, 2, -2, -1, 2], 2).letters == (2,)
    assert reduce([1, 2, -2, 1], 2).letters == (1, 1)


@given(letters_st)
def test_reduce_is_idempotent(letters):
    w = reduce(letters, 3)
    assert reduce(w.letters, 3) == w


@given(letters_st)
def test_reduce_inverse_gives_identity(letters):
    w = reduce(letters, 3)
    assert reduce(w.letters + w.inverse().letters, 3).letters == ()


@given(letters_st)
def test_cyclic_reduce_conjugation(letters):
    # w = c * core * c^-1 as elements of the free group
    w = reduce(letters, 3)
    lts = list(w.letters)
    while len(lts) >= 2 and lts[0] == -lts[-1]:
        lts = lts[1:-1]
    if not lts:
        with pytest.raises(ValueError):
            cyclic_reduce(w)
        return
    core, c = cyclic_reduce(w)
    assert core.letters[0] != -core.letters[-1]
    rebuilt = reduce(c.letters + core.letters + c.inverse().letters, 3)
    assert rebuilt == w


def test_cyclic_word_requires_cyclic_reduction():
    with pytest.raises(ValueError):
        CyclicWord((1, 2, -1), 2)  # last letter inverts the first


def test_cyclic_word_rotation_and_inverse():
    w = parse_cyclic_word("x1 x2 X1 X2", 2)
    assert w.rotation(1).letters == (2, -1, -2, 1)
    assert w.inverse().letters == (2, 1, -2, -1)
    assert w.cyclic_letter(5) == 2
    assert w.cyclic_subword(3, 3).letters == (-2, 1, 2)


def test_equality_distinguishes_rotations():
    # stored representatives with basepoints: rotations are different data
    w = parse_cyclic_word("x1 x2", 2)
    assert w != w.rotation(1)


def test_enumeration_matches_brute_force():
    for rank in (1, 2, 3):
        for length in range(1, 7):
            expected = brute_force_cyclically_reduced(rank, length)
            got = [w.letters for w in enumerate_cyclically_reduced(rank, length)]
            assert got == sorted(
                expected, key=lambda ls: tuple(letter_order(a) for a in ls)
            )
            assert len(got) == len(set(got)) == len(expected)


def test_count_agrees_with_enumeration_and_closed_form():
    for rank in (2, 3):
        for length in range(1, 7):
            c = count_cyclically_reduced(rank, length)
            assert c == len(list(enumerate_cyclically_reduced(rank, length)))
            # closed form: trace of the non-backtracking transfer matrix
            q = 2 * rank - 1
            assert c == q**length + (1 if length % 2 else q)


def test_sample_reduced_is_reduced_and_seeded():
    rng = random.Random(11)
    words = [sample_reduced(3, 20, rng) for _ in range(50)]
    for w in words:
        assert len(w.letters) == 20
        assert all(w.letters[k] != -w.letters[k - 1] for k in range(1, 20))
    assert words == [sample_reduced(3, 20, random.Random(11)) for _ in range(50)][:1] + words[1:]


def test_sample_cyclically_reduced_hits_only_valid_words():
    rng = random.Random(3)
    seen = set()
    for _ in range(400):
        w = sample_cyclically_reduced(2, 3, rng)
        assert isinstance(w, CyclicWord)
        seen.add(w.letters)
    universe = {w.letters for w in enumerate_cyclically_reduced(2, 3)}
    assert seen <= universe
    assert len(seen) == len(universe)  # 28 words, 400 draws: all hit


def test_word_is_hashable_and_distinct_from_cyclic():
    w = parse_word("x1 x2", 2)
    c = parse_cyclic_word("x1 x2", 2)
    assert w != c
    assert len({w, c}) == 2


def test_exponent_sum():
    w = parse_word("x1 x2 X1 x2 x1", 2)
    assert w.exponent_sum(1) == 1
    assert w.exponent_sum(2) == 2


def test_count_closed_form_at_rank_one_and_four():
    for rank, lengths in ((1, range(1, 9)), (4, range(1, 5))):
        for length in lengths:
            assert count_cyclically_reduced(rank, length) == len(
                list(enumerate_cyclically_reduced(rank, length))
            )
    for bad in ((0, 3), (2, 0)):
        with pytest.raises(ValueError):
            count_cyclically_reduced(*bad)
