import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relators.fox import (
    GroupRingElement,
    JacobianMatrix,
    format_ring_element,
    fox_derivative,
    jacobian,
    parse_ring_element,
    ring_multiply,
)
from relators.words import Presentation, Word, parse_cyclic_word, parse_word, reduce


RANK = 3


def elem(text):
    return parse_ring_element(text, RANK)


def word_elem(letters):
    return GroupRingElement.from_word(reduce(letters, RANK))


def fox_oracle(letters, j):
    """Oracle: the defining recursion d(uv) = du + u dv on the first letter."""
    if not letters:
        return GroupRingElement.zero(RANK)
    a, rest = letters[0], letters[1:]
    if a == j:
        head = GroupRingElement.one(RANK)
    elif a == -j:
        head = -GroupRingElement.from_word(Word((-j,), RANK))
    else:
        head = GroupRingElement.zero(RANK)
    tail = word_elem([a]) * fox_oracle(rest, j)
    return head + tail


reduced_words_st = st.lists(
    st.integers(min_value=-RANK, max_value=RANK).filter(lambda a: a != 0),
    max_size=16,
).map(lambda ls: reduce(ls, RANK))


def test_worked_derivatives():
    r = parse_word("x1 x2 X1 X2", 2)
    d1 = fox_derivative(r, 1)
    assert format_ring_element(d1) == "1*[] + -1*[x1 x2 X1]"
    d2 = fox_derivative(r, 2)
    assert format_ring_element(d2) == "1*[x1] + -1*[x1 x2 X1 X2]"


def test_derivative_of_generator_and_inverse():
    assert fox_derivative(parse_word("x1", 2), 1).is_one()
    d = fox_derivative(parse_word("X1", 2), 1)
    assert format_ring_element(d) == "-1*[X1]"
    assert fox_derivative(parse_word("x2", 2), 1).is_zero()


@given(reduced_words_st)
@settings(max_examples=200)
def test_matches_recursive_oracle(w):
    for j in range(1, RANK + 1):
        assert fox_derivative(w, j) == fox_oracle(w.letters, j)


@given(reduced_words_st)
@settings(max_examples=200)
def test_fundamental_identity(w):
    total = GroupRingElement.zero(RANK)
    for j in range(1, RANK + 1):
        xj = GroupRingElement.from_word(Word((j,), RANK))
        total = total + fox_derivative(w, j) * (xj - GroupRingElement.one(RANK))
    assert total == GroupRingElement.from_word(w) - GroupRingElement.one(RANK)


@given(reduced_words_st)
@settings(max_examples=100)
def test_augmentation_is_exponent_sum(w):
    # summing coefficients sends the derivative to the exponent sum
    for j in range(1, RANK + 1):
        eps = sum(fox_derivative(w, j).terms().values())
        assert eps == w.exponent_sum(j)


@given(reduced_words_st, reduced_words_st)
@settings(max_examples=100)
def test_product_rule(u, v):
    uv = reduce(u.letters + v.letters, RANK)
    for j in range(1, RANK + 1):
        lhs = fox_derivative(uv, j)
        rhs = fox_derivative(u, j) + GroupRingElement.from_word(u) * fox_derivative(v, j)
        assert lhs == rhs


def test_ring_arithmetic():
    a = elem("1*[x1] + 2*[x2]")
    b = elem("1*[X1] + -1*[]")
    # (x1 + 2 x2)(x1^-1 - 1) = 1 - x1 + 2 x2 x1^-1 - 2 x2
    assert a * b == elem("1*[] + -1*[x1] + 2*[x2 X1] + -2*[x2]")
    assert (a - a).is_zero()
    assert a.scale(Fraction(1, 2)) == elem("1/2*[x1] + 1*[x2]")


def test_ring_multiply_reduces_words():
    x = word_elem([1])
    xinv = word_elem([-1])
    assert ring_multiply(x, xinv).is_one()


def test_inverse_unit():
    u = elem("-3*[x1 x2]")
    v = u.inverse_unit()
    assert (u * v).is_one() and (v * u).is_one()
    with pytest.raises(ValueError):
        elem("1*[] + 1*[x1]").inverse_unit()


def test_parse_format_round_trip():
    texts = [
        "0",
        "1*[]",
        "3/2*[x1 X2] + -1*[]",
        "-1*[x2 x2]",
    ]
    for t in texts:
        e = elem(t)
        assert elem(format_ring_element(e)) == e


def test_terms_are_sorted_for_formatting():
    e = elem("1*[x2 x2] + 1*[] + 1*[x1]")
    assert format_ring_element(e) == "1*[] + 1*[x1] + 1*[x2 x2]"


def test_jacobian_shape_and_entries():
    p = Presentation(
        2,
        (parse_cyclic_word("x1 x2 X1 X2", 2), parse_cyclic_word("x1 x1", 2)),
    )
    jac = jacobian(p)
    assert isinstance(jac, JacobianMatrix)
    assert (jac.nrows, jac.ncols) == (2, 2)
    assert jac[0, 0] == fox_derivative(parse_word("x1 x2 X1 X2", 2), 1)
    assert format_ring_element(jac[1, 0]) == "1*[] + 1*[x1]"
    assert jac[1, 1].is_zero()


def test_derivative_seeded_bulk_identity():
    # matches the runtime budget style of the acceptance gate, smaller here
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randrange(2, 5)
        l = rng.randrange(1, 33)
        letters = []
        while len(letters) < l:
            a = rng.choice([g for i in range(1, n + 1) for g in (i, -i)])
            if letters and a == -letters[-1]:
                continue
            letters.append(a)
        w = Word(tuple(letters), n)
        total = GroupRingElement.zero(n)
        for j in range(1, n + 1):
            xj = GroupRingElement.from_word(Word((j,), n))
            total = total + fox_derivative(w, j) * (xj - GroupRingElement.one(n))
        assert total == GroupRingElement.from_word(w) - GroupRingElement.one(n)


def concat_reduce_oracle(a, b):
    """Oracle: concatenate every pair of words, reduce the whole string with
    `words.reduce`, and collect coefficients."""
    out = GroupRingElement.zero(RANK)
    for u, cu in a.terms().items():
        for v, cv in b.terms().items():
            w = reduce(u.letters + v.letters, RANK)
            out = out + GroupRingElement.from_word(w, cu * cv)
    return out


coefficients_st = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
).filter(lambda c: c != 0)

elements_st = st.lists(st.tuples(reduced_words_st, coefficients_st), max_size=6).map(
    lambda items: GroupRingElement(items, RANK)
)


@given(elements_st, elements_st)
@settings(max_examples=300)
def test_ring_multiply_matches_concatenate_then_reduce(a, b):
    prod = ring_multiply(a, b)
    assert prod == concat_reduce_oracle(a, b)
    assert all(type(c) is Fraction for c in prod.terms().values())
    assert all(c != 0 for c in prod.terms().values())


@given(reduced_words_st, reduced_words_st)
@settings(max_examples=200)
def test_ring_multiply_cancels_across_the_junction(u, v):
    # u * u^-1 * v is v however long the cancelling stretch is
    uu = GroupRingElement.from_word(u)
    prod = ring_multiply(ring_multiply(uu, uu.inverse_unit()), GroupRingElement.from_word(v))
    assert prod == GroupRingElement.from_word(v)
