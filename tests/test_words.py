import copy
import dataclasses
import hashlib
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relators.smallcanc import check_small_cancellation
from relators.words import (
    CyclicWord,
    Presentation,
    Substitution,
    Word,
    _walk,
    count_cyclically_reduced,
    cyclic_reduce,
    enumerate_cyclically_reduced,
    enumerate_necklaces,
    format_word,
    letter_inverse,
    letter_order,
    parse_cyclic_word,
    parse_word,
    reduce,
    reduce_letters,
    sample_cyclically_reduced,
    sample_reduced,
    substitute,
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


def test_cyclic_subword_length_bounds():
    w = parse_cyclic_word("x1 x2 X1 X2", 2)
    assert w.cyclic_subword(2, 0).letters == ()
    assert w.cyclic_subword(1, 4).letters == (2, -1, -2, 1)
    with pytest.raises(ValueError, match="^negative subword length -1$"):
        w.cyclic_subword(0, -1)
    with pytest.raises(ValueError, match="^subword longer than the cycle$"):
        w.cyclic_subword(0, 5)


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
    # replaying one seeded stream gives every word again, in order
    replay = random.Random(11)
    assert words == [sample_reduced(3, 20, replay) for _ in range(50)]
    assert len(set(words)) == 50


def _stream_digest(sampler, rank, draws=200):
    """SHA-256 over repr(letters) of `draws` words drawn from one
    random.Random(11) stream, the k-th of length 1 + k % 24 (cyclic) or
    k % 24 (plain)."""
    rng = random.Random(11)
    h = hashlib.sha256()
    for k in range(draws):
        length = 1 + k % 24 if sampler is sample_cyclically_reduced else k % 24
        h.update(repr(sampler(rank, length, rng).letters).encode())
    return h.hexdigest()


def test_sampler_streams_match_frozen_digests():
    # frozen from the list-rebuilding sampler: every draw, and so every
    # seeded experiment CSV, depends on this exact use of the stream
    assert {r: _stream_digest(sample_cyclically_reduced, r) for r in (2, 3, 4)} == {
        2: "47a15ebd903e17250a07b3a9eb75a3bdb182b878f8013b67adc54c21e144a675",
        3: "f996ae0490cf7fa280cee85e134c6be129759bfdd12bcf9b52f825d47683fe8f",
        4: "c79ca8c55bf74e4517e6e706fbbe60b8ec6d41184fbe6861b6cf3d50b3e4d665",
    }
    assert {r: _stream_digest(sample_reduced, r) for r in (1, 2, 3)} == {
        1: "6d964f71ba8010e38ef50b786952c03a2402319f4fc4ea192aaac935f050b7de",
        2: "91cd32f7de453cd922e2a498a9419df026f0889482896883022e738641ff3bca",
        3: "58fc8be337a90948229aa96f030efb34366aa7d4e62d497c007a6a6c0ed59d8f",
    }


def randrange_walk(rank, length, rng):
    """Oracle: the non-backtracking walk with one ``rng.randrange`` call per
    letter, over the alphabet minus the previous letter's inverse."""
    alphabet = [g for i in range(1, rank + 1) for g in (i, -i)]
    letters = []
    for _ in range(length):
        if letters:
            allowed = [a for a in alphabet if a != -letters[-1]]
            letters.append(allowed[rng.randrange(2 * rank - 1)])
        else:
            letters.append(alphabet[rng.randrange(2 * rank)])
    return tuple(letters)


def randrange_cyclic(rank, length, rng):
    while True:
        w = randrange_walk(rank, length, rng)
        if w[0] != -w[-1]:
            return w


@pytest.mark.parametrize("rank", (1, 2, 3, 4, 7, 8))
def test_getrandbits_sampler_reads_the_randrange_stream(rank):
    # the draw's bit width changes across these ranks, and 2n = 8 at rank 4
    # is a power of two; equal final states mean equal bits consumed
    for seed in range(20):
        for length in (0, 1, 2, 5, 100):
            cases = [(_walk, randrange_walk), (sample_reduced, randrange_walk)]
            if rank >= 2 and length >= 1:
                cases.append((sample_cyclically_reduced, randrange_cyclic))
            for sampler, oracle in cases:
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                got = sampler(rank, length, got_rng)
                got = got if isinstance(got, tuple) else got.letters
                assert got == oracle(rank, length, want_rng)
                assert got_rng.getstate() == want_rng.getstate()


def test_trusted_words_equal_validated_ones():
    for length in range(1, 7):
        for w in enumerate_cyclically_reduced(2, length):
            v = CyclicWord(w.letters, 2)
            assert type(w) is CyclicWord and type(w.letters) is tuple
            assert w == v and hash(w) == hash(v)
    rng = random.Random(4)
    for rank in (2, 3, 4):
        for length in (1, 2, 5, 16):
            w = sample_cyclically_reduced(rank, length, rng)
            v = CyclicWord(w.letters, rank)
            assert type(w.letters) is tuple and w == v and hash(w) == hash(v)
            u = sample_reduced(rank, length, rng)
            assert type(u.letters) is tuple and u == Word(u.letters, rank)
            assert hash(u) == hash(Word(u.letters, rank))


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


@given(letters_st)
def test_exponent_sum_matches_signed_letter_sum(letters):
    w = reduce(letters, 3)
    lts = list(w.letters)
    while len(lts) >= 2 and lts[0] == -lts[-1]:
        lts = lts[1:-1]
    words = [w] + ([CyclicWord(lts, 3)] if lts else [])
    for u in words:
        for g in (1, 2, 3):
            assert u.exponent_sum(g) == sum(
                1 if a == g else -1 if a == -g else 0 for a in u.letters
            )


def least_rotation_classes(rank, length):
    """Oracle: each cyclically reduced word's least rotation under the
    letter order, with the number of words that share it, sorted."""
    alphabet = sorted({a for g in range(1, rank + 1) for a in (g, -g)}, key=letter_order)
    sizes = {}
    for w in enumerate_cyclically_reduced(rank, length):
        w = tuple(map(letter_order, w.letters))
        least = min(w[k:] + w[:k] for k in range(length))
        sizes[least] = sizes.get(least, 0) + 1
    return [(tuple(alphabet[i] for i in w), size) for w, size in sorted(sizes.items())]


def test_necklaces_match_least_rotation_oracle():
    for rank, lengths in ((1, range(1, 11)), (2, range(1, 11)), (3, range(1, 7)), (4, range(1, 6))):
        for length in lengths:
            got = [(w.letters, p) for w, p in enumerate_necklaces(rank, length)]
            assert got == least_rotation_classes(rank, length), (rank, length)


def test_necklaces_are_least_rotations_in_order():
    # past the oracle's reach: every representative is its own least
    # rotation, has the stated period, and comes strictly after the last;
    # the periods count every cyclically reduced word
    for rank, length in ((3, 7), (3, 8), (4, 6)):
        total, last = 0, ()
        for w, p in enumerate_necklaces(rank, length):
            ls = tuple(map(letter_order, w.letters))
            rots = [ls[k:] + ls[:k] for k in range(1, length)] + [ls]
            assert min(rots) == ls and rots.index(ls) + 1 == p
            assert last < ls
            total, last = total + p, ls
        q = 2 * rank - 1
        assert total == q**length + (1 if length % 2 else q)


def test_necklace_periods_of_proper_powers():
    for k in range(1, 6):
        classes = dict((w.letters, p) for w, p in enumerate_necklaces(2, 2 * k))
        assert classes[(1, 2) * k] == 2
        assert classes[(1, -2) * k] == 2
        assert classes[(1,) * (2 * k)] == 1
    assert [(w.letters, p) for w, p in enumerate_necklaces(3, 1)] == [
        ((a,), 1) for a in (1, -1, 2, -2, 3, -3)
    ]
    assert dict((w.letters, p) for w, p in enumerate_necklaces(2, 6))[(1, 1, 2) * 2] == 3
    for bad in ((0, 3), (2, 0)):
        with pytest.raises(ValueError):
            enumerate_necklaces(*bad)


def test_count_closed_form_at_rank_one_and_four():
    for rank, lengths in ((1, range(1, 9)), (4, range(1, 5))):
        for length in lengths:
            assert count_cyclically_reduced(rank, length) == len(
                list(enumerate_cyclically_reduced(rank, length))
            )
    for bad in ((0, 3), (2, 0)):
        with pytest.raises(ValueError):
            count_cyclically_reduced(*bad)


# -- values are frozen dataclasses that pickle and copy -----------------------


def round_trips(value):
    """The value after pickling, a shallow copy and a deep copy."""
    return pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)


words_st = letters_st.map(lambda ls: reduce(ls, 3))
cyclic_words_st = words_st.filter(len).map(lambda w: cyclic_reduce(w)[0])
presentations_st = st.lists(cyclic_words_st, max_size=3).map(lambda rs: Presentation(3, rs))


def same_value(got, cls, letters, rank):
    """got is what the validating constructor makes of letters: equal, with
    the same hash and repr, and a plain letter tuple."""
    want = cls(letters, rank)
    assert type(got) is cls and type(got.letters) is tuple
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


@given(words_st, cyclic_words_st, st.integers(-30, 30), st.data())
def test_derived_words_equal_validated_ones(w, c, k, data):
    same_value(w.inverse(), Word, [-a for a in reversed(w.letters)], 3)
    same_value(c.inverse(), CyclicWord, [-a for a in reversed(c.letters)], 3)
    l = len(c)
    same_value(c.rotation(k), CyclicWord, [c.letters[(k + j) % l] for j in range(l)], 3)
    length = data.draw(st.integers(0, l))
    sub = [c.letters[(k + j) % l] for j in range(length)]
    same_value(c.cyclic_subword(k, length), Word, sub, 3)


def first_inverse_pair(letters, cyclic):
    """Oracle: the first position k whose letter the next one (cyclically,
    for a cyclic word) inverts, or None."""
    l = len(letters)
    ends = l if cyclic else l - 1
    return next((k for k in range(ends) if letters[k] == -letters[(k + 1) % l]), None)


def check_reducedness(letters):
    """Word and CyclicWord accept letters exactly when the oracle finds no
    inverse pair, and otherwise name its position."""
    letters = tuple(letters)
    for cls, cyclic, kind in ((Word, False, "freely"), (CyclicWord, True, "cyclically")):
        k = first_inverse_pair(letters, cyclic)
        if cyclic and not letters:
            with pytest.raises(ValueError, match="^cyclic word must be nonempty$"):
                cls(letters, 3)
        elif k is None:
            assert cls(letters, 3).letters == letters
        else:
            with pytest.raises(ValueError, match=f"^word is not {kind} reduced at position {k}$"):
                cls(letters, 3)


@st.composite
def planted_letters(draw):
    """Letters over rank 3, raw or freely reduced, with 0-2 inverse pairs
    planted at drawn positions; position |w| - 1 plants the wrap pair."""
    letters = list(draw(st.one_of(letters_st, words_st.map(lambda w: w.letters))))
    for _ in range(draw(st.integers(0, 2)) if letters else 0):
        last = len(letters) - 1
        k = draw(st.one_of(st.just(last), st.integers(0, last)))
        letters[(k + 1) % len(letters)] = -letters[k]
    return letters


@given(planted_letters())
@settings(max_examples=300)
def test_reducedness_checks_name_the_loop_oracles_first_position(letters):
    check_reducedness(letters)


def test_reducedness_checks_on_every_short_word():
    alphabet = (1, -1, 2, -2, 3, -3)
    for length in range(4):
        for letters in itertools.product(alphabet, repeat=length):
            check_reducedness(letters)


@given(st.lists(words_st, min_size=1, max_size=4), st.one_of(words_st, cyclic_words_st))
def test_substitute_is_reduce_of_raw_image(images, w):
    """The one substitution path: a Word or a CyclicWord (read from its
    basepoint) goes to the free reduction of its raw image, images that
    cancel completely included; a word over more generators than there
    are images is refused."""
    s = Substitution(images)
    if w.rank > s.source_rank:
        with pytest.raises(ValueError, match="substitution has"):
            substitute(s, w)
        return
    assert substitute(s, w) == reduce(s.raw_image(w), s.target_rank)


@st.composite
def cancelling_substitutions(draw):
    """A substitution whose images cancel where they meet (conjugates g^-1 u g of
    one glue word g, g itself and its inverse), with identity images, and a word
    over its source rank with inverse letters, read as a Word or a CyclicWord."""
    glue = draw(words_st.filter(len))
    images = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["conjugate", "glue", "inverse", "identity", "word"]))
        if kind == "conjugate":
            core = draw(words_st)
            images.append(reduce(glue.inverse().letters + core.letters + glue.letters, 3))
        elif kind == "glue":
            images.append(glue)
        elif kind == "inverse":
            images.append(glue.inverse())
        elif kind == "identity":
            images.append(Word((), 3))
        else:
            images.append(draw(words_st))
    rank = len(images)
    letters = draw(st.lists(st.sampled_from([a for g in range(1, rank + 1) for a in (g, -g)]), max_size=12))
    w = reduce(letters, rank)
    if len(w) and draw(st.booleans()):
        w = cyclic_reduce(w)[0]
    return Substitution(images), w


@given(cancelling_substitutions())
def test_substitute_cancels_only_where_images_meet(case):
    """Cancelling at image boundaries only is the free reduction of the raw
    image, which stays the oracle."""
    s, w = case
    assert substitute(s, w).letters == reduce_letters(s.raw_image(w))


def test_substitute_cancels_to_the_identity():
    u = Word((1, 2, -1), 2)
    s = Substitution([u, u.inverse(), Word((), 2)])
    assert substitute(s, CyclicWord((1, 2, 3), 3)) == Word((), 2)
    assert substitute(s, Word((3, 2, 3, 1, 3), 3)) == Word((), 2)
    assert substitute(s, CyclicWord((1, 3, 1), 3)) == Word((1, 2, 2, -1), 2)


@given(st.one_of(words_st, cyclic_words_st, presentations_st))
def test_values_pickle_and_copy(value):
    for back in round_trips(value):
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        assert repr(back) == repr(value)


@given(st.lists(words_st, min_size=1, max_size=3))
def test_substitutions_pickle_and_copy(images):
    s = Substitution(images)
    for back in round_trips(s):
        assert type(back) is Substitution and back.images == s.images
        assert back.raw_image(Word((1, 1), 1)) == 2 * list(images[0].letters)


def test_piece_report_converts_with_asdict():
    relators = (CyclicWord((1, 2, 1, -2), 2), CyclicWord((1, 2, 2, 2), 2))
    ok, report = check_small_cancellation(relators, Fraction(1, 6))
    assert not ok
    d = dataclasses.asdict(report)
    assert d["longest_piece_length"] == report.longest_piece_length
    assert d["subword"] == {"letters": report.subword.letters, "rank": 2}


def test_fields_stay_read_only():
    w = Word((1, 2), 2)
    values = (
        (w, "letters"),
        (CyclicWord((1, 2), 2), "rank"),
        (Presentation(2, ()), "relators"),
        (Substitution([w]), "images"),
    )
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
