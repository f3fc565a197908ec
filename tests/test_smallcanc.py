import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relators import smallcanc
from relators.abelian import Slope, enumerate_kernel_slopes
from relators.embed import build_w_words, embed_presentation
from relators.mincond import check_minimum_condition
from relators.smallcanc import PieceReport, check_small_cancellation, longest_piece
from relators.words import (
    CyclicWord,
    Presentation,
    Substitution,
    cyclic_reduce,
    enumerate_cyclically_reduced,
    parse_cyclic_word,
    sample_cyclically_reduced,
    substitute,
)


def oriented_texts(relators):
    texts = []
    for r in relators:
        texts.append(r)
        texts.append(r.inverse())
    return texts


def brute_pair_maxima(relators):
    """Oracle: index every cyclic subword of every oriented text.

    A full-length occurrence inside a single text is one position no matter
    where the window starts (all rotations read the same cycle); everything
    else is a (text, offset) position.  A subword is a piece when it has at
    least two positions; the per-pair table keeps, for every unordered pair
    of oriented texts, the longest subword with a position in each.
    """
    texts = oriented_texts(relators)
    occurrences = {}
    for ti, t in enumerate(texts):
        length = len(t.letters)
        for ln in range(1, length + 1):
            for off in range(length):
                sub = t.cyclic_subword(off, ln).letters
                pos = (ti, "full") if ln == length else (ti, off)
                occurrences.setdefault(sub, set()).add(pos)
    best = {}
    for sub, positions in occurrences.items():
        if len(positions) < 2:
            continue
        for (ta, _), (tb, _) in itertools.combinations(sorted(positions), 2):
            key = (min(ta, tb), max(ta, tb))
            if len(sub) > best.get(key, 0):
                best[key] = len(sub)
    return best


def brute_longest_piece(relators):
    best = brute_pair_maxima(relators)
    return max(best.values(), default=0)


def brute_c_prime(relators, lam):
    texts = oriented_texts(relators)
    for (a, b), p in brute_pair_maxima(relators).items():
        bound = min(len(texts[a].letters), len(texts[b].letters))
        if p * lam.denominator >= lam.numerator * bound:
            return False
    return True


def split(table):
    """A scan table as (longest piece lengths, witness offsets)."""
    return {k: v[0] for k, v in table.items()}, {k: v[1] for k, v in table.items()}


def scan_one(relators):
    """One tuple's table from the batch scan, split."""
    return split(smallcanc._pair_maxima_batch((relators,))[0])


def test_power_relator_collapse():
    r = parse_cyclic_word("x1 x1 x1 x1 x1 x1 x1 x1", 2)
    assert longest_piece((r,)).longest_piece_length == 7


def test_commutator_pieces():
    r = parse_cyclic_word("x1 x2 X1 X2", 2)
    rep = longest_piece((r,))
    assert rep.longest_piece_length == 1


def test_full_length_across_two_relators_counts():
    a = parse_cyclic_word("x1 x2", 2)
    b = parse_cyclic_word("x2 x1", 2)
    assert longest_piece((a, b)).longest_piece_length == 2


def test_piece_witness_is_a_real_double_occurrence():
    r = parse_cyclic_word("x1 x2 x1 x2 X1 X2", 2)
    rep = longest_piece((r,))
    texts = oriented_texts((r,))
    for loc in (rep.location_a, rep.location_b):
        t = texts[2 * loc.relator + (1 if loc.inverted else 0)]
        sub = t.cyclic_subword(loc.offset, rep.longest_piece_length)
        assert sub.letters == rep.subword.letters
    assert rep.location_a != rep.location_b


def test_pair_maxima_against_brute_force_enumerated():
    words = [w for w in enumerate_cyclically_reduced(2, 4)]
    for r in words[::5]:
        best, _ = scan_one((r,))
        assert best == brute_pair_maxima((r,))


def test_pair_maxima_against_brute_force_sampled_pairs():
    rng = random.Random(20240229)
    for n, l in ((2, 6), (2, 8), (3, 5), (3, 8)):
        for _ in range(12):
            t = (
                sample_cyclically_reduced(n, l, rng),
                sample_cyclically_reduced(n, rng.randrange(2, l + 1), rng),
            )
            best, _ = scan_one(t)
            assert best == brute_pair_maxima(t)


def test_check_matches_brute_force_decision():
    rng = random.Random(5)
    lams = [Fraction(1, 6), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    for _ in range(40):
        t = tuple(
            sample_cyclically_reduced(2, rng.randrange(2, 9), rng)
            for _ in range(rng.randrange(1, 3))
        )
        for lam in lams:
            ok, rep = check_small_cancellation(t, lam)
            assert ok == brute_c_prime(t, lam)
            assert isinstance(rep, PieceReport)


def test_rotation_and_inversion_invariance():
    rng = random.Random(77)
    for _ in range(20):
        a = sample_cyclically_reduced(2, 9, rng)
        b = sample_cyclically_reduced(2, 7, rng)
        base = longest_piece((a, b)).longest_piece_length
        assert longest_piece((a.rotation(3), b)).longest_piece_length == base
        assert longest_piece((a, b.inverse())).longest_piece_length == base
        assert longest_piece((b, a)).longest_piece_length == base


def test_monotone_in_lambda():
    rng = random.Random(13)
    for _ in range(25):
        t = (sample_cyclically_reduced(2, 10, rng),)
        prev = False
        for q in (12, 8, 6, 4, 3, 2, 1):
            ok, _ = check_small_cancellation(t, Fraction(1, q))
            assert not (prev and not ok)  # passing a smaller lambda implies larger
            prev = prev or ok


def test_lambda_validation():
    r = parse_cyclic_word("x1 x2", 2)
    for bad in (Fraction(0), Fraction(-1, 6), Fraction(3, 2)):
        with pytest.raises(ValueError):
            check_small_cancellation((r,), bad)


@pytest.mark.parametrize("bad", [0.5, "1/2", 1e-1])
def test_lambda_must_be_exact(bad):
    # a float is not the rational it was meant to be, and text goes
    # through parse_fraction: both raise TypeError, as float ring
    # coefficients do
    r = parse_cyclic_word("x1 x2", 2)
    with pytest.raises(TypeError, match="lambda must be an int or Fraction"):
        check_small_cancellation((r,), bad)
    with pytest.raises(TypeError, match="lambda must be an int or Fraction"):
        smallcanc._verdicts([(r,)], bad)
    assert check_small_cancellation((r,), 1)[0]


def test_no_pieces_at_all():
    # x1 x2 x2 over rank 2: subwords shared with the inverse text only?
    r = parse_cyclic_word("x1 x2 x2", 2)
    rep = longest_piece((r,))
    assert rep.longest_piece_length == brute_longest_piece((r,))


def test_single_letter_relator():
    r = CyclicWord((1,), 2)
    rep = longest_piece((r,))
    assert rep.longest_piece_length == 0
    ok, _ = check_small_cancellation((r,), Fraction(1, 6))
    assert ok


@st.composite
def cyclic_words(draw, rank, max_length=14):
    """A cyclically reduced word of 1..max_length letters over `rank`."""
    alphabet = [a for a in range(-rank, rank + 1) if a]
    length = draw(st.integers(1, max_length))
    letters = [draw(st.sampled_from(alphabet))]
    while len(letters) < length:
        last = len(letters) == length - 1
        options = [a for a in alphabet if a != -letters[-1] and not (last and a == -letters[0])]
        letters.append(draw(st.sampled_from(options)))
    return CyclicWord(letters, rank)


@st.composite
def relator_tuples(draw):
    """Tuples of 1-3 relators: fresh words, proper powers, duplicated
    relators and rotated copies."""
    rank = draw(st.integers(2, 3))
    relators = [draw(cyclic_words(rank))]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["fresh", "power", "duplicate", "rotation"]))
        base = draw(st.sampled_from(relators))
        if kind == "fresh":
            relators.append(draw(cyclic_words(rank)))
        elif kind == "power":
            root = draw(cyclic_words(rank, max_length=7))
            relators.append(CyclicWord(root.letters * draw(st.integers(2, 14 // len(root))), rank))
        elif kind == "duplicate":
            relators.append(base)
        else:
            relators.append(base.rotation(draw(st.integers(0, len(base) - 1))))
    return tuple(draw(st.permutations(relators)))


def assert_witnesses_valid(relators, best, wit):
    assert set(wit) == set(best)
    texts = oriented_texts(relators)
    for (a, b), (oa, ob) in wit.items():
        assert 0 <= oa < len(texts[a]) and 0 <= ob < len(texts[b])
        assert (a, oa) != (b, ob)
        k = best[(a, b)]
        assert texts[a].cyclic_subword(oa, k) == texts[b].cyclic_subword(ob, k)


@given(relator_tuples())
@settings(max_examples=300, deadline=None)
def test_pair_maxima_tables_and_every_witness(relators):
    best, wit = scan_one(relators)
    assert best == brute_pair_maxima(relators)
    assert_witnesses_valid(relators, best, wit)


@given(relator_tuples())
@settings(max_examples=200, deadline=None)
def test_inverted_witness_is_read_off_the_relator(relators):
    """`_report` reads a piece of r^-1 from r itself; the old expression,
    which built the whole r^-1 first, is the oracle."""
    for r in relators:
        l = len(r)
        for o, k in itertools.product(range(l), range(1, l + 1)):
            assert r.cyclic_subword(-(o + k) % l, k).inverse() == r.inverse().cyclic_subword(o, k)
    (table,) = smallcanc._pair_maxima_batch((relators,))
    for key, (length, offs) in table.items():
        r = relators[key[0] // 2]
        old = (r.inverse() if key[0] % 2 else r).cyclic_subword(offs[0], length)
        assert smallcanc._report(relators, table, [key]).subword == old


def test_success_report_comes_from_the_one_scan(monkeypatch):
    calls = []
    scan = smallcanc._pair_maxima_batch
    monkeypatch.setattr(smallcanc, "_pair_maxima_batch", lambda ts: calls.append(ts) or scan(ts))
    rng = random.Random(31)
    passed = 0
    for _ in range(20):
        t = (sample_cyclically_reduced(2, 60, rng), sample_cyclically_reduced(2, 40, rng))
        calls.clear()
        ok, rep = check_small_cancellation(t, Fraction(1, 2))
        assert len(calls) == 1
        if ok:
            passed += 1
            assert rep == longest_piece(t)
    assert passed


@pytest.mark.parametrize("root_length, power", [(2, 3000), (7, 800)])
def test_long_proper_power_next_to_random_word(root_length, power):
    """Ranks of the rotations of a proper power never become distinct, so the
    sort stops once it covers the longest text; the longest piece of a
    proper power u^k is |u^k| - 1 (its rotation by |u| is itself)."""
    rng = random.Random(3000 + root_length)
    root = (1, 2) if root_length == 2 else sample_cyclically_reduced(2, root_length, rng).letters
    periodic = CyclicWord(root * power, 2)
    other = sample_cyclically_reduced(2, 2000, rng)
    relators = (periodic, other)
    best, wit = scan_one(relators)
    assert best[(0, 0)] == best[(1, 1)] == len(periodic) - 1
    assert max(best.values()) == len(periodic) - 1
    assert max(v for (a, b), v in best.items() if b >= 2) < 40  # random: O(log) pieces
    assert_witnesses_valid(relators, best, wit)
    assert longest_piece(relators).longest_piece_length == len(periodic) - 1
    ok, rep = check_small_cancellation(relators, Fraction(1, 6))
    assert not ok and rep.longest_piece_length == len(periodic) - 1


@st.composite
def tuple_batches(draw):
    """Lists of 1-6 relator tuples of ranks 2-4; some slots repeat the tuple
    before them."""
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["tuple", "rank 4", "repeat"]))
        if kind == "repeat" and batch:
            batch.append(batch[-1])
        elif kind == "rank 4":
            batch.append(tuple(draw(st.lists(cyclic_words(4), min_size=1, max_size=3))))
        else:
            batch.append(draw(relator_tuples()))
    return batch


@given(tuple_batches())
@settings(max_examples=200, deadline=None)
def test_pair_maxima_batch_tables_and_every_witness(batch):
    results = smallcanc._pair_maxima_batch(batch)
    assert len(results) == len(batch)
    for relators, table in zip(batch, results):
        best, wit = split(table)
        assert best == brute_pair_maxima(relators)
        assert_witnesses_valid(relators, best, wit)


@given(tuple_batches(), relator_tuples(), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_a_tuples_table_does_not_depend_on_its_batch(others, relators, middle):
    # alone, first, last or between other tuples: the scan has one path for
    # every batch size, so the table and its witnesses are the same
    (alone,) = smallcanc._pair_maxima_batch((relators,))
    for at in (0, len(others), min(middle, len(others))):
        batch = others[:at] + [relators] + others[at:]
        assert smallcanc._pair_maxima_batch(batch)[at] == alone


def test_pair_maxima_batch_never_pairs_across_tuples():
    # alone, x1 and x1 x2 have no piece; next to an identical tuple, or to a
    # tuple with the same letters, they still have none
    x1, x1x2 = parse_cyclic_word("x1", 2), parse_cyclic_word("x1 x2", 2)
    batch = [(x1,), (x1,), (parse_cyclic_word("x1 x1", 2),), (x1,), (x1x2,), (x1x2,)]
    tables = smallcanc._pair_maxima_batch(batch)
    assert [split(t)[0] for t in tables] == [{}, {}, {(0, 0): 1, (1, 1): 1}, {}, {}, {}]
    assert smallcanc._verdicts(batch, Fraction(1, 6)) == [True, True, False, True, True, True]


FROZEN_TABLES = "95cb9b10f20e035c"


def frozen_tables_digest():
    """Digest of the tables and witnesses of 60 seeded tuples, some with a
    proper power, whose tied rotations fix the witnesses only through the
    scan's tie order."""
    # hashed as (text lengths, sorted lengths, sorted witnesses), the view
    # the digest was frozen with, so check-sc reports keep their witnesses
    rng = random.Random(2024)
    tables = []
    for _ in range(60):
        n = rng.randrange(2, 5)
        t = [
            sample_cyclically_reduced(n, rng.randrange(1, 40), rng)
            for _ in range(rng.randrange(1, 4))
        ]
        if rng.random() < 0.3:
            t.append(CyclicWord(t[0].letters * 3, n))
        lengths = [len(r) for r in t for _ in range(2)]
        best, wit = scan_one(tuple(t))
        tables.append((lengths, sorted(best.items()), sorted(wit.items())))
    return hashlib.sha256(repr(tables).encode()).hexdigest()[:16]


def test_single_tuple_tables_and_witnesses_frozen():
    assert frozen_tables_digest() == FROZEN_TABLES


def test_tie_order_does_not_depend_on_the_cpu():
    # numpy's default argsort dispatches on CPU features, and its AVX-512
    # sort orders ties differently from the others; with those features
    # disabled the digest must not move
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; "
        "from test_smallcanc import frozen_tables_digest; print(frozen_tables_digest())"
    )
    paths = [str(Path(smallcanc.__file__).parents[1]), str(Path(__file__).parent)]
    digests = []
    for disabled in (None, "X86_V4 AVX512_ICL AVX512_SPR"):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        done = subprocess.run(
            [sys.executable, "-c", code, *paths], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert digests == [FROZEN_TABLES, FROZEN_TABLES]


@pytest.mark.parametrize("power", [2, 3, 50, 2000])
def test_proper_power_witness_is_the_first_pair_by_rotation_index(power):
    # (x1 x2 x2)^e: the rotations at offsets 0, 3, 6, ... tie on every
    # level and sort first in each text, so the witness is offsets 0 and 3
    best, wit = scan_one((CyclicWord((1, 2, 2) * power, 2),))
    assert best[(0, 0)] == best[(1, 1)] == 3 * power - 1
    assert wit[(0, 0)] == wit[(1, 1)] == (0, 3)


def test_verdicts_match_check_small_cancellation():
    rng = random.Random(41)
    batch = [
        tuple(sample_cyclically_reduced(2, rng.randrange(1, 30), rng) for _ in range(rng.randrange(1, 4)))
        for _ in range(40)
    ]
    for lam in (Fraction(1, 6), Fraction(1, 3), Fraction(1, 1)):
        assert smallcanc._verdicts(batch, lam) == [check_small_cancellation(t, lam)[0] for t in batch]



def doubling_layout(tuples):
    """The oracle's text layout, the packed scan's too: each relator then its
    inverse, tuple after tuple.  Returns per-text (tuple, local index) lists,
    sizes and first rotations, each rotation's text, the longest text, the
    dense (tuple, letter) rank of each letter and the next letter cyclically."""
    parts, group, local = [], [], []  # per text: its tuple, its index there
    for g, relators in enumerate(tuples):
        for r in relators:
            fwd = np.asarray(r.letters, dtype=np.int64)
            parts += (fwd, -fwd[::-1])
        group += [g] * (2 * len(relators))
        local += range(2 * len(relators))
    lengths = [len(p) for p in parts]
    size = np.asarray(lengths, dtype=np.int64)
    first = np.cumsum(size) - size
    n = int(size.sum())
    text = np.repeat(np.arange(len(parts)), size)
    group = np.asarray(group)
    codes = np.concatenate(parts)
    span = 2 * int(np.abs(codes).max()) + 1
    codes += np.repeat(group * span + span // 2, size)
    rank = (np.cumsum(np.bincount(codes) > 0) - 1)[codes]  # dense (tuple, letter) ranks
    step = np.arange(1, n + 1)
    step[first + size - 1] = first  # the next letter, cyclically
    return group, local, size, first, text, max(lengths), rank, step


def doubling_sorted_rotations(tuples):
    """Oracle: the plain prefix-doubling sort, one argsort per level from
    the single letters up, every level and jump kept in int64, and the LCP
    of every sorted neighbour pair stepping down every level to level 0.
    The sorts are stable, so tied rotations stay in rotation-index order.
    Returns the sorted rotations and gap[s], the LCP of sorted s - 1 and s
    capped at the longest text."""
    *_, top, rank, step = doubling_layout(tuples)
    n = len(rank)
    levels, jumps = [rank], [step]  # level j: rank of 2^j letters, jump 2^j letters
    order = np.argsort(rank, kind="stable")
    while 1 << (len(levels) - 1) < top and rank[order[-1]] < n - 1:
        key = rank * n + rank[jumps[-1]]
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        rank = np.empty(n, dtype=np.int64)
        rank[order[0]] = 0
        rank[order[1:]] = np.cumsum(sorted_key[1:] != sorted_key[:-1])
        levels.append(rank)
        jumps.append(jumps[-1][jumps[-1]])

    pa, pb = order[:-1].copy(), order[1:].copy()
    lcp = np.zeros(n - 1, dtype=np.int64)
    for j in range(len(levels) - 1, -1, -1):
        same = np.flatnonzero(levels[j][pa] == levels[j][pb])
        lcp[same] += 1 << j
        pa[same] = jumps[j][pa[same]]
        pb[same] = jumps[j][pb[same]]
    return order, np.minimum(np.concatenate(([0], lcp)), top)


def doubling_pair_maxima_batch(tuples):
    """Oracle: the pair tables from `doubling_sorted_rotations`, with a
    tuple-indexed table of text lengths for the caps.  The packed scan must
    return the same tables, witness offsets included."""
    group, local, size, first, text, top, _, _ = doubling_layout(tuples)
    order, gap = doubling_sorted_rotations(tuples)
    n = len(order)
    owner = text[order]
    offs = order - first[owner]
    at = np.empty(n, dtype=np.int64)
    at[order] = np.arange(n)  # sorted index of each rotation, text by text
    big = top + 1
    found: list[dict[tuple[int, int], tuple[int, int, tuple[int, int]]]] = [{} for _ in tuples]
    own_group, own_local = group[owner], np.asarray(local)[owner]
    text_len = np.zeros((len(tuples), max(local) + 1), dtype=np.int64)
    text_len[group, local] = size  # |text i| of each tuple, 0 if it has none
    for i in range(max(local) + 1):
        lt = text_len[own_group, i]
        hit = own_local == i
        seg = np.cumsum(np.concatenate(([False], hit[:-1])))  # restarts after each i
        run = np.minimum.accumulate(gap - seg * big) + seg * big
        cap = np.where(hit, lt - 1, np.minimum(size[owner], lt))
        val = np.where(seg > 0, np.minimum(run, cap), 0)[at]
        peak = np.maximum.reduceat(val, first)
        where = np.minimum.reduceat(np.where(val == np.repeat(peak, size), at, n), first)
        occ = np.flatnonzero(hit)
        for u in np.flatnonzero(peak > 0).tolist():
            s = int(where[u])
            prev, cur = int(offs[occ[seg[s] - 1]]), int(offs[s])
            v = local[u]
            key, pair = ((i, v), (prev, cur)) if i <= v else ((v, i), (cur, prev))
            cand = (-int(peak[u]), s, pair)
            table = found[group[u]]
            if key not in table or cand < table[key]:
                table[key] = cand
    return [{k: (-cand[0], cand[2]) for k, cand in table.items()} for table in found]


@st.composite
def scanner_tuples(draw, rank):
    """1-3 relators over `rank`: fresh words up to 40 letters, one-letter
    words, proper powers up to 80 letters, and rotated, inverted or
    duplicated copies of an earlier relator (so neighbour LCPs run past
    the packed prefix)."""
    relators = [draw(cyclic_words(rank, max_length=40))]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["fresh", "letter", "power", "rotation", "inverse", "duplicate"]))
        base = draw(st.sampled_from(relators))
        if kind == "fresh":
            relators.append(draw(cyclic_words(rank, max_length=40)))
        elif kind == "letter":
            relators.append(CyclicWord((draw(st.sampled_from([1, -1, rank, -rank])),), rank))
        elif kind == "power":
            root = draw(cyclic_words(rank, max_length=8))
            relators.append(CyclicWord(root.letters * draw(st.integers(2, 80 // len(root))), rank))
        elif kind == "rotation":
            relators.append(base.rotation(draw(st.integers(0, len(base) - 1))))
        elif kind == "inverse":
            relators.append(base.inverse())
        else:
            relators.append(base)
    return tuple(draw(st.permutations(relators)))


@st.composite
def scanner_batches(draw):
    """Batches of 1 or 16 tuples (or a size between), ranks 2-130."""
    count = draw(st.sampled_from([1, 16, draw(st.integers(2, 15))]))
    ranks = st.one_of(st.integers(2, 4), st.integers(5, 130))
    return [draw(scanner_tuples(draw(ranks))) for _ in range(count)]


@given(scanner_batches())
@settings(max_examples=60, deadline=None)
def test_packed_scan_matches_doubling_oracle(batch):
    assert smallcanc._pair_maxima_batch(batch) == doubling_pair_maxima_batch(batch)


@pytest.mark.parametrize(
    "batch",
    [
        [(CyclicWord((1, 2) * 40, 2),)],  # (x1 x2)^40: every rotation ties its shift by 2
        [(CyclicWord((1,), 2),)],  # one letter: level 0 is the only level
        [(CyclicWord((1,), 2), CyclicWord((-2,), 2))],
        [(CyclicWord((1, 2, 1, -2) * 9, 2), CyclicWord((2, 1, -2, 1) * 9, 2))],
        [(CyclicWord((1, 2) * 40, 2),), (CyclicWord((2, 1) * 40, 2),)] * 8,
        [(CyclicWord((130, -1, 7) * 20, 130), CyclicWord((-7, 1, -130) * 20, 130))],
        # one generator and its inverse: b = 1 bit a letter, 64 letters a code (k = 6)
        [(CyclicWord((1,) * 100, 2),)],
        [(CyclicWord((1,) * 100, 2), CyclicWord((-1,) * 70, 2))],
        # b = 2 on texts over 32 letters: 32 letters a code (k = 5)
        [(CyclicWord((1, 2, -1, 2) * 12, 2), CyclicWord((2, 1, 2, -1) * 9 + (2, 2), 2))],
        # X2^16 x1 sorts right after the last rotation of X2^17, which
        # itself follows the rotation one letter before it: the LCP chain
        # along X2^17 must stop at the start of the next text
        [(CyclicWord((2,) * 17, 2), CyclicWord((-2,) * 16 + (1,), 2)), (CyclicWord((-2,), 2),)],
        # x1 x1 x2 x1 x1 x2 x1 ... and x1 x1 x2 x1 x1 x1 x2 ... share 5 letters, more than
        # D = 4: the rule orders them by rotation index, not by their sixth letters
        [(CyclicWord((1, 1, 2), 2), CyclicWord((1, 1, 2, 1), 2))],
    ],
)
def test_packed_scan_matches_doubling_oracle_on_powers(batch):
    assert smallcanc._pair_maxima_batch(batch) == doubling_pair_maxima_batch(batch)
    assert_scan_order_matches_oracle(batch)


def assert_scan_order_matches_oracle(batch):
    """The scan's sorted rotations and every neighbour LCP are the doubling oracle's."""
    seen = []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    real = smallcanc._sorted_rotations
    with mock.patch.object(smallcanc, "_sorted_rotations", spy):
        smallcanc._pair_maxima_batch(batch)
    ((order, gap),) = seen
    expected_order, expected_gap = doubling_sorted_rotations(batch)
    assert order.tolist() == expected_order.tolist()
    assert gap.tolist() == expected_gap.tolist()


def walk(rng, rank, length, after=0, before=0):
    """A reduced word of `length` letters over `rank` whose first letter
    does not cancel `after` and whose last does not cancel `before`."""
    letters = []
    alphabet = [a for a in range(-rank, rank + 1) if a]
    for left in range(length, 0, -1):
        ban = {-(letters[-1] if letters else after)} | ({-before} if left == 1 else set())
        letters.append(rng.choice([a for a in alphabet if a not in ban]))
    return tuple(letters)


@st.composite
def planted_batches(draw):
    """A tuple of two words sharing a planted block of 40-300 letters (the
    second copy inverted or not), at random rotations, over rank 2, 5 or
    130, with a proper power or a duplicate beside them; batched alone or
    twice (packed levels k = 5, 4 and 3 alone, one less twice)."""
    rank = draw(st.sampled_from([2, 5, 130]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    block = walk(rng, rank, draw(st.integers(40, 300)))
    a = block + walk(rng, rank, draw(st.integers(1, 60)), block[-1], block[0])
    if draw(st.booleans()):
        block = tuple(-x for x in reversed(block))
    b = block + walk(rng, rank, draw(st.integers(1, 60)), block[-1], block[0])
    relators = [CyclicWord(w, rank).rotation(draw(st.integers(0, len(w) - 1))) for w in (a, b)]
    extra = draw(st.sampled_from(["none", "power", "duplicate"]))
    if extra == "power":
        root = walk(rng, rank, draw(st.integers(1, 6)))
        root = root if root[0] != -root[-1] else root[:1]
        relators.append(CyclicWord(root * draw(st.integers(2, 60)), rank))
    elif extra == "duplicate":
        relators.append(draw(st.sampled_from(relators)))
    return [tuple(draw(st.permutations(relators)))] * draw(st.integers(1, 2))


@given(planted_batches())
@settings(max_examples=40, deadline=None)
def test_packed_scan_matches_doubling_oracle_on_planted_blocks(batch):
    tables = smallcanc._pair_maxima_batch(batch)
    assert tables == doubling_pair_maxima_batch(batch)
    assert max(length for length, _ in tables[0].values()) >= 40


@given(st.one_of(scanner_batches(), planted_batches()))
@settings(max_examples=60, deadline=None)
def test_sorted_rotations_match_doubling_oracle(batch):
    # the order and every neighbour LCP, not only the tables they give: a
    # wrong gap can hide under a pair maximum
    seen = []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    real = smallcanc._sorted_rotations
    with mock.patch.object(smallcanc, "_sorted_rotations", spy):
        smallcanc._pair_maxima_batch(batch)
    ((order, gap),) = seen
    expected_order, expected_gap = doubling_sorted_rotations(batch)
    assert order.tolist() == expected_order.tolist()
    assert gap.tolist() == expected_gap.tolist()


@st.composite
def run_words(draw, rank):
    """A cyclically reduced word made of runs of 1-80 letters (over 64, longer than
    one packed code at any letter width)."""
    alphabet = [a for a in range(-rank, rank + 1) if a]
    letters = []
    for _ in range(draw(st.integers(1, 6))):
        options = [a for a in alphabet if not letters or a not in (letters[-1], -letters[-1])]
        letters += [draw(st.sampled_from(options))] * draw(st.sampled_from([1, 2, 3, 7, 31, 33, 65, 80]))
    if letters[0] == -letters[-1]:
        letters.append(next(a for a in alphabet if a not in (letters[0], -letters[0], -letters[-1])))
    return CyclicWord(letters, rank)


@st.composite
def w_word_targets(draw):
    """A cyclically reduced w-word of a block height N, or the image of a short
    source word under all of them: z-runs of heights 1..N between y letters."""
    big_n = draw(st.integers(2, 6))
    words = build_w_words(3, 1, Slope((0, 1, -1)), big_n)
    if draw(st.booleans()):
        w = draw(st.sampled_from(words))
    else:
        w = substitute(Substitution(words), draw(cyclic_words(3, max_length=6)))
    core = cyclic_reduce(w)[0]
    return core if len(core) else CyclicWord((2,), 2)


@st.composite
def run_heavy_tuples(draw):
    """1-4 relators made of runs: run words, w-word targets, one repeated letter at
    several lengths (no run start, so every rotation stays tied), and rotations and
    inverses of an earlier relator."""
    rank = draw(st.sampled_from([1, 2, 3]))
    if rank == 1 or draw(st.booleans()):
        letter = draw(st.sampled_from([1, -1, 2, -2] if rank > 1 else [1, -1]))
        lengths = draw(st.lists(st.sampled_from([1, 2, 3, 31, 32, 33, 64, 65, 100]), min_size=1, max_size=3))
        relators = [CyclicWord((letter,) * l, max(rank, 2)) for l in lengths]
        rank = max(rank, 2)
    else:
        relators = []
    relators.append(draw(st.one_of(run_words(rank), w_word_targets() if rank == 2 else run_words(rank))))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["runs", "rotation", "inverse"]))
        base = draw(st.sampled_from(relators))
        if kind == "runs":
            relators.append(draw(run_words(rank)))
        elif kind == "rotation":
            relators.append(base.rotation(draw(st.integers(0, len(base) - 1))))
        else:
            relators.append(base.inverse())
    return tuple(draw(st.permutations(relators)))


@given(st.sampled_from([1, 16]).flatmap(lambda count: st.lists(run_heavy_tuples(), min_size=count, max_size=count)))
@settings(max_examples=40, deadline=None)
def test_run_scan_matches_doubling_oracle_on_run_heavy_batches(batch):
    # tied rotations are placed from their runs: the order, every neighbour LCP
    # and every table must still be the plain doubling scan's
    assert_scan_order_matches_oracle(batch)
    assert smallcanc._pair_maxima_batch(batch) == doubling_pair_maxima_batch(batch)


def embedding_target():
    """The C'(1/6) target of a seeded guaranteed embedding of an l = 100
    relator over F_3 (n = 3, m = 1), as the bench's embed workload draws it."""
    rng = random.Random(1)
    while True:
        r = sample_cyclically_reduced(3, 100, rng)
        p = Presentation(3, (r,))
        if not check_small_cancellation((r,), Fraction(1, 7))[0]:
            continue
        slopes = enumerate_kernel_slopes(p, 8, primitive_only=True)
        phi = next((s for s in slopes if check_minimum_condition((r,), s)), None)
        if phi is not None:
            return embed_presentation(p, phi, Fraction(1), guarantee_c16=True)[1].target


def test_embedding_target_matches_doubling_oracle():
    # tens of thousands of letters made of repeated w-word copies: almost
    # every neighbour LCP is inherited along a chain, not descended
    target = embedding_target()
    assert smallcanc._pair_maxima_batch((target,)) == doubling_pair_maxima_batch((target,))
    order, gap = doubling_sorted_rotations((target,))
    step = doubling_layout((target,))[-1]
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    pred, lcp = order[at - 1], gap[at]  # per rotation: its sorted predecessor, their LCP
    # rotations x whose x - 1 is in the same text, both with a predecessor
    x = np.flatnonzero((step[:-1] == np.arange(1, len(order))) & (at[1:] > 0) & (at[:-1] > 0)) + 1
    inherited = (lcp[x] == lcp[x - 1] - 1) & (pred[x] == step[pred[x - 1]]) & (lcp[x - 1] > 0)
    assert len(order) > 90_000 and inherited.mean() > 0.95


def test_empty_batch_has_no_tables():
    assert smallcanc._pair_maxima_batch([]) == []
    assert smallcanc._verdicts([], Fraction(1, 6)) == []


def test_packed_scan_refuses_2_to_the_31_letters():
    # the letter count is checked before any array is built
    class Long:
        letters = ()

        def __len__(self):
            return 1 << 29

    with pytest.raises(ValueError, match="fewer than 2\\^31"):
        smallcanc._pair_maxima_batch([(Long(), Long())])
    with pytest.raises(ValueError, match="fewer than 2\\^31"):
        smallcanc._pair_maxima_batch([(Long(),)] * 2)
