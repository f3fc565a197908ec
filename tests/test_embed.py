import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import relators
from relators import embed

from relators.abelian import Slope, enumerate_kernel_slopes, enumerate_valid_slopes
from relators.embed import build_w_words, embed_presentation
from relators.mincond import (
    _height_steps,
    _heights,
    check_minimum_condition,
    height_profile,
    standard_witness,
)
from relators.smallcanc import check_small_cancellation, longest_piece
from relators.words import (
    CyclicWord,
    Presentation,
    Substitution,
    Word,
    cyclic_reduce,
    parse_cyclic_word,
    sample_cyclically_reduced,
    substitute,
)


def test_w_words_frozen_small():
    ws = build_w_words(3, 1, Slope((0, 2, -1)), 3)
    assert ws[0] == Word((2, 1, 2, 2, 1, 2, 2, 2, 1, -2, -2, -2, 1, -2, -2, 1, -2, 1, 1), 2)
    # length formulas: N^2+3N+1+|phi_i| for the y_i rows, N(N+1)+|phi_i| plus
    # separator letters in the middle rows, N^2-N+|phi_n| plus separators last
    assert [len(w) for w in ws] == [19, 28, 22]
    ws = build_w_words(3, 1, Slope((0, 2, -1)), 20)
    assert [len(w) for w in ws] == [461, 504, 498]
    ws = build_w_words(4, 2, Slope((1, 0, 3, -2)), 6)
    assert len(ws) == 4
    assert [w.rank for w in ws] == [3, 3, 3, 3]


def test_w_words_preserve_slope_values():
    for n, m, phi, big_n in (
        (3, 1, Slope((0, 2, -1)), 5),
        (4, 2, Slope((1, 0, 3, -2)), 7),
        (5, 2, Slope((0, 0, 1, 2, -3)), 9),
    ):
        ws = build_w_words(n, m, phi, big_n)
        psi = Slope((0,) * m + (-1,))
        for i, w in enumerate(ws, start=1):
            assert psi.of_word(w) == phi.of_generator(i)
            assert w.is_cyclically_reduced()
        assert len(set(ws)) == n


def test_w_words_validations():
    phi = Slope((0, 2, -1))
    with pytest.raises(ValueError):
        build_w_words(3, 2, phi, 5)  # m > n-2
    with pytest.raises(ValueError):
        build_w_words(3, 0, phi, 5)
    with pytest.raises(ValueError):
        build_w_words(3, 1, Slope((0, 2)), 5)  # rank mismatch
    with pytest.raises(ValueError):
        build_w_words(3, 1, Slope((0, -2, -1)), 5)  # not standard form
    with pytest.raises(ValueError):
        build_w_words(3, 1, Slope((0, 2, 1)), 5)  # last value not negative
    with pytest.raises(ValueError):
        build_w_words(3, 1, phi, 2)  # N <= max |phi|


def test_w_words_piece_ratio_shrinks_with_block_height():
    phi = Slope((0, 2, -1))
    ratios = []
    for big_n in (4, 6, 8, 12):
        ws = build_w_words(3, 1, phi, big_n)
        cyc = tuple(CyclicWord(w.letters, 2) for w in ws)
        rep = longest_piece(cyc)
        ratios.append(Fraction(rep.longest_piece_length, min(len(w) for w in ws)))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_embed_worked_example_frozen():
    p = Presentation(3, (parse_cyclic_word("x3 x1 X3 X1", 3),))
    plan, report = embed_presentation(p, Slope((0, 2, -1)))
    assert plan.block_growth == 20
    assert plan.target_rank == 2
    assert [len(w) for w in plan.words] == [461, 504, 498]
    assert plan.target_slope == Slope((0, -1))
    assert report.length_stats.raw_lengths == (1918,)
    assert report.length_stats.lengths == (1910,)
    assert report.length_stats.cancelled_pairs == (4,)
    assert report.length_stats.delta == Fraction(13, 50)
    assert report.length_stats.band_low == 352
    assert report.length_stats.band_high == 2432
    assert report.phi_min == (-1,)
    assert report.psi_min == (-211,)  # phi_min - N(N+1)/2
    assert report.witness.n_role == 2
    assert report.witness.i_roles == (1,)
    assert report.word_small_cancellation_ok
    assert report.small_cancellation_ok is None  # no C'(1/6) guarantee requested
    # a commutator source is nowhere near C'(1/7), so the target need not be
    # C'(1/6): the image shares a long stretch with its own inverse
    assert report.piece_report.longest_piece_length == 494
    assert report.relabeling.is_identity()


def test_embed_worked_example_recomputed_independently():
    p = Presentation(3, (parse_cyclic_word("x3 x1 X3 X1", 3),))
    plan, report = embed_presentation(p, Slope((0, 2, -1)))
    psi = plan.target_slope

    # route the substitution through the generic homomorphism machinery
    sub = Substitution(plan.words)
    for r, s in zip(p.relators, report.target):
        image = substitute(sub, Word(r.letters, 3))
        base, _ = cyclic_reduce(image)
        assert base == s
        assert psi.of_word(Word(s.letters, 2)) == 0

    # psi minimum over the unreduced image loop, accumulated by hand
    for r, expected in zip(p.relators, report.psi_min):
        heights = []
        h = 0
        for a in r.letters:
            img = plan.words[abs(a) - 1]
            letters = img.letters if a > 0 else img.inverse().letters
            for b in letters:
                h += psi.of_letter(b)
                heights.append(h)
        assert min(heights) == expected
        assert h == 0

    # the target minimum condition and the piece report, checked directly
    assert standard_witness(report.target, psi)
    got = check_minimum_condition(report.target, psi)
    assert got
    rep = longest_piece(report.target)
    assert rep.longest_piece_length == report.piece_report.longest_piece_length

    # source profile minima agree with the profile module
    for r, lo in zip(p.relators, report.phi_min):
        assert height_profile(r, plan.slope).min_height == lo


def test_embed_rejects_too_many_relators():
    t = (parse_cyclic_word("x3 x1 X3 X1", 3), parse_cyclic_word("x3 x2 X3 X2", 3))
    with pytest.raises(ValueError):
        embed_presentation(Presentation(3, t), Slope((0, 0, -1)))


def test_embed_rejects_minimum_condition_failure():
    # doubled lower section -> two components -> no witness
    r = parse_cyclic_word("x1 x3 X1 X3 x1 x3 X1 X3", 3)
    with pytest.raises(ValueError, match="minimum condition"):
        embed_presentation(Presentation(3, (r,)), Slope((0, 2, -1)))


def test_embed_guarantee_validations():
    p = Presentation(3, (parse_cyclic_word("x3 x1 X3 X1", 3),))
    with pytest.raises(ValueError, match="epsilon"):
        embed_presentation(p, Slope((0, 2, -1)), guarantee_c16=True)
    # a commutator is far from C'(1/7), and far too short
    with pytest.raises(ValueError):
        embed_presentation(
            p, Slope((0, 2, -1)), Fraction(1), guarantee_c16=True
        )


@pytest.mark.parametrize("eps", [1.0, "1", "1e0", 0.5])
@pytest.mark.parametrize("guarantee", [True, False])
def test_embed_epsilon_must_be_exact(eps, guarantee):
    # Fraction(eps) would take a float's binary value and expand exponent
    # strings; epsilon follows the lambda rule instead
    p = Presentation(3, (parse_cyclic_word("x3 x1 X3 X1", 3),))
    with pytest.raises(TypeError, match="epsilon must be an int or Fraction"):
        embed_presentation(p, Slope((0, 2, -1)), eps, guarantee_c16=guarantee)


def test_embed_guaranteed_random_source():
    rng = random.Random(77)
    while True:
        r = CyclicWord(sample_cyclically_reduced(3, 100, rng).letters, 3)
        p = Presentation(3, (r,))
        ok, _ = check_small_cancellation((r,), Fraction(1, 7))
        if not ok:
            continue
        phi = next(
            (
                s
                for s in enumerate_valid_slopes(p, 2)
                if check_minimum_condition((r,), s)
            ),
            None,
        )
        if phi is None:
            continue
        break
    plan, report = embed_presentation(p, phi, Fraction(1), guarantee_c16=True)
    assert report.small_cancellation_ok is True
    assert report.witness.n_role == plan.target_rank
    assert report.witness.i_roles == tuple(range(1, len(p.relators) + 1))
    stats = report.length_stats
    for ln in stats.lengths:
        assert stats.band_low <= ln <= stats.band_high
    psi = plan.target_slope
    for s in report.target:
        assert psi.of_word(Word(s.letters, plan.target_rank)) == 0


@st.composite
def standard_forms(draw):
    """(n, m, phi): n = 3-5, 1 <= m <= n-2, phi >= 0 on x_1..x_{n-1} and
    negative on x_n, every |entry| at most 4."""
    n = draw(st.integers(3, 5))
    m = draw(st.integers(1, n - 2))
    values = draw(st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1))
    return n, m, Slope(values + [draw(st.integers(-4, -1))])


@given(standard_forms())
@settings(max_examples=40, deadline=None)
def test_block_height_skip_only_rejects_failing_heights(case):
    n, m, phi = case
    y_lens = [1 if i <= m else i - m + 1 for i in range(1, n)]
    n_start = max(2, max(abs(v) for v in phi.values) + 1)
    for big_n in range(n_start, 26):
        words = build_w_words(n, m, phi, big_n)
        if any(embed._visible_piece(w, big_n, y) for w, y in zip(words, y_lens)):
            cyclic = tuple(CyclicWord(w.letters, m + 1) for w in words)
            assert not check_small_cancellation(cyclic, Fraction(1, 12))[0], big_n


@st.composite
def raw_image_cases(draw):
    """(m, w-words, source relator): 2 <= m <= n-2 with n <= 5, a standard
    form phi with every |entry| at most 4, block height N up to 8, and a
    cyclically reduced relator over x_1..x_n of 1-60 letters."""
    m = draw(st.integers(2, 3))
    n = draw(st.integers(m + 2, 5))
    values = draw(st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1))
    phi = Slope(values + [draw(st.integers(-4, -1))])
    big_n = draw(st.integers(max(2, max(abs(v) for v in phi.values) + 1), 8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return m, build_w_words(n, m, phi, big_n), sample_cyclically_reduced(n, draw(st.integers(1, 60)), rng)


@given(raw_image_cases())
@settings(max_examples=60, deadline=None)
def test_raw_min_height_matches_the_streamed_heights(case):
    # the least psi height of the raw image, from one summary per image, is
    # the minimum over every prefix height of the raw image itself
    m, words, r = case
    step = _height_steps(embed._target_slope(m))
    raw = Substitution(words).raw_image(r)
    assert embed._raw_min_height(r.letters, embed._image_heights(words, step)) == min(_heights(raw, step))


def test_block_height_skip_rejects_only_small_heights():
    # |P| = 2N - 3 + |Y| grows linearly and |w_i| quadratically, so the skip
    # rejects N up to a point and never after: for w_1 here 12 (2N - 2) >=
    # N^2 + 3N + 1 holds for N = 3..19, and the worked example's scan
    # accepts N = 20
    phi = Slope((0, 2, -1))
    rejected = [
        big_n
        for big_n in range(3, 40)
        if embed._visible_piece(build_w_words(3, 1, phi, big_n)[0], big_n, 1)
    ]
    assert rejected == list(range(3, 20))


def _embed_cases():
    rng = random.Random(1414)
    cases = [(Presentation(3, (parse_cyclic_word("x3 x1 X3 X1", 3),)), Slope((0, 2, -1)), {})]
    while len(cases) < 4:
        r = sample_cyclically_reduced(3, 60, rng)
        p = Presentation(3, (r,))
        phi = next(
            (s for s in enumerate_kernel_slopes(p, 6, primitive_only=True) if check_minimum_condition((r,), s)),
            None,
        )
        if phi is not None:
            cases.append((p, phi, {}))
    t = (parse_cyclic_word("x4 x1 X4 X1", 4), parse_cyclic_word("x4 x2 X4 x3 X2 X3", 4))
    cases.append((Presentation(4, t), Slope((0, 0, 1, -1)), {}))
    while len(cases) < 6:  # a guaranteed embedding: C'(1/7) source of length 100
        r = sample_cyclically_reduced(3, 100, rng)
        p = Presentation(3, (r,))
        if not check_small_cancellation((r,), Fraction(1, 7))[0]:
            continue
        phi = next(
            (s for s in enumerate_kernel_slopes(p, 8, primitive_only=True) if check_minimum_condition((r,), s)),
            None,
        )
        if phi is not None:
            cases.append((p, phi, {"epsilon": Fraction(1), "guarantee_c16": True}))
    return cases


@pytest.mark.parametrize("p, phi, kwargs", _embed_cases())
def test_block_height_skip_keeps_plan_and_report(monkeypatch, p, phi, kwargs):
    calls = []
    skip = embed._visible_piece
    monkeypatch.setattr(embed, "_visible_piece", lambda *a: calls.append(skip(*a)) or calls[-1])
    with_skip = embed_presentation(p, phi, **kwargs)
    assert any(calls)  # the skip rejected some height
    monkeypatch.setattr(embed, "_visible_piece", lambda *a: False)
    assert embed_presentation(p, phi, **kwargs) == with_skip


def test_checks_survive_python_dash_O():
    """The invariants of the construction and of `standardize` are checked
    by raising, so `python -O`, which strips `assert` statements, still
    refuses a corrupted result."""
    script = textwrap.dedent(
        """
        from fractions import Fraction
        from relators import embed, mincond
        from relators.abelian import Slope
        from relators.words import CyclicWord, Presentation, Word, parse_cyclic_word, substitute

        assert False, "this line is stripped under -O"

        # a w-word that loses its first z letter breaks psi(w_i) = phi(x_i)
        embed.Word = lambda letters, rank: Word(tuple(letters)[1:], rank)
        try:
            embed.build_w_words(3, 1, Slope((0, 2, -1)), 5)
        except AssertionError as exc:
            print("w-words:", exc)
        embed.Word = Word

        # a target read twice over leaves its length band
        embed.substitute = lambda sub, r: substitute(sub, CyclicWord(r.letters * 2, r.rank))
        embed.standard_witness = lambda target, psi: mincond.MinConditionWitness(2, (1,), ("edge",), (1, 1))
        p = Presentation(3, (parse_cyclic_word("x3 x1 X3 X1", 3),))
        try:
            embed.embed_presentation(p, Slope((0, 2, -1)))
        except AssertionError as exc:
            print("target:", exc)

        # inversion signs that leave phi(x_n) positive break the standard form
        t = (parse_cyclic_word("x2 x1 X2 X1", 2),)
        witness = mincond.check_minimum_condition(t, Slope((0, 1)))
        mincond._inversion_signs = lambda phi, g: (1,) * len(phi)
        try:
            mincond.standardize(t, Slope((0, 1)), witness)
        except AssertionError as exc:
            print("standardize:", exc)
        """
    )
    src = str(pathlib.Path(relators.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    words, target, std = done.stdout.splitlines()
    assert words == "w-words: psi(w_1) != phi(x_1)"
    assert target.startswith("target: |s_1| = ") and target.endswith(" is outside its length band")
    assert std == "standardize: standardized slope is not negative on x_n"


def test_target_that_psi_does_not_annihilate_raises_the_invariant(monkeypatch):
    """psi(s_i) = 0 is checked on the target before `standard_witness`, whose
    height profile would otherwise refuse the target with a ValueError: a
    substitution that leaves one extra z letter raises the AssertionError."""
    z = Word((2,), 2)
    monkeypatch.setattr(embed, "substitute", lambda sub, r: substitute(sub, r) * z)
    p = Presentation(3, (parse_cyclic_word("x3 x1 X3 X1", 3),))
    with pytest.raises(AssertionError, match=r"^psi\(s_1\) != 0$"):
        embed_presentation(p, Slope((0, 2, -1)))
