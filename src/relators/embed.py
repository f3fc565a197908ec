"""Embedding a minimum-condition presentation into a 2-generator-per-relator
small-cancellation target.

Given (p, phi) in standard minimum form with m <= n-2 relators, each source
generator x_i is sent to a word w_i over y_1..y_m, z built from z-run blocks
of heights 1..N, -N..-1 separated by y-blocks.  The key profile facts, with
psi the target slope (y_i -> 0, z -> -1):

  * psi(w_i) = phi(x_i) exactly;
  * for i < n the psi-profile of w_i dips to -N(N+1)/2, exactly along the
    single y-block after the z^N run;
  * w_n's initial-segment minimum is phi(x_n) - N(N-1)/2.

Because the x_n-dip is strictly shallower than the x_i-dip, the substituted
relator s_i inherits its psi-minimum from the phi-minimum of r_i, landing on
a lone flat y_i edge flanked by z-letters: the minimum condition transfers
with i-role y_i and n-role z, and the raw-loop minimum satisfies
psi_min(i) = phi_min(i) - N(N+1)/2.

N is searched upward, and a height is rejected only on small cancellation:
the w-words fail C'(1/12), on a piece found by comparing two slices of a
w-word (`_visible_piece`) or by the scanner, or, under the C'(1/6)
guarantee, the target fails C'(1/6).  Every other claimed property, the
psi-minimum identity and the identity witness included, is an invariant,
re-checked exactly and never trusted: a failure raises `AssertionError`
(not `assert`, so the checks hold under ``python -O`` too).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .abelian import Slope
from .mincond import (
    MinConditionFailure,
    MinConditionWitness,
    Relabeling,
    _height_steps,
    _heights,
    _profiles,
    _standard_form,
    standard_witness,
)
from .smallcanc import PieceReport, _exact, check_small_cancellation, longest_piece
from .words import CyclicWord, Presentation, Substitution, Word, cyclic_reduce, substitute


class BlockHeightExceeded(RuntimeError):
    """Raised when no block height up to the cap passes the small-cancellation
    checks."""


@dataclass(frozen=True)
class EmbeddingPlan:
    source: Presentation
    slope: Slope  # standard-form phi on the source
    block_growth: int  # N
    target_rank: int  # m + 1: y_1..y_m then z
    words: tuple[Word, ...]  # w_1..w_n over the target rank
    target_slope: Slope  # psi: y_i -> 0, z -> -1


@dataclass(frozen=True)
class LengthStats:
    lengths: tuple[int, ...]  # |s_i| after cyclic reduction
    raw_lengths: tuple[int, ...]  # before any cancellation
    cancelled_pairs: tuple[int, ...]  # (raw - |s_i|) / 2 per relator
    delta: Fraction  # max relative deviation of |w_i| from N^2
    band_low: Fraction  # N^2 * l * (1 - 3 delta)
    band_high: Fraction  # N^2 * l * (1 + 2 delta)


@dataclass(frozen=True)
class EmbeddingReport:
    target: tuple[CyclicWord, ...]  # s_1..s_m
    word_piece_report: PieceReport  # longest piece across the w-tuple
    word_small_cancellation_ok: bool  # C'(1/12) on the w-tuple
    piece_report: PieceReport  # longest piece across the s-tuple
    small_cancellation_ok: Optional[bool]  # C'(1/6) on s, when requested
    witness: MinConditionWitness  # identity witness for (s, psi)
    psi_min: tuple[int, ...]  # raw-loop psi minima, one per relator
    phi_min: tuple[int, ...]  # source height-profile minima
    length_stats: LengthStats
    relabeling: Relabeling  # source standardization applied first


def build_w_words(n: int, m: int, phi: Slope, big_n: int) -> tuple[Word, ...]:
    """The generator images w_1..w_n over rank m+1 for block height N.

    w_i (i <= m):    [z^1 y_i z^2 y_i .. z^N y_i z^-N y_i .. z^-1 y_i] z^-phi(x_i) y_i
    w_i (m < i < n): same z-blocks with y_1^(i-m+1) separators
    w_n:             z^-phi(x_n) Y z^1 Y .. z^(N-1) Y z^-(N-1) Y .. z^-1 Y
                     with Y = y_1^(n-m+1)

    >>> ws = build_w_words(3, 1, Slope((0, 2, -1)), 3)
    >>> ws[0]
    Word('x2 x1 x2 x2 x1 x2 x2 x2 x1 X2 X2 X2 x1 X2 X2 x1 X2 x1 x1', rank=2)
    """
    if m < 1 or m > n - 2:
        raise ValueError("need 1 <= m <= n-2 relators")
    if len(phi) != n:
        raise ValueError("slope rank mismatch")
    if any(phi.of_generator(g) < 0 for g in range(1, n)) or phi.of_generator(n) >= 0:
        raise ValueError("slope must be in standard form")
    if big_n <= max(abs(v) for v in phi.values):
        raise ValueError("block height must exceed every |phi(x_i)|")
    if big_n < 2:
        raise ValueError("block height must be at least 2")
    target = m + 1
    z = target

    def z_run(e: int) -> tuple[int, ...]:
        return (z,) * e if e >= 0 else (-z,) * (-e)

    out = []
    for i in range(1, n + 1):
        if i <= m:
            y_block: tuple[int, ...] = (i,)
        elif i < n:
            y_block = (1,) * (i - m + 1)
        else:
            y_block = (1,) * (n - m + 1)
        if i < n:
            blocks = (
                [z_run(k) for k in range(1, big_n + 1)]
                + [z_run(-k) for k in range(big_n, 0, -1)]
                + [z_run(-phi.of_generator(i))]
            )
        else:
            blocks = (
                [z_run(-phi.of_generator(n))]
                + [z_run(k) for k in range(1, big_n)]
                + [z_run(-k) for k in range(big_n - 1, 0, -1)]
            )
        letters: list[int] = []
        for b in blocks:
            letters.extend(b)
            letters.extend(y_block)
        w = Word(letters, target)
        if not w.is_cyclically_reduced():
            raise AssertionError(f"w_{i} is not cyclically reduced")
        if -w.exponent_sum(z) != phi.of_generator(i):  # psi is -1 on z, 0 on y
            raise AssertionError(f"psi(w_{i}) != phi(x_{i})")
        out.append(w)
    return tuple(out)


def _visible_piece(w: Word, big_n: int, y_len: int) -> bool:
    """Whether w_i (i < n), with y-blocks of y_len letters, fails C'(1/12)
    on sight: P = z^(N-2) Y z^(N-1) starts block N-2 and again one letter
    into block N-1, so it is a piece of w_i, and it breaks C'(1/12) once
    12 |P| >= |w_i|.  The two slices are compared, not assumed equal, so
    True is always a checked rejection of N."""
    size = 2 * big_n - 3 + y_len
    if big_n < 3 or 12 * size < len(w):
        return False
    # block k (from 1) starts after blocks 1..k-1 and their y-blocks
    a = (big_n - 3) * (big_n - 2) // 2 + (big_n - 3) * y_len
    b = (big_n - 2) * (big_n - 1) // 2 + (big_n - 2) * y_len + 1
    return w.letters[a : a + size] == w.letters[b : b + size]


def _image_heights(sub: Substitution, step: list[int]) -> list[tuple[int, int]]:
    """At index a, for each letter a, the height total and the least prefix
    height (the empty prefix included) of its image under sub."""
    out = []
    for image in sub.letter_images:
        heights = list(_heights(image, step))
        out.append((heights[-1], min(heights)))
    return out


def _raw_min_height(letters: tuple[int, ...], image_heights: list[tuple[int, int]]) -> int:
    """min(_heights(raw image of letters, step)), exactly, without walking the
    raw image: each letter's image reaches its least height above the height
    at which it starts."""
    height = low = 0
    for a in letters:
        total, least = image_heights[a]
        low = min(low, height + least)
        height += total
    return low


def _target_slope(m: int) -> Slope:
    return Slope((0,) * m + (-1,))


def embed_presentation(
    p: Presentation,
    phi: Slope,
    epsilon: Fraction | None = None,
    *,
    guarantee_c16: bool = False,
    max_block_height: int = 64,
) -> tuple[EmbeddingPlan, EmbeddingReport]:
    """Search the smallest block height N whose w-words pass C'(1/12) (and
    whose target passes C'(1/6), when guaranteed).  The profile identities and
    the target's psi-minimum condition with the identity roles are invariants:
    each is checked exactly, and a failure raises AssertionError.

    With guarantee_c16 the theorem hypotheses are enforced up front: the
    source must pass C'(1/(6+epsilon)) and every relator length must exceed
    12 + 72/epsilon (exact rational comparison).  epsilon must be an int or
    a Fraction; a float or str raises TypeError.
    """
    m = len(p.relators)
    n = p.rank
    if max_block_height < 2:
        raise ValueError(f"max_block_height must be >= 2, got {max_block_height}")
    if m > n - 2:
        raise ValueError("embedding requires at most n-2 relators")
    eps = None if epsilon is None else _exact(epsilon, "epsilon")
    _, relators, std_phi, relab = _standard_form(p.relators, phi)

    if guarantee_c16:
        if eps is None or eps <= 0:
            raise ValueError("the C'(1/6) guarantee needs epsilon > 0")
        lam = 1 / (6 + eps)
        ok, rep = check_small_cancellation(relators, lam)
        if not ok:
            raise ValueError(
                f"source fails C'({lam}): piece length {rep.longest_piece_length}"
            )
        for idx, r in enumerate(relators):
            if not (len(r) > 12 + 72 / eps):
                raise ValueError(
                    f"relator {idx} has length {len(r)} <= 12 + 72/epsilon"
                )

    psi = _target_slope(m)
    z = m + 1
    step = _height_steps(psi)
    phi_min = tuple(map(min, _profiles(relators, std_phi)))
    n_start = max(2, max(abs(v) for v in std_phi.values) + 1)
    y_lens = [1 if i <= m else i - m + 1 for i in range(1, n)]

    for big_n in range(n_start, max_block_height + 1):
        words = build_w_words(n, m, std_phi, big_n)
        if any(_visible_piece(w, big_n, y) for w, y in zip(words, y_lens)):
            continue  # a checked piece rejects N; only the scan below accepts one
        # build_w_words checked that each w_i is cyclically reduced
        w_cyclic = tuple(cyclic_reduce(w)[0] for w in words)
        w_ok, w_rep = check_small_cancellation(w_cyclic, Fraction(1, 12))
        if not w_ok:
            continue
        # psi_min(i) = phi_min(i) - N(N+1)/2, measured on the raw image loops
        sub = Substitution(words)
        image_heights = _image_heights(sub, step)
        psi_min = tuple(_raw_min_height(r.letters, image_heights) for r in relators)
        if any(lo != f - big_n * (big_n + 1) // 2 for lo, f in zip(psi_min, phi_min)):
            raise AssertionError("psi_min != phi_min - N(N+1)/2")

        target = tuple(cyclic_reduce(substitute(sub, r))[0] for r in relators)
        for i, s in enumerate(target):
            if s.exponent_sum(z):
                raise AssertionError(f"psi(s_{i + 1}) != 0")
        s_witness = standard_witness(target, psi)
        if isinstance(s_witness, MinConditionFailure):
            raise AssertionError(f"the target fails the identity witness: {s_witness.detail}")

        s_ok: Optional[bool] = None
        if guarantee_c16:
            s_ok, piece_rep = check_small_cancellation(target, Fraction(1, 6))
            if not s_ok:
                continue
        else:
            piece_rep = longest_piece(target)

        # length accounting: delta is the max relative deviation of |w_i|
        nsq = big_n * big_n
        delta = max(Fraction(abs(len(w) - nsq), nsq) for w in words)
        raw_lengths = tuple(sum(len(words[abs(a) - 1]) for a in r.letters) for r in relators)
        stats = LengthStats(
            lengths=tuple(len(s) for s in target),
            raw_lengths=raw_lengths,
            cancelled_pairs=tuple((raw - len(s)) // 2 for raw, s in zip(raw_lengths, target)),
            delta=delta,
            band_low=nsq * min(len(r) for r in relators) * (1 - 3 * delta),
            band_high=nsq * max(len(r) for r in relators) * (1 + 2 * delta),
        )
        for i, s in enumerate(target):
            l_i = len(relators[i])
            if not nsq * l_i * (1 - 3 * delta) <= len(s) <= nsq * l_i * (1 + 2 * delta):
                raise AssertionError(f"|s_{i + 1}| = {len(s)} is outside its length band")

        plan = EmbeddingPlan(
            source=p,
            slope=std_phi,
            block_growth=big_n,
            target_rank=m + 1,
            words=words,
            target_slope=psi,
        )
        report = EmbeddingReport(
            target=target,
            word_piece_report=w_rep,
            word_small_cancellation_ok=w_ok,
            piece_report=piece_rep,
            small_cancellation_ok=s_ok,
            witness=s_witness,
            psi_min=psi_min,
            phi_min=phi_min,
            length_stats=stats,
            relabeling=relab,
        )
        return plan, report
    raise BlockHeightExceeded(
        f"no block height N <= {max_block_height} passes all embedding checks"
    )
