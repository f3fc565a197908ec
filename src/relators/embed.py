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

N is searched upward; every claimed property is re-checked by the piece
scanner and the minimum-condition decision procedure rather than trusted
from the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .abelian import Slope
from .mincond import (
    MinConditionFailure,
    MinConditionWitness,
    Relabeling,
    check_minimum_condition,
    height_profile,
    standard_witness,
    standardize,
)
from .smallcanc import PieceReport, check_small_cancellation, longest_piece
from .words import CyclicWord, Presentation, Substitution, Word, cyclic_reduce, reduce_letters


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
        assert w.is_cyclically_reduced()
        out.append(w)
    psi = _target_slope(m)
    assert all(
        psi.of_word(w) == phi.of_generator(i) for i, w in enumerate(out, start=1)
    )
    return tuple(out)


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
    """Search the smallest block height N whose w-words pass C'(1/12) and
    whose substituted relators pass the psi-minimum condition with the
    identity roles (and C'(1/6), when guaranteed); verify the profile
    identities exactly along the way.

    With guarantee_c16 the theorem hypotheses are enforced up front: the
    source must pass C'(1/(6+epsilon)) and every relator length must exceed
    12 + 72/epsilon (exact rational comparison).
    """
    m = len(p.relators)
    n = p.rank
    if m > n - 2:
        raise ValueError("embedding requires at most n-2 relators")
    witness = check_minimum_condition(p.relators, phi)
    if isinstance(witness, MinConditionFailure):
        raise ValueError(
            f"minimum condition fails (relator {witness.relator}): {witness.reason}"
        )
    relators, std_phi, relab = standardize(p.relators, phi, witness)

    if guarantee_c16:
        if epsilon is None or Fraction(epsilon) <= 0:
            raise ValueError("the C'(1/6) guarantee needs epsilon > 0")
        eps = Fraction(epsilon)
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
    phi_min = tuple(height_profile(r, std_phi).min_height for r in relators)
    n_start = max(2, max(abs(v) for v in std_phi.values) + 1)

    for big_n in range(n_start, max_block_height + 1):
        words = build_w_words(n, m, std_phi, big_n)
        w_cyclic = tuple(CyclicWord(w.letters, m + 1) for w in words)
        w_ok, w_rep = check_small_cancellation(w_cyclic, Fraction(1, 12))
        if not w_ok:
            continue

        sub = Substitution(words)
        raws = [sub.raw_image(r) for r in relators]
        target = []
        stats_raw = []
        stats_cancel = []
        ok_profile = True
        for i, raw in enumerate(raws):
            reduced = reduce_letters(raw)
            base, _ = cyclic_reduce(Word(reduced, m + 1))
            target.append(base)
            stats_raw.append(len(raw))
            stats_cancel.append((len(raw) - len(base)) // 2)
            psi_min = min(accumulate(map(psi.of_letter, raw), initial=0))
            if psi_min != phi_min[i] - big_n * (big_n + 1) // 2:
                ok_profile = False
        if not ok_profile:
            continue

        s_witness = standard_witness(tuple(target), psi)
        if isinstance(s_witness, MinConditionFailure):
            continue

        s_ok: Optional[bool] = None
        if guarantee_c16:
            s_ok, s_rep = check_small_cancellation(tuple(target), Fraction(1, 6))
            if not s_ok:
                continue
            piece_rep = s_rep
        else:
            piece_rep = longest_piece(tuple(target))

        # length accounting: delta is the max relative deviation of |w_i|
        nsq = big_n * big_n
        delta = max(Fraction(abs(len(w) - nsq), nsq) for w in words)
        stats = LengthStats(
            lengths=tuple(len(s) for s in target),
            raw_lengths=tuple(stats_raw),
            cancelled_pairs=tuple(stats_cancel),
            delta=delta,
            band_low=nsq * min(len(r) for r in relators) * (1 - 3 * delta),
            band_high=nsq * max(len(r) for r in relators) * (1 + 2 * delta),
        )
        for i, s in enumerate(target):
            l_i = len(relators[i])
            assert stats.lengths[i] >= l_i * min(len(w) for w in words) - 2 * stats_cancel[i]
            assert nsq * l_i * (1 - 3 * delta) <= len(s) <= nsq * l_i * (1 + 2 * delta)
            assert psi.of_word(s) == 0

        plan = EmbeddingPlan(
            source=p,
            slope=std_phi,
            block_growth=big_n,
            target_rank=m + 1,
            words=words,
            target_slope=psi,
        )
        report = EmbeddingReport(
            target=tuple(target),
            word_piece_report=w_rep,
            word_small_cancellation_ok=w_ok,
            piece_report=piece_rep,
            small_cancellation_ok=s_ok,
            witness=s_witness,
            psi_min=tuple(
                phi_min[i] - big_n * (big_n + 1) // 2 for i in range(m)
            ),
            phi_min=phi_min,
            length_stats=stats,
            relabeling=relab,
        )
        return plan, report
    raise RuntimeError(
        f"no block height N <= {max_block_height} passes all embedding checks"
    )
