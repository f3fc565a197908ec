"""Piece enumeration and metric small-cancellation checking.

A *piece* of a relator tuple is a reduced word occurring as a cyclic subword
at two distinct positions, where a position is (relator, orientation, cyclic
offset): occurrences inside inverses and self-overlaps at distinct offsets
all count.  One deliberate boundary case: an occurrence whose length equals
the whole relator is counted once per oriented copy regardless of offset
(every rotation of the full word "occurs" at every offset, which would
otherwise make any relator a piece of itself).

The C'(lambda) check demands |w| < lambda * |r| for every piece w and *both*
relators r carrying the two occurrences; lambda is an exact rational and the
comparison is done in integers.

The search sorts the cyclic rotations of the oriented relator texts
themselves (no doubled copies, no separators) by numpy prefix doubling
(Manber-Myers 1993): one sort of packed codes that each hold a rotation's
first 2^k letters, then at each level a re-sort of the rotations still tied
only (Larsson-Sadakane 2007), ties ending in rotation-index order on every
CPU.  One vectorized pass over the sorted rotations yields every pair
maximum, so the verdict and the longest-piece report come from a single
scan and relator tuples with hundreds of thousands of letters stay
tractable; the quadratic window scan and the
unpacked doubling scan are kept as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .words import CyclicWord, Word


@dataclass(frozen=True)
class PieceLocation:
    """One occurrence: relator index, whether it lies in the inverse copy,
    and the cyclic start offset within that oriented copy."""

    relator: int
    inverted: bool
    offset: int


@dataclass(frozen=True)
class PieceReport:
    longest_piece_length: int
    subword: Word | None
    location_a: PieceLocation | None
    location_b: PieceLocation | None

    @property
    def witness(self) -> tuple[Word, PieceLocation, PieceLocation] | None:
        if self.subword is None:
            return None
        return (self.subword, self.location_a, self.location_b)


def _pair_maxima(relators: Sequence[CyclicWord]):
    """For each unordered pair of oriented texts (2 per relator), the longest
    common cyclic subword length after the full-length collapsing rule, plus
    a witness offset pair.  Returns (lengths_per_text, best, witness_offsets)
    with dict keys (text_a, text_b), text = 2*relator + (1 if inverted)."""
    return _pair_maxima_batch((relators,))[0]


def _pair_maxima_batch(tuples: Sequence[Sequence[CyclicWord]]):
    """The `_pair_maxima` triple of every relator tuple, from one sort.

    Every rotation of every text is sorted by prefix doubling on cyclic
    shifts (rank level j orders the first 2^j letters), stopping once the
    ranks are distinct or the sorted prefix covers the longest text, which
    bounds every piece.  The fine levels are packed: with b bits per dense
    letter rank, the first 2^k letters of a rotation fit in one int64 code
    (largest k with b * 2^k <= 62 and 2^(k-1) below the longest text), and
    one sort of those codes gives level k directly; levels below k are never
    built, and each later level re-sorts the rotations still tied only.  The
    LCP of sorted neighbours comes from stepping down the kept levels to k
    (neighbours with equal codes only) and reading the last (fewer than 2^k)
    letters off the XOR of the two packed codes.  A pair of texts shares a
    piece of length k exactly when some occurrence of one follows an
    occurrence of the other with no neighbour LCP below k in between, so
    one running minimum per text that restarts at each of its occurrences
    finds every pair maximum.

    The packed codes order the rotations as the level-k doubling keys do,
    and ties end in rotation-index order, so the sort permutation, and with
    it every table and witness, is the plain stable doubling scan's on every
    CPU, proper powers' tied rotations included.

    Letters are ranked as (tuple index, letter) pairs, so every rotation of
    one tuple sorts before every rotation of the next and the LCP between
    them is 0: a running minimum never carries a piece across tuples.  One
    scan per local text index i serves every tuple at once, capped by the
    length of text i of each rotation's own tuple."""
    n = 2 * sum(len(r) for relators in tuples for r in relators)
    if n >= 1 << 31:
        raise ValueError(f"{n} letters: the piece scan takes fewer than 2^31")
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
    text = np.repeat(np.arange(len(parts)), size)
    top = max(lengths)
    group = np.asarray(group)
    batched = len(tuples) > 1

    codes = np.concatenate(parts)
    span = 2 * int(np.abs(codes).max()) + 1
    codes += span // 2
    if batched:
        codes += np.repeat(group * span, size)
    present = np.cumsum(np.bincount(codes) > 0)
    packed = (present - 1)[codes]  # dense (tuple, letter) ranks
    # every text comes with its inverse, so there are >= 2 ranks and b >= 1
    b = (int(present[-1]) - 1).bit_length()
    jump = np.arange(1, n + 1, dtype=np.int32)
    jump[first + size - 1] = first  # the next letter, cyclically
    k = 0  # packed holds the first 2^k letters, first letter highest
    while b << (k + 1) <= 62 and 1 << k < top:
        packed = (packed << (b << k)) | packed[jump]
        jump = jump[jump]
        k += 1

    order, gap = _sorted_rotations(packed, jump, b, k, top)
    owner = text[order]
    offs = order - first[owner]
    at = np.empty(n, dtype=np.int64)
    at[order] = np.arange(n)  # sorted index of each rotation, text by text
    big = top + 1
    found: list[dict[tuple[int, int], tuple[int, int, tuple[int, int]]]] = [{} for _ in tuples]
    if batched:
        own_group, own_local = group[owner], np.asarray(local)[owner]
        text_len = np.zeros((len(tuples), max(local) + 1), dtype=np.int64)
        text_len[group, local] = size  # |text i| of each tuple, 0 if it has none
    else:  # one tuple: tuple 0 is a scalar index, and local index = text index
        own_group, own_local, text_len = 0, owner, size[np.newaxis]
    own_size = size[owner]
    for i in range(max(local) + 1):
        lt = text_len[own_group, i]
        hit = own_local == i
        seg = np.cumsum(hit) - hit  # restarts after each i
        run = np.minimum.accumulate(gap - seg * big) + seg * big
        cap = np.where(hit, lt - 1, np.minimum(own_size, lt))
        val = np.where(seg > 0, np.minimum(run, cap), 0)[at]
        peak = np.maximum.reduceat(val, first)
        where = np.minimum.reduceat(np.where(val == peak[text], at, n), first)
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
    return [
        (
            [len(r) for r in relators for _ in range(2)],
            {k: -cand[0] for k, cand in table.items()},
            {k: cand[2] for k, cand in table.items()},
        )
        for relators, table in zip(tuples, found)
    ]


def _sorted_rotations(packed, jump, b: int, k: int, top: int):
    """The sorted rotations and gap[s], the LCP of sorted s - 1 and s capped at `top`.

    Ranks are group heads: the first sorted slot sharing the prefix.  Each doubling level
    stably re-sorts the groups of two or more only, by (head, rank 2^(k+j) letters on);
    singletons keep slot and rank.  The one full sort orders ties as the CPU does, so its
    groups are first put in rotation-index order: the order ends as (final key, index)."""
    n = len(packed)
    order = np.argsort(packed)
    head, tied = _groups(np.arange(n), packed[order])
    rank = np.empty(n, dtype=np.int32)
    rank[order] = head
    live = np.flatnonzero(tied)  # slots of unresolved rotations
    x = order[live]
    order[live] = x[np.argsort(head[live] * n + x)]  # index order within groups
    levels, jumps = [rank], [jump]  # level k+j: rank of 2^(k+j) letters, jump as far
    while 1 << (k + len(levels) - 1) < top and len(live):
        x = order[live]
        key = rank[x].astype(np.int64) * n + rank[jumps[-1][x]]
        by = np.argsort(key, kind="stable")
        order[live] = x = x[by]
        head, tied = _groups(live, key[by])
        rank = rank.copy()
        rank[x] = head
        live = live[tied]
        levels.append(rank)
        jumps.append(jumps[-1][jumps[-1]])
    pa, pb = order[:-1].copy(), order[1:].copy()
    lcp = np.zeros(n - 1, dtype=np.int64)
    cand = np.flatnonzero(levels[0][pa] == levels[0][pb])  # equal level-k codes
    ca, cb, deep = pa[cand], pb[cand], lcp[cand]
    for j in range(len(levels) - 1, -1, -1):
        same = np.flatnonzero(levels[j][ca] == levels[j][cb])
        deep[same] += 1 << (k + j)
        ca[same] = jumps[j][ca[same]]
        cb[same] = jumps[j][cb[same]]
    pa[cand], pb[cand], lcp[cand] = ca, cb, deep
    diff = packed[pa] ^ packed[pb]  # the first differing bit ends the LCP
    for s in (1, 2, 4, 8, 16, 32):
        diff |= diff >> s
    bits = np.bitwise_count(diff).astype(np.int64)  # bit length of the XOR
    lcp += np.minimum(((b << k) - bits) // b, (1 << k) - 1)
    return order, np.minimum(np.concatenate(([0], lcp)), top)


def _groups(slots, sorted_key):
    """Each entry's head (the slot starting its run of equal keys) and whether it is tied."""
    start = np.ones(len(slots) + 1, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=start[1:-1])
    return np.maximum.accumulate(np.where(start[:-1], slots, 0)), ~(start[:-1] & start[1:])


def _location(text: int, offset: int) -> PieceLocation:
    return PieceLocation(relator=text // 2, inverted=bool(text % 2), offset=offset)


def _report_for(
    relators: Sequence[CyclicWord], key: tuple[int, int], offs: tuple[int, int], length: int
) -> PieceReport:
    a, b = key
    ra = relators[a // 2]
    oriented = ra if a % 2 == 0 else ra.inverse()
    sub = oriented.cyclic_subword(offs[0], length)
    return PieceReport(length, sub, _location(a, offs[0]), _location(b, offs[1]))


def _longest_report(relators: Sequence[CyclicWord], best, wit) -> PieceReport:
    """The longest piece in a `_pair_maxima` table, first key on ties."""
    if not best:
        return PieceReport(0, None, None, None)
    key = max(sorted(best), key=best.__getitem__)
    return _report_for(relators, key, wit[key], best[key])


def _validate(relators: Sequence[CyclicWord]) -> None:
    if len(relators) == 0:
        raise ValueError("need at least one relator")
    rank = relators[0].rank
    if any(r.rank != rank for r in relators):
        raise ValueError("relators must share a rank")


def longest_piece(relators: Sequence[CyclicWord]) -> PieceReport:
    """Longest piece over the tuple, with a witnessing occurrence pair.

    >>> from .words import parse_cyclic_word as pc
    >>> longest_piece((pc("x1 x1 x1"),)).longest_piece_length
    2
    >>> longest_piece((pc("x1 x2"), pc("x2 x1"))).longest_piece_length
    2
    """
    _validate(relators)
    _, best, wit = _pair_maxima(relators)
    return _longest_report(relators, best, wit)


def check_small_cancellation(
    relators: Sequence[CyclicWord], lam: Fraction
) -> tuple[bool, PieceReport]:
    """Exact C'(lam) test: every piece shorter than lam times the length of
    each relator carrying it.  On failure the report holds a violating
    occurrence pair; on success it is the overall longest-piece report.

    >>> from .words import parse_cyclic_word as pc
    >>> check_small_cancellation((pc("x1 x2 X1 X2"),), Fraction(1, 6))[0]
    False
    >>> check_small_cancellation((pc("x1 x2 X1 X2"),), Fraction(1, 3))[0]
    True
    """
    lam = Fraction(lam)
    if not (0 < lam <= 1):
        raise ValueError("lambda must satisfy 0 < lambda <= 1")
    _validate(relators)
    lengths, best, wit = _pair_maxima(relators)
    violating = _violating(lengths, best, lam)
    if violating:
        key = max(violating, key=best.__getitem__)
        return False, _report_for(relators, key, wit[key], best[key])
    return True, _longest_report(relators, best, wit)


def _violating(lengths, best, lam: Fraction) -> list[tuple[int, int]]:
    """The text pairs of a `_pair_maxima` table whose longest piece breaks
    C'(lam): piece length * den >= num * relator length, exactly."""
    return [
        key
        for key in sorted(best)
        if best[key] * lam.denominator >= lam.numerator * min(lengths[key[0]], lengths[key[1]])
    ]


def _verdicts(tuples: Sequence[Sequence[CyclicWord]], lam: Fraction) -> list[bool]:
    """The C'(lam) verdict of each relator tuple (0 < lam <= 1, tuples
    validated by the caller), from one batched scan."""
    return [not _violating(lengths, best, lam) for lengths, best, _ in _pair_maxima_batch(tuples)]
