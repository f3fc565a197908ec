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
(Manber-Myers 1993): one sort of 64-bit packed codes that each hold a
rotation's first 2^k letters, then at each level a re-sort of the rotations
still tied only (Larsson-Sadakane 2007), the ties left at the end put in
rotation-index order once, on every CPU.  Neighbour LCPs are descended only
at irreducible positions and inherited everywhere else
(Karkkainen-Manzini-Puglisi 2009).  One vectorized pass over the sorted
rotations yields every pair maximum, so the verdict and the longest-piece
report come from a single scan and relator tuples with hundreds of
thousands of letters stay tractable; the quadratic window scan and the
unpacked doubling scan are kept as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .words import CyclicWord, Word, shared_rank


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


def _pair_maxima_batch(tuples: Sequence[Sequence[CyclicWord]]):
    """The pair table of every relator tuple, from one sort: for each
    unordered pair of oriented texts (2 per relator) sharing a piece, the
    longest common cyclic subword length after the full-length collapsing
    rule and a witness offset pair, as {(text_a, text_b): (length,
    (offset_a, offset_b))} with text = 2*relator + (1 if inverted).

    Every rotation of every text is sorted by prefix doubling on cyclic
    shifts (rank level j orders the first 2^j letters), stopping once the
    ranks are distinct or the sorted prefix covers the longest text, which
    bounds every piece.  The fine levels are packed: with b bits per dense
    letter rank, the first 2^k letters of a rotation fit in one uint64 code
    (largest k with b * 2^k <= 64 and 2^(k-1) below the longest text), and
    one sort of those codes gives level k directly; levels below k are never
    built, and each later level re-sorts the rotations still tied only.  A
    sorted neighbour pair with different codes reads its LCP off the XOR of
    the two codes; of the pairs with equal codes, only the irreducible ones
    step down the kept levels, and the others inherit their LCP from the
    rotation one letter back (`_equal_code_lcps`).  A pair of texts shares a
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
    them is 0: a running minimum never carries a piece across tuples, and a
    tuple's table is the same alone or in any batch.  One scan per local
    text index i serves every tuple at once, capped by the length of text i
    of each rotation's own tuple.  An empty batch has no tables."""
    if not tuples:
        return []
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

    codes = np.concatenate(parts)
    span = 2 * int(np.abs(codes).max()) + 1
    codes += (group * span + span // 2)[text]
    present = np.cumsum(np.bincount(codes) > 0)
    packed = (present - 1).astype(np.uint64)[codes]  # dense (tuple, letter) ranks
    # every text comes with its inverse, so there are >= 2 ranks and b >= 1
    b = (int(present[-1]) - 1).bit_length()
    step = np.arange(1, n + 1, dtype=np.int32)
    step[first + size - 1] = first  # the next letter, cyclically
    jump, k = step, 0  # packed holds the first 2^k letters, first letter highest
    while b << (k + 1) <= 64 and 1 << k < top:
        packed = (packed << (b << k)) | packed[jump]
        jump = jump[jump]
        k += 1

    order, gap = _sorted_rotations(packed, step, jump, b, k, top)
    owner = text[order]
    offs = order - first[owner]
    at = np.empty(n, dtype=np.int64)
    at[order] = np.arange(n)  # sorted index of each rotation, text by text
    big = top + 1
    found: list[dict[tuple[int, int], tuple[int, int, tuple[int, int]]]] = [{} for _ in tuples]
    text_local, own_size = np.asarray(local), size[owner]
    for i in range(max(local) + 1):
        hit = (text_local == i)[owner]
        occ = np.flatnonzero(hit)
        seg = np.cumsum(hit) - hit  # restarts after each i
        run = np.minimum.accumulate(gap - seg * big) + seg * big
        # tuples meet at LCP 0, so a run above 0 reaches back to text i of its
        # own tuple: cap it at |t| - 1 within text i, at min(|t|, |text i|)
        # across two texts, and at 0 before the first occurrence
        reach = np.concatenate(([0], own_size[occ]))[seg]
        val = np.minimum(run, np.minimum(own_size - hit, reach))[at]
        peak = np.maximum.reduceat(val, first)
        where = np.minimum.reduceat(np.where(val == peak[text], at, n), first)
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


def _sorted_rotations(packed, step, jump, b: int, k: int, top: int):
    """The sorted rotations and gap[s], the LCP of sorted s - 1 and s capped at `top`.

    Ranks are group heads: the first sorted slot sharing the prefix.  Each doubling level
    re-sorts the groups of two or more only, by (head, rank 2^(k+j) letters on), carrying
    the live slots' own heads into the key; singletons keep slot and rank.  A head does not
    depend on the order inside its group, so the rotations still tied after the last level
    are put in rotation-index order once, at the end: the order is (final key, index) on
    every CPU, whatever order the sorts leave ties in.

    A neighbour pair with different codes reads its LCP off their XOR; the pairs with
    equal codes go through `_equal_code_lcps`."""
    n = len(packed)
    order = np.argsort(packed)
    codes = packed[order]
    head, tied = _groups(np.arange(n), codes)
    # letters each sorted neighbour pair shares within its codes, 2^k where the codes are
    # equal; a tie only reorders equal codes, so this holds for the final order too
    shared = _shared_letters(codes[1:] ^ codes[:-1], b, k)
    del codes  # one byte a pair through the level loop, not eight
    rank = np.empty(n, dtype=np.int32)
    rank[order] = head
    live, heads = np.flatnonzero(tied), head[tied]  # slots of unresolved rotations
    levels, jumps = [rank], [jump]  # level k+j: rank of 2^(k+j) letters, jump as far
    while 1 << (k + len(levels) - 1) < top and len(live):
        x = order[live]
        key = heads * n + rank[jumps[-1][x]]
        by = np.argsort(key, kind="stable")  # keys are runs of ascending heads
        order[live] = x = x[by]
        head, tied = _groups(live, key[by])
        rank = rank.copy()
        rank[x] = head
        live, heads = live[tied], head[tied]
        levels.append(rank)
        jumps.append(jumps[-1][jumps[-1]])
    x = order[live]
    order[live] = x[np.argsort(heads * n + x)]  # ties in index order

    lcp = shared.astype(np.int64)
    same = np.flatnonzero(shared == 1 << k)  # sorted neighbours s, s + 1 with equal codes
    if len(same):
        lcp[same] = _equal_code_lcps(order[same], order[same + 1], packed, step, levels, jumps, b, k)
    return order, np.minimum(np.concatenate(([0], lcp)), top)


def _equal_code_lcps(lo, hi, packed, step, levels, jumps, b: int, k: int):
    """The LCP of each sorted neighbour pair (lo, hi) with equal level-k codes.

    Most of them inherit: if rotation hi - 1 of the same text and its sorted predecessor
    p are such a pair too, and lo is the rotation after p, then lcp = lcp(hi - 1) - 1
    (Karkkainen-Manzini-Puglisi 2009).  The others, text starts among them, are
    irreducible: they step down the kept levels while the ranks agree and read the last
    (fewer than 2^k) letters off the XOR of the codes there.  An inherited LCP is then the
    nearest irreducible one before it in its text, less the distance.  A descent reads up
    to 2^(k+L) letters over L kept levels, at least twice the longest text whenever pairs
    still tie at the last level, so an inherited LCP is exact once capped at it."""
    pred = np.full(len(packed), -1, dtype=np.int32)
    pred[hi] = lo
    # hi - 1 steps to hi unless hi starts its text (hi = 0 reads the last rotation,
    # which steps to the start of the last text, never to 0)
    p = pred[hi - 1]
    inherit = (step[hi - 1] == hi) & (p >= 0) & (step[p] == lo)
    root = np.flatnonzero(~inherit)
    ca, cb, deep = lo[root], hi[root], np.zeros(len(root), dtype=np.int64)
    for j in range(len(levels) - 1, -1, -1):
        eq = np.flatnonzero(levels[j][ca] == levels[j][cb])
        deep[eq] += 1 << (k + j)
        ca[eq] = jumps[j][ca[eq]]
        cb[eq] = jumps[j][cb[eq]]
    lcp = np.empty(len(lo), dtype=np.int64)
    lcp[root] = deep + _shared_letters(packed[ca] ^ packed[cb], b, k)
    kid, start = np.flatnonzero(inherit), hi[root]
    by = np.argsort(start)
    src = root[by[np.searchsorted(start[by], hi[kid]) - 1]]  # its chain's irreducible pair
    lcp[kid] = lcp[src] - (hi[kid] - hi[src])
    return lcp


def _shared_letters(diff, b: int, k: int):
    """How many of their 2^k leading letters two packed codes share, from their XOR
    `diff`: the whole letters above its highest set bit (all 2^k when it is 0)."""
    diff = diff | (diff >> 1)
    for s in (2, 4, 8, 16, 32):
        diff |= diff >> s
    return ((b << k) - np.bitwise_count(diff)) // b  # bitwise_count: the XOR's bit length


def _groups(slots, sorted_key):
    """Each entry's head (the slot starting its run of equal keys) and whether it is tied."""
    start = np.ones(len(slots) + 1, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=start[1:-1])
    return np.maximum.accumulate(slots * start[:-1]), ~(start[:-1] & start[1:])


def _report(relators: Sequence[CyclicWord], table, keys) -> PieceReport:
    """The longest piece of a `_pair_maxima_batch` table among `keys`
    (sorted text pairs), first key on ties, with its witnessing occurrences.
    The letters at offset o of an inverted text r^-1 are the inverse of
    those of r ending just before offset |r| - o."""
    if not keys:
        return PieceReport(0, None, None, None)
    key = max(keys, key=lambda k: table[k][0])
    length, offs = table[key]
    r = relators[key[0] // 2]
    if key[0] % 2:
        sub = r.cyclic_subword(-(offs[0] + length) % len(r), length).inverse()
    else:
        sub = r.cyclic_subword(offs[0], length)
    a, b = (PieceLocation(t // 2, bool(t % 2), o) for t, o in zip(key, offs))
    return PieceReport(length, sub, a, b)


def _exact(value, name: str) -> Fraction:
    """An int or Fraction `value` as a Fraction; a float is not the rational
    it was meant to be, and text goes through `parse_fraction`."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{name} must be an int or Fraction, not {type(value).__name__}: {value!r}")
    return Fraction(value)


def _lambda(lam) -> Fraction:
    """The C'(lam) threshold: an exact rational with 0 < lam <= 1."""
    lam = _exact(lam, "lambda")
    if not 0 < lam <= 1:
        raise ValueError("lambda must satisfy 0 < lambda <= 1")
    return lam


def longest_piece(relators: Sequence[CyclicWord]) -> PieceReport:
    """Longest piece over the tuple, with a witnessing occurrence pair.

    >>> from .words import parse_cyclic_word as pc
    >>> longest_piece((pc("x1 x1 x1"),)).longest_piece_length
    2
    >>> longest_piece((pc("x1 x2"), pc("x2 x1"))).longest_piece_length
    2
    """
    shared_rank(relators)
    (table,) = _pair_maxima_batch((relators,))
    return _report(relators, table, sorted(table))


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
    lam = _lambda(lam)
    shared_rank(relators)
    (table,) = _pair_maxima_batch((relators,))
    violating = _violating(relators, table, lam)
    return not violating, _report(relators, table, violating or sorted(table))


def _violating(relators: Sequence[CyclicWord], table, lam: Fraction) -> list[tuple[int, int]]:
    """The sorted text pairs of a `_pair_maxima_batch` table whose longest
    piece breaks C'(lam): piece length * den >= num * relator length, exactly."""
    return [
        (a, b)
        for a, b in sorted(table)
        if table[a, b][0] * lam.denominator
        >= lam.numerator * min(len(relators[a // 2]), len(relators[b // 2]))
    ]


def _verdicts(tuples: Sequence[Sequence[CyclicWord]], lam: Fraction) -> list[bool]:
    """The C'(lam) verdict of each relator tuple (tuples validated by the
    caller), from one batched scan."""
    lam = _lambda(lam)
    return [not _violating(t, table, lam) for t, table in zip(tuples, _pair_maxima_batch(tuples))]
