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
themselves (no doubled copies, no separators) in the order of numpy prefix
doubling (Manber-Myers 1993): one sort of 64-bit packed codes that each hold
a rotation's first 2^k letters orders every rotation; the rotations tied
there are placed from their letter runs by one more sort (induced sorting,
Nong-Zhang-Chan 2009), after only the tied rotations that start a run are
refined by doubling over whole runs (Larsson-Sadakane 2007 subset doubling);
rotations equal on as many letters as the doubling reads end in
rotation-index order, on every CPU.  Neighbour LCPs are read off the runs
only at irreducible positions and inherited everywhere else
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

    Every rotation of every text is sorted as prefix doubling on cyclic
    shifts sorts it: by its first D letters, D the least power of two at
    least the longest text (which bounds every piece), and in rotation-index
    order when those are equal.  With b bits per dense letter rank, the
    first 2^k letters of a rotation fit in one uint64 code (largest k with
    b * 2^k <= 64 and 2^(k-1) below the longest text), and one sort of those
    codes orders every rotation by them; the rotations tied there are placed
    from their letter runs (`_sorted_rotations`).  A sorted neighbour pair
    with different codes reads its LCP off the XOR of the two codes; of the
    pairs with equal codes, only the irreducible ones read theirs off the
    runs, and the others inherit their LCP from the rotation one letter back
    (`_equal_code_lcps`).  A pair of texts shares a piece of length k
    exactly when some occurrence of one follows an occurrence of the other
    with no neighbour LCP below k in between, so one running minimum per
    text that restarts at each of its occurrences finds every pair maximum.

    The sort permutation, and with it every table and witness, is the plain
    stable doubling scan's on every CPU, proper powers' tied rotations and
    texts of one repeated letter included.

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
            fwd = np.fromiter(r.letters, dtype=np.int64, count=len(r))
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
    step = np.arange(1, n + 1, dtype=np.intp)
    step[first + size - 1] = first  # the next letter, cyclically
    jump, ahead, k = step, None, 0  # packed holds the first 2^k letters, first letter highest
    while b << (k + 1) <= 64 and 1 << k < top:
        if k:
            jump = jump[jump]  # 2^k letters on
        ahead = packed[jump]
        packed <<= b << k
        packed |= ahead
        k += 1
    del parts, fwd, codes, present, jump, ahead  # only the scan's inputs live through the sort

    order, gap = _sorted_rotations(packed, step, text, first, size, b, k, top)
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
        lift = seg * big
        run = np.minimum.accumulate(gap - lift) + lift
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


def _sorted_rotations(packed, step, text, first, size, b: int, k: int, top: int):
    """The sorted rotations and gap[s], the LCP of sorted s - 1 and s capped at `top`.

    One sort of the packed codes orders every rotation by its first 2^k letters.  The
    rotations tied there are placed from their letter runs: a rotation x reads c^r y, its
    letter c for the r letters left of its run, then the rotation y that starts the next
    run, so the tied rotations sort by (letter, whether the next run's letter ranks
    higher, r ascending when it does not and descending when it does, rank of y) in one
    sort (`_place_tied`).  The ranks of the run starts y come from doubling over whole
    runs on the tied run starts alone (`_run_levels`), so the work follows the tied
    rotations, and a scan with none sorts once.  That is the order of the rotations read
    as infinite periodic words; the rule is (first D letters, rotation index) with D the
    least power of two at least `top`, so each block of neighbours whose LCP reaches D
    is then put in rotation-index order, on every CPU (when 2^k reaches D, the blocks
    are the groups of equal codes, and nothing is placed).

    A neighbour pair with different codes reads its LCP off their XOR; the pairs with
    equal codes go through `_equal_code_lcps`."""
    n = len(packed)
    order = np.argsort(packed)
    codes = packed[order]
    head, tied = _groups(np.arange(n), codes)
    # letters each sorted neighbour pair shares within its codes, 2^k where the codes are
    # equal; a tie only reorders equal codes, so this holds for the final order too
    lcp = _shared_letters(codes[1:] ^ codes[:-1], b, k)
    del codes
    gap = np.minimum(np.concatenate(([0], lcp)), top)
    live = np.flatnonzero(tied)
    if len(live):
        same = np.flatnonzero(lcp == 1 << k)  # sorted neighbours s, s + 1 with equal codes
        del lcp, tied
        D = 1 << (top - 1).bit_length()
        deep = np.full(len(same), 1 << k)
        if 1 << k < D:
            # LCPs are exact up to D + top: one read at an irreducible pair loses less
            # than top along its chain, so it stays at D or above when it should
            heads = head[live]
            rank = np.empty(n, dtype=np.int64)
            rank[order] = head
            del head
            runs = _place_tied(order, live, heads, rank, packed, step, text, first, size, b, k, D + top)
            del rank, heads
            deep = _equal_code_lcps(order, same, live, runs, packed, step, b, k, D + top)
        # rotations equal on their first D letters go in rotation-index order
        join = same[deep >= D]
        if len(join):
            block = np.union1d(join, join + 1)
            opens = block * (np.searchsorted(join, block - 1, side="right") == np.searchsorted(join, block - 1))
            x = order[block]
            order[block] = x[np.argsort(np.maximum.accumulate(opens) * n + x)]
        gap[same + 1] = np.minimum(deep, top)
    return order, gap


def _place_tied(order, live, heads, rank, packed, step, text, first, size, b: int, k: int, cap: int):
    """Put the tied slots `live` (group heads `heads`) in letter order.  Returns the list
    [placing permutation, r, y, run levels]: slot live[i] now holds the tied rotation
    x[by[i]] (x = order[live] before), with r and y of each x and the run levels of the
    tied run starts (`_run_levels`).

    A tied rotation x reads c^r y: r is read off its code, and a code of 2^k equal letters
    takes r from the run's end (`_long_runs`); a text of one repeated letter has no y and
    r = cap.  Within a group of equal codes, x sorts by (whether the letter after the run
    ranks above c, r ascending when it does not and descending when it does, rank of y),
    and the first two are fixed by the code unless it is one repeated letter, so only those
    groups are split by them first; then one sort by (split head, rank of y) places every
    tied rotation.  Ranks stay in slot space (`rank` holds each rotation's head, final for
    resolved ones), so the ranks of the run starts from `_run_levels` order the y."""
    n, width = len(packed), 1 << k
    x = order[live]
    code = packed[x]
    shift = b * (width - 1)
    # letter i of `turn` is nonzero where letters i - 1 and i of the code differ (i >= 1):
    # the highest such letter ends x's run, the lowest starts the last run in the code
    turn = (code ^ (code >> np.uint64(b))) & np.uint64((1 << shift) - 1)
    r = _shared_letters(turn, b, k).astype(np.int64)
    t = text[x]
    f, sz = first[t], size[t]
    del t
    starts = np.flatnonzero((packed[x - 1 + sz * (x == f)] >> shift) != (code >> shift))
    del code
    turn = turn[starts]  # letter before x differs: x starts a run
    y = x + r
    y -= sz * (y >= f + sz)
    full = np.flatnonzero(r == width)
    if len(full):
        r[full] = run = _long_runs(x[full], f[full], sz[full], step, width, cap)
        end = x[full] + run
        y[full] = np.where(run < cap, end - sz[full] * (end >= (f + sz)[full]), x[full])
        # the run and the letter after it: r ascending below c, then one letter forever,
        # then r descending above c
        bound = int(sz[full].max())  # above every finite r, at most half the letters
        up = (packed[y[full]] >> shift) > (packed[x[full]] >> shift)
        key = heads[full] * (2 * bound + 1) + np.where(up, 2 * bound - run, np.minimum(run, bound))
        by = np.argsort(key)
        heads = heads.copy()
        heads[full[by]] = _groups(live[full], key[by])[0]
        rank[x[full]] = heads[full]
    # a run start's level-0 unit is its code: it fixes every run that ends inside the code,
    # and the next unit starts at the last run start in the code (the run itself when the
    # code is one repeated letter)
    s = x[starts]
    low = np.bitwise_count((turn & (~turn + np.uint64(1))) - np.uint64(1)).astype(np.int64)
    hop = np.where(turn > 0, width - 1 - low // b, r[starts])
    fs = f[starts]
    nxt = fs + (s - fs + hop) % sz[starts]  # a code may read its text more than once
    del f, sz, turn, low, fs
    levels = _run_levels(s, heads[starts], hop, nxt, rank, cap)
    by = np.argsort(heads * n + rank[y])
    order[live] = x[by]
    return [by, r, y, levels]


def _long_runs(x, f, sz, step, width: int, cap: int):
    """The run left at each tied rotation x whose code is 2^k = `width` equal letters
    (x in a text of |t| = `sz` letters from `f`): the rotations of a run with at least
    `width` letters left share that code, so they are all tied and form one segment in
    text order that ends where the letter after the code changes; r is `width` plus the
    distance to that end, cyclically.  A text of one letter has no end: r = `cap`."""
    seg = np.sort(x)
    nxt = step[seg]
    inside = seg[np.minimum(np.searchsorted(seg, nxt), len(seg) - 1)] == nxt
    ends = np.append(seg[~inside], np.iinfo(np.int64).max)
    e = ends[np.searchsorted(ends, x)]
    wrap = e >= f + sz  # x's segment runs over the end of its text
    e = np.where(wrap, np.minimum(ends[np.searchsorted(ends, f)], f + sz) + sz, e)
    return np.where(e < f + 2 * sz, width + e - x, cap)


def _run_levels(s, heads, hop, nxt, rank, cap: int):
    """Doubling over units of whole runs on the tied run starts `s`: a run start's level-0
    unit is its code and `hop` letters of runs up to run start `nxt`, and level j ranks
    the first 2^j units, from the key (rank, rank 2^(j-1) units on).  Equal codes give
    equal units, so this is doubling on a parse of each text into units.  Ranks are
    written into `rank` in slot space: the run starts of a group with head h rank h plus
    their position among those run starts, so resolved rotations keep their slot and no
    run start ranks into the next group.  Levels stop once every tie spans `cap` letters.

    Returns the run-start index of each rotation (-1 off the run starts) and, per level j,
    the ranks, the run start 2^j units on and the letters of those units; the last two
    hold for the run starts still tied at level j."""
    n, m = len(rank), len(s)
    sidx = np.full(n, -1, dtype=np.int64)
    sidx[s] = np.arange(m)
    live = np.argsort(heads)
    first, tied = _groups(np.arange(m), heads[live])
    slot = heads[live] + np.arange(m) - first  # each position's own slot in its group
    live, slot = live[tied], slot[tied]
    head, span = heads[live], hop[live]  # the live run starts' ranks and letters
    ranks, jumps, letters = [heads], [nxt], [hop]
    while len(live) and span.min() < cap:
        jump, length = jumps[-1], letters[-1]
        key = head * n + rank[jump[live]]
        by = np.argsort(key)
        live = live[by]
        head, tied = _groups(slot, key[by])
        rank[s[live]] = head
        live, slot, head = live[tied], slot[tied], head[tied]
        on = sidx[jump[live]]  # tied after this level, so on the run starts
        jump, length = jump.copy(), length.copy()
        jump[live] = jump[on]
        # uncapped: the shortest live span doubles at least, the longest at most, so the
        # levels end before any span passes 2 * |longest text| * cap < 2^63
        length[live] = span = length[live] + length[on]
        ranks.append(rank[s])
        jumps.append(jump)
        letters.append(length)
    return sidx, ranks, jumps, letters


def _equal_code_lcps(order, same, live, runs, packed, step, b: int, k: int, cap: int):
    """The LCP, capped at `cap`, of each sorted neighbour pair (order[s], order[s + 1]),
    s in `same`, with equal codes.  `runs` is `_place_tied`'s list, emptied here so its
    arrays go once the irreducible pairs have read them.

    Most of them inherit: if rotation hi - 1 of the same text and its sorted predecessor
    p are such a pair too, and lo is the rotation after p, then lcp = lcp(hi - 1) - 1
    (Karkkainen-Manzini-Puglisi 2009).  The others, text starts among them, are
    irreducible, and read their LCP off the runs: unequal runs left give the shorter
    one, equal ones add the run to the LCP of the next run starts (`_run_lcps`).  An
    inherited LCP is then the nearest irreducible one before it in its text, less the
    distance; `cap` exceeds D by the longest text, so an LCP that reaches D stays at D or
    more along its chain."""
    lo, hi = order[same], order[same + 1]
    pred = np.full(len(packed), -1, dtype=np.intp)
    pred[hi] = lo
    # hi - 1 steps to hi unless hi starts its text (hi = 0 reads the last rotation,
    # which steps to the start of the last text, never to 0)
    back = hi - 1
    p = pred[back]
    inherit = (step[back] == hi) & (p >= 0) & (step[p] == lo)
    del pred, p, lo, back
    root = np.flatnonzero(~inherit)
    by, r, y, levels = runs
    runs.clear()  # the run data is read at the irreducible pairs only
    at = np.searchsorted(live, same[root])  # slot s is live[at], s + 1 is live[at + 1]
    ta, tb = by[at], by[at + 1]
    del by
    ra, rb = r[ta], r[tb]
    lcp = np.empty(len(hi), dtype=np.int64)
    lcp[root] = np.minimum(ra, rb)
    eq = np.flatnonzero((ra == rb) & (ra < cap))
    if len(eq):
        lcp[root[eq]] += _run_lcps(y[ta[eq]], y[tb[eq]], packed, levels, b, k, cap)
    del r, y, levels
    # a chain runs along its text from its irreducible pair: the nearest one at or before
    # each hi in rotation-index order
    kid, start = np.flatnonzero(inherit), hi[root]
    src = np.zeros(len(packed), dtype=np.intp)
    src[start] = start
    src = np.maximum.accumulate(src)[hi[kid]]
    known = np.empty(len(packed), dtype=np.int64)
    known[start] = lcp[root]
    lcp[kid] = known[src] - (hi[kid] - src)
    return np.minimum(lcp, cap)


def _run_lcps(u, v, packed, levels, b: int, k: int, cap: int):
    """The LCP, capped at `cap`, of run starts u and v, from `_run_levels`' levels.

    A pair tied at the last level agrees on `cap` letters.  The others step down the
    levels below it while the ranks agree, adding the letters of the units they pass; at
    the first unit they do not share, different codes read the rest off their XOR, and
    equal ones (tied run starts whose runs differ) share the shorter run.  u and v are
    stepped in place."""
    sidx, ranks, jumps, letters = levels
    su, sv = sidx[u], sidx[v]
    both = (su >= 0) & (sv >= 0)  # rank lookups at -1 are masked by `both`
    whole = both & (ranks[-1][su] == ranks[-1][sv])
    deep = np.zeros(len(u), dtype=np.int64)
    for j in range(len(ranks) - 2, -1, -1):
        eq = np.flatnonzero(both & (ranks[j][su] == ranks[j][sv]))
        deep[eq] += letters[j][su[eq]]
        u[eq], v[eq] = jumps[j][su[eq]], jumps[j][sv[eq]]
        su[eq], sv[eq] = sidx[u[eq]], sidx[v[eq]]
        both[eq] = (su[eq] >= 0) & (sv[eq] >= 0)
    rest = _shared_letters(packed[u] ^ packed[v], b, k).astype(np.int64)
    tie = np.flatnonzero(rest == 1 << k)  # equal codes: both tied run starts
    rest[tie] = np.minimum(letters[0][su[tie]], letters[0][sv[tie]])
    return np.where(whole, cap, np.minimum(deep + rest, cap))


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
