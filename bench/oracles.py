"""Independent checkers for the benchmark's output checks.

None of these call into ``relators``: each recomputes a claim from raw
letter tuples (a letter is a nonzero int, ``-g`` the inverse of ``g``) by a
different method than the package uses.

* ``pieces_at`` / ``longest_piece_length`` / ``violating_pairs``: k-gram
  scans over every oriented cyclic position, in place of the package's
  suffix array.
* ``FiniteFieldRep``: a seeded representation of F_n into invertible
  matrices over F_p, used to test ring identities of group-ring elements.
* ``closed_form_count``: the number of cyclically reduced words.
* ``free_reduce`` / ``cyclic_core`` / ``substitute_and_reduce``: a
  stack-based substitution homomorphism.
* ``exponent_vectors``: brute-force enumeration of cyclically reduced words
  keyed by exponent-sum vector.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

Letters = tuple[int, ...]


# -- free reduction and substitution ----------------------------------


def free_reduce(letters: Iterable[int]) -> Letters:
    """Cancel adjacent inverse pairs with a stack."""
    stack: list[int] = []
    for a in letters:
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    return tuple(stack)


def cyclic_core(letters: Sequence[int]) -> Letters:
    """Strip matching inverse letters from both ends of a reduced word."""
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    return tuple(letters[lo:hi])


def invert(letters: Sequence[int]) -> Letters:
    return tuple(-a for a in reversed(letters))


def substitute_and_reduce(word: Sequence[int], images: Sequence[Sequence[int]]) -> Letters:
    """Image of ``word`` under x_g -> images[g-1], freely reduced."""
    out: list[int] = []
    for a in word:
        img = images[abs(a) - 1]
        out.extend(img if a > 0 else invert(img))
    return free_reduce(out)


def slope_value(letters: Iterable[int], slope: Sequence[int]) -> int:
    return sum(slope[a - 1] if a > 0 else -slope[-a - 1] for a in letters)


def prefix_heights(letters: Sequence[int], slope: Sequence[int]) -> list[int]:
    """Heights of vertices 0..len: partial sums of the slope along the word."""
    heights = [0]
    for a in letters:
        heights.append(heights[-1] + (slope[a - 1] if a > 0 else -slope[-a - 1]))
    return heights


# -- counting ----------------------------------------------------------


def closed_form_count(rank: int, length: int) -> int:
    """Cyclically reduced words of the given length over F_rank:
    (2n-1)^l + (1 if l is odd else 2n-1)."""
    q = 2 * rank - 1
    return q**length + (1 if length % 2 else q)


def exponent_vectors(rank: int, length: int) -> Counter:
    """How many cyclically reduced words of the given length have each
    exponent-sum vector, by enumerating all (2n)^l letter strings."""
    alphabet = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    out: Counter = Counter()
    for w in itertools.product(alphabet, repeat=length):
        if any(w[k] == -w[(k + 1) % length] for k in range(length)):
            continue
        vec = [0] * rank
        for a in w:
            vec[abs(a) - 1] += 1 if a > 0 else -1
        out[tuple(vec)] += 1
    return out


# -- pieces by k-gram hashing -------------------------------------------

_MOD1 = 1_000_000_007
_MOD2 = 998_244_353
_BASE1 = 911_382_323
_BASE2 = 972_663_749


class PieceTexts:
    """The 2m oriented copies of a relator tuple (text 2i is relator i, text
    2i+1 its inverse), doubled so that every cyclic window is a slice, with
    prefix hashes under two moduli."""

    def __init__(self, relators: Sequence[Sequence[int]]):
        texts = [t for r in relators for t in (tuple(r), invert(r))]
        self.lengths = [len(t) for t in texts]
        self.doubled = [t + t[:-1] for t in texts]
        self._prefix = [(self._hashes(d, _BASE1, _MOD1), self._hashes(d, _BASE2, _MOD2)) for d in self.doubled]

    @staticmethod
    def _hashes(doubled: Letters, base: int, mod: int) -> np.ndarray:
        out = np.empty(len(doubled) + 1, dtype=np.int64)
        h = 0
        out[0] = 0
        for k, a in enumerate(doubled):
            h = (h * base + (2 * a if a > 0 else -2 * a + 1)) % mod
            out[k + 1] = h
        return out

    def window(self, text: int, offset: int, k: int) -> Letters:
        return self.doubled[text][offset : offset + k]

    def keys(self, k: int):
        """Keys of the length-k windows at every cyclic offset: (text ids,
        offsets, keys)."""
        ids, offs, keys = [], [], []
        for t, count in enumerate(self.lengths):
            if k > count:
                continue
            parts = []
            for (pre, base, mod) in ((self._prefix[t][0], _BASE1, _MOD1), (self._prefix[t][1], _BASE2, _MOD2)):
                shift = pow(base, k, mod)
                parts.append((pre[k : k + count] - pre[:count] * shift) % mod)
            ids.append(np.full(count, t, dtype=np.int64))
            offs.append(np.arange(count, dtype=np.int64))
            keys.append(parts[0] * _MOD2 + parts[1])
        if not ids:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        return np.concatenate(ids), np.concatenate(offs), np.concatenate(keys)


def pieces_at(texts: PieceTexts, k: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Text pairs (a <= b) sharing a piece of length exactly k, each with one
    witness offset pair checked letter by letter.  A window as long as its
    text is the whole relator at every offset, so it counts as one position
    per oriented copy: a pair a == a then has no two distinct positions."""
    ids, offs, keys = texts.keys(k)
    if len(keys) < 2:
        return {}
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    same = sk[1:] == sk[:-1]
    if not same.any():
        return {}
    found: dict[tuple[int, int], tuple[int, int]] = {}
    all_pairs = len(texts.lengths) * (len(texts.lengths) + 1) // 2
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    ends = np.concatenate((starts[1:], [len(sk)]))
    for s, e in zip(starts, ends):
        if len(found) == all_pairs:
            break
        if e - s < 2:
            continue
        members = [(int(ids[order[i]]), int(offs[order[i]])) for i in range(s, e)]
        first: dict[int, int] = {}
        for t, o in members:
            if t in first:
                if k < texts.lengths[t]:
                    found.setdefault((t, t), (first[t], o))
            else:
                first[t] = o
        tids = sorted(first)
        for i, a in enumerate(tids):
            for b in tids[i + 1 :]:
                found.setdefault((a, b), (first[a], first[b]))
    for (a, b), (oa, ob) in found.items():
        if texts.window(a, oa, k) != texts.window(b, ob, k):
            raise AssertionError(f"hash collision at k={k}, texts {a},{b}")
    return found


def longest_piece_length(texts: PieceTexts) -> int:
    """Largest k with some piece of length k; 0 if no letter repeats.
    Having a piece is monotone in k (a piece's prefix is a piece at the
    same two positions), so a binary search suffices."""
    lo, hi = 0, max(texts.lengths)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pieces_at(texts, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def violating_pairs(texts: PieceTexts, lam: Fraction) -> dict[tuple[int, int], tuple[int, int]]:
    """Text pairs carrying a piece p with |p| >= lam * min(|a|, |b|): for each
    pair, test the least such length, which a longer piece implies."""
    lam = Fraction(lam)
    by_threshold: dict[int, list[tuple[int, int]]] = {}
    n = len(texts.lengths)
    for a in range(n):
        for b in range(a, n):
            short = min(texts.lengths[a], texts.lengths[b])
            k = -((-lam.numerator * short) // lam.denominator)  # ceil
            by_threshold.setdefault(max(k, 1), []).append((a, b))
    out = {}
    for k, pairs in sorted(by_threshold.items()):
        found = pieces_at(texts, k)
        for pair in pairs:
            if pair in found:
                out[pair] = found[pair]
    return out


# -- a finite-field representation of the free group --------------------

P = 1_000_000_007  # < 2**30, so sums of three int64 products cannot overflow
DIM = 3


def _mat_inv_mod(m: list[list[int]]) -> list[list[int]] | None:
    d = len(m)
    a = [row[:] + [1 if i == j else 0 for j in range(d)] for i, row in enumerate(m)]
    for col in range(d):
        piv = next((r for r in range(col, d) if a[r][col] % P), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], P - 2, P)
        a[col] = [x * inv % P for x in a[col]]
        for r in range(d):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % P for x, y in zip(a[r], a[col])]
    return [row[d:] for row in a]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) % P for col in zip(*b)] for row in a]


def mat_add(a, b):
    return [[(x + y) % P for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c: int):
    return [[x * c % P for x in row] for row in a]


def mat_eye(d: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


class FiniteFieldRep:
    """x_g -> a seeded random matrix in GL_d(F_p), extended linearly to
    Q[F_n] (coefficients reduced mod p).  Two elements of the group ring
    that differ map to different matrices with high probability, so ring
    identities can be tested on their images."""

    def __init__(self, rank: int, seed: int):
        rng = random.Random(seed)
        self.rank = rank
        table = [mat_eye(DIM)]
        inverses = []
        for _ in range(rank):
            while True:
                m = [[rng.randrange(P) for _ in range(DIM)] for _ in range(DIM)]
                inv = _mat_inv_mod(m)
                if inv is not None:
                    break
            table.append(m)
            inverses.append(inv)
        table.extend(inverses)
        self._table = np.array(table, dtype=np.int64)  # 0: I, g: x_g, n+g: x_g^-1

    def _index(self, a: int) -> int:
        return a if a > 0 else self.rank - a

    def word(self, letters: Sequence[int]) -> list[list[int]]:
        out = mat_eye(DIM)
        for a in letters:
            out = mat_mul(out, self._table[self._index(a)].tolist())
        return out

    def scalar(self, c: Fraction | int) -> int:
        c = Fraction(c)
        return c.numerator % P * pow(c.denominator % P, P - 2, P) % P

    def element(self, terms: Mapping[Sequence[int], Fraction | int]) -> list[list[int]]:
        """Image of sum c_w * w, given as {letters: coefficient}."""
        p, d = P, DIM
        words = list(terms)
        if not words:
            return [[0] * d for _ in range(d)]
        width = max(len(w) for w in words)
        idx = np.zeros((len(words), width), dtype=np.int64)
        for i, w in enumerate(words):
            if w:
                idx[i, : len(w)] = [self._index(a) for a in w]
        acc = np.broadcast_to(self._table[0], (len(words), d, d)).copy()
        for j in range(width):
            acc = np.matmul(acc, self._table[idx[:, j]]) % p
        coeffs = np.array([self.scalar(terms[w]) for w in words], dtype=np.int64)
        total = (acc * coeffs[:, None, None] % p).sum(axis=0) % p
        return total.tolist()

    def fox_derivative(self, r: Sequence[int], j: int) -> list[list[int]]:
        """Image of d(r)/d(x_j): sum of prefixes before each x_j, minus the
        prefixes through each x_j^-1."""
        d = DIM
        total = [[0] * d for _ in range(d)]
        prefix = mat_eye(d)
        for a in r:
            step = mat_mul(prefix, self._table[self._index(a)].tolist())
            if a == j:
                total = mat_add(total, prefix)
            elif a == -j:
                total = mat_add(total, mat_scale(step, P - 1))
            prefix = step
        return total


def block(mats: Sequence[Sequence[list[list[int]]]]) -> list[list[int]]:
    """Assemble a matrix of d x d blocks into one (size*d) square matrix."""
    out = []
    for row in mats:
        d = len(row[0])
        for i in range(d):
            out.append([x for m in row for x in m[i]])
    return out
