"""Height profiles, lower sections, and the minimum-condition machinery.

Fix a slope phi with phi(r) = 0.  Walking the relator cycle from its
basepoint gives integer vertex heights (partial sums of phi over letters);
the *lower section* is everything at the minimum height: minimal vertices
plus the flat edges joining two minimal vertices.  Every height in the
package comes from one pass, `_profiles`, which is also the one check that
phi has each relator's rank, and every section shape (lone vertex, lone
flat edge, or a failure) with its position from one classifier,
`_section_shape`; the other modules call these and keep no copy.

The minimum condition asks that each relator's lower section be either a
single vertex whose two flanking edges carry one designated "column"
generator (the relator's i-role) and one shared "vertical" generator (the
n-role), or a single flat i-role edge flanked on both sides by the n-role
generator; the i-roles must be distinct across relators and distinct from
the n-role.  The roles are forced: a lone vertex flanked by x_a and x_b
admits only (i, n) = (a, b) or (b, a), and a lone flat x_g edge flanked by
x_h admits only (g, h).  So once the n-role is fixed every relator has at
most one possible i-role, and no matching is needed:
`check_minimum_condition` tries the n-roles in ascending order and accepts
the first whose forced i-roles exist and are pairwise distinct.

`standardize` renames/inverts generators so the witness becomes the identity
one (i-role of relator k is x_k, n-role is x_n, phi nonneg on x_1..x_{n-1}
and negative on x_n).  `tau_deficiency_one` and `tau_slope` insert 4-letter
commutators at first minimal vertices, producing minimum-condition tuples
while preserving abelianization; `tau_inverse` is an exact left inverse with
not-in-image detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Optional, Sequence

from .abelian import Slope, slope_basis
from .words import CyclicWord, Presentation, _trusted, shared_rank


@dataclass(frozen=True)
class HeightProfile:
    relator: CyclicWord
    slope: Slope
    vertex_heights: tuple[int, ...]

    @property
    def min_height(self) -> int:
        return min(self.vertex_heights)

    @property
    def first_min_vertex(self) -> int:
        m = self.min_height
        return self.vertex_heights.index(m)


@dataclass(frozen=True)
class LowerSection:
    """Vertices at the minimum height and flat edges between two of them.
    Edge k joins vertex k to vertex k+1 mod l."""

    min_vertices: frozenset[int]
    flat_min_edges: frozenset[int]

    def component_count(self, length: int) -> int:
        """Connected components of the section inside the relator cycle."""
        if len(self.min_vertices) == length and len(self.flat_min_edges) == length:
            return 1  # the whole circle
        return sum(
            1
            for v in self.min_vertices
            if ((v - 1) % length) not in self.flat_min_edges
        )


def _height_steps(phi: Slope) -> list[int]:
    """phi of every letter a, the height step along an edge carrying it, at
    index a (a list: hash(-1) == hash(-2) in CPython, so a dict collides).

    >>> _height_steps(Slope((3, -5)))  # index 0, then x1, x2, X2 (-2), X1 (-1)
    [0, 3, -5, 5, -3]
    """
    return [0, *phi.values, *(-v for v in reversed(phi.values))]


def _heights(letters: Sequence[int], step: list[int]) -> Iterator[int]:
    """The partial sums of `step` along the letters, lazily: the vertex
    heights from the basepoint, then the height of the whole word."""
    return accumulate(map(step.__getitem__, letters), initial=0)


def _profiles(relators: Sequence[CyclicWord], phi: Slope) -> tuple[tuple[int, ...], ...]:
    """The vertex heights of every relator along phi, one pass each; raises
    ValueError for the first relator not of phi's rank or not annihilated."""
    step = _height_steps(phi)
    rank = len(phi.values)
    out = []
    for idx, r in enumerate(relators):
        if r.rank != rank:
            raise ValueError("slope rank mismatch")
        heights = tuple(_heights(r.letters, step))
        if heights[-1]:  # the closing height is phi(r)
            raise ValueError(f"slope does not annihilate relator {idx}")
        out.append(heights[:-1])
    return tuple(out)


def height_profile(r: CyclicWord, phi: Slope) -> HeightProfile:
    """Partial sums of phi along the relator, basepoint at height 0.

    >>> from .words import parse_cyclic_word as pc
    >>> height_profile(pc("x2 x1 X2 X1"), Slope((0, -1))).vertex_heights
    (0, -1, -1, 0)
    """
    return HeightProfile(r, phi, _profiles((r,), phi)[0])


def lower_section(r: CyclicWord, phi: Slope) -> LowerSection:
    """Minimal vertices plus flat minimal edges.

    >>> from .words import parse_cyclic_word as pc
    >>> ls = lower_section(pc("x2 x1 X2 X1"), Slope((0, -1)))
    >>> sorted(ls.min_vertices), sorted(ls.flat_min_edges)
    ([1, 2], [1])
    """
    return _lower_section(_profiles((r,), phi)[0])


def _min_vertices(h: tuple[int, ...]) -> tuple[int, ...]:
    """The positions of the minimal vertex heights h, ascending; the flat
    minimal edges are those joining two of them."""
    m = min(h)
    found, v = [], -1
    for _ in range(h.count(m)):
        v = h.index(m, v + 1)
        found.append(v)
    return tuple(found)


def _lower_section(h: tuple[int, ...]) -> LowerSection:
    """The lower section of the vertex heights h of a relator cycle."""
    l = len(h)
    verts = frozenset(_min_vertices(h))
    # phi of edge k is h[k+1] - h[k], so an edge between minimal vertices is flat
    edges = frozenset(k for k in verts if (k + 1) % l in verts)
    return LowerSection(verts, edges)


@dataclass(frozen=True)
class MinConditionWitness:
    """A successful assignment: n_role generator, one distinct i-role
    generator per relator, the per-relator section type, and the inversion
    signs standardization will apply per generator (+1 keep, -1 invert)."""

    n_role: int
    i_roles: tuple[int, ...]
    case_tags: tuple[str, ...]  # "vertex" or "edge" per relator
    inversion_signs: tuple[int, ...]


@dataclass(frozen=True)
class MinConditionFailure:
    """Structured failure: which relator broke (None: every section is
    lone, but no n-role forces distinct i-roles on all relators) and why."""

    relator: Optional[int]
    reason: str  # multi-component | section-not-lone | same-flank | no-assignment
    detail: str

    def __bool__(self) -> bool:
        return False


def _section_shape(r: CyclicWord, heights: tuple[int, ...]):
    """Classify one relator by its vertex heights: ('vertex'|'edge',
    {n-role: forced i-role}, position of the lone vertex or lone flat edge),
    or (None, MinConditionFailure-shaped (reason, detail), None).  A lone
    section is one component, so only other sections are counted."""
    lts = r.letters
    l = len(lts)
    m = min(heights)
    v = heights.index(m)
    nv = heights.count(m)
    if nv == 1 and l > 1:
        a, b = abs(lts[v - 1]), abs(lts[v])
        if a == b:
            # impossible at a strict minimum of a reduced word; kept as a
            # defensive failure rather than an assert on untrusted input
            return None, ("same-flank", f"vertex {v} flanked twice by x{a}"), None
        return "vertex", {b: a, a: b}, v
    if nv == 2 and l > 2:
        w = heights.index(m, v + 1)
        e = v if w == v + 1 else w if (v, w) == (0, l - 1) else None
        if e is not None:
            g, h1, h2 = abs(lts[e]), abs(lts[e - 1]), abs(lts[(e + 1) % l])
            if h1 != h2:
                return None, ("section-not-lone", f"edge {e} flanks x{h1} vs x{h2}"), None
            if h1 == g:
                return None, ("same-flank", f"edge {e} and flanks all on x{g}"), None
            return "edge", {h1: g}, e
    ls = _lower_section(heights)
    count = ls.component_count(l)
    if count != 1:
        return None, ("multi-component", f"{count} components"), None
    nv, ne = len(ls.min_vertices), len(ls.flat_min_edges)
    return None, ("section-not-lone", f"{nv} vertices, {ne} flat edges"), None


def _validated_shapes(relators: Sequence[CyclicWord], phi: Slope):
    """Shared input validation plus per-relator section classification.
    Returns the shape list, or a MinConditionFailure for the first bad
    relator."""
    if len(relators) >= shared_rank(relators):
        raise ValueError("minimum condition needs fewer relators than generators")
    shapes: list[tuple[str, dict[int, int]]] = []
    # every relator's rank and annihilation are checked before any shape is classified
    for idx, (r, heights) in enumerate(zip(relators, _profiles(relators, phi))):
        tag, info, _ = _section_shape(r, heights)
        if tag is None:
            return MinConditionFailure(idx, *info)
        shapes.append((tag, info))
    return shapes


def _inversion_signs(phi: Slope, g: int) -> tuple[int, ...]:
    """-1 on each generator standardization inverts: x_g if phi is positive
    on it, any other generator if phi is negative on it; +1 elsewhere."""
    return tuple(-1 if (v > 0 if k == g else v < 0) else 1 for k, v in enumerate(phi.values, 1))


def _witness(phi: Slope, shapes, n_role: int, i_roles: tuple[int, ...]) -> MinConditionWitness:
    """The witness of the roles (n_role, i_roles) on the classified shapes."""
    tags = tuple(tag for tag, _ in shapes)
    return MinConditionWitness(n_role, i_roles, tags, _inversion_signs(phi, n_role))


def check_minimum_condition(
    relators: Sequence[CyclicWord], phi: Slope
) -> MinConditionWitness | MinConditionFailure:
    """Decide the minimum condition for (relators, phi).

    >>> from .words import parse_cyclic_word as pc
    >>> w = check_minimum_condition((pc("x2 x1 X2 X1"),), Slope((0, -1)))
    >>> w.n_role, w.i_roles, w.case_tags
    (2, (1,), ('edge',))
    """
    shapes = _validated_shapes(relators, phi)
    if isinstance(shapes, MinConditionFailure):
        return shapes
    for g in range(1, relators[0].rank + 1):
        i_roles = tuple(forced.get(g) for _, forced in shapes)
        if None in i_roles or len(set(i_roles)) < len(i_roles):
            continue
        return _witness(phi, shapes, g, i_roles)
    # the detail text is part of the CLI's JSON output; kept byte-stable
    return MinConditionFailure(None, "no-assignment", "no n-role admits a matching")


def standard_witness(
    relators: Sequence[CyclicWord], phi: Slope
) -> MinConditionWitness | MinConditionFailure:
    """Validate the identity role assignment directly: i-role k for relator
    k, n-role = rank.  A standardized tuple must pass this even when the
    general search would find some other witness first.

    >>> from .words import parse_cyclic_word as pc
    >>> w = standard_witness((pc("x2 x1 X2 X1"),), Slope((0, -1)))
    >>> w.n_role, w.i_roles
    (2, (1,))
    """
    shapes = _validated_shapes(relators, phi)
    if isinstance(shapes, MinConditionFailure):
        return shapes
    n = relators[0].rank
    for i, (_, forced) in enumerate(shapes):
        if forced.get(n) != i + 1:
            return MinConditionFailure(
                i, "no-assignment", f"identity roles (x{i + 1}, x{n}) not admissible"
            )
    return _witness(phi, shapes, n, tuple(range(1, len(relators) + 1)))


@dataclass(frozen=True)
class Relabeling:
    """Free-group automorphism sending old generator g to the signed new
    letter images[g-1] (permutation composed with inversions)."""

    images: tuple[int, ...]
    rank: int

    def apply_letter(self, a: int) -> int:
        img = self.images[abs(a) - 1]
        return img if a > 0 else -img

    def apply_cyclic(self, r: CyclicWord) -> CyclicWord:
        return CyclicWord(tuple(self.apply_letter(a) for a in r.letters), self.rank)

    def inverse(self) -> "Relabeling":
        inv = [0] * self.rank
        for old0, img in enumerate(self.images):
            inv[abs(img) - 1] = (old0 + 1) if img > 0 else -(old0 + 1)
        return Relabeling(tuple(inv), self.rank)

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.rank + 1))


def standardize(
    relators: Sequence[CyclicWord], phi: Slope, witness: MinConditionWitness
) -> tuple[tuple[CyclicWord, ...], Slope, Relabeling]:
    """Permute/invert generators so the witness becomes the identity one.

    After standardization relator k has i-role x_{k+1}, the n-role is x_n,
    and the slope satisfies phi(x_j) >= 0 for j < n, phi(x_n) < 0.  Heights
    and lower sections are unchanged edge-for-edge, so the witness survives.

    >>> from .words import parse_cyclic_word as pc
    >>> t = (pc("x2 x1 X2 X1"),)
    >>> w = check_minimum_condition(t, Slope((0, 1)))
    >>> t2, phi2, relab = standardize(t, Slope((0, 1)), w)
    >>> t2[0].letters, phi2.values
    ((-2, 1, 2, -1), (0, -1))
    """
    n = shared_rank(relators)
    if len(phi) != n:
        raise ValueError("slope rank mismatch")
    if phi.of_generator(witness.n_role) == 0:
        raise ValueError("witness n-role has slope value 0")
    used = set(witness.i_roles) | {witness.n_role}
    middle = [g for g in range(1, n + 1) if g not in used]
    old_order = list(witness.i_roles) + middle + [witness.n_role]
    if len(old_order) != n or len(set(old_order)) != n:
        raise ValueError("witness roles are not an injective assignment")

    signs = _inversion_signs(phi, witness.n_role)
    images = [0] * n
    new_values = [0] * n
    for new, old in enumerate(old_order, start=1):
        s = signs[old - 1]
        images[old - 1] = s * new
        new_values[new - 1] = s * phi.of_generator(old)
    relab = Relabeling(tuple(images), n)
    new_relators = tuple(relab.apply_cyclic(r) for r in relators)
    new_phi = Slope(new_values)
    # raised rather than asserted, so the checks hold under python -O too
    if any(new_phi.of_generator(j) < 0 for j in range(1, n)):
        raise AssertionError("standardized slope is negative below x_n")
    if new_phi.of_generator(n) >= 0:
        raise AssertionError("standardized slope is not negative on x_n")
    return new_relators, new_phi, relab


def _standard_form(
    relators: Sequence[CyclicWord], phi: Slope
) -> tuple[MinConditionWitness, tuple[CyclicWord, ...], Slope, Relabeling]:
    """The witness of (relators, phi) and the standardized relators, slope
    and relabeling; ValueError when the minimum condition fails."""
    witness = check_minimum_condition(relators, phi)
    if isinstance(witness, MinConditionFailure):
        raise ValueError(
            f"minimum condition fails (relator {witness.relator}): {witness.reason}"
        )
    return (witness, *standardize(relators, phi, witness))


def _insert(r: CyclicWord, v: int, quad: tuple[int, int, int, int]) -> CyclicWord:
    letters = r.letters[:v] + quad + r.letters[v:]
    return CyclicWord(letters, r.rank)


def _insert_quads(relators: Sequence[CyclicWord], phi: Slope, quad) -> tuple[CyclicWord, ...]:
    """Relator i (from 1) with quad(i, a) inserted at its first minimal
    vertex under phi, where a is the letter leaving that vertex."""
    out = []
    for i, (r, h) in enumerate(zip(relators, _profiles(relators, phi)), 1):
        v = h.index(min(h))
        out.append(_insert(r, v, quad(i, r.letters[v])))
    return tuple(out)


def _first_nonzero(phi: Slope) -> int:
    return next(g for g, v in enumerate(phi.values, 1) if v)


def tau_deficiency_one(
    relators: Sequence[CyclicWord], rank: int
) -> tuple[CyclicWord, ...]:
    """Commutator insertion for (n-1)-relator tuples with first Betti
    number 1: locate each relator's first minimal vertex under the kernel
    slope (sign-normalized so its first nonzero value is negative) and
    insert x_j x_{i'}^eps x_j^-1 x_{i'}^-eps there.

    >>> from .words import parse_cyclic_word as pc
    >>> out = tau_deficiency_one((pc("x1 x2 x1 X2"),), 2)
    >>> out[0]
    CyclicWord('x1 x2 x2 X1 X2 x1 x1 X2', rank=2)
    """
    relators = tuple(relators)
    if len(relators) != rank - 1:
        raise ValueError("expected exactly rank-1 relators")
    basis = slope_basis(Presentation(rank, relators))
    if len(basis) != 1:
        raise ValueError("first Betti number must be 1")
    return _tau_insert(relators, basis[0])


def _tau_insert(relators: tuple[CyclicWord, ...], phi: Slope) -> tuple[CyclicWord, ...]:
    """The insertion of `tau_deficiency_one` for a checked (n-1)-tuple of
    rank n whose kernel slope, from `slope_basis`, is `phi`.

    eps is -sign phi(x_i'), and on a flat x_i' it is +1 unless the letter
    leaving v is x_i', where it is -1.  The insertion x_j x_i'^eps X_j
    x_i'^-eps at the minimal vertex v is then cyclically reduced:
      * phi(x_j) < 0, so the letter entering v, whose phi is <= 0, is
        never X_j;
      * the letter leaving v has phi >= 0, so for phi(x_i') != 0 it is
        never x_i'^eps, whose phi is negative, and on a flat x_i' the
        rule picks the eps it is not."""
    j = _first_nonzero(phi)

    def quad(i: int, leaving: int) -> tuple[int, int, int, int]:
        ip = i if i < j else i + 1
        val = phi.of_generator(ip)
        eps = -1 if val > 0 or (val == 0 and leaving == ip) else 1
        return j, eps * ip, -j, -eps * ip

    return _insert_quads(relators, phi, quad)


def tau_inverse(
    relators: Sequence[CyclicWord], rank: int
) -> Optional[tuple[CyclicWord, ...]]:
    """Exact left inverse of tau_deficiency_one; None when the tuple is not
    in its image.  Recovery: the inserted commutator contains the unique
    minimal vertex or flat edge, which pins down the four letters to remove;
    the candidate is then confirmed by re-applying the insertion.  Removing
    a commutator keeps the exponent sums, so phi is the candidate's kernel
    slope too, and re-inserting cannot fail (see `_tau_insert`)."""
    relators = tuple(relators)
    if len(relators) != rank - 1 or any(r.rank != rank for r in relators):
        return None
    if any(len(r) < 5 for r in relators):
        return None
    basis = slope_basis(Presentation(rank, relators))
    if len(basis) != 1:
        return None
    phi = basis[0]
    j = _first_nonzero(phi)

    recovered = []
    for r, h in zip(relators, _profiles(relators, phi)):
        tag, _, where = _section_shape(r, h)
        if tag is None:
            return None
        start = where - 2 if tag == "vertex" else where - 1
        if start < 0 or start + 4 > len(r):
            return None  # a genuine insertion never wraps the basepoint
        quad = r.letters[start : start + 4]
        if quad[2] != -quad[0] or quad[3] != -quad[1] or abs(quad[0]) != j:
            return None
        rest = _cut(r, start)
        if rest is None:
            return None
        recovered.append(rest)
    candidate = tuple(recovered)
    return candidate if _tau_insert(candidate, phi) == relators else None


def _cut(r: CyclicWord, start: int) -> Optional[CyclicWord]:
    """r without its four letters from `start` (start + 4 <= |r| < start + |r|,
    so at least one letter is left), or None when that is not cyclically reduced.
    r is, so the only new neighbours are the two letters the cut brings
    together, cyclically: one comparison decides."""
    rest = r.letters[:start] + r.letters[start + 4 :]
    if rest[start - 1] == -rest[start % len(rest)]:
        return None
    return _trusted(CyclicWord, rest, r.rank)


def tau_slope(relators: Sequence[CyclicWord], phi: Slope) -> tuple[CyclicWord, ...]:
    """Commutator insertion against a valid slope: at each relator's first
    minimal vertex insert
    x_n^{-sign phi(x_n)} x_i^{-sign phi(x_i)} x_n^{sign phi(x_n)} x_i^{sign phi(x_i)}
    (relator i paired with generator i, vertical generator x_n last).

    >>> from .words import parse_cyclic_word as pc
    >>> tau_slope((pc("x1 x2 X1 X2"),), Slope((1, -1)))[0]
    CyclicWord('x1 x2 X1 x2 X1 X2 x1 X2', rank=2)
    """
    relators = tuple(relators)
    n = shared_rank(relators)
    if len(relators) >= n:
        raise ValueError("need fewer relators than generators")
    if not phi.is_valid():
        raise ValueError("slope must be nonzero on every generator")

    def quad(i: int, leaving: int) -> tuple[int, int, int, int]:
        sn, si = (1 if phi.of_generator(g) > 0 else -1 for g in (n, i))
        return -sn * n, -si * i, sn * n, si * i

    return _insert_quads(relators, phi, quad)
