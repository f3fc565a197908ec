"""Height profiles, lower sections, and the minimum-condition machinery.

Fix a slope phi with phi(r) = 0.  Walking the relator cycle from its
basepoint gives integer vertex heights (partial sums of phi over letters);
the *lower section* is everything at the minimum height: minimal vertices
plus the flat edges joining two minimal vertices.

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
from typing import Optional, Sequence

from .abelian import Slope, slope_basis
from .words import CyclicWord, Presentation, Word


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


def height_profile(r: CyclicWord, phi: Slope) -> HeightProfile:
    """Partial sums of phi along the relator, basepoint at height 0.

    >>> from .words import parse_cyclic_word as pc
    >>> height_profile(pc("x2 x1 X2 X1"), Slope((0, -1))).vertex_heights
    (0, -1, -1, 0)
    """
    step = {s * g: s * v for g, v in enumerate(phi.values, 1) for s in (1, -1)}
    heights = tuple(accumulate(map(step.__getitem__, r.letters), initial=0))
    if heights[-1] != 0:
        raise ValueError("slope does not annihilate the relator")
    return HeightProfile(r, phi, heights[:-1])


def lower_section(r: CyclicWord, phi: Slope) -> LowerSection:
    """Minimal vertices plus flat minimal edges.

    >>> from .words import parse_cyclic_word as pc
    >>> ls = lower_section(pc("x2 x1 X2 X1"), Slope((0, -1)))
    >>> sorted(ls.min_vertices), sorted(ls.flat_min_edges)
    ([1, 2], [1])
    """
    h = height_profile(r, phi).vertex_heights
    m = min(h)
    l = len(h)
    verts = frozenset(v for v in range(l) if h[v] == m)
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


def _section_shape(r: CyclicWord, phi: Slope):
    """Classify one relator: ('vertex'|'edge', {n-role: forced i-role}) or
    a MinConditionFailure-shaped (reason, detail) tuple."""
    ls = lower_section(r, phi)
    l = len(r)
    nv, ne = len(ls.min_vertices), len(ls.flat_min_edges)
    if ls.component_count(l) != 1:
        return None, ("multi-component", f"{ls.component_count(l)} components")
    if nv == 1 and ne == 0:
        v = next(iter(ls.min_vertices))
        a = abs(r.cyclic_letter(v - 1))
        b = abs(r.cyclic_letter(v))
        if a == b:
            # impossible at a strict minimum of a reduced word; kept as a
            # defensive failure rather than an assert on untrusted input
            return None, ("same-flank", f"vertex {v} flanked twice by x{a}")
        return "vertex", {b: a, a: b}
    if nv == 2 and ne == 1:
        e = next(iter(ls.flat_min_edges))
        g = abs(r.cyclic_letter(e))
        h1 = abs(r.cyclic_letter(e - 1))
        h2 = abs(r.cyclic_letter(e + 1))
        if h1 != h2:
            return None, ("section-not-lone", f"edge {e} flanks x{h1} vs x{h2}")
        if h1 == g:
            return None, ("same-flank", f"edge {e} and flanks all on x{g}")
        return "edge", {h1: g}
    return None, ("section-not-lone", f"{nv} vertices, {ne} flat edges")


def _validated_shapes(relators: Sequence[CyclicWord], phi: Slope):
    """Shared input validation plus per-relator section classification.
    Returns the shape list, or a MinConditionFailure for the first bad
    relator."""
    if not relators:
        raise ValueError("need at least one relator")
    n = relators[0].rank
    if any(r.rank != n for r in relators):
        raise ValueError("relators must share a rank")
    if len(phi) != n:
        raise ValueError("slope rank mismatch")
    if len(relators) >= n:
        raise ValueError("minimum condition needs fewer relators than generators")
    for idx, r in enumerate(relators):
        if phi.of_word(r) != 0:
            raise ValueError(f"slope does not annihilate relator {idx}")

    shapes: list[tuple[str, dict[int, int]]] = []
    for idx, r in enumerate(relators):
        tag, info = _section_shape(r, phi)
        if tag is None:
            reason, detail = info
            return MinConditionFailure(idx, reason, detail)
        shapes.append((tag, info))
    return shapes


def _inversion_signs(phi: Slope, g: int) -> tuple[int, ...]:
    signs = []
    for gen in range(1, len(phi) + 1):
        v = phi.of_generator(gen)
        if gen == g:
            signs.append(-1 if v > 0 else 1)
        else:
            signs.append(-1 if v < 0 else 1)
    return tuple(signs)


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
        return MinConditionWitness(
            n_role=g,
            i_roles=i_roles,
            case_tags=tuple(tag for tag, _ in shapes),
            inversion_signs=_inversion_signs(phi, g),
        )
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
    return MinConditionWitness(
        n_role=n,
        i_roles=tuple(range(1, len(relators) + 1)),
        case_tags=tuple(tag for tag, _ in shapes),
        inversion_signs=_inversion_signs(phi, n),
    )


@dataclass(frozen=True)
class Relabeling:
    """Free-group automorphism sending old generator g to the signed new
    letter images[g-1] (permutation composed with inversions)."""

    images: tuple[int, ...]
    rank: int

    def apply_letter(self, a: int) -> int:
        img = self.images[abs(a) - 1]
        return img if a > 0 else -img

    def apply_word(self, w: Word) -> Word:
        return Word(tuple(self.apply_letter(a) for a in w.letters), self.rank)

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
    n = len(phi)
    m = len(relators)
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
    assert all(new_phi.of_generator(j) >= 0 for j in range(1, n))
    assert new_phi.of_generator(n) < 0
    assert m == len(new_relators)
    return new_relators, new_phi, relab


def _insert(r: CyclicWord, v: int, quad: tuple[int, int, int, int]) -> CyclicWord:
    letters = r.letters[:v] + quad + r.letters[v:]
    return CyclicWord(letters, r.rank)


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
    n = rank
    if len(relators) != n - 1:
        raise ValueError("expected exactly rank-1 relators")
    if any(r.rank != n for r in relators):
        raise ValueError("relator rank mismatch")
    basis = slope_basis(Presentation(n, relators))
    if len(basis) != 1:
        raise ValueError("first Betti number must be 1")
    return _tau_insert(relators, basis[0])


def _tau_insert(relators: tuple[CyclicWord, ...], phi: Slope) -> tuple[CyclicWord, ...]:
    """The insertion of `tau_deficiency_one` for a checked (n-1)-tuple of
    rank n whose kernel slope, from `slope_basis`, is `phi`."""
    n = len(relators) + 1
    j = next(g for g in range(1, n + 1) if phi.of_generator(g) != 0)

    out = []
    for i0, r in enumerate(relators):
        i = i0 + 1
        ip = i if i < j else i + 1
        v = height_profile(r, phi).first_min_vertex
        val = phi.of_generator(ip)
        if val > 0:
            eps = -1
        elif val < 0:
            eps = 1
        else:
            # flat tie: prefer +1, flip only if it breaks cyclic reduction
            try:
                out.append(_insert(r, v, (j, ip, -j, -ip)))
                continue
            except ValueError:
                eps = -1
        out.append(_insert(r, v, (j, eps * ip, -j, -eps * ip)))
    return tuple(out)


def tau_inverse(
    relators: Sequence[CyclicWord], rank: int
) -> Optional[tuple[CyclicWord, ...]]:
    """Exact left inverse of tau_deficiency_one; None when the tuple is not
    in its image.  Recovery: the inserted commutator contains the unique
    minimal vertex or flat edge, which pins down the four letters to remove;
    the candidate is then confirmed by re-applying the insertion."""
    relators = tuple(relators)
    n = rank
    if len(relators) != n - 1 or any(r.rank != n for r in relators):
        return None
    if any(len(r) < 5 for r in relators):
        return None
    basis = slope_basis(Presentation(n, relators))
    if len(basis) != 1:
        return None
    phi = basis[0]
    j = next(g for g in range(1, n + 1) if phi.of_generator(g) != 0)

    recovered = []
    for r in relators:
        ls = lower_section(r, phi)
        nv, ne = len(ls.min_vertices), len(ls.flat_min_edges)
        l = len(r)
        if nv == 1 and ne == 0:
            start = next(iter(ls.min_vertices)) - 2
        elif nv == 2 and ne == 1:
            start = next(iter(ls.flat_min_edges)) - 1
        else:
            return None
        if start < 0 or start + 4 > l:
            return None  # a genuine insertion never wraps the basepoint
        quad = r.letters[start : start + 4]
        if quad[2] != -quad[0] or quad[3] != -quad[1] or abs(quad[0]) != j:
            return None
        try:
            recovered.append(CyclicWord(r.letters[:start] + r.letters[start + 4 :], n))
        except ValueError:
            return None
    candidate = tuple(recovered)
    try:
        again = tau_deficiency_one(candidate, n)
    except ValueError:
        return None
    return candidate if again == relators else None


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
    if not relators:
        raise ValueError("need at least one relator")
    n = relators[0].rank
    if len(phi) != n or any(r.rank != n for r in relators):
        raise ValueError("rank mismatch")
    if len(relators) >= n:
        raise ValueError("need fewer relators than generators")
    if not phi.is_valid():
        raise ValueError("slope must be nonzero on every generator")
    for idx, r in enumerate(relators):
        if phi.of_word(r) != 0:
            raise ValueError(f"slope does not annihilate relator {idx}")
    sn = 1 if phi.of_generator(n) > 0 else -1
    out = []
    for i0, r in enumerate(relators):
        i = i0 + 1
        si = 1 if phi.of_generator(i) > 0 else -1
        quad = (-sn * n, -si * i, sn * n, si * i)
        v = height_profile(r, phi).first_min_vertex
        out.append(_insert(r, v, quad))
    return tuple(out)
