"""Slope-graded view of group-ring elements and truncated series inverses.

A slope phi grades the free-group ring: a word sits in degree phi(word).
For a tuple in standard minimum form the Jacobian has a rigid graded shape
(diagonal entry of row i has a unique lowest term, a single word at the
height-profile minimum P_i; everything else in the row lives strictly
above), which `verify_fox_lowest_terms` checks and classifies.

After scaling row i by the inverse of its lowest diagonal term, the square
m x m block A' is I + B with mindeg(B) >= 1, so the finite geometric sum
C_K = sum_{k<K} (-B)^k satisfies the exact ring identity
A'·C_K - I = -(-B)^K = C_K·A' - I, whose entries all have degree >= K.
`truncated_neumann_inverse` computes C_K and verifies both identities and
the degree bound exactly; `injectivity_certificate` runs the full pipeline
from a presentation (minimum condition, standardization, Jacobian, column
selection, row normalization, truncation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Optional, Sequence

from .abelian import Slope
from .fox import (
    GroupRingElement,
    JacobianMatrix,
    Terms,
    _add_terms,
    _mul_terms,
    _unpack,
    _width,
    jacobian,
)
from .mincond import (
    MinConditionFailure,
    MinConditionWitness,
    Relabeling,
    _profiles,
    _section_shape,
    _standard_form,
    standard_witness,
)
from .words import CyclicWord, Presentation, Word, _trusted


class TermLimitExceeded(RuntimeError):
    """Raised when a truncated-inverse computation would store more terms
    than the configured cap; exactness is never degraded by truncation."""


@dataclass(frozen=True)
class GradedElement:
    """A group-ring element split by degree: component p holds exactly the
    terms whose words w have phi(w) = p."""

    components: dict[int, GroupRingElement]
    slope: Slope

    @property
    def min_degree(self) -> Optional[int]:
        return min(self.components) if self.components else None

    def component(self, p: int) -> Optional[GroupRingElement]:
        return self.components.get(p)


@lru_cache(maxsize=256)
def _digit_tables(values: tuple[int, ...]) -> tuple[int, bytes, tuple[bytes, ...]]:
    """(off, low, high): phi on each byte of a packed word of rank <= 127 (two
    letter digits at width 4, one at width 8), raised by off >= 0, in base-256
    digits; digit 0 is the `bytes.translate` table low, digit j high[j - 1]."""
    digit = [0, *values, *(-v for v in values)] + [0] * (255 - 2 * len(values))
    if _width(len(values)) == 4:
        digit = [digit[b >> 4] + digit[b & 15] for b in range(256)]
    off = -min(digit)
    raised = [v + off for v in digit]
    top = max(raised).bit_length() or 1
    low, *high = (bytes((v >> s) & 255 for v in raised) for s in range(0, top, 8))
    return off, low, tuple(high)


def _degrees(words: Iterable[int], phi: Slope, rank: int) -> list[int]:
    """phi(w) of each packed word w of a rank phi must have, recomputed exactly
    from its bytes b as sum_j 256^j * sum(b.translate(T_j)) - off*len(b) over
    `_digit_tables`; every degree and rank check in this module comes from
    here.  Slope (1000, -7) raises byte values up to 4000, so it takes two tables:

    >>> from .fox import _pack
    >>> _degrees([_pack(w, 2) for w in ((), (2, 2, -1), (-2,))], Slope((3, -1)), 2)
    [0, -5, 1]
    >>> _degrees([_pack((1, 1, -2, 1), 2), _pack((-1, 2), 2)], Slope((1000, -7)), 2)
    [3007, -1007]
    """
    if len(phi.values) != rank:
        raise ValueError("slope rank mismatch")
    if _width(rank) > 8:
        return [phi.of_word(_unpack(w, rank)) for w in words]
    off, low, high = _digit_tables(phi.values)
    bs = [w.to_bytes((w.bit_length() + 7) >> 3, "big") for w in words]
    out = [sum(b.translate(low)) - off * len(b) for b in bs]
    for j, t in enumerate(high, 1):  # a steep slope's higher digits
        out = [d + (sum(b.translate(t)) << 8 * j) for d, b in zip(out, bs)]
    return out


def _min_degree(words: Iterable[int], phi: Slope, rank: int) -> Optional[int]:
    """Least degree over `words`, in one batched pass; None when empty."""
    return min(_degrees(words, phi, rank), default=None)


def grade(e: GroupRingElement, phi: Slope) -> GradedElement:
    """Partition terms by the slope value of their words.

    >>> from .fox import parse_ring_element
    >>> g = grade(parse_ring_element("1*[] + -1*[x2]", rank=2), Slope((0, -1)))
    >>> sorted(g.components), g.min_degree
    ([-1, 0], -1)
    """
    terms = e._terms
    buckets: dict[int, Terms] = {}
    for w, p in zip(terms, _degrees(terms, phi, e.rank)):
        buckets.setdefault(p, {})[w] = terms[w]
    comps = {
        p: _trusted(GroupRingElement, part, e.rank) for p, part in sorted(buckets.items())
    }
    return GradedElement(comps, phi)


def min_degree(e: GroupRingElement, phi: Slope) -> Optional[int]:
    """Least slope value over the support; None for the zero element."""
    return _min_degree(e._terms, phi, e.rank)


@dataclass(frozen=True)
class RowLowestTerm:
    """Row i of the graded Jacobian shape: minimum height P_i, the unique
    lowest diagonal word with its (+-1) coefficient, the section type tag,
    and each off-diagonal column's minimum degree (None = zero entry)."""

    min_height: int
    lowest_word: Word
    lowest_coeff: Fraction
    case_tag: str
    off_diagonal_min_degrees: tuple[Optional[int], ...]


@dataclass(frozen=True)
class LowestTermReport:
    rows: tuple[RowLowestTerm, ...]
    slope: Slope


def _classify_case(r: CyclicWord, heights: tuple[int, ...], i_gen: int, n_gen: int) -> str:
    """Which of the four standard-minimum local pictures row i realizes,
    from the lone vertex or flat edge of r's vertex heights."""
    tag, _, where = _section_shape(r, heights)
    if tag == "vertex":
        if abs(r.cyclic_letter(where - 1)) == n_gen:
            return "vertex-in-n-out-i"
        return "vertex-in-i-inv-out-n-inv"
    return "edge-flat-i" if r.cyclic_letter(where) == i_gen else "edge-flat-i-inv"


def verify_fox_lowest_terms(relators: Sequence[CyclicWord], phi: Slope) -> LowestTermReport:
    """Check the graded lowest-term structure of the Jacobian for a tuple in
    *standard* minimum form (identity witness): for each row i the diagonal
    entry d(r_i)/d(x_i) has a one-word lowest component at degree P_i (the
    height-profile minimum) with coefficient +-1, and every other entry of
    the row has min degree >= P_i + 1.  Violations raise ValueError."""
    return _lowest_terms(tuple(relators), phi)[0]


def _lowest_terms(
    relators: tuple[CyclicWord, ...], phi: Slope
) -> tuple[LowestTermReport, JacobianMatrix]:
    """`verify_fox_lowest_terms`, with the Jacobian it builds once the
    standard witness is checked."""
    witness = standard_witness(relators, phi)
    if isinstance(witness, MinConditionFailure):
        raise ValueError(
            f"tuple is not in standard minimum form: {witness.reason}"
            f" ({witness.detail})"
        )
    n = relators[0].rank
    jac = jacobian(Presentation(n, relators))
    rows = []
    for i, (r, heights) in enumerate(zip(relators, _profiles(relators, phi))):
        p_i = min(heights)
        diag = grade(jac[i, i], phi)
        if diag.min_degree != p_i:
            raise ValueError(
                f"row {i}: diagonal min degree {diag.min_degree} != P_i {p_i}"
            )
        low = diag.component(p_i)
        if low.term_count() != 1:
            raise ValueError(f"row {i}: lowest diagonal component is not one term")
        (word, coeff), = low.terms().items()
        if coeff not in (1, -1):
            raise ValueError(f"row {i}: lowest coefficient {coeff} is not a unit sign")
        offs: list[Optional[int]] = []
        for j in range(n):
            if j == i:
                continue
            d = min_degree(jac[i, j], phi)
            if d is not None and d < p_i + 1:
                raise ValueError(
                    f"row {i}, column {j}: off-diagonal degree {d} <= P_i"
                )
            offs.append(d)
        rows.append(
            RowLowestTerm(
                min_height=p_i,
                lowest_word=word,
                lowest_coeff=coeff,
                case_tag=_classify_case(r, heights, i + 1, n),
                off_diagonal_min_degrees=tuple(offs),
            )
        )
    return LowestTermReport(tuple(rows), phi), jac


Matrix = tuple[tuple[GroupRingElement, ...], ...]


@dataclass(frozen=True)
class GradedCertificate:
    """Exact finite-order inverse certificate for a graded-dominant matrix:
    normalized matrix, truncation order, truncated inverse, the error matrix
    -(-B)^K (which A*C_K - I and C_K*A - I both equal), and the verified
    degree bound."""

    normalized_matrix: Matrix
    slope: Slope
    truncation_order: int
    truncated_inverse: Matrix
    error_matrix: Matrix
    error_min_degree: Optional[int]
    term_count: int
    lowest_terms: Optional[LowestTermReport] = None
    witness: Optional[MinConditionWitness] = None
    relabeling: Optional[Relabeling] = None


def _matmul(a: list[list[Terms]], b: list[list[Terms]], rank: int) -> list[list[Terms]]:
    size = len(a)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc: Terms = {}
            for k in range(size):
                if a[i][k] and b[k][j]:
                    _mul_terms(a[i][k], b[k][j], rank, acc)
            row.append(acc)
        out.append(row)
    return out


def _minus_eye(a: list[list[Terms]]) -> list[list[Terms]]:
    """a - I, in place; returns a."""
    for i, row in enumerate(a):
        _add_terms(row[i], [(0, -1)])
    return a


def _check_series_args(order: int, term_cap: int) -> None:
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    if term_cap < 1:
        raise ValueError(f"term cap must be >= 1, got {term_cap}")


def truncated_neumann_inverse(
    matrix: Sequence[Sequence[GroupRingElement]],
    phi: Slope,
    order: int,
    term_cap: int = 1_000_000,
) -> GradedCertificate:
    """Certificate for A = I + B with mindeg(B) >= 1 (checked literally on
    the given matrix): C_K = sum_{k<K} (-B)^k with exact two-sided errors.

    The series runs on the term-dict kernel of `fox`, and the returned
    matrices wrap its term dicts as they are.

    >>> from .fox import parse_ring_element
    >>> A = ((parse_ring_element("1*[] + -1*[X2]", rank=2),),)
    >>> cert = truncated_neumann_inverse(A, Slope((0, -1)), 3)
    >>> cert.error_min_degree
    3
    """
    _check_series_args(order, term_cap)
    A: Matrix = tuple(tuple(row) for row in matrix)
    size = len(A)
    if any(len(row) != size for row in A):
        raise ValueError("matrix must be square")
    if size == 0:
        raise ValueError("matrix must be nonempty")
    rank = A[0][0].rank
    if any(e.rank != rank for row in A for e in row):
        raise ValueError("rank mismatch")
    a = [[e._terms for e in row] for row in A]
    b = _minus_eye([[dict(e) for e in row] for row in a])
    for i in range(size):
        for j in range(size):
            d = _min_degree(b[i][j], phi, rank)
            if d is not None and d < 1:
                where = "diagonal" if i == j else "off-diagonal"
                raise ValueError(
                    f"not graded-dominant: {where} entry ({i},{j}) has degree {d} < 1"
                )
    neg_b = [[{w: -c for w, c in e.items()} for e in row] for row in b]
    # C_K = sum of (-B)^k for k < K, the powers starting from the identity
    power = [[{0: 1} if i == j else {} for j in range(size)] for i in range(size)]
    series: list[list[Terms]] = [[{} for _ in row] for row in power]
    series_terms = 0
    for k in range(order):
        if k:
            power = _matmul(power, neg_b, rank)
        if sum(len(e) for row in power for e in row) + series_terms > term_cap:
            raise TermLimitExceeded(
                f"term cap {term_cap} exceeded at truncation order {order}"
            )
        for s_row, p_row in zip(series, power):
            for acc, e in zip(s_row, p_row):
                _add_terms(acc, e.items())
        series_terms = sum(len(e) for row in series for e in row)
    # the one stored -(-B)^K = (-B)^(K-1) B, against which both sides of the
    # telescoping identity are checked
    error = _matmul(power, b, rank)
    if (
        _minus_eye(_matmul(a, series, rank)) != error  # A*C_K - I
        or _minus_eye(_matmul(series, a, rank)) != error  # C_K*A - I
    ):
        raise AssertionError("telescoping identity failed (ring arithmetic bug)")
    edeg = _min_degree(chain.from_iterable(chain.from_iterable(error)), phi, rank)
    if edeg is not None and edeg < order:
        raise AssertionError("error degree below truncation order (grading bug)")

    def public(m: list[list[Terms]]) -> Matrix:
        return tuple(tuple(_trusted(GroupRingElement, e, rank) for e in row) for row in m)

    return GradedCertificate(
        normalized_matrix=A,
        slope=phi,
        truncation_order=order,
        truncated_inverse=public(series),
        error_matrix=public(error),
        error_min_degree=edeg,
        term_count=series_terms,
    )


def injectivity_certificate(
    p: Presentation,
    phi: Slope,
    order: int,
    term_cap: int = 1_000_000,
) -> GradedCertificate:
    """Full pipeline: minimum condition -> standardize -> Jacobian -> take
    the m columns of the i-role generators -> scale row i by the inverse of
    its lowest diagonal term -> order-K truncated inverse certificate.

    >>> from .words import parse_cyclic_word as pc
    >>> p = Presentation(2, [pc("x2 x1 X2 X1")])
    >>> injectivity_certificate(p, Slope((0, -1)), 5).error_min_degree >= 5
    True
    """
    _check_series_args(order, term_cap)  # before any of the pipeline runs
    witness, std_relators, std_phi, relab = _standard_form(p.relators, phi)
    m = len(std_relators)
    report, jac = _lowest_terms(std_relators, std_phi)
    rows = []
    for i in range(m):
        unit = GroupRingElement.from_word(
            report.rows[i].lowest_word, report.rows[i].lowest_coeff
        ).inverse_unit()
        rows.append(tuple(unit * jac[i, j] for j in range(m)))
    cert = truncated_neumann_inverse(tuple(rows), std_phi, order, term_cap)
    return replace(cert, lowest_terms=report, witness=witness, relabeling=relab)
