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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .abelian import Slope
from .fox import (
    GroupRingElement,
    JacobianMatrix,
    Terms,
    _from_kernel,
    _kernel_terms,
    _mul_terms,
    jacobian,
)
from .mincond import (
    MinConditionFailure,
    MinConditionWitness,
    Relabeling,
    check_minimum_condition,
    height_profile,
    lower_section,
    standard_witness,
    standardize,
)
from .words import CyclicWord, Presentation, Word


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

    def reassemble(self) -> GroupRingElement:
        rank = len(self.slope)
        out = GroupRingElement.zero(rank)
        for part in self.components.values():
            out = out + part
        return out


def grade(e: GroupRingElement, phi: Slope) -> GradedElement:
    """Partition terms by the slope value of their words.

    >>> from .fox import parse_ring_element
    >>> g = grade(parse_ring_element("1*[] + -1*[x2]", rank=2), Slope((0, -1)))
    >>> sorted(g.components), g.min_degree
    ([-1, 0], -1)
    """
    buckets: dict[int, dict[Word, Fraction]] = {}
    for w, c in e.terms().items():
        buckets.setdefault(phi.of_word(w), {})[w] = c
    comps = {
        p: GroupRingElement(terms, e.rank) for p, terms in sorted(buckets.items())
    }
    return GradedElement(comps, phi)


def min_degree(e: GroupRingElement, phi: Slope) -> Optional[int]:
    """Least slope value over the support; None for the zero element."""
    if e.is_zero():
        return None
    return min(phi.of_word(w) for w in e.terms())


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


def _classify_case(r: CyclicWord, phi: Slope, i_gen: int, n_gen: int) -> str:
    """Which of the four standard-minimum local pictures row i realizes."""
    ls = lower_section(r, phi)
    if len(ls.flat_min_edges) == 0:
        v = next(iter(ls.min_vertices))
        incoming = r.cyclic_letter(v - 1)
        if abs(incoming) == n_gen:
            return "vertex-in-n-out-i"
        return "vertex-in-i-inv-out-n-inv"
    e = next(iter(ls.flat_min_edges))
    return "edge-flat-i" if r.cyclic_letter(e) == i_gen else "edge-flat-i-inv"


def verify_fox_lowest_terms(
    relators: Sequence[CyclicWord],
    phi: Slope,
    *,
    _jac: Optional[JacobianMatrix] = None,
) -> LowestTermReport:
    """Check the graded lowest-term structure of the Jacobian for a tuple in
    *standard* minimum form (identity witness): for each row i the diagonal
    entry d(r_i)/d(x_i) has a one-word lowest component at degree P_i (the
    height-profile minimum) with coefficient +-1, and every other entry of
    the row has min degree >= P_i + 1.  Violations raise ValueError.
    `_jac` is the tuple's Jacobian when the caller has already built it."""
    relators = tuple(relators)
    witness = standard_witness(relators, phi)
    if isinstance(witness, MinConditionFailure):
        raise ValueError(
            f"tuple is not in standard minimum form: {witness.reason}"
            f" ({witness.detail})"
        )
    n = relators[0].rank
    jac = _jac if _jac is not None else jacobian(Presentation(n, relators))
    rows = []
    for i, r in enumerate(relators):
        p_i = height_profile(r, phi).min_height
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
                case_tag=_classify_case(r, phi, i + 1, n),
                off_diagonal_min_degrees=tuple(offs),
            )
        )
    return LowestTermReport(tuple(rows), phi)


Matrix = tuple[tuple[GroupRingElement, ...], ...]


@dataclass(frozen=True)
class GradedCertificate:
    """Exact finite-order inverse certificate for a graded-dominant matrix:
    normalized matrix, truncation order, truncated inverse, the two-sided
    error matrices (both equal to -(-B)^K), and the verified degree bound."""

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


def _matmul(a: list[list[Terms]], b: list[list[Terms]]) -> list[list[Terms]]:
    size = len(a)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc: Terms = {}
            for k in range(size):
                if a[i][k] and b[k][j]:
                    _mul_terms(a[i][k], b[k][j], acc)
            row.append(acc)
        out.append(row)
    return out


def _neg(a: list[list[Terms]]) -> list[list[Terms]]:
    return [[{w: -c for w, c in e.items()} for e in row] for row in a]


def _minus_eye(a: list[list[Terms]]) -> list[list[Terms]]:
    """a - I, as new dicts."""
    out = [[dict(e) for e in row] for row in a]
    for i, row in enumerate(out):
        c = row[i].get((), 0) - 1
        if c:
            row[i][()] = c
        else:
            del row[i][()]
    return out


def truncated_neumann_inverse(
    matrix: Sequence[Sequence[GroupRingElement]],
    phi: Slope,
    order: int,
    term_cap: int = 1_000_000,
) -> GradedCertificate:
    """Certificate for A = I + B with mindeg(B) >= 1 (checked literally on
    the given matrix): C_K = sum_{k<K} (-B)^k with exact two-sided errors.

    The series runs on the term-dict kernel of `fox`; the public matrices
    are built once, at the end.

    >>> from .fox import parse_ring_element
    >>> A = ((parse_ring_element("1*[] + -1*[X2]", rank=2),),)
    >>> cert = truncated_neumann_inverse(A, Slope((0, -1)), 3)
    >>> cert.error_min_degree
    3
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    A: Matrix = tuple(tuple(row) for row in matrix)
    size = len(A)
    if any(len(row) != size for row in A):
        raise ValueError("matrix must be square")
    if size == 0:
        raise ValueError("matrix must be nonempty")
    rank = A[0][0].rank
    if any(e.rank != rank for row in A for e in row):
        raise ValueError("rank mismatch")
    height = {g: v for g, v in enumerate(phi.values, start=1)}
    height.update({-g: -v for g, v in height.items()})

    def degree(w: tuple[int, ...]) -> int:
        return sum(map(height.__getitem__, w))

    a = [[_kernel_terms(e) for e in row] for row in A]
    b = _minus_eye(a)
    for i in range(size):
        for j in range(size):
            d = min(map(degree, b[i][j]), default=None)
            if d is not None and d < 1:
                where = "diagonal" if i == j else "off-diagonal"
                raise ValueError(
                    f"not graded-dominant: {where} entry ({i},{j}) has degree {d} < 1"
                )
    neg_b = _neg(b)
    # (-B)^k, starting from the identity
    power = [[{(): 1} if i == j else {} for j in range(size)] for i in range(size)]
    series = [[dict(e) for e in row] for row in power]  # sum so far
    series_terms = size
    for _ in range(1, order):
        power = _matmul(power, neg_b)
        if sum(len(e) for row in power for e in row) + series_terms > term_cap:
            raise TermLimitExceeded(
                f"term cap {term_cap} exceeded at truncation order {order}"
            )
        for s_row, p_row in zip(series, power):
            for acc, e in zip(s_row, p_row):
                for w, c in e.items():
                    t = acc.get(w, 0) + c
                    if t:
                        acc[w] = t
                    else:
                        del acc[w]
        series_terms = sum(len(e) for row in series for e in row)
    final_power = _matmul(power, neg_b)  # (-B)^K
    err_right = _minus_eye(_matmul(a, series))  # A*C_K - I
    err_left = _minus_eye(_matmul(series, a))  # C_K*A - I
    expected = _neg(final_power)
    if err_right != expected or err_left != expected:
        raise AssertionError("telescoping identity failed (ring arithmetic bug)")
    edeg = min((degree(w) for row in err_right for e in row for w in e), default=None)
    if edeg is not None and edeg < order:
        raise AssertionError("error degree below truncation order (grading bug)")

    def public(m: list[list[Terms]]) -> Matrix:
        return tuple(tuple(_from_kernel(e, rank) for e in row) for row in m)

    return GradedCertificate(
        normalized_matrix=A,
        slope=phi,
        truncation_order=order,
        truncated_inverse=public(series),
        error_matrix=public(err_right),
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
    witness = check_minimum_condition(p.relators, phi)
    if isinstance(witness, MinConditionFailure):
        raise ValueError(
            f"minimum condition fails (relator {witness.relator}): {witness.reason}"
        )
    std_relators, std_phi, relab = standardize(p.relators, phi, witness)
    m = len(std_relators)
    n = p.rank
    jac = jacobian(Presentation(n, std_relators))
    report = verify_fox_lowest_terms(std_relators, std_phi, _jac=jac)
    rows = []
    for i in range(m):
        unit = GroupRingElement.from_word(
            report.rows[i].lowest_word, report.rows[i].lowest_coeff
        ).inverse_unit()
        rows.append(tuple(unit * jac[i, j] for j in range(m)))
    cert = truncated_neumann_inverse(tuple(rows), std_phi, order, term_cap)
    return GradedCertificate(
        normalized_matrix=cert.normalized_matrix,
        slope=cert.slope,
        truncation_order=cert.truncation_order,
        truncated_inverse=cert.truncated_inverse,
        error_matrix=cert.error_matrix,
        error_min_degree=cert.error_min_degree,
        term_count=cert.term_count,
        lowest_terms=report,
        witness=witness,
        relabeling=relab,
    )
