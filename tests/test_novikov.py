import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import relators.novikov as novikov

from relators.abelian import Slope, first_betti_number, slope_basis
from relators.fox import (
    GroupRingElement,
    fox_derivative,
    format_ring_element,
    jacobian,
    parse_ring_element,
)
from relators.mincond import standardize, check_minimum_condition, tau_deficiency_one
from relators.novikov import (
    TermLimitExceeded,
    grade,
    injectivity_certificate,
    min_degree,
    truncated_neumann_inverse,
    verify_fox_lowest_terms,
)
from relators.words import (
    Presentation,
    Word,
    parse_cyclic_word,
    parse_word,
    reduce,
    sample_cyclically_reduced,
)


def elem(text, rank=2):
    return parse_ring_element(text, rank)


def random_element(rng, rank=2):
    out = GroupRingElement.zero(rank)
    for _ in range(rng.randrange(0, 5)):
        letters = []
        for _ in range(rng.randrange(0, 5)):
            a = rng.choice([g for i in range(1, rank + 1) for g in (i, -i)])
            if letters and a == -letters[-1]:
                continue
            letters.append(a)
        out = out + GroupRingElement.from_word(
            Word(tuple(letters), rank), rng.choice((-2, -1, 1, 2, 3))
        )
    return out


def test_grade_splits_by_slope_value():
    phi = Slope((0, -1))
    e = elem("1*[] + 2*[x2] + -1*[x1 X2] + 1*[x2 x2]")
    g = grade(e, phi)
    assert g.min_degree == -2
    assert format_ring_element(g.component(-2)) == "1*[x2 x2]"
    assert format_ring_element(g.component(-1)) == "2*[x2]"
    assert format_ring_element(g.component(0)) == "1*[]"
    assert format_ring_element(g.component(1)) == "-1*[x1 X2]"
    assert g.component(5) is None


def test_grade_reassemble_round_trip():
    rng = random.Random(21)
    phi = Slope((1, -2))
    for _ in range(60):
        e = random_element(rng)
        assert grade(e, phi).reassemble() == e


def test_min_degree_of_zero_is_none():
    phi = Slope((1, -1))
    assert min_degree(GroupRingElement.zero(2), phi) is None
    assert grade(GroupRingElement.zero(2), phi).min_degree is None


def test_min_degree_superadditive_under_product():
    rng = random.Random(22)
    phi = Slope((1, -1))
    for _ in range(60):
        a, b = random_element(rng), random_element(rng)
        prod = a * b
        da, db, dp = min_degree(a, phi), min_degree(b, phi), min_degree(prod, phi)
        if da is None or db is None:
            assert dp is None
        elif dp is not None:
            assert dp >= da + db


# -- lowest-term structure (the graded shape behind the certificates) ---------


def test_lowest_terms_worked_single_relator():
    report = verify_fox_lowest_terms(
        (parse_cyclic_word("x2 x1 X2 X1", 2),), Slope((0, -1))
    )
    (row,) = report.rows
    assert row.min_height == -1
    assert format_ring_element(
        GroupRingElement.from_word(row.lowest_word, row.lowest_coeff)
    ) == "1*[x2]"
    assert row.case_tag == "edge-flat-i"
    assert all(d is None or d >= 0 for d in row.off_diagonal_min_degrees)


def test_lowest_terms_worked_two_relators():
    t = (
        parse_cyclic_word("x3 x1 X3 X1", 3),
        parse_cyclic_word("x3 x2 X3 X2", 3),
    )
    report = verify_fox_lowest_terms(t, Slope((0, 0, -1)))
    assert [r.min_height for r in report.rows] == [-1, -1]
    for row in report.rows:
        assert row.lowest_coeff in (1, -1)
        assert row.case_tag.startswith("edge")


def test_lowest_terms_rejects_non_standard_tuple():
    # identity roles not admissible (section demands i-role 1 with n-role 2
    # after swapping) until the tuple is standardized
    with pytest.raises(ValueError):
        verify_fox_lowest_terms((parse_cyclic_word("x2 x1 X2 X1", 2),), Slope((0, 1)))


def test_lowest_terms_rejects_failing_tuple():
    with pytest.raises(ValueError):
        verify_fox_lowest_terms(
            (parse_cyclic_word("x1 x2 X1 X2 x1 x2 X1 X2", 2),), Slope((1, -1))
        )


def test_lowest_terms_universal_over_tau_images():
    rng = random.Random(14)
    done = 0
    while done < 40:
        n = rng.choice((2, 3, 4))
        t = tuple(
            sample_cyclically_reduced(n, rng.randrange(3, 13), rng)
            for _ in range(n - 1)
        )
        p = Presentation(n, t)
        if first_betti_number(p) != 1:
            continue
        out = tau_deficiency_one(t, n)
        phi = slope_basis(p)[0]
        witness = check_minimum_condition(out, phi)
        std, std_phi, _ = standardize(out, phi, witness)
        report = verify_fox_lowest_terms(std, std_phi)
        for row in report.rows:
            assert row.lowest_coeff in (1, -1)
            for d in row.off_diagonal_min_degrees:
                assert d is None or d >= row.min_height + 1
        done += 1


# -- truncated Neumann certificates -------------------------------------------


def test_neumann_geometric_series_1x1():
    A = ((elem("1*[] + -1*[X2]"),),)
    phi = Slope((0, -1))
    cert = truncated_neumann_inverse(A, phi, 3)
    inv = cert.truncated_inverse[0][0]
    assert inv == elem("1*[] + 1*[X2] + 1*[X2 X2]")
    err = cert.error_matrix[0][0]
    assert err == elem("-1*[X2 X2 X2]")
    assert cert.error_min_degree == 3
    assert cert.term_count == 3


def test_neumann_checks_input_literally():
    # 1 - x2 at slope (0,-1) has a degree -1 perturbation: rejected, the
    # caller is expected to normalize first
    A = ((elem("1*[] + -1*[x2]"),),)
    with pytest.raises(ValueError):
        truncated_neumann_inverse(A, Slope((0, -1)), 3)


def test_neumann_rejects_non_square_and_bad_order():
    a = elem("1*[]")
    with pytest.raises(ValueError):
        truncated_neumann_inverse(((a, a),), Slope((0, -1)), 3)
    with pytest.raises(ValueError):
        truncated_neumann_inverse(((a,),), Slope((0, -1)), 0)


def test_neumann_telescoping_recomputed_externally():
    phi = Slope((0, -1))
    b01 = elem("1*[X2 x1]")
    b10 = elem("-2*[X2]")
    A = (
        (elem("1*[]"), b01),
        (b10, elem("1*[] + 1*[X2 X2]")),
    )
    for order in range(1, 7):
        cert = truncated_neumann_inverse(A, phi, order)
        C = cert.truncated_inverse
        size = 2
        prod = [
            [
                sum(
                    (A[i][k] * C[k][j] for k in range(size)),
                    GroupRingElement.zero(2),
                )
                for j in range(size)
            ]
            for i in range(size)
        ]
        for i in range(size):
            for j in range(size):
                expected = prod[i][j] - (
                    GroupRingElement.one(2) if i == j else GroupRingElement.zero(2)
                )
                assert expected == cert.error_matrix[i][j]
                d = min_degree(cert.error_matrix[i][j], phi)
                assert d is None or d >= order
        if cert.error_min_degree is not None:
            assert cert.error_min_degree >= order


def mul_oracle(a, b):
    """Product by concatenating every pair of words and reducing the whole
    string with `words.reduce`, apart from `ring_multiply`."""
    out = GroupRingElement.zero(a.rank)
    for u, cu in a.terms().items():
        for v, cv in b.terms().items():
            w = reduce(u.letters + v.letters, a.rank)
            out = out + GroupRingElement.from_word(w, cu * cv)
    return out


def test_neumann_with_non_integer_coefficient():
    phi = Slope((0, -1))
    A = (
        (elem("1*[]"), elem("1/2*[X2 x1]")),
        (elem("-2/3*[X2]"), elem("1*[] + 1*[X2 X2]")),
    )
    for order in range(1, 6):
        cert = truncated_neumann_inverse(A, phi, order)
        C = cert.truncated_inverse
        for i in range(2):
            for j in range(2):
                prod = sum(
                    (mul_oracle(A[i][k], C[k][j]) for k in range(2)),
                    GroupRingElement.zero(2),
                )
                if i == j:
                    prod = prod - GroupRingElement.one(2)
                assert prod == cert.error_matrix[i][j]
        assert cert.error_min_degree is None or cert.error_min_degree >= order
    coeffs = {c for row in cert.truncated_inverse for e in row for c in e.terms().values()}
    assert any(c.denominator > 1 for c in coeffs)
    assert all(type(c) is Fraction for c in coeffs)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(("X2", "X2 x1", "x1 X2", "X2 X2", "X1 X2 x1")),
            st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(
                lambda c: c != 0
            ),
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_neumann_1x1_matches_geometric_series(terms, order):
    # A = 1 + b with deg(b) >= 1 at (0,-1): C_K = sum_k (-b)^k and
    # A*C_K - 1 = -(-b)^K, recomputed with the oracle product
    phi = Slope((0, -1))
    b = sum(
        (GroupRingElement.from_word(parse_word(w, 2), c) for w, c in terms),
        GroupRingElement.zero(2),
    )
    one = GroupRingElement.one(2)
    cert = truncated_neumann_inverse(((one + b,),), phi, order)
    power, series = one, GroupRingElement.zero(2)
    for _ in range(order):
        series = series + power
        power = mul_oracle(power, -b)
    assert cert.truncated_inverse[0][0] == series
    assert cert.error_matrix[0][0] == -power
    assert cert.term_count == series.term_count()


def test_neumann_term_cap():
    phi = Slope((1, 1))
    A = ((elem("1*[] + 1*[x1] + 1*[x2]"),),)
    with pytest.raises(TermLimitExceeded):
        truncated_neumann_inverse(A, phi, 12, term_cap=30)
    cert = truncated_neumann_inverse(A, phi, 4, term_cap=30)
    assert cert.truncation_order == 4


# -- the full certificate pipeline ---------------------------------------------


def test_certificate_worked_example_all_orders():
    p = Presentation(2, (parse_cyclic_word("x2 x1 X2 X1", 2),))
    phi = Slope((0, -1))
    degrees = []
    for order in range(1, 7):
        cert = injectivity_certificate(p, phi, order)
        assert cert.error_min_degree is None or cert.error_min_degree >= order
        assert cert.lowest_terms is not None
        assert cert.witness is not None
        assert cert.relabeling is not None
        degrees.append(cert.error_min_degree)
    assert degrees == sorted(degrees, key=lambda d: (d is None, d))


def test_certificate_standardizes_first():
    # same tuple with the opposite slope sign requires an inversion
    p = Presentation(2, (parse_cyclic_word("x2 x1 X2 X1", 2),))
    cert = injectivity_certificate(p, Slope((0, 1)), 3)
    assert not cert.relabeling.is_identity()
    assert cert.error_min_degree is None or cert.error_min_degree >= 3


def test_certificate_rejects_failing_tuple():
    p = Presentation(2, (parse_cyclic_word("x1 x2 X1 X2 x1 x2 X1 X2", 2),))
    with pytest.raises(ValueError):
        injectivity_certificate(p, Slope((1, -1)), 3)


def test_certificate_on_tau_images():
    rng = random.Random(15)
    done = 0
    while done < 10:
        n = rng.choice((2, 3))
        t = tuple(
            sample_cyclically_reduced(n, rng.randrange(3, 9), rng)
            for _ in range(n - 1)
        )
        p = Presentation(n, t)
        if first_betti_number(p) != 1:
            continue
        out = tau_deficiency_one(t, n)
        phi = slope_basis(p)[0]
        cert = injectivity_certificate(Presentation(n, out), phi, 4)
        assert cert.error_min_degree is None or cert.error_min_degree >= 4
        done += 1


def test_jacobian_built_once_per_certificate(monkeypatch):
    calls = []
    real = novikov.jacobian

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(novikov, "jacobian", counting)
    p = Presentation(
        3, (parse_cyclic_word("x3 x1 X3 X1", 3), parse_cyclic_word("x3 x2 X3 X2", 3))
    )
    for order in (1, 3):
        calls.clear()
        cert = injectivity_certificate(p, Slope((0, 0, -1)), order)
        assert len(calls) == 1
        assert cert.error_min_degree is None or cert.error_min_degree >= order
