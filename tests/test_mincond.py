import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from relators.abelian import Slope, enumerate_kernel_slopes, enumerate_valid_slopes
from relators.mincond import (
    MinConditionFailure,
    MinConditionWitness,
    Relabeling,
    check_minimum_condition,
    height_profile,
    lower_section,
    standard_witness,
    standardize,
    tau_deficiency_one,
    tau_inverse,
    tau_slope,
)
from relators.words import (
    CyclicWord,
    Presentation,
    enumerate_cyclically_reduced,
    format_word,
    parse_cyclic_word,
    sample_cyclically_reduced,
)


def cw(text, rank):
    return parse_cyclic_word(text, rank)


# -- height profiles and lower sections ------------------------------------


def test_height_profile_worked_example():
    hp = height_profile(cw("x2 x1 X2 X1", 2), Slope((0, -1)))
    assert hp.vertex_heights == (0, -1, -1, 0)
    assert hp.min_height == -1
    assert hp.first_min_vertex == 1


def test_height_profile_requires_annihilation():
    with pytest.raises(ValueError):
        height_profile(cw("x1 x2", 2), Slope((1, -2)))


def test_height_profile_prefix_sums():
    rng = random.Random(4)
    for _ in range(30):
        w = sample_cyclically_reduced(3, 9, rng)
        p = Presentation(3, (w,))
        for s in enumerate_kernel_slopes(p, 2):
            hp = height_profile(w, s)
            acc = 0
            for k, a in enumerate(w.letters):
                assert hp.vertex_heights[k] == acc
                acc += s.of_letter(a)
            assert acc == 0


def test_lower_section_worked_examples():
    sec = lower_section(cw("x2 x1 X2 X1", 2), Slope((0, -1)))
    assert sorted(sec.min_vertices) == [1, 2]
    assert sorted(sec.flat_min_edges) == [1]

    sec = lower_section(cw("x1 x2 X1 X2", 2), Slope((1, -1)))
    assert sorted(sec.min_vertices) == [3]
    assert sec.flat_min_edges == frozenset()

    sec = lower_section(cw("x1 x2 X1 X2 x1 x2 X1 X2", 2), Slope((1, -1)))
    assert sorted(sec.min_vertices) == [3, 7]
    assert sec.flat_min_edges == frozenset()


def test_lower_section_component_count():
    sec = lower_section(cw("x1 x2 X1 X2 x1 x2 X1 X2", 2), Slope((1, -1)))
    assert sec.component_count(8) == 2
    sec = lower_section(cw("x2 x1 X2 X1", 2), Slope((0, -1)))
    assert sec.component_count(4) == 1
    # whole circle at the minimum
    sec = lower_section(cw("x1 x1 x1", 2), Slope((0, 1)))
    assert sec.component_count(3) == 1


def test_strict_minimum_flanks_are_distinct_generators():
    # reducedness: a strict-min vertex cannot be flanked by one generator twice
    for n in (2, 3):
        for l in range(2, 6):
            for w in enumerate_cyclically_reduced(n, l):
                p = Presentation(n, (w,))
                for s in enumerate_kernel_slopes(p, 2):
                    if s.is_zero():
                        continue
                    sec = lower_section(w, s)
                    for v in sec.min_vertices:
                        if (
                            (v - 1) % l in sec.flat_min_edges
                            or v in sec.flat_min_edges
                        ):
                            continue
                        a = abs(w.cyclic_letter(v - 1))
                        b = abs(w.cyclic_letter(v))
                        assert a != b


def test_adjacent_flat_edges_need_repeat_or_two_zero_generators():
    for n in (2, 3):
        for l in range(2, 6):
            for w in enumerate_cyclically_reduced(n, l):
                p = Presentation(n, (w,))
                for s in enumerate_kernel_slopes(p, 2):
                    if s.is_zero():
                        continue
                    sec = lower_section(w, s)
                    for e in sec.flat_min_edges:
                        if (e + 1) % l not in sec.flat_min_edges:
                            continue
                        la = w.cyclic_letter(e)
                        lb = w.cyclic_letter(e + 1)
                        assert la == lb or abs(la) != abs(lb)


# -- the minimum condition ---------------------------------------------------


def test_check_worked_edge_witness():
    res = check_minimum_condition((cw("x2 x1 X2 X1", 2),), Slope((0, -1)))
    assert isinstance(res, MinConditionWitness)
    assert res.n_role == 2
    assert res.i_roles == (1,)
    assert res.case_tags == ("edge",)


def test_check_multi_component_failure():
    res = check_minimum_condition(
        (cw("x1 x2 X1 X2 x1 x2 X1 X2", 2),), Slope((1, -1))
    )
    assert isinstance(res, MinConditionFailure)
    assert not res
    assert res.reason == "multi-component"
    assert res.relator == 0


def test_check_every_nonzero_slope_fails_on_doubled_commutator():
    w = cw("x1 x2 X1 X2 x1 x2 X1 X2", 2)
    p = Presentation(2, (w,))
    for s in enumerate_kernel_slopes(p, 3):
        if s.is_zero():
            continue
        assert isinstance(check_minimum_condition((w,), s), MinConditionFailure)


def test_check_matching_infeasible():
    t = (cw("x3 x1 X3 X1", 3), cw("x1 x3 X1 X3", 3))
    res = check_minimum_condition(t, Slope((0, 0, -1)))
    assert isinstance(res, MinConditionFailure)


def test_check_two_relator_witness():
    t = (cw("x3 x1 X3 X1", 3), cw("x3 x2 X3 X2", 3))
    res = check_minimum_condition(t, Slope((0, 0, -1)))
    assert isinstance(res, MinConditionWitness)
    assert res.n_role == 3
    assert res.i_roles == (1, 2)


def test_check_scale_invariance():
    cases = [
        ((cw("x2 x1 X2 X1", 2),), Slope((0, -1))),
        ((cw("x3 x1 X3 X1", 3), cw("x3 x2 X3 X2", 3)), Slope((0, 0, -1))),
        ((cw("x1 x2 X1 X2 x1 x2 X1 X2", 2),), Slope((1, -1))),
    ]
    for t, s in cases:
        base = check_minimum_condition(t, s)
        for c in (2, 3, 5):
            scaled = check_minimum_condition(t, s.scaled(c))
            assert isinstance(scaled, type(base))


def test_standard_witness_independent_of_search_order():
    # the lone minimal vertex of x3 x1 admits both role assignments; the
    # search returns the first n-role candidate, the standard check must
    # still validate the identity assignment
    t = (cw("x3 x1", 3),)
    phi = Slope((1, 0, -1))
    found = check_minimum_condition(t, phi)
    assert isinstance(found, MinConditionWitness)
    assert found.n_role == 1 and found.i_roles == (3,)
    std = standard_witness(t, phi)
    assert isinstance(std, MinConditionWitness)
    assert std.n_role == 3 and std.i_roles == (1,)


def test_standard_witness_failure():
    # relator 2's section demands i-role 1, so identity roles cannot hold
    t = (cw("x3 x1 X3 X1", 3), cw("x1 x3 X1 X3", 3))
    res = standard_witness(t, Slope((0, 0, -1)))
    assert isinstance(res, MinConditionFailure)
    assert res.relator == 1


def test_check_validations():
    with pytest.raises(ValueError):
        check_minimum_condition((), Slope((0, -1)))
    with pytest.raises(ValueError):
        # m = n is out of scope: need m < n
        check_minimum_condition(
            (cw("x1 x2", 2), cw("x2 x1", 2)), Slope((-1, 1))
        )
    with pytest.raises(ValueError):
        check_minimum_condition((cw("x1 x2", 2),), Slope((1, 1)))


# -- brute-force oracle: the definition in the module docstring ---------------


def oracle_section(letters, values):
    """Plain prefix-sum heights; the minimal vertices and the flat edges
    between two of them."""
    heights = [0]
    for a in letters[:-1]:
        heights.append(heights[-1] + (values[a - 1] if a > 0 else -values[-a - 1]))
    low = min(heights)
    l = len(letters)
    verts = {k for k in range(l) if heights[k] == low}
    return verts, {k for k in verts if (k + 1) % l in verts}


def oracle_admits(letters, values, i, g):
    """Relator admits i-role x_i under n-role x_g: a lone vertex flanked by
    one x_i edge and one x_g edge, or a lone flat x_i edge with x_g on both
    sides."""
    if i == g:
        return False
    verts, edges = oracle_section(letters, values)
    l = len(letters)
    if len(verts) == 1 and not edges:
        (v,) = verts
        return sorted((abs(letters[v - 1]), abs(letters[v]))) == sorted((i, g))
    if len(verts) == 2 and len(edges) == 1:
        (e,) = edges
        return abs(letters[e]) == i and abs(letters[e - 1]) == abs(letters[(e + 1) % l]) == g
    return False


def oracle_witnesses(relators, values):
    """Every admissible (n-role, i-roles), n-roles ascending."""
    n = len(values)
    for g in range(1, n + 1):
        others = [x for x in range(1, n + 1) if x != g]
        for roles in itertools.permutations(others, len(relators)):
            if all(oracle_admits(r.letters, values, i, g) for r, i in zip(relators, roles)):
                yield g, roles


@st.composite
def oracle_relator(draw, n):
    """A cyclically reduced word: a fresh word, a proper power or a
    commutator of two generators."""
    alphabet = [a for a in range(-n, n + 1) if a]
    kind = draw(st.sampled_from(["fresh", "power", "commutator"]))
    if kind == "commutator":
        a, b = draw(st.permutations(range(1, n + 1)))[:2]
        a *= draw(st.sampled_from([1, -1]))
        b *= draw(st.sampled_from([1, -1]))
        return CyclicWord((a, b, -a, -b), n)
    length = draw(st.integers(1, 7 if kind == "fresh" else 4))
    letters = [draw(st.sampled_from(alphabet))]
    while len(letters) < length:
        last = len(letters) == length - 1
        options = [a for a in alphabet if a != -letters[-1] and not (last and a == -letters[0])]
        letters.append(draw(st.sampled_from(options)))
    power = 1 if kind == "fresh" else draw(st.integers(2, 3))
    return CyclicWord(letters * power, n)


@st.composite
def oracle_cases(draw):
    """n = 2..5, m < n relators, and a kernel slope with entries in
    [-2, 2] that is forced to zero on a drawn set of generators (the zero
    slope only when no other qualifies)."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, n - 1))
    relators = tuple(draw(oracle_relator(n)) for _ in range(m))
    zero = draw(st.sets(st.integers(1, n), max_size=n - 1))
    sums = [[r.exponent_sum(g) for g in range(1, n + 1)] for r in relators]
    kernel = [
        v
        for v in itertools.product(range(-2, 3), repeat=n)
        if all(v[g - 1] == 0 for g in zero)
        and all(sum(e * x for e, x in zip(row, v)) == 0 for row in sums)
    ]
    nonzero = [v for v in kernel if any(v)]
    return relators, Slope(draw(st.sampled_from(nonzero or kernel)))


@given(oracle_cases())
@settings(max_examples=400, deadline=None)
def test_check_agrees_with_brute_force_oracle(case):
    relators, phi = case
    witnesses = list(oracle_witnesses(relators, phi.values))
    res = check_minimum_condition(relators, phi)
    assert isinstance(res, MinConditionWitness) == bool(witnesses)
    if witnesses:
        assert res.n_role == witnesses[0][0]
        assert (res.n_role, res.i_roles) in witnesses
        tags = tuple(
            "vertex" if len(oracle_section(r.letters, phi.values)[0]) == 1 else "edge"
            for r in relators
        )
        assert res.case_tags == tags


@given(oracle_cases())
@settings(max_examples=400, deadline=None)
def test_standard_witness_agrees_with_brute_force_oracle(case):
    relators, phi = case
    n, m = len(phi), len(relators)
    identity = tuple(range(1, m + 1))
    admitted = all(
        oracle_admits(r.letters, phi.values, i, n) for r, i in zip(relators, identity)
    )
    res = standard_witness(relators, phi)
    assert isinstance(res, MinConditionWitness) == admitted
    if admitted:
        assert (res.n_role, res.i_roles) == (n, identity)


# -- standardization ---------------------------------------------------------


def test_standardize_identity_case():
    t = (cw("x2 x1 X2 X1", 2),)
    phi = Slope((0, -1))
    w = check_minimum_condition(t, phi)
    t2, phi2, rel = standardize(t, phi, w)
    assert t2 == t
    assert phi2.values == (0, -1)
    assert rel.is_identity()


def test_standardize_inverts_negative_generator():
    t = (cw("x2 x1 X2 X1", 2),)
    phi = Slope((0, 1))
    w = check_minimum_condition(t, phi)
    t2, phi2, rel = standardize(t, phi, w)
    assert phi2.values == (0, -1)
    assert [format_word(x) for x in t2] == ["X2 x1 x2 X1"]
    res = check_minimum_condition(t2, phi2)
    assert isinstance(res, MinConditionWitness)
    assert res.n_role == 2 and res.i_roles == (1,)


def test_standardize_three_generator_example():
    t = (cw("x3 x1 X3 X1", 3), cw("x3 x2 X3 X2", 3))
    phi = Slope((0, 0, 1))
    w = check_minimum_condition(t, phi)
    t2, phi2, rel = standardize(t, phi, w)
    assert phi2.values == (0, 0, -1)
    assert rel.images == (1, 2, -3)


def test_standardize_properties_on_samples():
    rng = random.Random(31)
    done = 0
    while done < 25:
        w = sample_cyclically_reduced(3, 8, rng)
        p = Presentation(3, (w,))
        for s in enumerate_kernel_slopes(p, 2, primitive_only=True):
            res = check_minimum_condition((w,), s)
            if not isinstance(res, MinConditionWitness):
                continue
            t2, phi2, rel = standardize((w,), s, res)
            # standard sign pattern
            n = len(phi2.values)
            assert all(v >= 0 for v in phi2.values[: n - 1])
            assert phi2.values[n - 1] < 0
            # length multiset preserved
            assert sorted(len(x.letters) for x in t2) == [len(w.letters)]
            # identity witness on the output
            res2 = standard_witness(t2, phi2)
            assert isinstance(res2, MinConditionWitness)
            assert res2.n_role == n
            assert res2.i_roles == tuple(range(1, len(t2) + 1))
            # the relabeling is invertible and recovers the input
            back = tuple(rel.inverse().apply_cyclic(x) for x in t2)
            assert back == (w,)
            done += 1
            break


def test_relabeling_behaviour():
    rel = Relabeling((-2, 1, 3), 3)
    assert rel.apply_letter(1) == -2
    assert rel.apply_letter(-1) == 2
    assert rel.apply_letter(3) == 3
    assert not rel.is_identity()
    assert rel.inverse().apply_letter(-2) == 1
    w = cw("x1 x2 x3", 3)
    assert format_word(rel.apply_cyclic(w)) == "X2 x1 x3"
    assert Relabeling((1, 2, 3), 3).is_identity()


# -- the commutator insertion map tau ----------------------------------------


def test_tau_worked_example():
    out = tau_deficiency_one((cw("x1 x2 x1 X2", 2),), 2)
    assert [format_word(r) for r in out] == ["x1 x2 x2 X1 X2 x1 x1 X2"]
    # and the image satisfies the minimum condition for the kernel slope
    res = check_minimum_condition(out, Slope((0, -1)))
    assert isinstance(res, MinConditionWitness)


def test_tau_worked_example_round_trip():
    t = (cw("x1 x2 x1 X2", 2),)
    assert tau_inverse(tau_deficiency_one(t, 2), 2) == t


def test_tau_requires_betti_one():
    with pytest.raises(ValueError):
        tau_deficiency_one((cw("x1 x2 X1 X2", 2),), 2)  # b1 = 2


def test_tau_lengths_and_abelianization():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.choice((2, 3))
        t = tuple(
            sample_cyclically_reduced(n, rng.randrange(3, 10), rng)
            for _ in range(n - 1)
        )
        p = Presentation(n, t)
        from relators.abelian import abelianization_matrix, first_betti_number

        if first_betti_number(p) != 1:
            continue
        out = tau_deficiency_one(t, n)
        for r_in, r_out in zip(t, out):
            assert len(r_out.letters) == len(r_in.letters) + 4
        a = abelianization_matrix(p).rows
        b = abelianization_matrix(Presentation(n, out)).rows
        assert a == b


def test_tau_images_pass_minimum_condition():
    rng = random.Random(9)
    from relators.abelian import first_betti_number, slope_basis

    done = 0
    while done < 40:
        n = rng.choice((2, 3))
        t = tuple(
            sample_cyclically_reduced(n, rng.randrange(3, 12), rng)
            for _ in range(n - 1)
        )
        p = Presentation(n, t)
        if first_betti_number(p) != 1:
            continue
        out = tau_deficiency_one(t, n)
        phi = slope_basis(p)[0]
        res = check_minimum_condition(out, phi)
        assert isinstance(res, MinConditionWitness)
        done += 1


def test_tau_inverse_rejects_wrong_shapes():
    assert tau_inverse((cw("x1 x2 x1 X2", 2),), 2) is None
    assert tau_inverse((cw("x1 x1 x1 x1 x1 x1 x1 x1", 2),), 2) is None


def test_tau_round_trip_exhaustive_l4():
    # left inverse on every betti-1 tuple of length 4: tau is injective there
    from relators.abelian import first_betti_number

    images = set()
    count = 0
    for w in enumerate_cyclically_reduced(2, 4):
        t = (w,)
        if first_betti_number(Presentation(2, t)) != 1:
            continue
        out = tau_deficiency_one(t, 2)
        assert tau_inverse(out, 2) == t
        images.add(tuple(r.letters for r in out))
        count += 1
    assert count == 76  # betti-1 tuples among the 84 of length 4
    assert len(images) == count


# -- the slope-indexed insertion map ------------------------------------------


def test_tau_slope_worked_example():
    out = tau_slope((cw("x1 x2 X1 X2", 2),), Slope((1, -1)))
    assert [format_word(r) for r in out] == ["x1 x2 X1 x2 X1 X2 x1 X2"]


def test_tau_slope_requires_valid_slope():
    with pytest.raises(ValueError):
        tau_slope((cw("x2 x1 X2 X1", 2),), Slope((0, -1)))


def test_tau_slope_unique_minimum_and_recovery():
    rng = random.Random(12)
    done = 0
    while done < 40:
        w = sample_cyclically_reduced(3, 8, rng)
        p = Presentation(3, (w,))
        valid = enumerate_valid_slopes(p, 2)
        if not valid:
            continue
        phi = valid[rng.randrange(len(valid))]
        out = tau_slope((w,), phi)
        r = out[0]
        assert len(r.letters) == len(w.letters) + 4
        assert r.exponent_sum(1) == w.exponent_sum(1)
        # unique minimal vertex at the midpoint of the inserted quad
        hp = height_profile(r, phi)
        mins = [
            v for v, h in enumerate(hp.vertex_heights) if h == hp.min_height
        ]
        assert len(mins) == 1
        res = check_minimum_condition(out, phi)
        assert isinstance(res, MinConditionWitness)
        done += 1


def test_tau_slope_disjoint_images_small_exhaustive():
    # over all length-4 relators with rank 3 and all box-1 class
    # representatives, distinct inputs never share an output
    from relators.abelian import count_slope_classes

    outputs = {}
    for w in enumerate_cyclically_reduced(3, 4):
        p = Presentation(3, (w,))
        valid = enumerate_valid_slopes(p, 1)
        if not valid:
            continue
        _, reps = count_slope_classes(p, valid)
        for rep in reps:
            out = tuple(r.letters for r in tau_slope((w,), rep))
            outputs.setdefault(out, set()).add(w.letters)
    assert all(len(sources) == 1 for sources in outputs.values())
    assert len(outputs) == 1200


# -- exact counting ------------------------------------------------------------


def test_tau_counts_small():
    from relators.experiment import tau_count

    res = tau_count(2, 3)
    assert (res.r_count, res.r_prime_count, res.tau_image_count) == (28, 28, 28)
    assert res.r_count_extended == 2188
    assert res.injective

    res = tau_count(2, 4)
    assert (res.r_count, res.r_prime_count, res.tau_image_count) == (84, 76, 76)
    assert res.r_count_extended == 6564
    assert res.injective
