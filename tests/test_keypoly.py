"""Demazure operators, key polynomials, and product expansion."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_oracle import fundamental_weight
from demtensor.cartan import root_system, vadd
from demtensor.crystal import CharPoly, character, generate_crystal, tensor_product_elements
from demtensor.decomp import decompose
from demtensor.demazure import generate_demazure
from demtensor.keypoly import (
    KeyIndex,
    _check_unitriangular,
    demazure_operator,
    demazure_operator_word,
    expand_in_keys,
    key_index,
    key_polynomial,
    monomials_type_a,
    product_report,
)
from demtensor.weyl import weyl_group
from key_oracle import (
    candidate_key_indices,
    dense_expand_in_keys,
    dominance_leq,
    root_coordinates,
    scan_key_index,
)
from orbit_oracle import orbit

A1 = root_system("A", 1)
A2 = root_system("A", 2)
WA1 = weyl_group(A1)
WA2 = weyl_group(A2)
WB2 = weyl_group(root_system("B", 2))
WG2 = weyl_group(root_system("G", 2))

# Rank-two groups with every shape of coordinate bound 1.
BOUND_ONE = [(group, [(1, 0), (0, 1), (1, 1)]) for group in (WA2, WB2, WG2)]


def mono(*coords):
    return CharPoly.monomial(tuple(coords))


def el(*word):
    return WA2.from_word(word)


def test_demazure_operator_strings():
    # pairing zero: fixed monomial
    assert demazure_operator(A2, mono(0, 1), 1) == mono(0, 1)
    # pairing one: two-term string
    assert demazure_operator(A2, mono(1, 0), 1) == mono(1, 0) + mono(-1, 1)
    # pairing minus one: annihilated
    assert demazure_operator(A2, mono(-1, 1), 1) == CharPoly()
    # pairing minus two: minus the interior of the string
    assert demazure_operator(A2, mono(-2, 1), 1) == -1 * mono(0, 0)
    # pairing two: three-term string
    assert demazure_operator(A2, mono(2, 0), 1) == mono(2, 0) + mono(0, 1) + mono(-2, 2)


def test_demazure_operator_idempotent():
    polys = [mono(1, 1), mono(2, -1) + 3 * mono(0, 1), mono(-3, 2) + mono(1, 0)]
    for f in polys:
        for i in (1, 2):
            once = demazure_operator(A2, f, i)
            assert demazure_operator(A2, once, i) == once


def test_character_formula_cross_check():
    # built into key_polynomial, but check the operator route independently
    for w in WA2:
        for lam in [(1, 0), (1, 1), (2, 1)]:
            dem = generate_demazure(WA2, w, lam)
            word = dem.witness.word
            assert character(dem.elements) == demazure_operator_word(
                A2, CharPoly.monomial(lam), word
            )


def test_key_polynomial_dominant_is_monomial():
    for lam in [(1, 0), (2, 3)]:
        assert key_polynomial(WA2, lam) == CharPoly.monomial(lam)


def test_key_polynomial_antidominant_is_full_character():
    for mu in [(1, 0), (1, 1)]:
        bottom = WA2.apply(WA2.longest(), mu)
        assert key_polynomial(WA2, bottom) == character(generate_crystal(A2, mu).vertices)


def test_key_polynomial_rank_one_string():
    low = WA1.apply(WA1.simple(1), (2,))
    assert key_polynomial(WA1, low) == mono(2) + mono(0) + mono(-2)


def test_key_index_normalization():
    idx = key_index(WA2, (0, 2))
    assert idx.shape == (0, 2) and idx.witness == WA2.identity
    # the weight s1(2, 0): witness is the minimal representative s1
    idx2 = key_index(WA2, (-2, 2))
    assert idx2.shape == (2, 0) and idx2.witness == WA2.simple(1)
    assert idx2.weight == (-2, 2)


def test_dominance_leq():
    assert dominance_leq(WA2, (1, 1), (3, 0))  # difference is alpha_1
    assert dominance_leq(WA2, (0, 0), (1, 1))
    assert not dominance_leq(WA2, (3, 0), (1, 1))
    # incomparable in the integer root lattice sense but rationally below
    assert dominance_leq(WA2, (1, 0), (0, 2))


def test_expand_key_basis_element():
    for nu in [(1, 0), (-1, 1), (-2, 2), (1, -2)]:
        idx = key_index(WA2, nu)
        got = expand_in_keys(WA2, key_polynomial(WA2, nu))
        assert got == {idx: 1}


def test_expand_round_trip_on_key_combinations():
    # the candidate keys form a basis: integer combinations come back exactly
    combos = [
        {(1, 0): 2, (-1, 1): 1},
        {(0, -1): 1, (-1, 1): -3, (1, 0): 5},
        {(-2, 2): 1, (0, 1): 4},
    ]
    for combo in combos:
        f = CharPoly()
        expected = {}
        for nu, c in combo.items():
            f = f + c * key_polynomial(WA2, nu)
            expected[key_index(WA2, nu)] = c
        assert expand_in_keys(WA2, f) == expected


def test_single_non_dominant_monomial_expands():
    # e.g. the reflected fundamental monomial is an alternating key combination
    got = expand_in_keys(WA2, CharPoly.monomial((-1, 1)))
    assert got == {key_index(WA2, (-1, 1)): 1, key_index(WA2, (1, 0)): -1}


def test_candidate_indices_cover_supports():
    f = key_polynomial(WA2, (-1, 1)) * key_polynomial(WA2, (1, 0))
    indices = candidate_key_indices(WA2, f)
    assert len(indices) == len(set(indices))
    assert all(isinstance(ix, KeyIndex) for ix in indices)


def test_product_report_example1():
    report = product_report(WA2, el(1, 2), el(1, 2, 1), (1, 1), (1, 0))
    assert report.condition_forward
    assert report.all_nonnegative
    got = {(idx.shape, idx.witness.word): c for idx, c in report.coefficients.items()}
    assert got == {
        ((2, 1), (1, 2)): 1,
        ((0, 2), (1, 2)): 1,
        ((1, 0), (1,)): 1,
    }


def test_product_report_identity_left():
    # a dominant monomial times any key stays key positive
    for w in WA2:
        report = product_report(WA2, WA2.identity, w, (1, 1), (1, 0))
        assert report.all_nonnegative


def test_product_report_counterexample_data_swapped_condition():
    # the product that fails to decompose still satisfies the swapped
    # condition, so its key expansion is nonnegative
    report = product_report(WA2, el(1, 2), el(1, 2), (1, 1), (1, 0))
    assert not report.condition_forward and report.condition_swapped
    assert report.all_nonnegative


def test_product_report_without_condition_is_integral():
    # both orientations fail here: only integrality is guaranteed
    report = product_report(WA2, el(2, 1), el(2, 1), (1, 1), (1, 1))
    assert not report.condition_forward and not report.condition_swapped
    assert all(isinstance(c, int) for c in report.coefficients.values())


def test_product_report_refuses_non_dominant_shapes_as_decompose_does():
    """A shape that is not dominant is malformed input (ValueError, exit 1),
    refused by the same check and text as `decompose`, not a structural
    fault."""
    e = WA2.identity
    with pytest.raises(ValueError) as refused:
        product_report(WA2, e, e, (-1, 0), (1, 0))
    with pytest.raises(ValueError) as expected:
        decompose(WA2, e, e, (-1, 0), (1, 0))
    assert str(refused.value) == str(expected.value) == "shapes must be dominant"


def test_character_multiplicativity_with_demazure_factors():
    v, w = el(1, 2), el(1, 2, 1)
    left = generate_demazure(WA2, v, (1, 1))
    right = generate_demazure(WA2, w, (1, 0))
    prod = tensor_product_elements(left.elements, right.elements)
    assert character(prod) == character(left.elements) * character(right.elements)


def test_monomial_rendering():
    text = monomials_type_a(A2, CharPoly.monomial((1, 0)) + CharPoly.monomial((-1, 1)))
    assert "x1" in text and text.count("+1") == 2
    assert monomials_type_a(A2, CharPoly()) == "0"


def test_full_character_matches_alternating_sum_formula():
    # independent oracle: the full character times the alternating sum over
    # the orbit of the staircase weight reproduces the shifted alternating sum
    for group, shapes in [(WA1, [(1,), (3,)]), (WA2, [(1, 0), (1, 1), (2, 1)])]:
        rs = group.rs
        rho = (1,) * rs.rank
        for mu in shapes:
            full = key_polynomial(group, group.apply(group.longest(), mu))

            def alternating(weight):
                out = CharPoly()
                for w in group:
                    sign = 1 if group.length(w) % 2 == 0 else -1
                    out = out + sign * CharPoly.monomial(group.apply(w, weight))
                return out

            assert full * alternating(rho) == alternating(vadd(mu, rho))


# -- the integer peel ---------------------------------------------------------------


def test_key_index_walk_matches_group_scan():
    for group, shapes in BOUND_ONE:
        for lam in shapes:
            for nu in orbit(group, lam):
                idx = key_index(group, nu)
                assert idx == scan_key_index(group, nu)
                assert idx.weight == nu


HEIGHT_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 5), ("B", 2), ("B", 3), ("C", 3),
    ("D", 4), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
]


@pytest.mark.parametrize("letter,rank", HEIGHT_TYPES, ids=lambda v: str(v))
def test_height_form_is_a_multiple_of_the_fundamental_heights(letter, rank):
    """sum(h_i x_i) is a fixed positive multiple of the height of x: the
    form is proportional to the heights of the fundamental weights, read in
    the simple-root basis by exact elimination."""
    from fractions import Fraction

    from demtensor.keypoly import _height_form

    rs = root_system(letter, rank)
    form = _height_form(rs)
    heights = [sum(root_coordinates(rs, fundamental_weight(rs, i))) for i in range(1, rank + 1)]
    ratios = {Fraction(h, height) for h, height in zip(form, heights)}
    assert len(ratios) == 1 and ratios.pop() > 0
    assert all(type(h) is int for h in form)


def test_premise_check_rejects_non_unitriangular():
    for group in (WA2, WB2, WG2):
        nu = group.apply(group.simple(1), (1, 0))
        idx = key_index(group, nu)
        key = key_polynomial(group, idx)
        _check_unitriangular(group, idx, key)
        with pytest.raises(AssertionError, match="leading coefficient 2"):
            _check_unitriangular(group, idx, key + CharPoly.monomial(nu))
        # a weight of the same orbit with a longer witness ranks above the lead
        above = group.apply(group.longest(), idx.shape)
        with pytest.raises(AssertionError, match="does not rank below"):
            _check_unitriangular(group, idx, key + CharPoly.monomial(above))


def _products(group, shapes):
    weights = [nu for lam in shapes for nu in orbit(group, lam)]
    return [(x, y) for x in weights for y in weights]


def test_peel_matches_dense_oracle():
    # every product of two keys on the default A2 grid and on B2 with
    # fundamental shapes, and 50 seeded G2 products
    cases = [(WA2, pair) for pair in _products(WA2, [(1, 0), (0, 1), (1, 1)])]
    cases += [(WB2, pair) for pair in _products(WB2, [(1, 0), (0, 1)])]
    g2 = random.Random(2018).sample(_products(WG2, [(1, 0), (0, 1)]), 50)
    cases += [(WG2, pair) for pair in g2]
    for group, (x, y) in cases:
        f = key_polynomial(group, x) * key_polynomial(group, y)
        got = expand_in_keys(group, f)
        assert got == dense_expand_in_keys(group, f), (group.rs, x, y)
        assert list(got) == sorted(got, key=KeyIndex.sort_key)


@st.composite
def group_and_weights(draw, count):
    group, shapes = draw(st.sampled_from(BOUND_ONE))
    points = st.sampled_from(shapes).flatmap(lambda lam: st.sampled_from(orbit(group, lam)))
    return group, draw(st.lists(points, min_size=count[0], max_size=count[1]))


@settings(max_examples=60, deadline=10000)
@given(
    data=group_and_weights((1, 4)),
    coeffs=st.lists(st.integers(-9, 9).filter(bool), min_size=4, max_size=4),
)
def test_peel_round_trips_key_combinations(data, coeffs):
    group, weights = data
    f = CharPoly()
    expected = {}
    for nu, c in zip(weights, coeffs):
        f = f + c * key_polynomial(group, nu)
        idx = key_index(group, nu)
        expected[idx] = expected.get(idx, 0) + c
    assert expand_in_keys(group, f) == {idx: c for idx, c in expected.items() if c}


@settings(max_examples=60, deadline=10000)
@given(data=group_and_weights((2, 2)))
def test_peel_expansion_sums_back_to_the_product(data):
    group, (x, y) = data

    def key(idx):
        return demazure_operator_word(group.rs, CharPoly.monomial(idx.shape), idx.witness.word)

    product = key(key_index(group, x)) * key(key_index(group, y))
    total = CharPoly()
    for idx, c in expand_in_keys(group, product).items():
        total = total + c * key(idx)
    assert total == product


def _report_facts(report):
    return (report.left_index, report.right_index, list(report.coefficients.items()),
            report.condition_forward, report.condition_swapped)


def test_product_report_memo_matches_a_fresh_expansion():
    """For every (v, w, lam, mu) of the default grids and G2:1, the report
    read through the coset-pair memo equals the uncached body run on the
    caller's own v and w."""
    import demtensor.keypoly as keypoly
    from demtensor.verify import default_grids, parse_grid

    cached = keypoly._product_report
    fresh = cached.__wrapped__
    before = cached.cache_info()
    checked, flags = 0, set()
    for grid in default_grids() + [parse_grid("G2:1")]:
        group = grid.group
        for lam, mu in itertools.product(grid.shapes, repeat=2):
            for v, w in itertools.product(group, repeat=2):
                report = product_report(group, v, w, lam, mu)
                left, right, coeffs, forward, swapped = fresh(group, v, w, lam, mu)
                expected = (left, right, list(coeffs.items()), forward, swapped)
                assert _report_facts(report) == expected, (v, w, lam, mu)
                assert report.all_nonnegative == all(c >= 0 for c in coeffs.values())
                flags.add((forward, swapped))
                checked += 1
    after = cached.cache_info()
    assert checked == 324 + 256 + 1296 and len(flags) == 4
    # most reports were read from the memo, so the comparison is not vacuous
    assert after.hits - before.hits > checked // 2


def test_product_reports_do_not_share_their_coefficients():
    v, w = WA2.from_word((1, 2)), WA2.from_word((1, 2, 1))
    first = product_report(WA2, v, w, (1, 1), (1, 0))
    expected = _report_facts(first)
    first.coefficients.clear()
    first.coefficients[first.left_index] = -1
    again = product_report(WA2, v, w, (1, 1), (1, 0))
    assert again is not first and _report_facts(again) == expected


def test_every_report_sums_back_to_the_product_of_its_keys():
    """For every (v, w, lam, mu) of the default grids, sum(coeff * key) over
    the report is key(v lam) * key(w mu), every key computed by divided
    differences along a reduced word: independent of crystals and of the
    report memos."""
    from demtensor.verify import default_grids

    checked = 0
    for grid in default_grids():
        group, keys = grid.group, {}

        def key(shape, word):
            if (shape, word) not in keys:
                keys[shape, word] = demazure_operator_word(group.rs, CharPoly.monomial(shape), word)
            return keys[shape, word]

        for lam, mu in itertools.product(grid.shapes, repeat=2):
            for v, w in itertools.product(group, repeat=2):
                report = product_report(group, v, w, lam, mu)
                total = CharPoly()
                for idx, c in report.coefficients.items():
                    total = total + c * key(idx.shape, idx.witness.word)
                assert total == key(lam, v.word) * key(mu, w.word), (v, w, lam, mu)
                checked += 1
    assert checked == 324 + 256


def test_key_product_and_count_memos_miss_once_per_pair(cold_caches):
    """A cold sweep over the coset pairs of the default grids expands once
    per unordered pair of key indices and counts once per oriented product
    whose condition holds, the orientation the report reconciles."""
    import demtensor.keypoly as keypoly
    from demtensor.verify import _coset_reps, default_grids

    unordered, oriented, products = set(), set(), 0
    for grid in default_grids():
        group = grid.group
        for lam, mu in itertools.product(grid.shapes, repeat=2):
            for v, w in itertools.product(_coset_reps(group, lam), _coset_reps(group, mu)):
                report = product_report(group, v, w, lam, mu)
                unordered.add(frozenset((report.left_index, report.right_index)))
                if report.condition_forward:
                    oriented.add((group, v, w, lam, mu))
                elif report.condition_swapped:
                    oriented.add((group, w, v, mu, lam))
                products += 1
    assert products == keypoly._product_report.cache_info().misses == 208
    assert keypoly._key_product.cache_info().misses == len(unordered) == 114
    assert keypoly._counted.cache_info().misses == len(oriented) == 113


# Each fault maps every coefficient of a memo's result.
KEY_POSITIVITY_FAULTS = [
    ("_key_product", lambda c: -c, "negative key coefficient under the decomposition condition"),
    ("_counted", lambda c: c + 1, "key coefficients disagree with the component count"),
]


def _faulty(memo, fault):
    def broken(group, *args):
        return {idx: fault(c) for idx, c in memo(group, *args).items()}

    return broken


@pytest.mark.parametrize("memo, fault, message", KEY_POSITIVITY_FAULTS, ids=["negative", "miscounted"])
def test_key_positivity_faults_raise(monkeypatch, cold_caches, memo, fault, message):
    """A negated expansion under the condition, and a component count that
    disagrees with the expansion, each raise TheoremViolation from
    product_report, in either orientation of the condition; a product
    where neither orientation holds is not checked."""
    import demtensor.keypoly as keypoly
    from demtensor.decomp import TheoremViolation

    monkeypatch.setattr(keypoly, memo, _faulty(getattr(keypoly, memo), fault))
    with pytest.raises(TheoremViolation) as raised:
        product_report(WA2, el(1, 2), el(1, 2, 1), (1, 1), (1, 0))
    assert str(raised.value) == message
    # the swapped orientation alone holds here, and is checked too
    with pytest.raises(TheoremViolation, match=message):
        product_report(WA2, el(1, 2), el(1, 2), (1, 1), (1, 0))
    report = product_report(WA2, el(2, 1), el(2, 1), (1, 1), (1, 1))
    assert not report.condition_forward and not report.condition_swapped
