"""Demazure crystal generation, membership, string data, closures."""

import itertools

import pytest

from demtensor.cartan import root_system
from demtensor.crystal import e_op, f_op, generate_crystal
from demtensor.demazure import (
    check_string_property,
    contains,
    demazure_elements_for_word,
    f_closure,
    generate_demazure,
    string_parametrization,
)
from demtensor.lspath import straight_path
from demtensor.weyl import weyl_group

A2 = root_system("A", 2)
B2 = root_system("B", 2)
WA2 = weyl_group(A2)
WB2 = weyl_group(B2)


def el(group, *word):
    return group.from_word(word)


def test_identity_demazure_is_singleton():
    for lam in [(1, 0), (1, 1), (2, 1)]:
        dem = generate_demazure(WA2, WA2.identity, lam)
        assert dem.elements == frozenset([straight_path(A2, lam)])


def test_longest_demazure_is_full_crystal():
    for rs, group, lam in [(A2, WA2, (1, 0)), (A2, WA2, (1, 1)), (B2, WB2, (0, 1))]:
        dem = generate_demazure(group, group.longest(), lam)
        assert dem.elements == frozenset(generate_crystal(rs, lam).vertices)


def test_small_demazure_examples():
    dem = generate_demazure(WA2, WA2.simple(1), (1, 0))
    assert dem.elements == frozenset(
        [straight_path(A2, (1, 0)), straight_path(A2, (1, 0), (-1, 1))]
    )
    # five elements below the rotation of length two on the regular shape
    dem2 = generate_demazure(WA2, el(WA2, 1, 2), (1, 1))
    assert len(dem2) == 5


def test_witness_is_normalized():
    # s_2 stabilizes the first fundamental weight
    dem = generate_demazure(WA2, el(WA2, 1, 2), (1, 0))
    assert dem.witness == WA2.simple(1)
    assert dem == generate_demazure(WA2, WA2.simple(1), (1, 0))


def test_full_orbit_demazure_of_fundamental():
    dem = generate_demazure(WA2, el(WA2, 1, 2, 1), (1, 0))
    assert dem.elements == frozenset(
        straight_path(A2, (1, 0), x) for x in [(1, 0), (-1, 1), (0, -1)]
    )


def test_reduced_word_independence():
    for group, lam_list in [(WA2, [(1, 0), (1, 1)]), (WB2, [(1, 0), (1, 1)])]:
        rs = group.rs
        for w in group:
            # all reduced words of w, by exhaustive search over words of length l
            l = group.length(w)
            words = [
                word
                for word in itertools.product(range(1, rs.rank + 1), repeat=l)
                if group.from_word(word) == w
            ]
            for lam in lam_list:
                sets = {demazure_elements_for_word(rs, word, lam) for word in words}
                assert len(sets) == 1


def test_contains_matches_generation():
    for group, lams in [(WA2, [(1, 0), (0, 1), (1, 1), (2, 0)]), (WB2, [(1, 0), (0, 1)])]:
        rs = group.rs
        for lam in lams:
            crystal = generate_crystal(rs, lam)
            for w in group:
                dem = generate_demazure(group, w, lam)
                for pi in crystal:
                    assert contains(pi, w, lam) == (pi in dem)


def test_contains_examples():
    lam = (1, 0)
    for w in WA2:
        assert contains(straight_path(A2, lam), w, lam)
    third = straight_path(A2, lam, (0, -1))
    assert not contains(third, WA2.simple(1), lam)
    assert contains(third, el(WA2, 2, 1), lam)
    # the lowered top of the fundamental crystal sits below the rotation
    second = straight_path(A2, lam, (-1, 1))
    assert contains(second, el(WA2, 1, 2), lam)
    assert not contains(third, el(WA2, 1, 2), lam)
    with pytest.raises(ValueError):
        contains(straight_path(A2, (1, 1)), WA2.identity, (1, 0))


def test_raising_stability():
    for group, lam in [(WA2, (1, 1)), (WB2, (1, 0))]:
        rs = group.rs
        for w in group:
            dem = generate_demazure(group, w, lam)
            for x in dem:
                for i in range(1, rs.rank + 1):
                    y = e_op(x, i)
                    assert y is None or y in dem


def test_string_parametrization_examples():
    lam = (1, 1)
    top = straight_path(A2, lam)
    word = (1, 2)
    assert string_parametrization(top, word, lam) == (0, 0)
    b = f_op(f_op(top, 2), 1)
    assert string_parametrization(b, word, lam) == (1, 1)
    # an element outside the crystal of the word cannot be parametrized
    outside = f_op(top, 1)
    with pytest.raises(ValueError):
        string_parametrization(outside, (2,), lam)


def test_string_parametrization_injective():
    lam = (1, 1)
    for w in WA2:
        dem = generate_demazure(WA2, w, lam)
        word = dem.witness.word
        seen = {}
        for b in dem:
            omega = string_parametrization(b, word, lam)
            assert omega not in seen
            seen[omega] = b


def test_f_closure_branches():
    lam = (1, 0)
    start = generate_demazure(WA2, WA2.identity, lam)
    up = f_closure(WA2, start, 1)
    assert up == generate_demazure(WA2, WA2.simple(1), lam)
    # lowering by the same color again does not grow the crystal
    assert f_closure(WA2, up, 1) == up
    # two steps reach the crystal of the rotation
    lam2 = (1, 1)
    two = f_closure(WA2, f_closure(WA2, generate_demazure(WA2, WA2.identity, lam2), 2), 1)
    assert two == generate_demazure(WA2, el(WA2, 1, 2), lam2)
    assert len(two) == 5


def test_string_property_holds():
    for group, lams in [(WA2, [(1, 0), (1, 1), (2, 1)]), (WB2, [(1, 0), (0, 1)])]:
        rs = group.rs
        for lam in lams:
            for w in group:
                dem = generate_demazure(group, w, lam)
                assert check_string_property(dem) is None


def test_string_property_counterexample():
    # two consecutive interior elements of a long string violate every clause
    top = straight_path(A2, (2, 0))
    bad = frozenset([f_op(top, 1), f_op(f_op(top, 1), 1)])
    hit = check_string_property(bad)
    assert hit is not None
    i, string = hit
    assert i == 1 and len(string) == 3


def test_local_string_certificate_matches_the_ambient_scan():
    import string_oracle

    from demtensor.decomp import decompose
    from demtensor.verify import default_grids, parse_grid

    compared = 0
    for grid in default_grids() + [parse_grid("B2:1")]:
        for lam, mu in itertools.product(grid.shapes, repeat=2):
            ambient = string_oracle.ambient_product(grid.rs, lam, mu)
            strings = [string_oracle.i_strings(ambient, i) for i in range(1, grid.rs.rank + 1)]
            for v, w in itertools.product(grid.group, repeat=2):
                for entry in decompose(grid.group, v, w, lam, mu).entries:
                    if entry.demazure:
                        continue
                    expected = string_oracle.check_string_property(entry.elements, strings)
                    assert entry.string_violation == expected, (v, w, lam, mu, entry.pi)
                    compared += 1
    # non-Demazure components: 173 on A2, 128 on the default B2 shapes, 471 on B2:1
    assert compared == 173 + 128 + 471
