"""LS path representation, validity, weights, dominance, concatenation."""

from fractions import Fraction

import pytest

from demtensor.cartan import root_system, vadd
from demtensor.lspath import (
    concatenate,
    dominant_representative,
    make_path,
    path_from_json,
    path_to_json,
    straight_path,
)
from demtensor.weyl import weyl_group

A2 = root_system("A", 2)
F = Fraction


def test_straight_path():
    lam = (1, 0)
    pi = straight_path(A2, lam)
    assert pi.directions == ((1, 0),)
    assert pi.breaks == (F(0), F(1))
    assert pi.initial_direction() == lam
    # lowest orbit point of the first fundamental weight
    pi3 = straight_path(A2, lam, (0, -1))
    assert pi3.directions == ((0, -1),)
    with pytest.raises(ValueError):
        straight_path(A2, lam, (1, 1))


def test_validate_accepts_two_step_path():
    # shape (1,2): two-segment path splitting halfway
    pi = make_path(A2, (1, 2), ((3, -2), (1, 2)), (F(0), F(1, 2), F(1)))
    assert pi.validate() is None


def test_validate_rejects_bad_break():
    pi = make_path(A2, (1, 2), ((3, -2), (1, 2)), (F(0), F(1, 4), F(1)))
    problem = pi.validate()
    assert problem is not None and "chain" in problem


def test_validate_rejects_increasing_directions():
    pi = make_path(A2, (1, 0), ((1, 0), (-1, 1)), (F(0), F(1, 2), F(1)))
    assert pi.validate() is not None


def test_validate_rejects_foreign_direction():
    pi = make_path(A2, (1, 0), ((2, 0),), (F(0), F(1)))
    assert pi.validate() is not None


def test_weight():
    lam = (1, 2)
    assert straight_path(A2, lam).weight() == lam
    pi6 = make_path(A2, lam, ((-3, 1), (3, -2)), (F(0), F(1, 3), F(1)))
    assert pi6.validate() is None
    assert pi6.weight() == (1, -1)
    assert vadd((2, 1), pi6.weight()) == (3, 0)
    # lowest weight path of shape (1,1) balances the shape to a fundamental weight
    pi = straight_path(A2, (1, 1), (-1, -1))
    assert vadd((1, 1), pi.weight()) == (0, 0)


def test_weight_of_eps3_path():
    pi = straight_path(A2, (1, 0), (0, -1))
    assert pi.weight() == (0, -1)
    assert vadd((1, 1), pi.weight()) == (1, 0)


def test_value_and_height():
    lam = (1, 1)
    pi = straight_path(A2, lam)
    assert pi.value_at(F(1, 2)) == (F(1, 2), F(1, 2))
    assert pi.value_at(0) == (0, 0)
    assert pi.value_at(1) == (1, 1)
    with pytest.raises(ValueError):
        pi.value_at(F(3, 2))
    pi2 = straight_path(A2, (1, 0), (-1, 1))
    for t in (F(0), F(1, 3), F(1)):
        assert pi2.height(1, t) == -t
    assert min(pi.height_profile(1)) == 0


def test_is_dominant_for():
    for lam in [(0, 0), (1, 0), (1, 1)]:
        for mu in [(1, 0), (2, 1)]:
            assert straight_path(A2, mu).is_dominant_for(lam)
    pi2 = straight_path(A2, (1, 0), (-1, 1))
    assert pi2.is_dominant_for((1, 1))
    assert not pi2.is_dominant_for((0, 0))
    assert not pi2.is_dominant_for((0, 5))


def test_initial_direction_multi_segment():
    pi4 = make_path(
        A2, (1, 2), ((-3, 1), (3, -2), (1, 2)), (F(0), F(1, 3), F(1, 2), F(1))
    )
    assert pi4.validate() is None
    assert pi4.initial_direction() == (-3, 1)


def test_normal_form_merges_segments():
    pi = make_path(A2, (1, 0), ((1, 0), (1, 0)), (F(0), F(1, 2), F(1)))
    assert pi.directions == ((1, 0),)
    assert pi.breaks == (F(0), F(1))
    pi = make_path(A2, (1, 0), ((1, 0), (-1, 1)), (F(0), F(0), F(1)))
    assert pi.directions == ((-1, 1),)


def test_concatenate():
    lam, mu = (1, 1), (1, 0)
    both = concatenate(straight_path(A2, lam), straight_path(A2, mu))
    assert both.endpoint() == vadd(lam, mu)
    assert both.value_at(F(1, 2)) == lam
    assert both.value_at(F(1, 4)) == (F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        concatenate(straight_path(A2, lam), straight_path(root_system("B", 2), (1, 0)))


def test_json_round_trip():
    pi6 = make_path(A2, (1, 2), ((-3, 1), (3, -2)), (F(0), F(1, 3), F(1)))
    data = path_to_json(pi6)
    assert data["breaks"] == ["0", "1/3", "1"]
    back = path_from_json(A2, data)
    assert back == pi6


def test_dominant_representative():
    group = weyl_group(A2)
    assert dominant_representative(group, (-1, 1)) == (1, 0)
    assert dominant_representative(group, (0, -1)) == (1, 0)
    assert dominant_representative(group, (3, -2)) == (1, 2)
    assert dominant_representative(group, (2, 1)) == (2, 1)


def test_height_local_minima_are_integers():
    from demtensor.crystal import generate_crystal

    for lam in [(1, 1), (2, 0), (1, 2)]:
        for pi in generate_crystal(A2, lam):
            for i in (1, 2):
                hs = pi.height_profile(i)
                for k, h in enumerate(hs):
                    left = hs[k - 1] if k > 0 else None
                    right = hs[k + 1] if k + 1 < len(hs) else None
                    is_min = (left is None or left >= h) and (right is None or right >= h)
                    if is_min:
                        assert F(h).denominator == 1


def test_make_path_interns_equal_paths():
    first = make_path(A2, (1, 2), ((3, -2), (1, 2)), (F(0), F(1, 2), F(1)))
    # same path from unnormalized input: an empty segment, ints for times
    second = make_path(
        A2, [1, 2], ((3, -2), (3, -2), (1, 2), (1, 2)), (0, F(1, 4), F(1, 2), F(1, 2), 1)
    )
    assert second is first
    assert make_path(A2, (1, 2), ((3, -2), (1, 2)), (F(0), F(1, 3), F(1))) is not first
    assert straight_path(A2, (1, 0)) is straight_path(A2, (1, 0), (1, 0))


def test_directly_built_paths_compare_structurally():
    from demtensor.lspath import LSPath, RawPath

    pi = straight_path(A2, (1, 0))
    twin = LSPath(A2, pi.shape, pi.directions, pi.breaks)
    assert twin is not pi and twin == pi and hash(twin) == hash(pi)
    raw = RawPath(A2, ((1, 0),), (F(0), F(1)))
    assert raw == RawPath(A2, ((1, 0),), (0, 1)) and raw != pi
