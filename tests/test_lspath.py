"""LS path representation, validity, weights, dominance, concatenation."""

import itertools
import math
from fractions import Fraction

import orbit_oracle
import path_oracle
import pytest
from cartan_oracle import fundamental_weight

from demtensor.cartan import root_system, vadd
from demtensor.crystal import _path_e, _path_f
from demtensor.lspath import (
    _chain_exists,
    concatenate,
    dominant_walk,
    in_orbit,
    make_path,
    orbit_leq,
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


def test_json_refuses_what_is_not_an_ls_path():
    # three coordinates in rank 2: the walk would drop the third one
    with pytest.raises(ValueError, match=r"direction \(-1, 1, 5\) has 3 coordinates"):
        path_from_json(A2, {"directions": [[-1, 1, 5]], "breaks": ["0", "1"]})
    # (0, 1) is not in the orbit of (1, 0), the first direction's shape
    with pytest.raises(ValueError, match=r"direction \(0, 1\) is not in the orbit of \(1, 0\)"):
        path_from_json(A2, {"directions": [[1, 0], [0, 1]], "breaks": ["0", "1/2", "1"]})
    # counts that do not fit, refused before the path is built
    with pytest.raises(ValueError, match="0 directions and 2 breaks"):
        path_from_json(A2, {"directions": [], "breaks": ["0", "1"]})
    with pytest.raises(ValueError, match="1 directions and 1 breaks"):
        path_from_json(A2, {"directions": [[1, 0]], "breaks": ["1"]})
    with pytest.raises(ValueError, match=r"needs 'directions' and 'breaks', has \['directions'\]"):
        path_from_json(A2, {"directions": [[1, 0]]})


def test_dominant_walk():
    group = weyl_group(A2)
    assert dominant_walk(group, (-1, 1)) == ((1, 0), group.simple(1))
    assert dominant_walk(group, (0, -1)) == ((1, 0), group.from_word((2, 1)))
    assert dominant_walk(group, (3, -2)) == ((1, 2), group.simple(2))
    assert dominant_walk(group, (2, 1)) == ((2, 1), group.identity)
    assert dominant_walk(group, (F(-1), F(1))) == ((1, 0), group.simple(1))


def test_dominant_walk_normalizes_on_a_miss_only(monkeypatch, cold_caches):
    """A tuple is looked up as it is: an integral Fraction hashes and
    compares as its int, so the walk normalizes once, on the miss, and a
    lam returned to a Fraction caller first is still int-normalized."""
    import demtensor.lspath as lspath

    normalize = lspath.normalize_coords
    calls = []
    monkeypatch.setattr(lspath, "normalize_coords", lambda x: calls.append(x) or normalize(x))
    group = weyl_group(A2)
    first = dominant_walk(group, (F(-1), F(1)))
    assert first == ((1, 0), group.simple(1))
    assert [type(c) for c in first[0]] == [int, int]
    assert dominant_walk(group, (-1, 1)) is first
    assert dominant_walk(group, (F(-1), F(1))) is first
    assert len(calls) == 1
    # anything but a tuple is normalized before the lookup
    assert dominant_walk(group, [F(-1), 1]) is first
    assert len(calls) == 2


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


def test_direct_construction_brings_the_path_to_normal_form():
    from demtensor.lspath import LSPath

    args = (A2, (1, 0), ((1, 0), (1, 0)), (0, F(1, 2), 1))
    direct = LSPath(*args)
    assert direct == make_path(*args)
    assert direct.directions == ((1, 0),) and direct.ticks == (0, 1)
    assert direct.validate() is None


def test_directly_built_paths_compare_structurally():
    from demtensor.lspath import LSPath, RawPath

    pi = straight_path(A2, (1, 0))
    twin = LSPath(A2, pi.shape, pi.directions, pi.breaks)
    assert twin is not pi and twin == pi and hash(twin) == hash(pi)
    raw = RawPath(A2, ((1, 0),), (F(0), F(1)))
    assert raw == RawPath(A2, ((1, 0),), (0, 1)) and raw != pi


# -- integer ticks against the Fraction oracle ----------------------------------

BOUND_ONE = [
    (rs, shape)
    for rs in (A2, root_system("B", 2), root_system("C", 3), root_system("G", 2))
    for shape in itertools.product((0, 1), repeat=rs.rank)
    if any(shape)
]


def _times(path):
    """Every breakpoint and every midpoint between two of them."""
    out = list(path.breaks)
    out += [(a + b) / 2 for a, b in zip(path.breaks, path.breaks[1:])]
    return out


def _assert_matches_oracle(path):
    for i in range(1, path.rs.rank + 1):
        assert path.height_profile(i) == path_oracle.height_profile(path, i)
        assert _path_f(path, i) == path_oracle.path_f(path, i)
        assert _path_e(path, i) == path_oracle.path_e(path, i)
    for t in _times(path):
        assert path.value_at(t) == path_oracle.value_at(path, t)
    assert path.endpoint() == path_oracle.value_at(path, 1)


@pytest.mark.parametrize("rs, shape", BOUND_ONE, ids=lambda x: str(x))
def test_operators_match_fraction_oracle(rs, shape):
    from demtensor.crystal import generate_crystal

    for pi in generate_crystal(rs, shape):
        _assert_matches_oracle(pi)
        for lam in (rs.zero(), shape):
            stays = all(
                c >= 0 for t in pi.breaks for c in vadd(lam, path_oracle.value_at(pi, t))
            )
            assert pi.is_dominant_for(lam) == stays


def test_concatenations_match_fraction_oracle():
    from demtensor.crystal import generate_crystal

    checked = 0
    for rs in (A2, root_system("B", 2)):
        fundamentals = [fundamental_weight(rs, i) for i in range(1, rs.rank + 1)]
        paths = [pi for lam in fundamentals for pi in generate_crystal(rs, lam)]
        for a in paths:
            for b in paths:
                raw = concatenate(a, b)
                assert raw == path_oracle.concatenate(a, b)
                _assert_matches_oracle(raw)
                checked += 1
    assert checked == 6 * 6 + 9 * 9


def test_interned_paths_are_canonical():
    from demtensor.crystal import generate_crystal
    from demtensor.lspath import _INTERNED

    generated = sum(len(generate_crystal(rs, shape)) for rs, shape in BOUND_ONE)
    assert len(_INTERNED) >= generated
    for pi in _INTERNED.values():
        assert math.gcd(pi.den, *pi.ticks) == 1
        assert pi.breaks == tuple(F(t, pi.den) for t in pi.ticks)
        scaled = [pi.den * c for t in pi.breaks for c in path_oracle.value_at(pi, t)]
        if pi.breaks[0] == 0 and pi.breaks[-1] == 1:
            assert list(pi.marks) == scaled
        # the integer sort key is the one read off the Fractions
        assert pi.sort_key()[2] == tuple((b.numerator, b.denominator) for b in pi.breaks)


def test_cut_rescales_to_a_new_denominator():
    from demtensor.crystal import f_op

    # the 2-height of the straight (-5, 3) path of shape (1, 1) in G2 rises by
    # 3 over the unit interval, so the first lowering cuts at 1/3
    G2 = root_system("G", 2)
    x = straight_path(G2, (1, 1), (-5, 3))
    assert x.den == 1 and x.ticks == (0, 1) and x.marks == (0, 0, -5, 3)
    y = f_op(x, 2)
    assert y.directions == ((4, -3), (-5, 3))
    assert y.den == 3 and y.ticks == (0, 1, 3) and y.marks == (0, 0, 4, -3, -6, 3)
    assert y.breaks == (F(0), F(1, 3), F(1))
    assert y is path_oracle.path_f(x, 2)


def test_rescaling_and_merging_cuts_match_fraction_oracle(monkeypatch):
    """Every element and colour of G2 B(2,1) and B(3,0), where cut times
    fall between ticks: the one-pass operators agree with the Fraction
    oracle, on results that rescale the ticks and on results whose
    reflected run merges with a neighbouring segment."""
    from demtensor import crystal

    G2 = root_system("G", 2)
    counts = {"scaled": 0, "merged": 0}
    reflect = crystal._reflect_between

    def spy(path, i, scale, p, t0, q, t1):
        out = reflect(path, i, scale, p, t0, q, t1)
        # segments before merging: every old one, plus one per cut inside a segment
        pieces = len(path.directions) + (t0 > path.ticks[p] * scale)
        pieces += t1 < path.ticks[q + 1] * scale
        counts["scaled"] += scale > 1
        counts["merged"] += len(out.directions) < pieces
        return out

    elements = [pi for lam in ((2, 1), (3, 0)) for pi in crystal.generate_crystal(G2, lam)]
    assert len(elements) == 189 + 77
    monkeypatch.setattr(crystal, "_reflect_between", spy)
    for pi in elements:
        for i in (1, 2):
            assert crystal._path_f(pi, i) == path_oracle.path_f(pi, i)
            assert crystal._path_e(pi, i) == path_oracle.path_e(pi, i)
    assert counts["scaled"] > 0 and counts["merged"] > 0


# -- the orbit order on the Weyl tables against the orbit poset -------------------

ORBIT_TYPES = [root_system(t, n) for t, n in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]]


def _shapes(rs, bound):
    return [s for s in itertools.product(range(bound + 1), repeat=rs.rank) if any(s)]


@pytest.mark.parametrize(
    "letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)], ids=str
)
def test_dominant_walk_on_every_orbit_point(letter, rank):
    """On every point x of the BFS orbit of a bound-1 shape lam, the walk
    ends at lam and its element u is the minimal coset representative with
    x = u lam."""
    rs = root_system(letter, rank)
    group = weyl_group(rs)
    shapes = _shapes(rs, 1)
    checked = 0
    for lam in shapes:
        for x in orbit_oracle.orbit(group, lam):
            shape, u = dominant_walk(group, x)
            assert shape == lam
            assert group.apply(u, lam) == x
            assert u is group.coset_min_weight(u, lam)
            assert in_orbit(group, x, lam)
            checked += 1
    assert checked > len(shapes)
    other = next(y for y in orbit_oracle.orbit(group, shapes[1]) if y != shapes[1])
    assert not in_orbit(group, other, shapes[0])
    assert not in_orbit(group, shapes[0] + (0,), shapes[0])
    assert not in_orbit(group, shapes[0][:-1], shapes[0])


@pytest.mark.parametrize("rs", ORBIT_TYPES, ids=str)
def test_validate_matches_the_orbit_poset_on_crystals(rs):
    from demtensor.crystal import generate_crystal

    for lam in _shapes(rs, 1):
        for pi in generate_crystal(rs, lam):
            assert pi.validate() == orbit_oracle.validate(pi)


def test_validate_matches_the_orbit_poset_on_refused_paths():
    refused = [
        make_path(A2, (1, 0), ((2, 0),), (F(0), F(1))),
        make_path(A2, (1, 0), ((-1, 1, 5),), (F(0), F(1))),
        make_path(A2, (1, 0), ((1, 0), (-1, 1)), (F(0), F(1, 2), F(1))),
        make_path(A2, (1, 2), ((3, -2), (1, 2)), (F(0), F(1, 4), F(1))),
        make_path(A2, (1, 1), ((-1, 2), (1, 1)), (F(0), F(1, 3), F(1))),
    ]
    for pi in refused:
        assert pi.validate() is not None
        assert pi.validate() == orbit_oracle.validate(pi)


@pytest.mark.parametrize("rs", ORBIT_TYPES, ids=str)
def test_orbit_order_and_chains_match_the_orbit_poset(rs):
    from demtensor.demazure import contains

    group = weyl_group(rs)
    sigmas = sorted({F(k, m) for m in range(1, 5) for k in range(1, m + 1)})
    for lam in _shapes(rs, 1):
        poset = orbit_oracle.orbit_poset(group, lam)
        for x in poset.points:
            pi = straight_path(rs, lam, x)
            for w in group:
                assert contains(pi, w, lam) == poset.leq(x, group.apply(w, lam))
            for y in poset.points:
                if poset.leq(y, x):
                    for s in sigmas:
                        got = _chain_exists(group, x, y, s.numerator, s.denominator)
                        assert got == poset.tick_chain_exists(x, y, s.numerator, s.denominator)


@pytest.mark.parametrize("rs", [root_system("A", 3), root_system("G", 2)], ids=str)
def test_orbit_distance_is_the_length_difference(rs):
    group = weyl_group(rs)
    for lam in _shapes(rs, 2):
        poset = orbit_oracle.orbit_poset(group, lam)
        for x in poset.points:
            for y in poset.points:
                assert orbit_leq(group, y, x) == poset.leq(y, x)
                if poset.leq(y, x):
                    gap = group.length(dominant_walk(group, x)[1]) - group.length(
                        dominant_walk(group, y)[1]
                    )
                    assert poset.dist(x, y) == gap
