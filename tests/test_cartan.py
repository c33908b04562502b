"""Root system construction, pairings, reflections."""

import random
from fractions import Fraction

import pytest

from cartan_oracle import fundamental_weight, root_sign
from demtensor.cartan import (
    eps_from_weight,
    normalize_coords,
    parse_type,
    root_system,
    vadd,
    vscale,
    vsub,
)


# Known positive-root counts, frozen from the classification tables.
KNOWN_COUNTS = [
    ("A", 1, 1),
    ("A", 2, 3),
    ("A", 3, 6),
    ("B", 2, 4),
    ("B", 3, 9),
    ("C", 3, 9),
    ("D", 4, 12),
    ("G", 2, 6),
    ("F", 4, 24),
    ("E", 6, 36),
]


@pytest.mark.parametrize("letter,rank,count", KNOWN_COUNTS)
def test_positive_root_counts(letter, rank, count):
    rs = root_system(letter, rank)
    assert len(rs.positive_roots) == count


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2), ("B", 3), ("G", 2), ("D", 4)])
def test_cartan_matrix_shape(letter, rank):
    rs = root_system(letter, rank)
    a = rs.cartan
    for i in range(rank):
        assert a[i][i] == 2
        for j in range(rank):
            if i != j:
                assert a[i][j] <= 0
                assert (a[i][j] == 0) == (a[j][i] == 0)


def test_known_cartan_matrices():
    assert root_system("A", 2).cartan == ((2, -1), (-1, 2))
    # alpha_2 short: pairing of the long alpha_1 against the short coroot is -2
    assert root_system("B", 2).cartan == ((2, -1), (-2, 2))
    g2 = root_system("G", 2).cartan
    assert sorted((g2[0][1], g2[1][0])) == [-3, -1]


def test_simple_roots_are_unit_vectors_and_cartan_columns():
    rs = root_system("A", 2)
    assert [r.coords for r in rs.simple_roots] == [(1, 0), (0, 1)]
    # fundamental-weight coordinates of alpha_i = i-th column of the Cartan matrix
    assert rs.simple_roots[0].fw == (2, -1)
    assert rs.simple_roots[1].fw == (-1, 2)


def test_pairing_is_projection():
    rs = root_system("A", 2)
    w1 = fundamental_weight(rs, 1)
    assert rs.pairing(w1, 1) == 1
    assert rs.pairing(w1, 2) == 0
    assert rs.pairing(rs.simple_roots[0].fw, 1) == 2
    assert rs.pairing((1, 2), 2) == 2
    with pytest.raises(IndexError):
        rs.pairing(w1, 3)


def test_reflect_examples():
    rs = root_system("A", 2)
    a1 = rs.simple_roots[0]
    # s_1 of the first fundamental weight subtracts alpha_1
    assert rs.reflect((1, 0), a1) == (-1, 1)
    # orthogonal weight is fixed
    assert rs.reflect((0, 1), a1) == (0, 1)
    # a non-dominant orbit weight of shape (1,2)
    assert rs.reflect((-3, 1), a1) == (3, -2)


def test_reflect_is_involution():
    rs = root_system("B", 2)
    rng = random.Random(7)
    for _ in range(50):
        x = tuple(rng.randint(-4, 4) for _ in range(2))
        for root in rs.positive_roots:
            assert rs.reflect(rs.reflect(x, root), root) == x


def test_root_pairing_linearity():
    rs = root_system("G", 2)
    rng = random.Random(11)
    for _ in range(30):
        x = tuple(rng.randint(-3, 3) for _ in range(2))
        y = tuple(rng.randint(-3, 3) for _ in range(2))
        c = rng.randint(-2, 2)
        for root in rs.positive_roots:
            lhs = rs.root_pairing(vadd(x, vscale(c, y)), root)
            assert lhs == rs.root_pairing(x, root) + c * rs.root_pairing(y, root)


def test_simple_reflect_matches_root_reflect():
    rs = root_system("B", 2)
    for i in (1, 2):
        for x in [(1, 0), (0, 1), (2, -1), (-3, 5)]:
            assert rs.simple_reflect(x, i) == rs.reflect(x, rs.simple_roots[i - 1])


def test_root_sign_lookup():
    rs = root_system("A", 2)
    highest = vadd(rs.simple_roots[0].fw, rs.simple_roots[1].fw)
    assert root_sign(rs, highest) == 1
    assert root_sign(rs, tuple(-c for c in highest)) == -1
    assert root_sign(rs, (5, 5)) is None


def test_parse_type():
    assert parse_type("A2") is root_system("A", 2)
    assert parse_type("b2") is root_system("B", 2)
    with pytest.raises(ValueError):
        parse_type("H3")
    with pytest.raises(ValueError):
        parse_type("A0")
    with pytest.raises(ValueError):
        parse_type("XYZ")
    with pytest.raises(ValueError, match="invalid type E9"):
        parse_type("E9")
    with pytest.raises(ValueError, match="too large"):
        parse_type("E7")


def test_epsilon_coordinates_type_a():
    rs = root_system("A", 2)
    e1, e2, e3 = (1, 0), (-1, 1), (0, -1)
    # eps_1, eps_2, eps_3 up to the all-ones shift: the last entry is zero
    assert eps_from_weight(rs, e1) == (1, 0, 0)
    assert eps_from_weight(rs, e2) == (0, 1, 0)
    assert eps_from_weight(rs, e3) == (-1, -1, 0)
    # eps_1 + eps_2 + eps_3 = 0 in the weight lattice
    assert vadd(vadd(e1, e2), e3) == (0, 0)
    # alpha_i = eps_i - eps_{i+1}
    assert vsub(e1, e2) == rs.simple_roots[0].fw
    assert vsub(e2, e3) == rs.simple_roots[1].fw
    # consecutive differences give the weight back
    zs = eps_from_weight(rs, (2, -1))
    assert tuple(zs[i] - zs[i + 1] for i in range(rs.rank)) == (2, -1)


def test_epsilon_rejected_outside_type_a():
    rs = root_system("B", 2)
    with pytest.raises(ValueError):
        eps_from_weight(rs, (1, 0))


def test_normalize_coords_collapses_integral_fractions_only():
    out = normalize_coords([3, Fraction(4, 2), Fraction(-1, 3), -2, Fraction(0)])
    assert out == (3, 2, Fraction(-1, 3), -2, 0)
    assert [type(a) for a in out] == [int, int, Fraction, int, int]
    ints = (5, -7)
    assert all(a is b for a, b in zip(normalize_coords(ints), ints))
