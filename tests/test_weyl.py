"""Weyl group words, Bruhat order, cosets, orbit order."""

import os
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coset_oracle
import orbit_oracle
from cartan_oracle import root_sign
from demtensor import weyl
from demtensor.cartan import root_system
from demtensor.decomp import condition_check
from demtensor.weyl import NonUniqueMaximum, WeylGroup, group_order, weyl_group


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

A2 = weyl_group(root_system("A", 2))
B2 = weyl_group(root_system("B", 2))


def el(group, *word):
    return group.from_word(word)


# -- matrix-only oracles: nothing here reads the group's tables -------------


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def matvec(a, x):
    return tuple(sum(a[i][k] * x[k] for k in range(len(x))) for i in range(len(a)))


def generator_matrix(rs, i):
    """s_i on fundamental-weight coordinates: x -> x - x_i alpha_i."""
    fw = rs.simple_roots[i - 1].fw
    n = rs.rank
    return tuple(
        tuple(int(j == k) - fw[j] * int(k == i - 1) for k in range(n)) for j in range(n)
    )


def word_matrix(rs, word):
    n = rs.rank
    mat = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in word:
        mat = matmul(mat, generator_matrix(rs, i))
    return mat


def inversion_count(rs, matrix):
    """Length as the number of positive roots the matrix sends negative."""
    return sum(1 for beta in rs.positive_roots if root_sign(rs, matvec(matrix, beta.fw)) < 0)


def bruhat_subword_oracle(group, u, v):
    """Brute force: u <= v iff some reduced subword of v.word multiplies to u."""
    lu = group.length(u)
    word = v.word
    for positions in combinations(range(len(word)), lu):
        if group.from_word(tuple(word[p] for p in positions)) == u:
            return True
    return lu == 0


def test_group_orders():
    assert len(A2) == 6
    assert len(B2) == 8
    assert len(weyl_group(root_system("G", 2))) == 12


def test_multiply_and_apply():
    s1, s2 = A2.simple(1), A2.simple(2)
    assert A2.multiply(s1, s1) == A2.identity
    w0 = el(A2, 1, 2, 1)
    # the longest element of A2 acts as minus one
    assert A2.apply(w0, (1, 1)) == (-1, -1)
    assert A2.apply(s1, (1, 0)) == (-1, 1)
    assert A2.apply(s2, (1, 0)) == (1, 0)
    with pytest.raises(ValueError):
        A2.multiply(s1, B2.simple(1))


def test_longest_element():
    assert A2.length(A2.longest()) == 3
    assert B2.length(B2.longest()) == 4


def test_length_and_reduce_word():
    assert A2.length(A2.identity) == 0
    assert A2.from_word((1, 2, 2, 1)).word == ()
    assert A2.length(el(A2, 1, 2, 1)) == 3
    assert A2.from_word((1, 1, 2)).word == (2,)
    assert el(A2, 1, 2, 1) == el(A2, 2, 1, 2)
    # stored words always have the true length
    for group in (A2, B2):
        for w in group:
            assert len(w.word) == inversion_count(group.rs, w.matrix)


def test_multiply_reduces_stored_word():
    u = el(A2, 1, 2)
    v = el(A2, 2, 1)
    prod = A2.multiply(u, v)
    assert prod == el(A2, 1, 1) == A2.identity or len(prod.word) == A2.length(prod)
    assert len(prod.word) == A2.length(prod)


def test_length_parity():
    for group in (A2, B2):
        for w in group:
            for i in range(1, group.rs.rank + 1):
                lw = group.length(w)
                lsw = group.length(group.multiply(group.simple(i), w))
                assert abs(lw - lsw) == 1


def test_bruhat_examples():
    for w in A2:
        assert A2.bruhat_leq(A2.identity, w)
    assert not A2.bruhat_leq(A2.simple(1), A2.simple(2))
    assert A2.bruhat_leq(el(A2, 1, 2), el(A2, 1, 2, 1))


def test_bruhat_matches_subword_enumeration():
    for group in (A2, B2):
        for u in group:
            for v in group:
                assert group.bruhat_leq(u, v) == bruhat_subword_oracle(group, u, v)


def test_left_descents():
    assert A2.left_descents(A2.identity) == frozenset()
    assert coset_oracle.descent_subgroup(A2, A2.identity) == (A2.identity,)
    assert A2.left_descents(el(A2, 1, 2)) == frozenset({1})
    # the longest element descends in every direction
    assert A2.left_descents(el(A2, 1, 2, 1)) == frozenset({1, 2})
    assert len(coset_oracle.descent_subgroup(A2, el(A2, 1, 2, 1))) == 6


def test_coset_representatives():
    # regular weight: trivial stabilizer, so min = max = w
    for w in A2:
        assert A2.coset_min_weight(w, (1, 1)) == w
        assert A2.coset_max_weight(w, (1, 1)) == w
    # stabilizer of the first fundamental weight is generated by s_2
    assert A2.stabilizer_indices((1, 0)) == frozenset({2})
    assert A2.coset_max_weight(A2.simple(1), (1, 0)) == el(A2, 1, 2)
    assert A2.coset_max_weight(el(A2, 1, 2, 1), (1, 0)) == el(A2, 1, 2, 1)
    assert A2.coset_min_weight(el(A2, 1, 2), (1, 0)) == A2.simple(1)


def test_coset_extremes_are_extremal():
    for group in (A2, B2):
        for lam in [(1, 0), (0, 1), (1, 1)]:
            J = group.stabilizer_indices(lam)
            for w in group:
                lo = group.coset_min(w, J)
                hi = group.coset_max(w, J)
                coset = coset_oracle.coset(group, w, J)
                assert lo in coset and hi in coset
                for u in coset:
                    if u != lo:
                        assert group.length(u) > group.length(lo)
                    if u != hi:
                        assert group.length(u) < group.length(hi)


# -- descent walks against the coset scans ---------------------------------


def all_subsets(rank):
    return [frozenset(J) for k in range(rank + 1) for J in combinations(range(1, rank + 1), k)]


def assert_walks_match_scans(group, w, J):
    assert group.coset_min(w, J) is coset_oracle.coset_min(group, w, J), (w, J)
    assert group.coset_max(w, J) is coset_oracle.coset_max(group, w, J), (w, J)


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_coset_walks_match_the_scan_oracle(letter, rank):
    group = weyl_group(root_system(letter, rank))
    for J in all_subsets(rank):
        for w in group:
            assert_walks_match_scans(group, w, J)
            assert group.coset_bruhat_max(J, w) is coset_oracle.coset_bruhat_max(group, J, w)


def test_coset_walks_match_the_scan_oracle_on_f4():
    """Every element and every proper J of F4, and J = S on 50 seeded
    elements, where a scan enumerates all of W; the Bruhat maxima, whose
    oracle compares whole cosets in Bruhat order, on the seeded elements."""
    group = weyl_group(root_system("F", 4))
    sample = random.Random(4).sample(group.elements, 50)
    full = frozenset(range(1, 5))
    for J in all_subsets(4):
        if J == full:
            continue
        for w in group:
            assert_walks_match_scans(group, w, J)
        for w in sample:
            assert group.coset_bruhat_max(J, w) is coset_oracle.coset_bruhat_max(group, J, w)
    for w in sample:
        assert_walks_match_scans(group, w, full)
        assert group.coset_bruhat_max(full, w) is coset_oracle.coset_bruhat_max(group, full, w)


def test_orbit_poset_basics():
    poset = orbit_oracle.orbit_poset(A2, (1, 0))
    e1, e2, e3 = (1, 0), (-1, 1), (0, -1)
    assert set(poset.points) == {e1, e2, e3}
    for mu in poset.points:
        assert poset.leq((1, 0), mu)
    assert poset.leq(e1, e2) and poset.leq(e2, e3)
    assert not poset.leq(e2, e1)
    assert poset.dist(e1, e3) == 2
    assert poset.dist(e3, e1) == 2
    assert poset.dist(e1, e1) == 0
    with pytest.raises(ValueError):
        poset.leq((5, 5), e1)


def test_orbit_maximum_is_longest_image():
    for group, lam in [(A2, (1, 1)), (A2, (1, 0)), (B2, (1, 0)), (B2, (0, 1))]:
        poset = orbit_oracle.orbit_poset(group, lam)
        top = group.apply(group.longest(), lam)
        for mu in poset.points:
            assert poset.leq(mu, top)


def test_orbit_order_matches_bruhat_on_coset_reps():
    # pinned convention: orbit comparison of x, y agrees with Bruhat
    # comparison of the minimal coset representatives mapping lam to x, y
    for group, lams in [(A2, [(1, 0), (0, 1), (1, 1), (1, 2)]), (B2, [(1, 0), (0, 1), (1, 1)])]:
        for lam in lams:
            poset = orbit_oracle.orbit_poset(group, lam)
            J = group.stabilizer_indices(lam)
            rep = {}
            for w in group:
                x = group.apply(w, lam)
                u = group.coset_min(w, J)
                assert rep.setdefault(x, u) == u
            for x in poset.points:
                for y in poset.points:
                    assert poset.leq(x, y) == group.bruhat_leq(rep[x], rep[y])


def test_sigma_chain_examples():
    mu_shape = (1, 2)
    poset = orbit_oracle.orbit_poset(A2, mu_shape)
    for x in poset.points:
        assert poset.sigma_chain_exists(x, x, Fraction(1, 2))
    top_pair = ((-3, 1), (3, -2))
    assert poset.sigma_chain_exists(top_pair[0], top_pair[1], Fraction(1, 3))
    assert not poset.sigma_chain_exists(top_pair[0], top_pair[1], Fraction(1, 4))
    # lower element never reaches a higher one
    assert not poset.sigma_chain_exists((1, 2), (3, -2), Fraction(1, 2))


def test_coset_bruhat_max():
    for w in A2:
        assert A2.coset_bruhat_max(frozenset(), w) == w
    h = frozenset({1})
    assert A2.coset_bruhat_max(h, A2.identity) == A2.simple(1)
    assert A2.coset_bruhat_max(h, el(A2, 2, 1)) == el(A2, 1, 2, 1)


def test_bruhat_max_rejects_antichain():
    with pytest.raises(NonUniqueMaximum):
        A2.bruhat_max([A2.simple(1), A2.simple(2)])


def test_exchange_corollary():
    # if w sends the k-th simple root negative, some reduced word of w ends in k
    for group in (A2, B2, weyl_group(root_system("A", 3)), weyl_group(root_system("B", 3))):
        rs = group.rs
        for w in group:
            for k in range(1, rs.rank + 1):
                image = group.apply(w, rs.simple_roots[k - 1].fw)
                if root_sign(rs, image) < 0:
                    u = group.multiply(w, group.simple(k))
                    assert group.length(u) == group.length(w) - 1
                    candidate = u.word + (k,)
                    assert group.from_word(candidate) == w
                    assert len(candidate) == group.length(w)


# -- generator tables ----------------------------------------------------------


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("F", 4)])
def test_tables_agree_with_matrices(letter, rank):
    group = weyl_group(root_system(letter, rank))
    rs = group.rs
    gens = [generator_matrix(rs, i) for i in range(1, rank + 1)]
    words = [w.word for w in group]
    assert words == sorted(words, key=lambda word: (len(word), word))
    weight = tuple((-1) ** k * k for k in range(1, rank + 1))
    point = tuple(Fraction(k, k + 2) - 1 for k in range(1, rank + 1))
    for k, w in enumerate(group):
        assert w.index == k
        oracle = word_matrix(rs, w.word)
        assert w.matrix == oracle
        assert group.apply(w, weight) == matvec(oracle, weight)
        assert group.apply(w, point) == matvec(oracle, point)
        assert group.length(w) == inversion_count(rs, w.matrix)
        assert group.multiply(w, group.inverse(w)) is group.identity
        for i, gen in enumerate(gens, start=1):
            right = group.elements[group._rmul[i - 1][w.index]]
            left = group.elements[group._lmul[i - 1][w.index]]
            assert right.matrix == matmul(w.matrix, gen)
            assert left.matrix == matmul(gen, w.matrix)


@pytest.mark.parametrize("letter,rank", [("D", 4), ("E", 6)])
def test_random_words_match_the_matrix_oracle(letter, rank):
    """Groups too large for the exhaustive matrix test: random words, each
    element's matrix, length and generator steps against the oracle."""
    group = weyl_group(root_system(letter, rank))
    rs = group.rs
    gens = [generator_matrix(rs, i) for i in range(1, rank + 1)]

    @settings(derandomize=True, max_examples=40, deadline=2000)
    @given(st.lists(st.integers(1, rank), max_size=3 * rank * rank))
    def check(word):
        w = group.from_word(word)
        oracle = word_matrix(rs, word)
        assert w.matrix == oracle
        assert group.length(w) == inversion_count(rs, oracle)
        for i, gen in enumerate(gens, start=1):
            assert group.elements[group._rmul[i - 1][w.index]].matrix == matmul(oracle, gen)
            assert group.elements[group._lmul[i - 1][w.index]].matrix == matmul(gen, oracle)

    check()


@pytest.mark.parametrize("group", [A2, B2], ids=["A2", "B2"])
def test_multiply_returns_the_canonical_element(group):
    for u in group:
        for v in group:
            assert group.multiply(u, v) is group.from_word(u.word + v.word)


def oracle_parabolic(rs, J):
    gens = [generator_matrix(rs, i) for i in J]
    start = word_matrix(rs, ())
    seen = {start}
    frontier = [start]
    while frontier:
        frontier = [m for m in {matmul(x, g) for x in frontier for g in gens} if m not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3)])
def test_cosets_and_descents_match_matrix_oracle(letter, rank):
    group = weyl_group(root_system(letter, rank))
    rs = group.rs
    subsets = [frozenset(J) for k in range(rank + 1) for J in combinations(range(1, rank + 1), k)]
    parabolics = {J: oracle_parabolic(rs, J) for J in subsets}
    for J in subsets:
        assert {h.matrix for h in group.parabolic(J)} == parabolics[J]
    for w in group:
        inverse = word_matrix(rs, tuple(reversed(w.word)))
        descents = frozenset(
            i
            for i in range(1, rank + 1)
            if root_sign(rs, matvec(inverse, rs.simple_roots[i - 1].fw)) < 0
        )
        assert group.left_descents(w) == descents
        for J in subsets:
            coset = sorted(
                (inversion_count(rs, m), m) for m in {matmul(w.matrix, h) for h in parabolics[J]}
            )
            assert group.coset_min(w, J).matrix == coset[0][1]
            assert group.coset_max(w, J).matrix == coset[-1][1]


@pytest.mark.parametrize("table", ["rmul", "lmul", "inv", "len"])
def test_table_check_catches_a_corrupted_entry(table):
    group = WeylGroup(root_system("A", 2))
    group._check_tables()
    # Elements of A2 by index: e, s1, s2, s1s2, s2s1, s1s2s1.  Each line
    # writes a false entry: a generator step never fixes an element, s1s2
    # is not its own inverse, and s1s2s1 has length 3.
    if table == "rmul":
        group._rmul[0][3] = 3
    elif table == "lmul":
        group._lmul[1][2] = 2
    elif table == "inv":
        group._inv[3] = 3
    else:
        group._len[5] = 2
    with pytest.raises(AssertionError):
        group._check_tables()


def test_group_order_closed_form():
    types = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4)]
    types += [("C", 3), ("D", 4), ("G", 2), ("F", 4)]
    for letter, rank in types:
        rs = root_system(letter, rank)
        assert group_order(rs) == len(weyl_group(rs))


def test_oversized_groups_refused_before_enumeration(monkeypatch):
    steps = []
    right_step = weyl._right_step

    def counted(*args):
        steps.append(args)
        return right_step(*args)

    monkeypatch.setattr(weyl, "_right_step", counted)
    for rank in (7, 8):
        with pytest.raises(ValueError, match="too large"):
            WeylGroup(root_system("E", rank))
    assert steps == []
    # the counter sees the enumeration of a group that is built
    WeylGroup(root_system("A", 2))
    assert len(steps) == 6 * 2


def test_benchmark_condition_reference_agrees_and_reads_memoized_matrices(monkeypatch):
    """`ConditionReference`, the benchmark's matrix-only recomputation of the
    decomposition condition, agrees with `condition_check` on seeded F4
    instances, and reads each element's matrix through the memo."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from workloads import ConditionReference

    applies = []
    apply = WeylGroup.apply

    def counted(self, w, x):
        applies.append(w)
        return apply(self, w, x)

    monkeypatch.setattr(WeylGroup, "apply", counted)
    group = WeylGroup(root_system("F", 4))
    top = group.longest()
    first = top.matrix
    assert len(applies) == 4
    assert top.matrix is first
    assert len(applies) == 4

    reference = ConditionReference(group)
    shapes = [s for s in product((0, 1), repeat=4) if any(s)]
    rng = random.Random(14)
    verdicts = []
    for _ in range(200):
        v, w = rng.choice(group.elements), rng.choice(group.elements)
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        for args in ((v, w, lam, mu), (w, v, mu, lam)):
            got = condition_check(group, *args)
            assert got == reference.holds(*args), args
            verdicts.append(got)
    # both verdicts occur, so the agreement is not vacuous
    assert 0 < sum(verdicts) < len(verdicts)
    # the reference reads v.matrix once per parabolic element, and each
    # element's matrix was still derived only once
    assert len(applies) == 4 * sum(1 for u in group if u._matrix is not None)
