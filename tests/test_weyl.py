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
from demtensor.verify import _coset_reps
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
    """Subword property: u <= v iff some reduced subword of v.word multiplies
    to u.  Subwords are searched letter by letter, every prefix reduced, and
    a (position, prefix product) state that failed is not searched again."""
    lu, word = group.length(u), v.word
    failed = set()

    def search(pos, x):
        lx = group.length(x)
        if lx == lu:
            return x is u
        if (pos, x) in failed or len(word) - pos < lu - lx:
            return False
        for p in range(pos, len(word)):
            y = group.multiply(x, group.simple(word[p]))
            if group.length(y) > lx and search(p + 1, y):
                return True
        failed.add((pos, x))
        return False

    return search(0, group.identity)


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
    """Every pair of A2, B2, A3, B3, C3 and G2."""
    more = [weyl_group(root_system(*t)) for t in (("A", 3), ("B", 3), ("C", 3), ("G", 2))]
    for group in [A2, B2, *more]:
        for u in group:
            for v in group:
                assert group.bruhat_leq(u, v) == bruhat_subword_oracle(group, u, v), (u, v)


@pytest.mark.parametrize("letter,rank", [("D", 4), ("F", 4)])
def test_bruhat_matches_the_subword_oracle_on_seeded_pairs(letter, rank):
    group = weyl_group(root_system(letter, rank))
    rng = random.Random(18)
    verdicts = []
    for _ in range(2000):
        u, v = rng.choice(group.elements), rng.choice(group.elements)
        got = group.bruhat_leq(u, v)
        assert got == bruhat_subword_oracle(group, u, v), (u, v)
        verdicts.append(got)
    # both verdicts occur, so the agreement is not vacuous
    assert 0 < sum(verdicts) < len(verdicts)


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
            left = group.multiply(group.simple(i), w)
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
            assert group.multiply(group.simple(i), w).matrix == matmul(gen, oracle)

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


TABLES = ["rmul", "inv", "len", "rdes", "support"]


def corrupt_a2_table(group, table):
    """Write one false entry into a table of a fresh A2 group.

    Elements of A2 by index: e, s1, s2, s1s2, s2s1, s1s2s1.  Each line
    writes a false entry: a generator step never fixes an element, s1s2
    is not its own inverse, s1s2s1 has length 3, the right descents of
    s1s2 are {2}, not {1}, and the letters of s1s2 are {1, 2}, not {2}.
    """
    if table == "rmul":
        group._rmul[0][3] = 3
    elif table == "inv":
        group._inv[3] = 3
    elif table == "len":
        group._len[5] = 2
    elif table == "rdes":
        group._rdes[3] = 0b01
    else:
        group._support[3] = 0b10


@pytest.mark.parametrize("table", TABLES)
def test_table_check_catches_a_corrupted_entry(table):
    group = WeylGroup(root_system("A", 2))
    group._check_tables()
    corrupt_a2_table(group, table)
    with pytest.raises(AssertionError):
        group._check_tables()


def test_table_check_survives_optimized_mode():
    """The table check raises explicitly, so `python -O` keeps it."""
    import subprocess
    import sys

    here = os.path.dirname(os.path.abspath(__file__))
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import test_weyl as t\n"
        "for table in t.TABLES:\n"
        "    group = t.WeylGroup(t.root_system('A', 2))\n"
        "    t.corrupt_a2_table(group, table)\n"
        "    try:\n"
        "        group._check_tables()\n"
        "    except AssertionError:\n"
        "        print(table, 'caught')\n"
        % (os.path.join(ROOT, "src"), here)
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "".join("%s caught\n" % table for table in TABLES)


# -- descent and support masks against words and products -------------------

MASK_TYPES = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


@pytest.mark.parametrize("letter,rank", MASK_TYPES)
def test_left_descents_match_products(letter, rank):
    group = weyl_group(root_system(letter, rank))
    for w in group:
        below = group.length(w)
        descents = {
            i for i in range(1, rank + 1)
            if group.length(group.multiply(group.simple(i), w)) < below
        }
        assert group.left_descents(w) == descents, w


@pytest.mark.parametrize("letter,rank", MASK_TYPES)
def test_parabolics_match_the_word_filter(letter, rank):
    group = weyl_group(root_system(letter, rank))
    for J in all_subsets(rank):
        assert group.parabolic(J) == tuple(w for w in group if J.issuperset(w.word)), J


@pytest.mark.parametrize("letter,rank", MASK_TYPES)
def test_coset_reps_match_the_walk_and_stabilizers_are_shared(letter, rank):
    """verify's minimal representatives, read off the descent masks, are the
    elements the coset walk fixes; a stabilizer is one shared frozenset
    whether its weight comes as a list or a tuple."""
    group = weyl_group(root_system(letter, rank))
    for lam in product((0, 1), repeat=rank):
        if any(lam):
            walked = [w for w in group if group.coset_min_weight(w, lam) is w]
            assert _coset_reps(group, lam) == walked, lam
            assert group.stabilizer_indices(list(lam)) is group.stabilizer_indices(lam)


# -- queries on a weight's stabilizer mask ----------------------------------

EXHAUSTIVE_TYPES = [("A", 3), ("B", 3), ("C", 3), ("G", 2)]


def bound_one_shapes(rank):
    return [lam for lam in product((0, 1), repeat=rank) if any(lam)]


def elements_to_check(group):
    """Every element of a group of at most 100, else a seeded 100."""
    if len(group) <= 100:
        return group.elements
    return random.Random(25).sample(group.elements, 100)


@pytest.mark.parametrize("letter,rank", EXHAUSTIVE_TYPES + [("D", 4), ("F", 4)])
def test_coset_queries_by_weight_match_the_frozenset_queries(letter, rank):
    """On every bound-1 shape: the stabilizer is the set of simple
    reflections that fix the weight; a list and a tuple weight give the
    same mask (the shared frozenset is checked above); and on every element (a
    seeded sample on D4 and F4) the walks on the weight's mask give
    `coset_min`/`coset_max` on `stabilizer_indices`."""
    group = weyl_group(root_system(letter, rank))
    for lam in bound_one_shapes(rank):
        J = group.stabilizer_indices(lam)
        fixing = {i for i in range(1, rank + 1) if group.apply(group.simple(i), lam) == lam}
        assert J == fixing, lam
        assert group._stabilizer_mask(list(lam)) == group._stabilizer_mask(lam) == group._mask(J)
        for w in elements_to_check(group):
            for weight in (lam, list(lam)):
                assert group.coset_min_weight(w, weight) is group.coset_min(w, J), (w, lam)
                assert group.coset_max_weight(w, weight) is group.coset_max(w, J), (w, lam)


@pytest.mark.parametrize("letter,rank", EXHAUSTIVE_TYPES)
def test_condition_on_masks_matches_the_coset_oracle(letter, rank):
    """400 seeded instances per type, both orientations, weights as tuples
    and as lists: the condition on indices and stabilizer masks is the
    oracle's membership test in the enumerated left-descent parabolic."""
    group = weyl_group(root_system(letter, rank))
    shapes = bound_one_shapes(rank)
    rng = random.Random(rank * 31 + ord(letter))
    verdicts = []
    for _ in range(400):
        v, w = rng.choice(group.elements), rng.choice(group.elements)
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        expected = coset_oracle.condition_check(group, v, w, lam, mu)
        assert condition_check(group, v, w, lam, mu) is expected, (v, w, lam, mu)
        assert condition_check(group, v, w, list(lam), list(mu)) is expected, (v, w, lam, mu)
        swapped = coset_oracle.condition_check(group, w, v, mu, lam)
        assert condition_check(group, w, v, mu, lam) is swapped, (w, v, mu, lam)
        verdicts += [expected, swapped]
    assert 0 < sum(verdicts) < len(verdicts)


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
