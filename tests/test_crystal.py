"""Root operators, tensor rule, crystal generation, characters, isomorphism."""

import itertools
from fractions import Fraction

import orbit_oracle
import path_oracle
import pytest
import tensor_oracle

from demtensor.cartan import root_system, vadd, vsub
from demtensor.crystal import (
    CharPoly,
    MultipleHighestWeights,
    Subset,
    TensorElement,
    _path_e,
    _path_f,
    character,
    components_of,
    e_op,
    element_sort_key,
    eps,
    f_op,
    generate_crystal,
    induced_component,
    is_isomorphic,
    lower_closure,
    phi,
    tensor_product_elements,
    tensor_space,
    to_dot,
    weight_of,
)
from demtensor.lspath import concatenate, make_path, straight_path
from demtensor.weyl import weyl_group

A2 = root_system("A", 2)
A1 = root_system("A", 1)
B2 = root_system("B", 2)
G2 = root_system("G", 2)
F = Fraction


def weyl_dim(rs, lam):
    """Independent size oracle: the dimension product formula over positive roots."""
    rho = (1,) * rs.rank
    num, den = 1, 1
    for beta in rs.positive_roots:
        num *= rs.root_pairing(vadd(lam, rho), beta)
        den *= rs.root_pairing(rho, beta)
    assert num % den == 0
    return num // den


def test_operators_on_straight_paths():
    lam = (1, 1)
    top = straight_path(A2, lam)
    for i in (1, 2):
        assert e_op(top, i) is None
    # height of the second fundamental weight against the first coroot is zero
    assert f_op(straight_path(A2, (0, 1)), 1) is None
    assert f_op(straight_path(A2, (1, 0)), 1) == straight_path(A2, (1, 0), (-1, 1))


def test_operator_weight_bookkeeping():
    x = straight_path(A2, (1, 1))
    y = f_op(x, 1)
    assert weight_of(y) == vsub(weight_of(x), A2.simple_roots[0].fw)
    assert e_op(y, 1) == x


def test_operator_cuts_segment():
    # lowering the straight (2,-1) path cuts it at time 1/2
    x = straight_path(A2, (1, 1), (2, -1))
    y = f_op(x, 1)
    assert y.directions == ((-2, 1), (2, -1))
    assert y.breaks == (F(0), F(1, 2), F(1))
    assert y.validate() is None
    assert e_op(y, 1) == x


def test_eps_phi_examples():
    lam = (1, 1)
    top = straight_path(A2, lam)
    assert eps(top, 1) == 0 and eps(top, 2) == 0
    assert phi(straight_path(A2, (1, 0)), 1) == 1
    assert phi(straight_path(A2, (1, 0)), 2) == 0
    assert phi(top, 1) == 1


def test_eps_phi_axiom():
    for lam in [(1, 0), (1, 1), (2, 0)]:
        for x in generate_crystal(A2, lam):
            for i in (1, 2):
                assert phi(x, i) == eps(x, i) + A2.pairing(weight_of(x), i)


def test_tensor_rule_examples():
    lam, mu = (1, 1), (1, 0)
    top = TensorElement(straight_path(A2, lam), straight_path(A2, mu))
    # phi_1(left) = 1 > 0 = eps_1(right): the left factor moves
    moved = f_op(top, 1)
    assert moved == TensorElement(f_op(straight_path(A2, lam), 1), straight_path(A2, mu))
    # with the right factor already lowered, color 2 still moves the left factor
    x = TensorElement(straight_path(A2, lam), f_op(straight_path(A2, mu), 1))
    y = f_op(x, 2)
    assert y == TensorElement(f_op(straight_path(A2, lam), 2), f_op(straight_path(A2, mu), 1))
    # raising that is null in the chosen factor is null overall
    assert e_op(top, 1) is None and e_op(top, 2) is None


def test_tensor_eps_phi_closed_form_matches_iteration():
    # eps and phi walk the pair codes; the oracle evaluates the closed forms
    for lam, mu in [((1, 0), (1, 0)), ((1, 1), (1, 0))]:
        for a in generate_crystal(A2, lam):
            for b in generate_crystal(A2, mu):
                x = TensorElement(a, b)
                for i in (1, 2):
                    assert eps(x, i) == tensor_oracle.eps(x, i)
                    assert phi(x, i) == tensor_oracle.phi(x, i)


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_rank_one_string_lengths(m):
    crystal = generate_crystal(A1, (m,))
    assert len(crystal) == m + 1 == weyl_dim(A1, (m,))


@pytest.mark.parametrize(
    "rs,lam",
    [
        (A2, (1, 0)),
        (A2, (0, 1)),
        (A2, (1, 1)),
        (A2, (2, 0)),
        (A2, (2, 1)),
        (B2, (1, 0)),
        (B2, (0, 1)),
        (B2, (1, 1)),
        (root_system("G", 2), (1, 0)),
        (root_system("G", 2), (0, 1)),
        (root_system("A", 3), (1, 0, 0)),
        (root_system("A", 3), (0, 1, 0)),
    ],
)
def test_crystal_sizes_match_dimension_formula(rs, lam):
    assert len(generate_crystal(rs, lam)) == weyl_dim(rs, lam)


def test_known_small_dimensions():
    # frozen values from the classification of small representations
    assert len(generate_crystal(root_system("G", 2), (1, 0))) == 7
    assert len(generate_crystal(root_system("G", 2), (0, 1))) == 14
    assert len(generate_crystal(root_system("A", 3), (0, 1, 0))) == 6
    assert len(generate_crystal(B2, (1, 0))) == 5
    assert len(generate_crystal(B2, (0, 1))) == 4


def test_generated_paths_are_valid():
    for lam in [(1, 0), (1, 1), (2, 0), (1, 2)]:
        for x in generate_crystal(A2, lam):
            assert x.validate() is None
            assert x.shape == lam


def test_character_basics():
    lam = (1, 1)
    assert character([straight_path(A2, lam)]) == CharPoly.monomial(lam)
    ch = character(generate_crystal(A2, (1, 0)))
    assert ch == (
        CharPoly.monomial((1, 0)) + CharPoly.monomial((-1, 1)) + CharPoly.monomial((0, -1))
    )


def test_character_is_weyl_invariant():
    for rs, lam in [(A2, (1, 1)), (A2, (2, 1)), (B2, (1, 1))]:
        ch = character(generate_crystal(rs, lam))
        for i in range(1, rs.rank + 1):
            reflected = CharPoly({rs.simple_reflect(w, i): c for w, c in ch.terms.items()})
            assert reflected == ch


def test_character_multiplicativity():
    a = generate_crystal(A2, (1, 0))
    b = generate_crystal(A2, (1, 1))
    prod = tensor_product_elements(a.vertices, b.vertices)
    assert character(prod) == character(a) * character(b)


def fundamentals(rs):
    return [tuple(int(c == k) for c in range(rs.rank)) for k in range(rs.rank)]


def test_tensor_agrees_with_concatenation():
    # the steps of the pair codes and the path operators on concatenated paths agree
    for rs in (A2, B2):
        for lam, mu in itertools.product(fundamentals(rs), repeat=2):
            space = tensor_space(generate_crystal(rs, lam), generate_crystal(rs, mu))
            for c in range(len(space)):
                x = space._decode(c)
                raw = concatenate(x.left, x.right)
                steps = space._steps(c)
                for i in range(1, rs.rank + 1):
                    for op, y in zip((_path_f, _path_e), steps[2 * i - 2:2 * i]):
                        z = op(raw, i)
                        if y < 0:
                            assert z is None
                        else:
                            lifted = space._decode(y)
                            assert z == concatenate(lifted.left, lifted.right)


def test_concatenation_suite_sees_a_broken_pair_code(monkeypatch, cold_caches):
    from demtensor.verify import parse_grid, suite_tensor_vs_concatenation

    grid = parse_grid("A2:1")
    first = generate_crystal(A2, grid.shapes[0])
    space = tensor_space(first, first)
    c = len(space) - 1
    a, b = divmod(c, space.n)
    f2 = space._row(a)[2]
    f2[b] = c if f2[b] < 0 else -1  # the space is dropped with the cold caches
    expected = "operators disagree at %r color 2" % (space._decode(c),)
    assert suite_tensor_vs_concatenation(grid) == expected


def test_full_tensor_partition_into_dominant_components():
    # the product of two full crystals splits along dominant paths of the right factor
    lam, mu = (1, 1), (1, 0)
    left = generate_crystal(A2, lam)
    right = generate_crystal(A2, mu)
    space = tensor_space(left, right)
    prod = Subset(space, frozenset(range(len(space))))
    comps = []
    for b, piel in enumerate(right):
        if not piel.is_dominant_for(lam):
            continue
        comp = induced_component(left.top * space.n + b, prod)
        comps.append(comp)
        # and each component matches the full crystal of the shifted weight
        target = generate_crystal(A2, vadd(lam, weight_of(piel)))
        assert is_isomorphic(A2, Subset(space, comp), frozenset(target.vertices))
    assert sum(len(c) for c in comps) == len(prod)
    assert frozenset().union(*comps) == prod.ids
    assert [comp.ids for comp in components_of(prod)] == sorted(comps, key=min)


def test_induced_component_whole_crystal():
    crystal = generate_crystal(A2, (1, 1))
    members = Subset(crystal, frozenset(range(len(crystal))))
    assert induced_component(crystal.top, members) == members.ids
    with pytest.raises(ValueError):
        induced_component(len(crystal), members)


def test_lower_closure_of_one_letter():
    crystal = generate_crystal(A2, (1, 0))
    x = straight_path(A2, (1, 0))
    closure = lower_closure(crystal, (crystal.top,), (1,))
    assert crystal._decoded(closure) == {x, f_op(x, 1)}


def test_is_isomorphic_self_and_shifted():
    crystal = generate_crystal(A2, (1, 0))
    members = frozenset(crystal.vertices)
    assert is_isomorphic(A2, members, members)
    # a different shape of the same size is not isomorphic (weights differ)
    other = frozenset(generate_crystal(A2, (0, 1)).vertices)
    assert not is_isomorphic(A2, members, other)


def test_is_isomorphic_rejects_multiple_tops():
    a = straight_path(A2, (1, 0))
    b = straight_path(A2, (0, 1))
    with pytest.raises(MultipleHighestWeights):
        is_isomorphic(A2, frozenset([a, b]), frozenset([a]))


def test_to_dot_reads_the_f_table_in_id_order():
    crystal = generate_crystal(A2, (1, 0))
    dot = to_dot(crystal.vertices)
    assert dot == to_dot(Subset(crystal, frozenset(range(len(crystal)))))
    assert dot == to_dot(frozenset(reversed(crystal.vertices)))
    edges = [line for line in dot.splitlines() if "->" in line]
    assert len(edges) == 2
    assert "label=1" in dot and "label=2" in dot
    assert Subset(crystal, frozenset(range(len(crystal)))).tops() == [crystal.top]
    assert crystal.vertices[crystal.top] == straight_path(A2, (1, 0))
    # an induced subgraph keeps only the edges with both ends inside
    top = straight_path(A2, (1, 0))
    assert "->" not in to_dot([top, f_op(f_op(top, 1), 2)])


def test_operators_refuse_paths_outside_a_generated_crystal():
    raw = concatenate(straight_path(A2, (1, 0)), straight_path(A2, (0, 1)))
    for op in (f_op, e_op, eps, phi):
        with pytest.raises(ValueError, match="not an element of a generated crystal"):
            op(raw, 1)
    # directions that rise in the orbit order: an LSPath object, not in B(1,0)
    rising = make_path(A2, (1, 0), ((-1, 1), (1, 0)), (F(0), F(1, 2), F(1)))
    for op in (f_op, e_op):
        with pytest.raises(ValueError, match="not an element of the crystal"):
            op(rising, 1)
        with pytest.raises(ValueError, match="too large to generate"):
            op(straight_path(G2, (4, 4)), 1)


def test_generation_leaves_the_operator_caches_empty(cold_caches):
    crystal = generate_crystal(G2, (1, 1))
    assert len(crystal) == weyl_dim(G2, (1, 1))
    assert f_op.cache_info().currsize == 0 and e_op.cache_info().currsize == 0


def candidate_paths(rs, lam):
    """Every normal-form path built from an explicit strictly decreasing
    direction chain in the oracle's orbit order and candidate breakpoints."""
    poset = orbit_oracle.orbit_poset(weyl_group(rs), lam)
    points = list(poset.points)
    candidates = set()
    for mu in points:
        for beta in rs.positive_roots:
            pairing = abs(rs.root_pairing(mu, beta))
            for k in range(1, pairing):
                candidates.add(Fraction(k, pairing))
    candidates = sorted(candidates)
    # all strictly decreasing direction chains
    chains = [[mu] for mu in points]
    while chains:
        chain = chains.pop()
        r = len(chain)
        if r == 1:
            yield make_path(rs, lam, tuple(chain), (Fraction(0), Fraction(1)))
        else:
            for breaks in itertools.combinations(candidates, r - 1):
                yield make_path(rs, lam, tuple(chain), (Fraction(0),) + breaks + (Fraction(1),))
        for nxt in points:
            if nxt != chain[-1] and poset.leq(nxt, chain[-1]):
                chains.append(chain + [nxt])


def enumerate_valid_paths(rs, lam):
    """Brute-force oracle: every candidate path satisfying the validity
    clauses (a single direction of the orbit always does)."""
    return {
        pi for pi in candidate_paths(rs, lam) if len(pi.directions) == 1 or pi.validate() is None
    }


VALIDITY_CASES = [(A2, (1, 0)), (A2, (1, 1)), (A2, (2, 0)), (A2, (1, 2)), (B2, (1, 0)), (B2, (0, 1))]


@pytest.mark.parametrize("rs,lam", VALIDITY_CASES)
def test_validity_matches_operator_reachability(rs, lam):
    # the paths accepted by the validity clauses are exactly the ones the
    # operators generate from the straight dominant path
    reachable = frozenset(generate_crystal(rs, lam).vertices)
    assert enumerate_valid_paths(rs, lam) == reachable


@pytest.mark.parametrize("rs,lam", VALIDITY_CASES)
def test_validate_matches_the_orbit_poset_on_candidates(rs, lam):
    # refused candidates too: the same first violation, word for word
    for pi in candidate_paths(rs, lam):
        assert pi.validate() == orbit_oracle.validate(pi)



@pytest.mark.parametrize("rs", [A2, B2, G2], ids=["A2", "B2", "G2"])
def test_raising_undoes_lowering_on_the_same_object(rs):
    for x in generate_crystal(rs, (1, 1)):
        for i in range(1, rs.rank + 1):
            y = f_op(x, i)
            if y is not None:
                assert e_op(y, i) is x


def test_operator_results_are_validated_once_per_path():
    crystal = generate_crystal(B2, (1, 1))
    top = straight_path(B2, (1, 1))
    # every vertex but the top is an operator result, validated and marked
    assert all(x.checked for x in crystal if x is not top)


def test_equal_tensor_elements_hash_and_compare_equal():
    a = f_op(straight_path(A2, (1, 1)), 1)
    b = f_op(straight_path(A2, (1, 0)), 1)
    first, second = TensorElement(a, b), TensorElement(a, b)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    assert TensorElement(b, a) != first


def test_operators_make_no_fractions(monkeypatch):
    """With every path interned, the path operators, eps/phi and the
    compile-time checks run on integer ticks alone."""
    from demtensor.crystal import CompiledCrystal

    crystal = generate_crystal(G2, (1, 1))
    ops = (_path_f, _path_e, eps, phi)
    before = {(op, x, i): op(x, i) for op in ops for x in crystal for i in (1, 2)}
    eps.cache_clear()
    phi.cache_clear()
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    Fraction(1, 3)
    assert len(made) == 1, "the wrapper must see Fraction construction"
    made.clear()
    after = {(op, x, i): op(x, i) for op in ops for x in crystal for i in (1, 2)}
    CompiledCrystal(G2, crystal.vertices, generation_edges(crystal), crystal.vertices[crystal.top])
    monkeypatch.undo()
    assert made == []
    assert after == before
    assert eps.cache_info().misses == phi.cache_info().misses == len(crystal) * 2


def test_weyl_dimension_matches_product_oracle():
    from demtensor.cartan import weyl_dimension

    for rs, lam in [(A2, (1, 1)), (B2, (1, 1)), (root_system("G", 2), (1, 1)),
                    (root_system("C", 3), (1, 1, 1)), (root_system("G", 2), (40, 40))]:
        assert weyl_dimension(rs, lam) == weyl_dim(rs, lam)
    assert weyl_dimension(root_system("G", 2), (40, 40)) == 4750104241


def test_oversized_crystals_refused_before_generation():
    from demtensor.crystal import CRYSTAL_SIZE_LIMIT
    from demtensor.demazure import generate_demazure
    from demtensor.lspath import _INTERNED
    from demtensor.weyl import weyl_group

    G2 = root_system("G", 2)
    group = weyl_group(G2)
    assert weyl_dim(G2, (2, 2)) <= CRYSTAL_SIZE_LIMIT < weyl_dim(G2, (4, 4))
    paths, lowered = len(_INTERNED), f_op.cache_info()
    for make in (
        lambda: generate_crystal(G2, (4, 4)),
        lambda: generate_demazure(group, group.identity, (40, 40)),
        lambda: generate_demazure(group, group.longest(), (4, 4)),
    ):
        with pytest.raises(ValueError, match="too large"):
            make()
    assert len(_INTERNED) == paths and f_op.cache_info() == lowered


def test_non_integral_height_minimum_is_refused():
    from demtensor.lspath import RawPath

    # the 1-height dips to -1/2 and comes back: no integral path does that
    dip = RawPath(A2, ((-1, 0), (1, 0)), (F(0), F(1, 2), F(1)))
    for op in (_path_f, _path_e):
        with pytest.raises(AssertionError, match="non-integral minimum"):
            op(dip, 1)


# -- compiled crystals -------------------------------------------------------------

C3 = root_system("C", 3)


def generation_edges(crystal):
    """The (x, i) -> f_i(x) map that generation hands to `CompiledCrystal`,
    rebuilt from the f table."""
    v = crystal.vertices
    return {
        (v[k], i): v[y]
        for i, row in enumerate(crystal.f_table, 1)
        for k, y in enumerate(row)
        if y >= 0
    }


def bound_one_shapes(rs):
    return [lam for lam in itertools.product((0, 1), repeat=rs.rank) if any(lam)]


@pytest.mark.parametrize("rs", [A2, B2, C3, G2], ids=["A2", "B2", "C3", "G2"])
def test_compiled_tables_match_the_path_model(rs):
    for lam in bound_one_shapes(rs):
        crystal = generate_crystal(rs, lam)
        assert list(crystal.vertices) == sorted(crystal.vertices, key=element_sort_key)
        assert crystal.vertices[crystal.top] == straight_path(rs, lam)
        for k, x in enumerate(crystal.vertices):
            assert crystal.index[x] == k
            assert crystal.weights[k] == weight_of(x)
            for i in range(1, rs.rank + 1):
                for table, op in ((crystal.f_table, _path_f), (crystal.e_table, _path_e)):
                    y = op(x, i)
                    assert table[i - 1][k] == (-1 if y is None else crystal.index[y])
                heights = path_oracle.height_profile(x, i)
                assert crystal.eps_table[i - 1][k] == -min(heights)
                assert crystal.phi_table[i - 1][k] == heights[-1] - min(heights)


@pytest.mark.parametrize("rs", [A2, B2], ids=["A2", "B2"])
def test_pair_codes_follow_the_tensor_rule(rs):
    for lam, mu in itertools.product(fundamentals(rs), repeat=2):
        left, right = generate_crystal(rs, lam), generate_crystal(rs, mu)
        space = tensor_space(left, right)
        codes = range(len(left) * len(right))
        for c in codes:
            pair = TensorElement(left.vertices[c // space.n], right.vertices[c % space.n])
            assert space._decode(c) == pair and space._encode(pair) == c
            steps = space._steps(c)
            for i in range(1, rs.rank + 1):
                for k, op in enumerate((tensor_oracle.f, tensor_oracle.e)):
                    y = op(pair, i)
                    assert steps[2 * i - 2 + k] == (-1 if y is None else space._encode(y))
                assert space._f(c, i) == steps[2 * i - 2]
            assert space._weight(c) == weight_of(pair)
        # one sum per distinct pair of factor weights, no list over the codes
        assert len(space._sums) == len({(x, y) for x in left.weights for y in right.weights})
        # ids follow the sort order, so codes do too
        assert sorted(codes, key=lambda c: element_sort_key(space._decode(c))) == list(codes)


def stembridge_check(rs, E, F, EPS, PHI):
    """Stembridge's local axioms for simply-laced crystals (Trans. AMS 355,
    2003, axioms P3-P6 and P5'-P6'), read off the compiled tables.

    For an edge y = e_i(x), Delta_i delta_j(x) = eps_j(x) - eps_j(y) and
    Delta_i phi_j(x) = phi_j(y) - phi_j(x); for an edge x = f_i(y),
    nabla_i phi_j(y) = phi_j(y) - phi_j(x) and nabla_i delta_j(y) =
    eps_j(x) - eps_j(y).  The arguments are the root system and the e, f,
    eps and phi tables, one per colour.  Returns the violations found and
    how often each axiom's hypothesis held, so that no axiom passes
    vacuously.
    """
    n = len(E[0])
    violations, fired = [], dict.fromkeys(("P3", "P4", "P5", "P6", "P5'", "P6'"), 0)

    def e(x, *colours):
        for i in reversed(colours):
            x = E[i][x] if x >= 0 else -1
        return x

    def f(x, *colours):
        for i in reversed(colours):
            x = F[i][x] if x >= 0 else -1
        return x

    def delta(x, i, j):
        """Delta_i delta_j(x), for e_i(x) defined."""
        return EPS[j][x] - EPS[j][E[i][x]]

    def nabla(y, i, j):
        """nabla_i phi_j(y), for f_i(y) defined."""
        return PHI[j][y] - PHI[j][F[i][y]]

    def check(axiom, x, i, j, holds):
        fired[axiom] += 1
        if not holds:
            violations.append("%s at %d, colours %d, %d" % (axiom, x, i + 1, j + 1))

    for x in range(n):
        for i, j in itertools.permutations(range(rs.rank), 2):
            if E[i][x] >= 0:
                d_delta, d_phi = delta(x, i, j), PHI[j][E[i][x]] - PHI[j][x]
                check("P3", x, i, j, d_delta + d_phi == rs.cartan[i][j])
                check("P4", x, i, j, d_delta <= 0 and d_phi <= 0)
            if E[i][x] >= 0 and E[j][x] >= 0:
                if delta(x, i, j) == 0:
                    y = e(x, i, j)
                    check("P5", x, i, j, y >= 0 and y == e(x, j, i) and nabla(y, j, i) == 0)
                if delta(x, i, j) == delta(x, j, i) == -1:
                    y = e(x, i, j, j, i)
                    check("P6", x, i, j, y >= 0 and y == e(x, j, i, i, j)
                          and nabla(y, i, j) == nabla(y, j, i) == -1)
            if F[i][x] >= 0 and F[j][x] >= 0:
                if nabla(x, i, j) == 0:
                    y = f(x, i, j)
                    check("P5'", x, i, j, y >= 0 and y == f(x, j, i) and delta(y, j, i) == 0)
                if nabla(x, i, j) == nabla(x, j, i) == -1:
                    y = f(x, i, j, j, i)
                    check("P6'", x, i, j, y >= 0 and y == f(x, j, i, i, j)
                          and delta(y, i, j) == delta(y, j, i) == -1)
    return violations, fired


def tables(crystal):
    return crystal.rs, crystal.e_table, crystal.f_table, crystal.eps_table, crystal.phi_table


def test_compiled_tables_satisfy_stembridge_axioms():
    fired = {}
    for letter, rank in [("A", 2), ("A", 3), ("D", 4)]:
        rs = root_system(letter, rank)
        for k in range(rank):
            lam = tuple(int(c == k) for c in range(rank))
            violations, counts = stembridge_check(*tables(generate_crystal(rs, lam)))
            assert violations == [], (rs, lam)
            for axiom, count in counts.items():
                fired[axiom] = fired.get(axiom, 0) + count
    # the adjoint crystal of D4 has strings of length two, so P6 fires too
    assert all(fired.values()), fired


def test_stembridge_check_sees_a_broken_table():
    crystal = generate_crystal(A2, (1, 1))
    rs, E, F, EPS, PHI = tables(crystal)
    assert stembridge_check(rs, E, F, EPS, PHI)[0] == []
    eps_1 = list(EPS[0])
    eps_1[crystal.top] += 1
    assert stembridge_check(rs, E, F, (tuple(eps_1),) + EPS[1:], PHI)[0] != []


def test_compile_time_height_check_sees_a_broken_eps(monkeypatch):
    from demtensor import crystal as crystal_module

    crystal = generate_crystal(A2, (1, 1))
    args = (A2, crystal.vertices, generation_edges(crystal), crystal.vertices[crystal.top])
    assert crystal_module.CompiledCrystal(*args).eps_table == crystal.eps_table
    positions = crystal_module._string_positions

    def broken(f, e):
        eps_t, phi_t = positions(f, e)
        eps_t[0][crystal.top] += 1
        return eps_t, phi_t

    monkeypatch.setattr(crystal_module, "_string_positions", broken)
    with pytest.raises(AssertionError, match="disagree with its heights"):
        crystal_module.CompiledCrystal(*args)


def test_subset_scans_its_tops_once():
    crystal = generate_crystal(A2, (1, 1))
    scanned = []

    class Counting:
        # no row is filled, so each member's row is fetched through _row
        n, rank = crystal.n, crystal.rank
        _rows = [None]

        def _row(self, a):
            scanned.append(a)
            return crystal._row(a)

    subset = Subset(Counting(), frozenset(range(len(crystal))))
    first = subset.tops()
    assert first == [crystal.top] and len(scanned) == len(crystal)
    again = subset.tops()
    assert again == first and again is not first and len(scanned) == len(crystal)
    assert Subset(crystal, frozenset()).tops() == []


def test_subset_decodes_its_elements_once():
    from demtensor.demazure import generate_demazure
    from demtensor.weyl import weyl_group

    crystal = generate_crystal(A2, (1, 1))
    subset = Subset(crystal, frozenset(range(0, len(crystal), 2)))
    first = subset.elements()
    assert subset.elements() is first
    assert first == frozenset(crystal.vertices[k] for k in subset.ids)
    group = weyl_group(A2)
    dem = generate_demazure(group, group.longest(), (1, 1))
    assert dem.elements is dem.subset.elements() and dem.elements == frozenset(dem)


def wrong_raising_step(monkeypatch, lam, wrong):
    """Patch `_path_e` so that e_1 of f_1 of the top of B(lam) is `wrong`
    of that element; every other call is left alone."""
    from demtensor import crystal as crystal_module

    path_e = crystal_module._path_e
    moved = _path_f(straight_path(A2, lam), 1)

    def broken(path, i):
        if path is moved and i == 1:
            return wrong(path)
        return path_e(path, i)

    monkeypatch.setattr(crystal_module, "_path_e", broken)


def test_compile_sees_a_raising_step_to_the_wrong_element(monkeypatch, cold_caches):
    wrong_raising_step(monkeypatch, (1, 1), lambda y: _path_f(straight_path(A2, (1, 1)), 2))
    with pytest.raises(AssertionError, match=r"f_1\(e_1\(y\)\) != y"):
        generate_crystal(A2, (1, 1))


def test_compile_sees_a_raising_step_to_zero(monkeypatch, cold_caches):
    # f_1 of the top then has no inverse step: the edge check catches it
    wrong_raising_step(monkeypatch, (1, 1), lambda y: None)
    with pytest.raises(AssertionError, match=r"e_1\(f_1\(x\)\) != x"):
        generate_crystal(A2, (1, 1))


def test_compile_sees_a_second_top():
    # two whole crystals pass both inverse checks; only the top check fails
    from demtensor.crystal import CompiledCrystal

    a, b = generate_crystal(A2, (1, 0)), generate_crystal(A2, (0, 1))
    edges = {**generation_edges(a), **generation_edges(b)}
    with pytest.raises(AssertionError, match="top other than the straight path"):
        CompiledCrystal(A2, a.vertices + b.vertices, edges, a.vertices[a.top])


def merge_skipping_once(monkeypatch):
    """Patch `_merge` so that the first pair of equal directions it meets
    stays two segments; every other call is left alone."""
    from demtensor import crystal as crystal_module

    merge = crystal_module._merge
    skipped = []

    def broken(dirs, ticks, more_dirs, more_ticks):
        if not skipped and dirs and more_dirs and dirs[-1] == more_dirs[0]:
            skipped.append(dirs[-1])
            dirs.extend(more_dirs)
            ticks.extend(more_ticks)
        else:
            merge(dirs, ticks, more_dirs, more_ticks)

    monkeypatch.setattr(crystal_module, "_merge", broken)
    return skipped


def test_validation_sees_an_unmerged_reflection(monkeypatch, capsys, cold_caches):
    """One junction left unmerged by the fused reflect-and-merge step: the
    result is refused by `validate`, and `decompose` exits 2 on one line."""
    from demtensor.cli import main

    skipped = merge_skipping_once(monkeypatch)
    with pytest.raises(AssertionError) as caught:
        generate_crystal(G2, (1, 0))
    assert len(skipped) == 1
    problem = "adjacent directions %r repeat" % (skipped[0],)
    assert str(caught.value) == "operator produced an invalid path: " + problem

    skipped.clear()
    code = main(["decompose", "--type", "G2", "--v", "1", "--w", "2",
                 "--lambda", "1,0", "--mu", "1,0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and len(skipped) == 1
    assert captured.err.startswith("structural failure: operator produced an invalid path: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_lower_closure_within_stops_at_the_first_id_outside():
    """Inside a container that holds the whole closure, `within` changes
    nothing; once a string leaves it, the closure is None."""
    crystal = generate_crystal(G2, (1, 1))
    everything = frozenset(range(len(crystal)))
    seed = frozenset([crystal.top])
    for i in (1, 2):
        closed = lower_closure(crystal, seed, (i,))
        assert len(closed) > 1
        assert lower_closure(crystal, seed, (i,), within=everything) == closed
        assert lower_closure(crystal, seed, (i,), within=closed) == closed
        assert lower_closure(crystal, seed, (i,), within=seed) is None
        assert lower_closure(crystal, seed, (i,), within=closed - {max(closed - seed)}) is None


def _closure_by_definition(space, seeds, word):
    """The seeds with every f_i-power of every id taken so far, for the
    letters i of the word read right to left, stepping one f at a time."""
    ids = set(seeds)
    for i in reversed(word):
        for x in list(ids):
            y = space._f(x, i)
            while y >= 0:
                ids.add(y)
                y = space._f(y, i)
    return frozenset(ids)


def _closure_cases():
    """(space, seeds) on B(1,1) of B2 from its top, and on B(1,1) (x) B(0,1)
    from the pair codes of B_{s_1}(1,1) (x) B_{s_2}(0,1); every word of length
    at most 4 over both letters."""
    from demtensor.demazure import generate_demazure

    group = weyl_group(B2)
    crystal = generate_crystal(B2, (1, 1))
    assert max(map(max, crystal.phi_table)) >= 2  # a one-step walk would be seen
    left = generate_demazure(group, group.simple(1), (1, 1)).subset
    right = generate_demazure(group, group.simple(2), (0, 1)).subset
    space = tensor_space(left.space, right.space)
    words = [w for k in range(5) for w in itertools.product((1, 2), repeat=k)]
    return [(crystal, (crystal.top,)), (space, space.pairs(left.ids, right.ids))], words


def test_lower_closure_is_the_composition_of_its_letters():
    """On a crystal and on a product space, a word's closure is its
    one-letter closures applied right to left, and is the closure by
    definition; the order of the letters matters."""
    cases, words = _closure_cases()
    for space, seeds in cases:
        for word in words:
            closed = lower_closure(space, seeds, word)
            step = frozenset(seeds)
            for i in reversed(word):
                step = lower_closure(space, step, (i,))
            assert closed == step == _closure_by_definition(space, seeds, word), word
        assert lower_closure(space, seeds, (1, 2)) != lower_closure(space, seeds, (2, 1))


def test_lower_closure_of_the_empty_word_is_the_seeds():
    """The empty word returns the seeds, as a frozenset."""
    cases, _ = _closure_cases()
    for space, seeds in cases:
        assert lower_closure(space, seeds, ()) == frozenset(seeds)


class _Watched:
    """A `within` container that records every membership query."""

    def __init__(self, ids):
        self.ids = ids
        self.asked = []

    def __contains__(self, c):
        self.asked.append(c)
        return c in self.ids


def test_lower_closure_within_returns_none_at_the_first_pair_code_outside():
    """On the product space, taking any grown code out of `within` makes
    the closure None, and it asks about no code after the first outside."""
    (_, (space, seeds)), _ = _closure_cases()
    word = (1, 2, 1)
    closed = lower_closure(space, seeds, word)
    grown = closed - frozenset(seeds)
    assert grown and lower_closure(space, seeds, word, within=closed) == closed
    for c in grown:
        within = _Watched(closed - {c})
        assert lower_closure(space, seeds, word, within=within) is None
        assert within.asked[-1] == c and c not in within.asked[:-1]
