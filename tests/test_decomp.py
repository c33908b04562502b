"""Tensor decomposition: witnesses, condition, reports, recursion, product rule."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coset_oracle
import match_oracle
from tensor_oracle import tensor_demazure
from demtensor import decomp, keypoly
from demtensor.cartan import root_system, vadd, weyl_dimension
from demtensor.crystal import CRYSTAL_SIZE_LIMIT, TensorElement, f_op, induced_component, weight_of
from demtensor.decomp import (
    TheoremViolation,
    closure_product,
    component,
    condition_check,
    decompose,
    demazure_product,
    dominant_paths,
    leibniz_check,
    lifted_witness,
    path_witness,
    path_witness_by_search,
    recursive_component,
    stabilizer_intervals,
)
from demtensor.lspath import make_path, straight_path
from demtensor.weyl import weyl_group

A2 = root_system("A", 2)
WA2 = weyl_group(A2)
F = Fraction


def searched_codes(product, pi):
    """The pair codes of the component of (top path, pi) in the product,
    found by a search from that pair."""
    return induced_component(decomp._pair_code(product, pi), product)


def el(*word):
    return WA2.from_word(word)


def eps_path(k):
    """Straight path toward the k-th epsilon weight, shape = first fundamental."""
    coords = {1: (1, 0), 2: (-1, 1), 3: (0, -1)}[k]
    return straight_path(A2, (1, 0), coords)


# Example data used throughout: the rank-two special linear case.
EX1 = dict(v=el(1, 2), w=el(1, 2, 1), lam=(1, 1), mu=(1, 0))
EX2 = dict(v=el(1), w=el(1, 2), lam=(2, 1), mu=(1, 2))
EX3 = dict(v=el(1, 2), w=el(1, 2), lam=(1, 1), mu=(1, 0))


def ex2_paths():
    mu = (1, 2)
    return {
        1: straight_path(A2, mu),
        2: straight_path(A2, mu, (-1, 3)),
        3: make_path(A2, mu, ((3, -2), (1, 2)), (F(0), F(1, 2), F(1))),
        4: make_path(A2, mu, ((-3, 1), (3, -2), (1, 2)), (F(0), F(1, 3), F(1, 2), F(1))),
        5: make_path(A2, mu, ((-3, 1), (-1, 3)), (F(0), F(1, 2), F(1))),
        6: make_path(A2, mu, ((-3, 1), (3, -2)), (F(0), F(1, 3), F(1))),
        7: make_path(A2, mu, ((-3, 1), (3, -2)), (F(0), F(2, 3), F(1))),
    }


def test_dominant_paths_example1():
    paths = dominant_paths(WA2, EX1["w"], EX1["mu"], EX1["lam"])
    assert set(paths) == {eps_path(1), eps_path(2), eps_path(3)}


def test_dominant_paths_identity_w():
    paths = dominant_paths(WA2, WA2.identity, (1, 0), (1, 1))
    assert paths == [straight_path(A2, (1, 0))]


def test_dominant_paths_example2():
    paths = dominant_paths(WA2, EX2["w"], EX2["mu"], EX2["lam"])
    assert set(paths) == set(ex2_paths().values())
    assert len(paths) == 7


def test_stabilizer_intervals_example1():
    lam = EX1["lam"]
    assert stabilizer_intervals(WA2, eps_path(1), lam) == (0,)
    assert stabilizer_intervals(WA2, eps_path(2), lam) == (0, 0b01)
    assert stabilizer_intervals(WA2, eps_path(3), lam) == (0, 0b10)


def test_path_witness_example1():
    kw = EX1
    assert path_witness(WA2, eps_path(1), kw["w"], kw["mu"], kw["lam"]) == WA2.identity
    assert path_witness(WA2, eps_path(2), kw["w"], kw["mu"], kw["lam"]) == el(1)
    assert path_witness(WA2, eps_path(3), kw["w"], kw["mu"], kw["lam"]) == el(2)


def test_path_witness_oracle_agreement_example1():
    """The oracle, `decompose` at v = e, matches each component of
    b_lam (x) B_w(mu) to the normalized base witness, as the search does."""
    kw = EX1
    report = decompose(WA2, WA2.identity, kw["w"], kw["lam"], kw["mu"])
    assert {entry.pi for entry in report.entries} == {eps_path(k) for k in (1, 2, 3)}
    for entry in report.entries:
        base = path_witness(WA2, entry.pi, kw["w"], kw["mu"], kw["lam"])
        normalized = WA2.coset_min_weight(base, entry.shifted_shape)
        assert entry.witness == entry.expected_witness == normalized
        assert path_witness_by_search(WA2, entry.pi, kw["w"], kw["mu"], kw["lam"]) == normalized


def test_oracle_labels_b_lam_against_b_w_once(monkeypatch):
    """With the oracle, the README example labels its own product and
    b_lam (x) B_w(mu); at v = e the lift word is empty, so its own check
    is the oracle and one labelling is made."""
    passes, label = [], decomp.components_of
    monkeypatch.setattr(decomp, "components_of", lambda product: passes.append(product) or label(product))
    decompose(WA2, oracle=True, **EX1)
    assert len(passes) == 2
    assert {c // passes[0].space.n for c in passes[0].ids} == {passes[0].space.left.top}
    del passes[:]
    decompose(WA2, WA2.identity, EX1["w"], EX1["lam"], EX1["mu"], oracle=True)
    assert len(passes) == 1


def test_oracle_sees_a_base_witness_the_lift_hides(monkeypatch):
    """The base witness of the straight path of EX1 is e.  s2 is wrong
    modulo the stabilizer of (2, 1), yet it lifts along (1, 2) to the same
    s1 s2: the product of v cannot see it, the oracle at v = e does."""
    pi, witness = eps_path(1), decomp.path_witness
    assert witness(WA2, pi, EX1["w"], EX1["mu"], EX1["lam"]) is WA2.identity
    monkeypatch.setattr(
        decomp, "path_witness", lambda group, p, *args: el(2) if p == pi else witness(group, p, *args)
    )
    assert decompose(WA2, **EX1).condition_holds
    assert lifted_witness(WA2, pi, **EX1) == el(1, 2)
    with pytest.raises(TheoremViolation, match="is the crystal of e, expected s2"):
        decompose(WA2, oracle=True, **EX1)
    with pytest.raises(TheoremViolation, match="is the crystal of e, expected s2"):
        lifted_witness(WA2, pi, oracle=True, **EX1)


def test_path_witness_by_search_trivial():
    # a singleton component is the crystal of the identity
    assert (
        path_witness_by_search(WA2, straight_path(A2, (1, 0)), WA2.identity, (1, 0), (1, 1))
        == WA2.identity
    )


def test_path_witness_example2():
    kw = EX2
    expected_u = {1: el(1), 2: el(1), 3: el(1, 2), 4: el(1), 5: el(1), 6: el(1, 2), 7: el(1)}
    for k, pi in ex2_paths().items():
        u = lifted_witness(WA2, pi, kw["v"], kw["w"], kw["lam"], kw["mu"], oracle=True)
        assert u == expected_u[k], "path %d" % k


def test_demazure_product():
    assert demazure_product(WA2, (1, 2), WA2.identity) == el(1, 2)
    assert demazure_product(WA2, (1, 2), el(1)) == el(1, 2, 1)
    assert demazure_product(WA2, (1,), el(1)) == el(1)
    assert demazure_product(WA2, (), el(2)) == el(2)


def test_lifted_witness_example1():
    kw = EX1
    expected = {1: el(1, 2), 2: el(1, 2, 1), 3: el(1, 2)}
    for k in (1, 2, 3):
        u = lifted_witness(WA2, eps_path(k), kw["v"], kw["w"], kw["lam"], kw["mu"])
        assert u == expected[k]


def test_lifted_witness_requires_condition():
    kw = EX3
    pi = f_op(straight_path(A2, kw["mu"]), 1)
    with pytest.raises(ValueError):
        lifted_witness(WA2, pi, kw["v"], kw["w"], kw["lam"], kw["mu"])


def test_condition_check_examples():
    for w in WA2:
        assert condition_check(WA2, WA2.identity, w, (1, 1), (1, 0))
    assert condition_check(WA2, **{k: EX1[k] for k in ("v", "w")}, lam=EX1["lam"], mu=EX1["mu"])
    assert condition_check(WA2, EX2["v"], EX2["w"], EX2["lam"], EX2["mu"])
    assert not condition_check(WA2, EX3["v"], EX3["w"], EX3["lam"], EX3["mu"])


def bound_one_shapes(rank):
    return [s for s in itertools.product((0, 1), repeat=rank) if any(s)]


def test_condition_by_word_support_matches_the_subgroup_oracle_on_b2():
    group = weyl_group(root_system("B", 2))
    verdicts = []
    for v, w in itertools.product(group, repeat=2):
        for lam, mu in itertools.product(bound_one_shapes(2), repeat=2):
            got = condition_check(group, v, w, lam, mu)
            assert got == coset_oracle.condition_check(group, v, w, lam, mu), (v, w, lam, mu)
            verdicts.append(got)
    assert len(verdicts) == 576 and 0 < sum(verdicts) < len(verdicts)


def test_condition_by_word_support_matches_the_subgroup_oracle_on_f4():
    """2000 seeded instances over W(F4), both orientations, as f4-check runs them."""
    group = weyl_group(root_system("F", 4))
    shapes = bound_one_shapes(4)
    rng = random.Random(11)
    verdicts = []
    for _ in range(2000):
        v, w = rng.choice(group.elements), rng.choice(group.elements)
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        for args in ((v, w, lam, mu), (w, v, mu, lam)):
            got = condition_check(group, *args)
            assert got == coset_oracle.condition_check(group, *args), args
            verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts)


def test_component_trivial():
    comp = component(WA2, straight_path(A2, (1, 0)), WA2.identity, WA2.identity, (1, 1), (1, 0))
    assert comp == frozenset(
        [TensorElement(straight_path(A2, (1, 1)), straight_path(A2, (1, 0)))]
    )


def test_decompose_example1():
    report = decompose(WA2, oracle=True, **EX1)
    assert report.condition_holds
    assert sorted(report.summands()) == sorted(
        [((1, 2), (2, 1)), ((1, 2), (0, 2)), ((1,), (1, 0))]
    )
    sizes = sorted(len(e.elements) for e in report.entries)
    assert sizes == [2, 6, 7]
    assert sum(sizes) == len(tensor_demazure(WA2, EX1["v"], EX1["w"], EX1["lam"], EX1["mu"]))


def test_decompose_example2():
    report = decompose(WA2, oracle=True, **EX2)
    assert report.condition_holds
    assert sorted(report.summands()) == sorted(
        [
            ((1,), (3, 3)),
            ((1,), (1, 4)),
            ((1, 2), (4, 1)),
            ((1,), (2, 2)),
            ((), (0, 3)),
            ((1,), (3, 0)),
            ((1,), (1, 1)),
        ]
    )


def test_decompose_example3():
    report = decompose(WA2, **EX3)
    assert not report.condition_holds
    bad = [e for e in report.entries if not e.demazure]
    assert len(bad) == 1
    entry = bad[0]
    assert entry.pi == eps_path(2).__class__(A2, (1, 0), ((-1, 1),), (F(0), F(1)))
    assert len(entry.elements) == 3
    assert entry.shifted_shape == (0, 2)
    assert entry.string_violation is not None
    color, string = entry.string_violation
    inside = [x for x in string if x in entry.elements]
    assert 0 < len(inside) < len(string)
    # the three-element chain the failure lives on
    top = TensorElement(straight_path(A2, (1, 1)), f_op(straight_path(A2, (1, 0)), 1))
    assert top in entry.elements
    assert f_op(top, 2) in entry.elements
    assert f_op(f_op(top, 2), 1) in entry.elements


def test_closure_product_matches_product_under_condition():
    kw = EX1
    vfloor = WA2.coset_min_weight(kw["v"], kw["lam"])
    closed = closure_product(WA2, vfloor.word, kw["w"], kw["lam"], kw["mu"])
    assert closed.elements() == tensor_demazure(WA2, kw["v"], kw["w"], kw["lam"], kw["mu"])


def test_witness_oracle_labels_the_straight_path_against_b_w(monkeypatch):
    """The search labels b_lam (x) B_w(mu): the left factor of its product
    is B_e(lam), the straight path alone, so the product has |B_w(mu)|
    pairs, one per element of the right factor."""
    from demtensor.demazure import generate_demazure

    passes, label = [], decomp.components_of
    monkeypatch.setattr(
        decomp, "components_of", lambda product: passes.append((product, label(product))) or passes[-1][1]
    )
    lam, mu = (1, 1), (1, 1)
    for w in WA2:
        right = generate_demazure(WA2, w, mu)
        for pi in dominant_paths(WA2, w, mu, lam):
            del passes[:]
            path_witness_by_search(WA2, pi, w, mu, lam)
            ((product, comps),) = passes
            assert {c // product.space.n for c in product.ids} == {product.space.left.top}
            assert len(product) == len(right) == sum(map(len, comps))


def test_recursive_component_reaches_example3():
    kw = EX3
    pi = eps_path(2)
    # grow from v = s2 by the color 1; the result is the three-element chain
    result = recursive_component(WA2, pi, el(2), 1, kw["w"], kw["lam"], kw["mu"])
    assert len(result) == 3
    assert result.elements() == component(WA2, pi, el(1, 2), kw["w"], kw["lam"], kw["mu"])


def test_recursive_component_rejects_descents():
    with pytest.raises(ValueError):
        recursive_component(WA2, eps_path(1), el(1), 1, EX3["w"], EX3["lam"], EX3["mu"])


def test_leibniz_minimal_example():
    result = leibniz_check(WA2, WA2.identity, WA2.identity, (1, 0), (1, 0), 1)
    assert result.equal and result.disjoint
    assert len(result.lhs) == 3
    assert len(result.first) == 2
    assert len(result.second) == 1


def test_leibniz_descent_branch_second_term_empty():
    # lowering the right witness would shorten it: the fresh part is empty
    result = leibniz_check(WA2, WA2.identity, el(1), (1, 1), (1, 0), 1)
    assert result.equal and result.disjoint
    assert not result.second
    assert result.lhs == result.first


def test_small_grid_biconditional():
    lam, mu = (1, 0), (1, 0)
    for v in WA2:
        for w in WA2:
            report = decompose(WA2, v, w, lam, mu)
            assert report.condition_holds == all(e.demazure for e in report.entries)


def test_component_weight_totals():
    kw = EX1
    report = decompose(WA2, **kw)
    for entry in report.entries:
        top = TensorElement(straight_path(A2, kw["lam"]), entry.pi)
        assert weight_of(top) == entry.shifted_shape
        assert entry.shifted_shape == vadd(kw["lam"], weight_of(entry.pi))


def test_lifted_witness_word_independence():
    # the normalized witness multiset does not depend on the reduced word
    v, w, lam, mu = el(1, 2, 1), el(1, 2, 1), (1, 1), (1, 0)
    assert condition_check(WA2, v, w, lam, mu)
    paths = dominant_paths(WA2, w, mu, lam)
    multisets = []
    for word in ((1, 2, 1), (2, 1, 2)):
        got = []
        for pi in paths:
            nu = vadd(lam, weight_of(pi))
            u = lifted_witness(WA2, pi, v, w, lam, mu, word=word)
            got.append((nu, WA2.coset_min_weight(u, nu)))
        multisets.append(sorted(got, key=lambda p: (p[0], p[1].word)))
    assert multisets[0] == multisets[1]


def test_lifted_witness_rejects_non_reduced_word():
    kw = EX1
    with pytest.raises(ValueError):
        lifted_witness(
            WA2, eps_path(1), kw["v"], kw["w"], kw["lam"], kw["mu"], word=(1, 2, 2, 1, 2)
        )


def test_rank_three_decompositions():
    from demtensor.cartan import root_system
    from demtensor.weyl import weyl_group

    A3 = weyl_group(root_system("A", 3))
    rep = decompose(A3, A3.from_word((1, 2)), A3.longest(), (1, 0, 0), (0, 1, 0), oracle=True)
    assert rep.condition_holds
    assert sorted(rep.summands()) == sorted(
        [((1, 2, 3), (0, 0, 1)), ((1, 3, 2), (1, 1, 0))]
    )
    assert sorted(len(e.elements) for e in rep.entries) == [4, 8]

    rep2 = decompose(A3, A3.from_word((2, 1, 3)), A3.from_word((2,)), (1, 1, 1), (1, 0, 0))
    assert not rep2.condition_holds
    assert sum(not e.demazure for e in rep2.entries) == 1

    B3 = weyl_group(root_system("B", 3))
    rep3 = decompose(B3, B3.from_word((1,)), B3.longest(), (1, 0, 0), (0, 0, 1), oracle=True)
    assert rep3.condition_holds and len(rep3.entries) == 2


def test_size_filtered_search_matches_exhaustive_sweep():
    """`demazure_match` against the LS-path isomorphism oracle and against
    the isomorphism sweep over every minimal representative, on every
    component of every distinct coset pair of A2:1, B2:1 and G2:1.  Each of
    the oracle's three branches occurs: the top rank shared (no candidate),
    the one candidate rejected, and accepted."""
    from demtensor.crystal import Subset, is_isomorphic
    from demtensor.decomp import demazure_match
    from demtensor.demazure import generate_demazure
    from demtensor.verify import parse_grid

    expected = {"A2:1": (12, 85, 215), "B2:1": (27, 238, 463), "G2:1": (100, 1139, 1635)}
    for name, counts in expected.items():
        grid = parse_grid(name)
        group = weyl_group(grid.rs)
        reps = {}
        keys = {keypoly.product_key(group, v, w, lam, mu)
                for lam, mu, v, w in itertools.product(grid.shapes, grid.shapes, group, group)}
        branches = {"shared": 0, "rejected": 0, "accepted": 0}
        for _, v, w, lam, mu in keys:
            product = decomp._product(group, v, w, lam, mu)
            for pi in dominant_paths(group, w, mu, lam):
                comp = Subset(product.space, searched_codes(product, pi))
                nu = vadd(lam, weight_of(pi))
                if nu not in reps:
                    reps[nu] = coset_oracle.minimal_coset_reps(group, coset_oracle.stabilizer(nu))
                sweep = [x for x in reps[nu]
                         if is_isomorphic(grid.rs, comp, generate_demazure(group, x, nu).subset)]
                oracle = match_oracle.isomorphism_match(group, comp, nu)
                match = demazure_match(group, comp, nu)
                assert len(sweep) <= 1, (v, w, lam, mu, pi)
                assert match == oracle == (sweep[0] if sweep else None), (v, w, lam, mu, pi)
                shared = len(match_oracle.top_rank_candidates(group, comp, nu)) != 1
                branches["shared" if shared else "accepted" if oracle else "rejected"] += 1
        assert tuple(branches.values()) == counts, name


def test_g2_w0_decompose_builds_only_its_factor_crystal(monkeypatch, cold_caches):
    """On cold caches the G2 w0 (1,1) x (1,1) decomposition compiles the one
    crystal B(1,1) of its two factors and runs no isomorphism test: every
    component is decided inside the product."""
    from demtensor import crystal, demazure

    def refuse(*args):
        raise AssertionError("an isomorphism test ran")

    for module in (crystal, decomp, demazure, keypoly):
        if hasattr(module, "is_isomorphic"):
            monkeypatch.setattr(module, "is_isomorphic", refuse)
    G2 = weyl_group(root_system("G", 2))
    w0 = G2.longest()
    report = decompose(G2, w0, w0, (1, 1), (1, 1))
    assert len(report.entries) == 24 and all(entry.demazure for entry in report.entries)
    assert crystal.generate_crystal.cache_info().misses == 1


def test_demazure_match_needs_the_top_weight_to_be_nu():
    """B(2,2) of A2 is its own closure along w0, and w0 (1,1) is the one
    weight of top rank in the orbit of (1,1), but its top has weight
    (2,2): it is B_w0(2,2), not B_w0(1,1), as the LS-path oracle says."""
    from demtensor.decomp import demazure_match
    from demtensor.demazure import generate_demazure

    w0 = WA2.longest()
    whole = generate_demazure(WA2, w0, (2, 2)).subset
    assert match_oracle.top_rank_candidates(WA2, whole, (1, 1)) == [w0]
    assert demazure_match(WA2, whole, (1, 1)) is None
    assert match_oracle.isomorphism_match(WA2, whole, (1, 1)) is None
    assert demazure_match(WA2, whole, (2, 2)) == w0


def test_closure_match_needs_the_closure_to_be_the_component(monkeypatch):
    """A closure of the component's size that holds one code from outside
    it is not the component: the largest component of A2 w0, w0,
    (1,1) x (1,0) matches w0 only while the closure is exactly its set."""
    w0 = WA2.longest()
    product, tops = decomp._labelled(WA2, w0, w0, (1, 1), (1, 0))
    comp = max(tops.values(), key=len)
    space, top = comp.space, comp.tops()[0]
    nu = space._weight(top)
    assert decomp._closure_match(WA2, comp, nu) == w0
    outside = next(c for c in product.ids if c not in comp.ids)
    closure = decomp.lower_closure

    def leaky(space, seeds, word, within=None):
        grown = closure(space, seeds, word, within)
        return grown - {max(grown - set(seeds))} | {outside}

    monkeypatch.setattr(decomp, "lower_closure", leaky)
    assert len(leaky(space, (top,), w0.word, comp.ids)) == len(comp.ids)
    assert decomp._closure_match(WA2, comp, nu) is None


def _not_closed_under_e():
    """Two Subsets of the A2 crystal B(1,1), neither closed under raising,
    each with its one weight of top rank in the orbit of (1,1), so that
    `demazure_match` has a candidate: f_1 t alone, whose top is not highest
    weight, and the crystal without f_1 f_1 f_2 t, whose top is t but
    whose lowest element e_2 leads to the missing one."""
    from demtensor.crystal import Subset, generate_crystal

    crystal = generate_crystal(A2, (1, 1))
    f1, f2 = crystal.f_table
    top = crystal.top
    return (
        Subset(crystal, frozenset([f1[top]])),
        Subset(crystal, frozenset(range(len(crystal))) - {f1[f1[f2[top]]]}),
    )


def test_demazure_match_refuses_a_subset_not_closed_under_raising():
    from demtensor.decomp import demazure_match

    headless, gapped = _not_closed_under_e()
    with pytest.raises(AssertionError, match="not a highest weight element"):
        demazure_match(WA2, headless, (1, 1))
    with pytest.raises(AssertionError, match="leaves the component"):
        demazure_match(WA2, gapped, (1, 1))


@pytest.mark.parametrize("which, message", [
    (0, "not a highest weight element"),
    (1, "leaves the component"),
])
def test_demazure_match_premises_survive_optimized_mode(which, message):
    import os
    import subprocess
    import sys

    import demtensor

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(demtensor.__file__))
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import test_decomp as t\n"
        "from demtensor.decomp import demazure_match\n"
        "try:\n"
        "    demazure_match(t.WA2, t._not_closed_under_e()[%d], (1, 1))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        % (src, here, which)
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert message in out.stdout


def test_decompose_builds_the_ambient_product_only_when_needed(monkeypatch, cold_caches):
    from demtensor import crystal

    report = decompose(WA2, **EX1)
    assert report.condition_holds and all(entry.demazure for entry in report.entries)

    # the string certificate walks strings through the component alone
    def refuse(*args):
        raise AssertionError("a product set was built")

    monkeypatch.setattr(crystal, "tensor_product_elements", refuse)
    report = decompose(WA2, **EX3)
    bad = [entry for entry in report.entries if not entry.demazure]
    assert len(bad) == 1
    color, string = bad[0].string_violation
    inside = [x for x in string if x in bad[0].elements]
    assert 0 < len(inside) < len(string)


def test_stabilizer_intervals_match_fraction_oracle():
    """On every path of the default and G2:1 grids that is dominant for a
    shape of its grid or zero, the masks are the Fraction oracle's index
    sets; every other pair is refused with AssertionError."""
    import path_oracle

    from demtensor.crystal import generate_crystal
    from demtensor.verify import default_grids, parse_grid

    dominant = refused = 0
    for grid in default_grids() + [parse_grid("G2:1")]:
        for lam in [grid.rs.zero()] + list(grid.shapes):
            for mu in grid.shapes:
                for pi in generate_crystal(grid.rs, mu):
                    if not pi.is_dominant_for(lam):
                        with pytest.raises(AssertionError, match="is not dominant for"):
                            stabilizer_intervals(grid.group, pi, lam)
                        refused += 1
                        continue
                    got = stabilizer_intervals(grid.group, pi, lam)
                    expected = path_oracle.stabilizer_intervals(grid.group, pi, lam)
                    assert got == tuple(map(coset_oracle.mask, expected)), (pi, lam)
                    dominant += 1
    assert dominant > 100 and refused > 100


@st.composite
def _interval_draws(draw):
    """(group, pi, lam): a type of A3, B3, C3 and G2, dominant lam and mu
    with entries at most 2, B(mu) under the crystal size limit, an element
    w and a dominant path pi of B_w(mu) for lam."""
    letter, rank = draw(st.sampled_from([("A", 3), ("B", 3), ("C", 3), ("G", 2)]))
    rs = root_system(letter, rank)
    group = weyl_group(rs)
    weights = st.tuples(*[st.integers(0, 2)] * rank)
    lam = draw(weights)
    mu = draw(weights.filter(lambda mu: any(mu) and weyl_dimension(rs, mu) <= CRYSTAL_SIZE_LIMIT))
    w = group.elements[draw(st.integers(0, len(group) - 1))]
    paths = dominant_paths(group, w, mu, lam)
    # the top path of B_w(mu) is dominant for every dominant lam
    assert paths, (w, mu, lam)
    return group, draw(st.sampled_from(paths)), lam


def test_stabilizer_intervals_match_fraction_oracle_on_drawn_paths():
    """Beyond the fixed grids: on drawn types, shapes, elements and
    dominant paths, the masks are the Fraction oracle's index sets; some
    draws meet a zero coordinate after the start, so the draws are not all
    the trivial one-interval case."""
    import path_oracle

    inner = []

    @settings(derandomize=True, max_examples=60, deadline=10000, database=None)
    @given(_interval_draws())
    def check(draw):
        group, pi, lam = draw
        got = stabilizer_intervals(group, pi, lam)
        expected = path_oracle.stabilizer_intervals(group, pi, lam)
        assert got and got == tuple(map(coset_oracle.mask, expected)), (pi, lam)
        inner.append(any(got[1:]))

    check()
    assert any(inner)


def test_components_never_build_the_product(monkeypatch, cold_caches):
    from demtensor import crystal

    def refuse(*args):
        raise AssertionError("the product set was built")

    monkeypatch.setattr(crystal, "tensor_product_elements", refuse)
    report = decompose(WA2, oracle=True, **EX1)
    assert sorted(len(e.elements) for e in report.entries) == [2, 6, 7]
    pi = report.entries[0].pi
    assert path_witness_by_search(WA2, pi, EX1["w"], EX1["mu"], EX1["lam"])
    assert recursive_component(WA2, pi, el(), 1, EX1["w"], EX1["lam"], EX1["mu"])


def test_every_subset_the_package_returns_holds_a_frozenset():
    """`Subset.ids` is a frozenset of ids or pair codes wherever a Subset
    comes from: a labelled product and its components, the entries of
    `decompose`, a Demazure crystal, a word closure of a product, a grown
    component and a set of crystal elements."""
    from demtensor.crystal import compiled_subset
    from demtensor.demazure import generate_demazure

    v, w, lam, mu = EX1["v"], EX1["w"], EX1["lam"], EX1["mu"]
    product, components = decomp._labelled(WA2, v, w, lam, mu)
    subsets = [product, *components.values()]
    subsets += [entry.component for entry in decompose(WA2, **EX1).entries]
    subsets += [
        generate_demazure(WA2, w, mu).subset,
        closure_product(WA2, v.word, w, lam, mu),
        recursive_component(WA2, eps_path(1), el(), 1, w, lam, mu),
        compiled_subset(product.elements()),
        compiled_subset(()),
    ]
    for subset in subsets:
        assert type(subset.ids) is frozenset, subset


def test_labelling_pass_matches_a_search_from_each_dominant_pair():
    """On every distinct coset pair of A2:1, B2:1 and G2:1, `components_of`
    labels the components `induced_component` finds from each (top, pi),
    each with (top, pi) as its one top, ordered by least member; and on
    every full B(lam) (x) B(mu) there its components partition the pair
    codes, with the pairs of the dominant paths as their tops."""
    from demtensor.crystal import Subset, components_of, generate_crystal, tensor_space
    from demtensor.verify import parse_grid

    products = 0
    for name in ("A2:1", "B2:1", "G2:1"):
        grid = parse_grid(name)
        group = weyl_group(grid.rs)
        keys = {keypoly.product_key(group, v, w, lam, mu)
                for lam, mu, v, w in itertools.product(grid.shapes, grid.shapes, group, group)}
        for _, v, w, lam, mu in sorted(keys, key=repr):
            product = decomp._product(group, v, w, lam, mu)
            comps = components_of(product)
            labelled = {}
            for comp in comps:
                (top,) = comp.tops()
                assert Subset(product.space, comp.ids).tops() == [top], (v, w, lam, mu)
                labelled[top] = comp.ids
            searched = {
                decomp._pair_code(product, pi): searched_codes(product, pi)
                for pi in dominant_paths(group, w, mu, lam)
            }
            assert labelled == searched, (v, w, lam, mu)
            least = [min(comp.ids) for comp in comps]
            assert least == sorted(least)
            products += 1
        for lam, mu in itertools.product(grid.shapes, repeat=2):
            left, right = generate_crystal(grid.rs, lam), generate_crystal(grid.rs, mu)
            space = tensor_space(left, right)
            comps = components_of(Subset(space, frozenset(range(len(space)))))
            assert sum(map(len, comps)) == len(space)
            assert frozenset().union(*(comp.ids for comp in comps)) == frozenset(range(len(space)))
            assert sorted(comp.tops()[0] for comp in comps) == [
                left.top * space.n + b for b, pi in enumerate(right) if pi.is_dominant_for(lam)
            ]
    assert products > 100


def _corrupt_a_raising_step(where):
    """Corrupt one raising step in the EX1 product (B_w(mu) is all of
    B(1,0), B_v(1,1) is not all of B(1,1)) and return the message the
    labelling pass raises.  "first": e_1 of the top pair of a component, its
    only raising step, points outside the product.  "further" and "other":
    e_2 of a pair whose e_1 stays inside points outside the product, or at
    a pair of another component.  "cycle": e_1 of a pair points at the
    pair itself.  The tensor space is memoized, so every later decompose
    reads the corrupted row."""
    product = decomp._product(WA2, **EX1)
    space, n = product.space, product.space.n
    paths = dominant_paths(WA2, EX1["w"], EX1["mu"], EX1["lam"])
    first, second = (searched_codes(product, pi) for pi in paths[:2])
    outside = min(set(range(len(space.left))) - {c // n for c in product.ids})
    if where == "first":
        c = min(c for c in first if max(space._steps(c)[1::2]) < 0)
        k, y = 1, outside * n + c % n
    elif where == "cycle":
        c = min(c for c in first if space._at(c, 1) >= 0)
        k, y = 1, c
    else:
        c = min(c for c in first if space._at(c, 1) >= 0)
        k, y = 3, outside * n + c % n if where == "further" else min(second)
    space._row(c // n)[k][c % n] = y
    if where == "other":
        return "a raising step lands in another component"
    if where == "cycle":
        return "raising steps from .* run in a cycle"
    return "a raising step leaves the set"


@pytest.mark.parametrize("where", ["first", "further", "other", "cycle"])
def test_decompose_refuses_a_raising_step_out_of_its_component(where, capsys, cold_caches):
    from demtensor.cli import main

    message = _corrupt_a_raising_step(where)
    with pytest.raises(AssertionError, match=message):
        decompose(WA2, **EX1)
    argv = ["decompose", "--type", "A2", "--v", "1,2", "--w", "1,2,1", "--lambda", "1,1",
            "--mu", "1,0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and re.match("structural failure: " + message, captured.err)


@pytest.mark.parametrize("entry", ["decompose", "cli"])
def test_labelling_premise_survives_optimized_mode(entry):
    import os
    import subprocess
    import sys

    import demtensor

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(demtensor.__file__))
    call = {
        "decompose": "t.decompose(t.WA2, **t.EX1)",
        "cli": "print('exit', main(['decompose', '--type', 'A2', '--v', '1,2', '--w', '1,2,1',"
               " '--lambda', '1,1', '--mu', '1,0']))",
    }[entry]
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import test_decomp as t\n"
        "from demtensor.cli import main\n"
        "t._corrupt_a_raising_step('further')\n"
        "try:\n"
        "    %s\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        % (src, here, call)
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    if entry == "cli":
        assert out.stdout == "exit 2\n"
        assert out.stderr.startswith("structural failure: a raising step leaves the set")
    else:
        assert out.stdout.startswith("a raising step leaves the set")


def test_sparse_decompose_fills_only_the_rows_of_its_left_factor(cold_caches):
    """B_s1(9,9) (x) B_s2(9,9) has 100 pairs in a space of 10^6: decompose
    fills the 10 rows of its left factor's ids and adds one weight per
    distinct pair of factor weights it meets, with no list over the
    space."""
    from demtensor.crystal import generate_crystal, tensor_space
    from demtensor.demazure import generate_demazure

    report = decompose(WA2, el(1), el(2), (9, 9), (9, 9))
    assert sum(map(len, (entry.component for entry in report.entries))) == 100
    crystal = generate_crystal(A2, (9, 9))
    space = tensor_space(crystal, crystal)
    left = generate_demazure(WA2, el(1), (9, 9)).subset.ids
    assert len(left) == 10
    assert [a for a, row in enumerate(space._rows) if row is not None] == sorted(left)
    assert not hasattr(space, "weights")
    assert len(space._sums) <= 100


def test_g2_w0_decompose_labels_in_one_pass_and_searches_nothing(monkeypatch, capsys, cold_caches):
    from demtensor import crystal
    from demtensor.cli import main

    searches, passes = [], []
    search, label = crystal._search, decomp.components_of
    monkeypatch.setattr(crystal, "_search", lambda *args: searches.append(args) or search(*args))
    monkeypatch.setattr(decomp, "components_of", lambda *args: passes.append(args) or label(*args))
    w0 = "1,2,1,2,1,2"
    argv = ["decompose", "--type", "G2", "--v", w0, "--w", w0, "--lambda", "1,1", "--mu", "1,1"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out) > 0
    assert searches == [] and len(passes) == 1


def test_decompose_checks_disjoint_cover(monkeypatch, cold_caches):
    import demtensor.decomp as decomp

    paths = dominant_paths(WA2, EX1["w"], EX1["mu"], EX1["lam"])
    for broken, message in [(paths[:-1], "do not cover"), (paths + paths[:1], "overlap")]:
        reached = []
        monkeypatch.setattr(
            decomp, "dominant_paths", lambda *args, got=broken: reached.append(args) or got
        )
        with pytest.raises(decomp.TheoremViolation, match=message):
            decompose(WA2, **EX1)
        assert reached


def test_decompose_refuses_a_path_whose_pair_is_not_a_top(monkeypatch, cold_caches):
    """A path of the right factor that is not dominant for lam names a pair
    inside some component but not its top."""
    import demtensor.decomp as decomp

    case = dict(v=el(1, 2), w=el(1, 2, 1), lam=(1, 0), mu=(1, 1))
    paths = dominant_paths(WA2, case["w"], case["mu"], case["lam"])
    right = decomp.generate_demazure(WA2, case["w"], case["mu"])
    stray = next(pi for pi in right if not pi.is_dominant_for(case["lam"]))
    monkeypatch.setattr(decomp, "dominant_paths", lambda *args: paths + [stray])
    with pytest.raises(decomp.TheoremViolation, match="not the top of a component"):
        decompose(WA2, **case)


def test_orbit_transport_is_the_minimal_scanned_element():
    """The witness recursion's transport tau1 is the element of the initial
    direction's dominant walk: the minimal representative of the first
    scanned element that moves mu there."""
    from demtensor.crystal import generate_crystal
    from demtensor.lspath import dominant_walk
    from demtensor.verify import default_grids, parse_grid

    checked = 0
    for grid in default_grids() + [parse_grid("G2:1")]:
        group = grid.group
        for mu in grid.shapes:
            for pi in generate_crystal(grid.rs, mu):
                target = pi.initial_direction()
                scanned = next(u for u in group.elements if group.apply(u, mu) == target)
                shape, moved = dominant_walk(group, target)
                assert shape == mu
                assert moved is group.coset_min_weight(scanned, mu), (mu, target)
                assert group.apply(moved, mu) == target
                checked += 1
    assert checked > 100


def test_path_witness_memo_matches_a_fresh_recursion():
    """The memoized witness equals the uncached interval recursion, and w
    enters it only through its coset modulo the stabilizer of mu."""
    from demtensor.decomp import _interval_recursion
    from demtensor.verify import default_grids, parse_grid

    fresh = _interval_recursion.__wrapped__
    checked = 0
    for grid in default_grids() + [parse_grid("G2:1")]:
        group = grid.group
        for lam, mu in itertools.product(grid.shapes, repeat=2):
            stabilizer = coset_oracle.stabilizer(mu)
            for w in group:
                paths = dominant_paths(group, w, mu, lam)
                wfloor = group.coset_min_weight(w, mu)
                expected = [fresh(group, pi, wfloor, mu, lam) for pi in paths]
                assert [path_witness(group, pi, w, mu, lam) for pi in paths] == expected
                for x in coset_oracle.coset(group, w, stabilizer):
                    assert dominant_paths(group, x, mu, lam) == paths
                    assert [path_witness(group, pi, x, mu, lam) for pi in paths] == expected
                checked += len(paths)
    assert checked > 500


def test_path_witness_memo_misses_once_per_key(monkeypatch, cold_caches):
    """Over the W(B2)^2 fundamental-shape sweep of product_report, the
    recursion runs once per distinct (pi, wfloor, mu, lam)."""
    import demtensor.decomp as decomp
    from demtensor.keypoly import product_report

    group = weyl_group(root_system("B", 2))
    original = decomp.path_witness
    keys, calls = set(), []

    def spy(group, pi, w, mu, lam):
        keys.add((pi, group.coset_min_weight(w, mu), tuple(mu), tuple(lam)))
        calls.append(pi)
        return original(group, pi, w, mu, lam)

    monkeypatch.setattr(decomp, "path_witness", spy)
    shapes = [(1, 0), (0, 1)]
    for v, w in itertools.product(group, repeat=2):
        for lam, mu in itertools.product(shapes, repeat=2):
            product_report(group, v, w, lam, mu)
    assert len(calls) > len(keys) > 0
    assert decomp._interval_recursion.cache_info().misses == len(keys)


def _entry_facts(entry):
    return (entry.pi, len(entry.component), entry.shifted_shape, entry.demazure,
            entry.witness, entry.expected_witness, entry.string_violation)


def test_decompose_depends_on_v_and_w_only_through_their_cosets():
    """For every (v, w, lam, mu) of the default grids and G2:1, the report
    equals the one at the minimal coset representatives of v mod W_lam and
    w mod W_mu, and carries the caller's own v and w."""
    from demtensor.verify import default_grids, parse_grid

    checked, moved, verdicts = 0, 0, set()
    for grid in default_grids() + [parse_grid("G2:1")]:
        group = grid.group
        for lam, mu in itertools.product(grid.shapes, repeat=2):
            for v, w in itertools.product(group, repeat=2):
                vfloor, wfloor = group.coset_min_weight(v, lam), group.coset_min_weight(w, mu)
                report = decompose(group, v, w, lam, mu)
                floor = decompose(group, vfloor, wfloor, lam, mu)
                assert (report.v, report.w, report.lam, report.mu) == (v, w, lam, mu)
                assert report.condition_holds == floor.condition_holds, (v, w, lam, mu)
                facts = [_entry_facts(entry) for entry in report.entries]
                assert facts == [_entry_facts(entry) for entry in floor.entries], (v, w, lam, mu)
                verdicts.update(entry.demazure for entry in report.entries)
                moved += (v, w) != (vfloor, wfloor)
                checked += 1
    assert checked == 324 + 256 + 1296 and verdicts == {True, False}
    # most instances are not their own representatives, so the comparison is not vacuous
    assert moved > checked // 2


def _misses_once_per_coset_pair(memo, public):
    """Sweep W(B2)^2 on its default shapes with an empty memo: does the
    memo miss exactly once per distinct (v mod W_lam, w mod W_mu, lam, mu)?"""
    group = weyl_group(root_system("B", 2))
    memo.cache_clear()
    keys = set()
    for lam, mu in itertools.product([(1, 0), (0, 1)], repeat=2):
        for v, w in itertools.product(group, repeat=2):
            public(group, v, w, lam, mu)
            keys.add((group.coset_min_weight(v, lam), group.coset_min_weight(w, mu), lam, mu))
    return memo.cache_info().misses == len(keys)


@pytest.mark.parametrize(
    "module, memo, public",
    [(keypoly, keypoly._product_report, keypoly.product_report)],
    ids=["keypoly"],
)
def test_product_memo_misses_once_per_coset_pair(monkeypatch, cold_caches, module, memo, public):
    assert _misses_once_per_coset_pair(memo, public)
    # the same sweep refuses a memo keyed on v and w themselves
    monkeypatch.setattr(
        module, "product_key", lambda group, v, w, lam, mu: (group, v, w, tuple(lam), tuple(mu))
    )
    assert not _misses_once_per_coset_pair(memo, public)


def test_decompose_reports_do_not_share_their_containers():
    w2 = WA2.multiply(EX1["w"], el(2))  # the other element of w's coset mod W_mu
    first = decompose(WA2, **EX1)
    expected = [_entry_facts(entry) for entry in first.entries]
    first.entries.pop()
    first.entries.reverse()
    again = decompose(WA2, **EX1)
    assert again is not first and [_entry_facts(entry) for entry in again.entries] == expected
    other = decompose(WA2, EX1["v"], w2, EX1["lam"], EX1["mu"])
    assert other.w is w2 and [_entry_facts(entry) for entry in other.entries] == expected


def test_pair_space_limit_refuses_no_grid_example_or_probe():
    """By the dimension formula alone: no product of the A2:2, B2:2, G2:1
    and A3:1 grids, of the README examples or of the probes is over
    PAIR_SPACE_LIMIT."""
    from demtensor.cartan import weyl_dimension
    from demtensor.crystal import PAIR_SPACE_LIMIT
    from demtensor.verify import parse_grid

    products = []
    for spec in ("A2:2", "B2:2", "G2:1", "A3:1"):
        grid = parse_grid(spec)
        products += [(grid.rs, lam, mu) for lam in grid.shapes for mu in grid.shapes]
    # README: decompose (twice), check and expand; probes: G2 w0 and E6
    products += [(A2, (1, 1), (1, 0)), (A2, (2, 1), (1, 2))]
    products.append((root_system("G", 2), (1, 1), (1, 1)))
    omega1 = (1, 0, 0, 0, 0, 0)
    products.append((root_system("E", 6), omega1, omega1))
    sizes = [weyl_dimension(rs, lam) * weyl_dimension(rs, mu) for rs, lam, mu in products]
    assert len(products) == 8**2 + 8**2 + 3**2 + 7**2 + 4
    assert max(sizes) == 6561
    assert sum(size > PAIR_SPACE_LIMIT for size in sizes) == 0
