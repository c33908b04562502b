"""Tensor decomposition: witnesses, condition, reports, recursion, product rule."""

import itertools
from fractions import Fraction

import pytest

from demtensor.cartan import root_system, vadd
from demtensor.crystal import TensorElement, f_op, weight_of
from demtensor.decomp import (
    checked_path_witness,
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
    tensor_demazure,
)
from demtensor.lspath import make_path, straight_path
from demtensor.weyl import weyl_group

A2 = root_system("A", 2)
WA2 = weyl_group(A2)
F = Fraction


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
    assert stabilizer_intervals(WA2, eps_path(1), lam) == (frozenset(),)
    assert stabilizer_intervals(WA2, eps_path(2), lam) == (frozenset(), frozenset({1}))
    assert stabilizer_intervals(WA2, eps_path(3), lam) == (frozenset(), frozenset({2}))


def test_path_witness_example1():
    kw = EX1
    assert path_witness(WA2, eps_path(1), kw["w"], kw["mu"], kw["lam"]) == WA2.identity
    assert path_witness(WA2, eps_path(2), kw["w"], kw["mu"], kw["lam"]) == el(1)
    assert path_witness(WA2, eps_path(3), kw["w"], kw["mu"], kw["lam"]) == el(2)


def test_path_witness_oracle_agreement_example1():
    kw = EX1
    for k in (1, 2, 3):
        checked_path_witness(WA2, eps_path(k), kw["w"], kw["mu"], kw["lam"])


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
    assert closed == tensor_demazure(WA2, kw["v"], kw["w"], kw["lam"], kw["mu"])


def test_recursive_component_reaches_example3():
    kw = EX3
    pi = eps_path(2)
    # grow from v = s2 by the color 1; the result is the three-element chain
    result = recursive_component(WA2, pi, el(2), 1, kw["w"], kw["lam"], kw["mu"])
    assert len(result) == 3
    assert result == component(WA2, pi, el(1, 2), kw["w"], kw["lam"], kw["mu"])


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
    from demtensor.crystal import is_isomorphic
    from demtensor.decomp import demazure_matches
    from demtensor.demazure import generate_demazure
    from demtensor.verify import default_grids

    compared = non_demazure = 0
    for grid in default_grids():
        group = weyl_group(grid.rs)
        for lam, mu, v, w in itertools.product(grid.shapes, grid.shapes, group, group):
            for pi in dominant_paths(group, w, mu, lam):
                comp = component(group, pi, v, w, lam, mu)
                nu = vadd(lam, weight_of(pi))
                reps = group.minimal_coset_reps(group.stabilizer_indices(nu))
                sweep = [
                    x
                    for x in reps
                    if is_isomorphic(grid.rs, comp, generate_demazure(group, x, nu).elements)
                ]
                assert demazure_matches(group, comp, nu) == sweep, (v, w, lam, mu, pi)
                compared += 1
                non_demazure += not sweep
    # both verdicts occur, so neither branch passes vacuously
    assert compared > non_demazure > 0


def test_decompose_builds_the_ambient_product_only_when_needed(monkeypatch):
    import demtensor.decomp as decomp

    report = decompose(WA2, **EX1)
    assert report.condition_holds and all(entry.demazure for entry in report.entries)

    # the string certificate walks strings through the component alone
    def refuse(*args):
        raise AssertionError("a product set was built")

    monkeypatch.setattr(decomp, "tensor_demazure", refuse)
    monkeypatch.setattr(decomp, "tensor_product_elements", refuse)
    report = decompose(WA2, **EX3)
    bad = [entry for entry in report.entries if not entry.demazure]
    assert len(bad) == 1
    color, string = bad[0].string_violation
    inside = [x for x in string if x in bad[0].elements]
    assert 0 < len(inside) < len(string)


def test_stabilizer_intervals_match_fraction_oracle():
    import path_oracle

    from demtensor.crystal import generate_crystal
    from demtensor.verify import default_grids, parse_grid

    dominant = 0
    for grid in default_grids() + [parse_grid("G2:1")]:
        for lam in [grid.rs.zero()] + list(grid.shapes):
            for mu in grid.shapes:
                for pi in generate_crystal(grid.rs, mu):
                    got = stabilizer_intervals(grid.group, pi, lam)
                    assert got == path_oracle.stabilizer_intervals(grid.group, pi, lam), (pi, lam)
                    dominant += pi.is_dominant_for(lam)
    assert dominant > 100


def test_components_never_build_the_product(monkeypatch):
    import demtensor.decomp as decomp

    def refuse(*args):
        raise AssertionError("the product set was built")

    monkeypatch.setattr(decomp, "tensor_demazure", refuse)
    monkeypatch.setattr(decomp, "tensor_product_elements", refuse)
    report = decompose(WA2, oracle=True, **EX1)
    assert sorted(len(e.elements) for e in report.entries) == [2, 6, 7]
    pi = report.entries[0].pi
    assert path_witness_by_search(WA2, pi, EX1["w"], EX1["mu"], EX1["lam"])
    assert recursive_component(WA2, pi, el(), 1, EX1["w"], EX1["lam"], EX1["mu"])


def test_decompose_checks_disjoint_cover(monkeypatch):
    import demtensor.decomp as decomp

    paths = dominant_paths(WA2, EX1["w"], EX1["mu"], EX1["lam"])
    for broken, message in [(paths[:-1], "do not cover"), (paths + paths[:1], "overlap")]:
        monkeypatch.setattr(decomp, "dominant_paths", lambda *args, got=broken: got)
        with pytest.raises(decomp.TheoremViolation, match=message):
            decompose(WA2, **EX1)


def test_orbit_transport_is_the_minimal_scanned_element():
    from demtensor.crystal import generate_crystal
    from demtensor.decomp import _orbit_transport
    from demtensor.verify import default_grids, parse_grid

    checked = 0
    for grid in default_grids() + [parse_grid("G2:1")]:
        group = grid.group
        for mu in grid.shapes:
            for pi in generate_crystal(grid.rs, mu):
                target = pi.initial_direction()
                scanned = next(u for u in group.elements if group.apply(u, mu) == target)
                moved = _orbit_transport(group, mu, target)
                assert moved is group.coset_min_weight(scanned, mu), (mu, target)
                assert group.apply(moved, mu) == target
                checked += 1
    assert checked > 100
