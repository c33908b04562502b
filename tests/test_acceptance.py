"""Acceptance criteria, one test per criterion, exact (zero tolerance).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The grid is rank-two type A over the shapes (1,0), (0,1), (1,1)
with all 36 group pairs, and rank-two type B over the fundamental weights
with all 64 pairs.
"""

from fractions import Fraction

from demtensor.cartan import root_system, vadd
from demtensor.crystal import TensorElement, f_op, weight_of
from demtensor.decomp import (
    decompose,
    leibniz_check,
    lifted_witness,
    path_witness,
    path_witness_by_search,
)
from demtensor.keypoly import product_report
from demtensor.lspath import make_path, straight_path
from demtensor.verify import (
    default_grids,
    suite_biconditional,
    suite_characters,
    suite_dimension_formula,
    suite_full_tensor_partition,
    suite_key_positivity,
    suite_membership_criterion,
    suite_product_rule,
    suite_recursion,
    suite_reduced_word_independence,
    suite_string_property,
    suite_tensor_vs_concatenation,
    suite_witness_oracle,
    suite_word_closure,
)
from demtensor.weyl import weyl_group

A2 = root_system("A", 2)
WA2 = weyl_group(A2)
F = Fraction
GRIDS = default_grids()


def el(*word):
    return WA2.from_word(word)


def report_line(number, label):
    print("ACCEPTANCE %2d %-38s PASS" % (number, label))


def test_criterion_01_first_worked_decomposition():
    v, w, lam, mu = el(1, 2), el(1, 2, 1), (1, 1), (1, 0)
    report = decompose(WA2, v, w, lam, mu, oracle=True)
    assert report.condition_holds
    assert sorted(report.summands()) == sorted(
        [((1, 2), (2, 1)), ((1, 2), (0, 2)), ((1,), (1, 0))]
    )
    # the witness over the middle component normalizes from length three
    pi2 = straight_path(A2, mu, (-1, 1))
    raw = lifted_witness(WA2, pi2, v, w, lam, mu)
    assert raw == el(1, 2, 1)
    assert WA2.coset_min_weight(raw, (0, 2)) == el(1, 2)
    report_line(1, "first worked decomposition")


def test_criterion_02_second_worked_decomposition():
    v, w, lam, mu = el(1), el(1, 2), (2, 1), (1, 2)
    report = decompose(WA2, v, w, lam, mu, oracle=True)
    assert report.condition_holds
    assert len(report.entries) == 7
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
    # coset collapses: raw witnesses of length two normalize down
    pi6 = make_path(A2, mu, ((-3, 1), (3, -2)), (F(0), F(1, 3), F(1)))
    raw6 = lifted_witness(WA2, pi6, v, w, lam, mu)
    assert raw6 == el(1, 2) and WA2.coset_min_weight(raw6, (3, 0)) == el(1)
    pi5 = make_path(A2, mu, ((-3, 1), (-1, 3)), (F(0), F(1, 2), F(1)))
    raw5 = lifted_witness(WA2, pi5, v, w, lam, mu)
    assert raw5 == el(1) and WA2.coset_min_weight(raw5, (0, 3)) == WA2.identity
    report_line(2, "second worked decomposition")


def test_criterion_03_counterexample_component():
    v, w, lam, mu = el(1, 2), el(1, 2), (1, 1), (1, 0)
    report = decompose(WA2, v, w, lam, mu)
    assert not report.condition_holds
    bad = [entry for entry in report.entries if not entry.demazure]
    assert len(bad) == 1
    entry = bad[0]
    assert len(entry.elements) == 3
    assert entry.shifted_shape == (0, 2)
    assert entry.string_violation is not None
    color, string = entry.string_violation
    inside = [x for x in string if x in entry.elements]
    assert 0 < len(inside) < len(string)
    top = TensorElement(straight_path(A2, lam), f_op(straight_path(A2, mu), 1))
    assert weight_of(top) == (0, 2)
    assert entry.elements == {top, f_op(top, 2), f_op(f_op(top, 2), 1)}
    report_line(3, "counterexample component certified")


def test_criterion_04_biconditional_over_grid():
    for grid in GRIDS:
        assert suite_biconditional(grid) is None, grid.name
    report_line(4, "decomposition biconditional, full grid")


def test_criterion_05_recursion_over_grid():
    for grid in GRIDS:
        assert suite_recursion(grid) is None, grid.name
    report_line(5, "component recursion, full grid")


def test_criterion_06_product_rule_over_grid():
    for grid in GRIDS:
        assert suite_product_rule(grid) is None, grid.name
    # the degenerate branch: lowering the right witness shortens it, the
    # second part is empty and the closure is just the grown product
    result = leibniz_check(WA2, WA2.identity, el(1), (1, 1), (1, 0), 1)
    assert result.equal and result.disjoint and not result.second
    assert result.lhs == result.first
    report_line(6, "lowering product rule, full grid")


def test_criterion_07_witness_oracle_agreement():
    for grid in GRIDS:
        assert suite_witness_oracle(grid) is None, grid.name
    # the published base witnesses of the first worked decomposition
    w, mu, lam = el(1, 2, 1), (1, 0), (1, 1)
    expected = {(1, 0): WA2.identity, (-1, 1): el(1), (0, -1): el(2)}
    # the oracle: at v = e each closure match is compared with its base witness
    matched = {entry.pi: entry.witness for entry in decompose(WA2, WA2.identity, w, lam, mu).entries}
    for target, value in expected.items():
        pi = straight_path(A2, mu, target)
        normalized = WA2.coset_min_weight(value, vadd(lam, weight_of(pi)))
        assert path_witness(WA2, pi, w, mu, lam) == value
        assert path_witness_by_search(WA2, pi, w, mu, lam) == normalized == matched[pi]
    report_line(7, "witness recursion matches isomorphism search")


def test_criterion_08_structural_suite():
    for grid in GRIDS:
        assert suite_string_property(grid) is None, grid.name
        assert suite_reduced_word_independence(grid) is None, grid.name
        assert suite_membership_criterion(grid) is None, grid.name
        assert suite_dimension_formula(grid) is None, grid.name
        assert suite_tensor_vs_concatenation(grid) is None, grid.name
        assert suite_full_tensor_partition(grid) is None, grid.name
        assert suite_word_closure(grid) is None, grid.name
    report_line(8, "structural properties, full grid")


def test_criterion_09_characters():
    for grid in GRIDS:
        assert suite_characters(grid) is None, grid.name
    report_line(9, "character formula and multiplicativity")


def test_criterion_10_key_positivity():
    for grid in GRIDS:
        assert suite_key_positivity(grid) is None, grid.name
    report = product_report(WA2, el(1, 2), el(1, 2, 1), (1, 1), (1, 0))
    coeffs = {(idx.shape, idx.witness.word): c for idx, c in report.coefficients.items()}
    assert coeffs == {
        ((2, 1), (1, 2)): 1,
        ((0, 2), (1, 2)): 1,
        ((1, 0), (1,)): 1,
    }
    report_line(10, "key positivity with component counting")
