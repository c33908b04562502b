"""Exhaustive verification suites over small parameter grids.

Each suite sweeps a grid (a root system with a set of dominant shapes, all
pairs of group elements where applicable) and returns None on success or a
short human-readable description of the first counterexample.  The CLI
`verify` command and the acceptance tests both drive these.
"""

import itertools

from .cartan import root_system, vadd, weyl_dimension
from .crystal import (
    Subset,
    _path_e,
    _path_f,
    character,
    e_op,
    generate_crystal,
    induced_component,
    is_isomorphic,
    tensor_product_elements,
    tensor_space,
    weight_of,
)
from .decomp import (
    OracleMismatch,
    TheoremViolation,
    checked_path_witness,
    closure_product,
    condition_check,
    decompose,
    dominant_paths,
    leibniz_check,
    recursive_component,
    tensor_demazure,
)
from .demazure import (
    check_string_property,
    contains,
    demazure_elements_for_word,
    generate_demazure,
)
from .keypoly import (
    CharPoly,
    demazure_operator_word,
    product_report,
)
from .lspath import concatenate
from .weyl import weyl_group


class Grid:
    """A root system together with the dominant shapes swept by the suites."""

    def __init__(self, rs, shapes):
        self.rs = rs
        self.group = weyl_group(rs)
        self.shapes = tuple(tuple(s) for s in shapes)

    @property
    def name(self):
        return "%s%d" % (self.rs.type_letter, self.rs.rank)

    def __repr__(self):
        return "Grid(%s, shapes=%r)" % (self.name, list(self.shapes))


def default_grids():
    """The standard grid: rank-two type A on all small fundamental sums,
    rank-two type B on the fundamental weights."""
    return [
        Grid(root_system("A", 2), [(1, 0), (0, 1), (1, 1)]),
        Grid(root_system("B", 2), [(1, 0), (0, 1)]),
    ]


def parse_grid(text):
    """Parse a grid string like "A2:2" (type and coordinate bound)."""
    if ":" in text:
        type_name, bound_text = text.split(":", 1)
        bound = int(bound_text)
    else:
        type_name, bound = text, 1
    rs = root_system(type_name[0].upper(), int(type_name[1:]))
    shapes = [
        coords
        for coords in itertools.product(range(bound + 1), repeat=rs.rank)
        if any(coords)
    ]
    if not shapes:
        raise ValueError("grid %r has no nonzero shapes to sweep" % text)
    return Grid(rs, shapes)


def _ascent_pairs(group):
    """All (v, i) with the simple reflection i lengthening v on the left."""
    out = []
    for v in group:
        for i in range(1, group.rs.rank + 1):
            if group.length(group.multiply(group.simple(i), v)) > group.length(v):
                out.append((v, i))
    return out


# -- structural suites -------------------------------------------------------------


def suite_string_property(grid):
    """Every Demazure crystal of the grid meets every string correctly."""
    for lam in grid.shapes:
        for w in grid.group:
            hit = check_string_property(generate_demazure(grid.group, w, lam))
            if hit is not None:
                return "string property fails for w=%r lam=%r color=%d" % (w, lam, hit[0])
    return None


def suite_reduced_word_independence(grid):
    """Generation from any reduced word of w produces the same element set."""
    group = grid.group
    for w in group:
        length = group.length(w)
        words = [
            word
            for word in itertools.product(range(1, grid.rs.rank + 1), repeat=length)
            if group.from_word(word) == w and len(word) == length
        ]
        for lam in grid.shapes:
            reference = demazure_elements_for_word(grid.rs, words[0], lam)
            for word in words[1:]:
                if demazure_elements_for_word(grid.rs, word, lam) != reference:
                    return "word %r of %r changes the crystal of %r" % (word, w, lam)
    return None


def suite_membership_criterion(grid):
    """Initial-direction membership == generative membership; raising stays inside."""
    for lam in grid.shapes:
        crystal = generate_crystal(grid.rs, lam)
        for w in grid.group:
            dem = generate_demazure(grid.group, w, lam)
            for pi in crystal:
                if contains(pi, w, lam) != (pi in dem):
                    return "membership criterion fails at %r, w=%r" % (pi, w)
            for pi in dem:
                for i in range(1, grid.rs.rank + 1):
                    up = e_op(pi, i)
                    if up is not None and up not in dem:
                        return "raising escapes the crystal of w=%r at %r" % (w, pi)
    return None


def suite_dimension_formula(grid):
    """Crystal sizes match the arithmetic dimension formula."""
    for lam in grid.shapes:
        expected = weyl_dimension(grid.rs, lam)
        got = len(generate_crystal(grid.rs, lam))
        if got != expected:
            return "crystal of %r has %d elements, formula gives %d" % (lam, got, expected)
    return None


def suite_tensor_vs_concatenation(grid):
    """The tensor rule of the pair codes agrees with the path operators on
    concatenated paths."""
    for lam in grid.shapes:
        for mu in grid.shapes:
            space = tensor_space(generate_crystal(grid.rs, lam), generate_crystal(grid.rs, mu))
            for c in range(len(space)):
                pair = space._decode(c)
                raw = concatenate(pair.left, pair.right)
                steps = space._steps(c)
                for i in range(1, grid.rs.rank + 1):
                    for op, y in zip((_path_f, _path_e), steps[2 * i - 2:2 * i]):
                        if y < 0:
                            expected = None
                        else:
                            lifted = space._decode(y)
                            expected = concatenate(lifted.left, lifted.right)
                        if op(raw, i) != expected:
                            return "operators disagree at %r color %d" % (pair, i)
    return None


def suite_full_tensor_partition(grid):
    """The full product splits along dominant paths into shifted full crystals."""
    for lam in grid.shapes:
        for mu in grid.shapes:
            left = generate_crystal(grid.rs, lam)
            right = generate_crystal(grid.rs, mu)
            space = tensor_space(left, right)
            members = Subset(space, range(len(space)))
            covered = set()
            for b, pi in enumerate(right):
                if not pi.is_dominant_for(lam):
                    continue
                comp = induced_component(grid.rs, left.top * space.n + b, members)
                if covered & comp:
                    return "components overlap at %r" % (pi,)
                covered |= comp
                target = generate_crystal(grid.rs, vadd(lam, weight_of(pi)))
                whole = Subset(target, range(len(target)))
                if not is_isomorphic(grid.rs, Subset(space, comp), whole):
                    return "component of %r is not the full crystal of its weight" % (pi,)
            if len(covered) != len(members):
                return "dominant paths miss part of the product at %r,%r" % (lam, mu)
    return None


# -- decomposition suites ---------------------------------------------------------------


def suite_biconditional(grid):
    """Condition == every component Demazure, over all pairs and shapes."""
    for lam in grid.shapes:
        for mu in grid.shapes:
            for v in grid.group:
                for w in grid.group:
                    try:
                        decompose(grid.group, v, w, lam, mu)
                    except (TheoremViolation, OracleMismatch) as caught:
                        return "v=%r w=%r lam=%r mu=%r: %s" % (v, w, lam, mu, caught)
    return None


def suite_witness_oracle(grid):
    """Interval recursion equals isomorphism search on every dominant path."""
    for lam in grid.shapes:
        for mu in grid.shapes:
            for w in grid.group:
                for pi in dominant_paths(grid.group, w, mu, lam):
                    try:
                        checked_path_witness(grid.group, pi, w, mu, lam)
                    except OracleMismatch as caught:
                        return "w=%r lam=%r mu=%r: %s" % (w, lam, mu, caught)
    return None


def suite_word_closure(grid):
    """Under the condition, closing the seeded product along the minimal word
    of v recovers the whole product."""
    for lam in grid.shapes:
        for mu in grid.shapes:
            for v in grid.group:
                for w in grid.group:
                    if not condition_check(grid.group, v, w, lam, mu):
                        continue
                    vfloor = grid.group.coset_min_weight(v, lam)
                    closed = closure_product(grid.group, vfloor.word, w, lam, mu)
                    full = tensor_demazure(grid.group, v, w, lam, mu)
                    if closed != full:
                        return "closure misses the product at v=%r w=%r" % (v, w)
    return None


def suite_recursion(grid):
    """The recursion formula equals the direct component for every ascent."""
    ascents = _ascent_pairs(grid.group)
    for lam in grid.shapes:
        for mu in grid.shapes:
            for w in grid.group:
                paths = dominant_paths(grid.group, w, mu, lam)
                for v, i in ascents:
                    for pi in paths:
                        try:
                            recursive_component(grid.group, pi, v, i, w, lam, mu)
                        except TheoremViolation as caught:
                            return "v=%r i=%d w=%r lam=%r mu=%r: %s" % (v, i, w, lam, mu, caught)
    return None


def suite_product_rule(grid):
    """Lowering closures of products split as stated, with disjoint parts."""
    ascents = _ascent_pairs(grid.group)
    for lam in grid.shapes:
        for mu in grid.shapes:
            for w in grid.group:
                for v, i in ascents:
                    result = leibniz_check(grid.group, v, w, lam, mu, i)
                    if not result.disjoint:
                        return "overlap at v=%r w=%r i=%d lam=%r mu=%r" % (v, w, i, lam, mu)
                    if not result.equal:
                        return "sides differ at v=%r w=%r i=%d lam=%r mu=%r" % (v, w, i, lam, mu)
    return None


def suite_characters(grid):
    """Operator characters match crystal characters; characters multiply."""
    for lam in grid.shapes:
        for w in grid.group:
            dem = generate_demazure(grid.group, w, lam)
            expected = demazure_operator_word(
                grid.rs, CharPoly.monomial(lam), dem.witness.word
            )
            if character(dem.elements) != expected:
                return "character formula fails at w=%r lam=%r" % (w, lam)
    for lam in grid.shapes:
        for mu in grid.shapes:
            left = generate_crystal(grid.rs, lam)
            right = generate_crystal(grid.rs, mu)
            prod = tensor_product_elements(left.vertices, right.vertices)
            if character(prod) != character(left.vertices) * character(right.vertices):
                return "characters fail to multiply at %r,%r" % (lam, mu)
    return None


def suite_key_positivity(grid):
    """Either orientation of the condition forces a nonnegative expansion
    matching the component count."""
    for lam in grid.shapes:
        for mu in grid.shapes:
            for v in grid.group:
                for w in grid.group:
                    try:
                        report = product_report(grid.group, v, w, lam, mu)
                    except TheoremViolation as caught:
                        return "v=%r w=%r lam=%r mu=%r: %s" % (v, w, lam, mu, caught)
                    if (
                        report.condition_forward or report.condition_swapped
                    ) and not report.all_nonnegative:
                        return "negative coefficient at v=%r w=%r" % (v, w)
    return None


ALL_SUITES = (
    ("string-property", suite_string_property),
    ("reduced-word-independence", suite_reduced_word_independence),
    ("membership-criterion", suite_membership_criterion),
    ("dimension-formula", suite_dimension_formula),
    ("tensor-vs-concatenation", suite_tensor_vs_concatenation),
    ("full-tensor-partition", suite_full_tensor_partition),
    ("word-closure", suite_word_closure),
    ("decomposition-biconditional", suite_biconditional),
    ("witness-oracle", suite_witness_oracle),
    ("component-recursion", suite_recursion),
    ("lowering-product-rule", suite_product_rule),
    ("character-formula", suite_characters),
    ("key-positivity", suite_key_positivity),
)


def run_all(grids=None, suites=ALL_SUITES):
    """Run every suite over every grid; yields (suite, grid, failure_or_None)."""
    if grids is None:
        grids = default_grids()
    for name, fn in suites:
        for grid in grids:
            yield name, grid, fn(grid)
