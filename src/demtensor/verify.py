"""Exhaustive verification suites over small parameter grids.

Each suite sweeps a grid (a root system with a set of dominant shapes, all
pairs of group elements where applicable) and returns None on success or a
short human-readable description of the first counterexample.  The CLI
`verify` command and the acceptance tests both drive these.

B_v(lam) depends on v only through v W_lam, and so do the condition, the
witnesses, the recursion and the product rule: the suites built on them
sweep minimal coset representatives (`_coset_reps`).  No ascent is lost,
since s_i v > v gives s_i v0 > v0 for v0 the minimal representative of
v W_lam (Bjorner-Brenti, GTM 231, ch. 2).  The membership criterion reads
w itself and sweeps all of W.  The representatives are scanned once per
group and stabilizer mask.

Each suite meets a product's facts once.  tensor-vs-concatenation
concatenates every pair of B(lam) (x) B(mu) once and compares the path
operators on each concatenation with the concatenation at the code the
tensor rule steps to.  The witness oracle is `decompose` at v = e, once
per (lam, mu, w): it labels b_lam (x) B_w(mu) once and compares every
closure match with its base witness.  The recursion formula reads its
components off one `components_of` labelling per product, kept in a dict
keyed by the minimal representative of v W_lam for one (lam, mu, w) loop
and dropped with it, so no labels outlive a suite; the formula itself
still grows the component of v by closure and removal.  word-closure
compares pair codes, with no pair decoded.
"""

import itertools
from functools import lru_cache

from .cartan import UnparsableType, parse_type, root_system, vadd, weyl_dimension
from .crystal import (
    Subset,
    _path_e,
    _path_f,
    _refuse_oversized,
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
    TheoremViolation,
    _labelled,
    _recursion_step,
    closure_product,
    condition_check,
    decompose,
    dominant_paths,
    leibniz_check,
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
    """Parse a grid string like "A2:2" (type and coordinate bound).

    The type is read by `parse_type`, which refuses an oversized Weyl group
    before its root system is built, and the grid is refused before its
    (bound + 1)^rank shapes are enumerated.
    """
    type_name, colon, bound_text = text.partition(":")
    try:
        bound = int(bound_text) if colon else 1
    except ValueError:
        raise ValueError("cannot parse grid %r" % text) from None
    try:
        rs = parse_type(type_name)
    except UnparsableType:
        raise ValueError("cannot parse grid %r" % text) from None
    if bound < 1:
        raise ValueError("grid %r has no nonzero shapes to sweep" % text)
    # The largest crystal the suites build is B(lam + mu) of the top shapes.
    _refuse_oversized(rs, (2 * bound,) * rs.rank)
    shapes = [
        coords
        for coords in itertools.product(range(bound + 1), repeat=rs.rank)
        if any(coords)
    ]
    return Grid(rs, shapes)


def _coset_reps(group, lam):
    """The minimal representatives of the cosets w W_lam, in index order:
    the elements with no right descent in the stabilizer of lam."""
    return list(_reps_by_mask(group, group._stabilizer_mask(lam)))


@lru_cache(maxsize=None)
def _reps_by_mask(group, stabilizer):
    """`_coset_reps` for a stabilizer mask, one scan of the group per mask."""
    return tuple(w for w in group if not group._right_descent_mask(w) & stabilizer)


def _coset_pairs(group, lam, mu):
    """The pairs (v, w) of minimal representatives of v W_lam and w W_mu."""
    return itertools.product(_coset_reps(group, lam), _coset_reps(group, mu))


def _ascent_pairs(group, reps):
    """The (v, i) with v in reps and the simple reflection i lengthening v on the left."""
    out = []
    for v in reps:
        descents = group._left_descent_mask(v)
        out += [(v, i) for i in range(1, group.rs.rank + 1) if not descents & 1 << (i - 1)]
    return out


def _reduced_words(group, w):
    """Every reduced word of w, in lexicographic order: s followed by each
    reduced word of s w, over the left descents s of w in increasing order."""
    if not group.length(w):
        yield ()
        return
    for s in sorted(group.left_descents(w)):
        for word in _reduced_words(group, group.multiply(group.simple(s), w)):
            yield (s,) + word


# -- structural suites -------------------------------------------------------------


def suite_string_property(grid):
    """Every Demazure crystal of the grid meets every string correctly."""
    for lam in grid.shapes:
        for w in _coset_reps(grid.group, lam):
            hit = check_string_property(generate_demazure(grid.group, w, lam))
            if hit is not None:
                return "string property fails for w=%r lam=%r color=%d" % (w, lam, hit[0])
    return None


def suite_reduced_word_independence(grid):
    """Generation from any reduced word of w produces the same element set."""
    group = grid.group
    for w in group:
        words = list(_reduced_words(group, w))
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
            raws = [concatenate(pair.left, pair.right) for pair in map(space._decode, range(len(space)))]
            for c, raw in enumerate(raws):
                steps = space._steps(c)
                for i in range(1, grid.rs.rank + 1):
                    for op, y in zip((_path_f, _path_e), steps[2 * i - 2:2 * i]):
                        if op(raw, i) != (raws[y] if y >= 0 else None):
                            return "operators disagree at %r color %d" % (space._decode(c), i)
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
                comp = induced_component(left.top * space.n + b, members)
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
    """Condition == every component Demazure, over all coset pairs and shapes."""
    for lam in grid.shapes:
        for mu in grid.shapes:
            for v, w in _coset_pairs(grid.group, lam, mu):
                try:
                    decompose(grid.group, v, w, lam, mu)
                except TheoremViolation as caught:
                    return "v=%r w=%r lam=%r mu=%r: %s" % (v, w, lam, mu, caught)
    return None


def suite_witness_oracle(grid):
    """Interval recursion equals the closure match on every dominant path:
    `decompose` at v = e, where the lifted witness is the base witness."""
    for lam in grid.shapes:
        for mu in grid.shapes:
            for w in _coset_reps(grid.group, mu):
                try:
                    decompose(grid.group, grid.group.identity, w, lam, mu)
                except TheoremViolation as caught:
                    return "w=%r lam=%r mu=%r: %s" % (w, lam, mu, caught)
    return None


def suite_word_closure(grid):
    """Under the condition, closing the seeded product along the minimal word
    of v recovers the whole product."""
    for lam in grid.shapes:
        for mu in grid.shapes:
            for v, w in _coset_pairs(grid.group, lam, mu):
                if not condition_check(grid.group, v, w, lam, mu):
                    continue
                closed = closure_product(grid.group, v.word, w, lam, mu)
                left = generate_demazure(grid.group, v, lam).subset
                right = generate_demazure(grid.group, w, mu).subset
                if closed.ids != closed.space.pairs(left.ids, right.ids):
                    return "closure misses the product at v=%r w=%r" % (v, w)
    return None


def suite_recursion(grid):
    """The recursion formula equals the direct component for every ascent."""
    group = grid.group
    for lam in grid.shapes:
        ascents = [
            (v, i, group.coset_min_weight(group.multiply(group.simple(i), v), lam))
            for v, i in _ascent_pairs(group, _coset_reps(group, lam))
        ]
        for mu in grid.shapes:
            for w in _coset_reps(group, mu):
                paths = dominant_paths(group, w, mu, lam)
                labelled = {}
                for v, i, up in ascents:
                    for u in (v, up):
                        if u not in labelled:
                            labelled[u] = _labelled(group, u, w, lam, mu)
                    for pi in paths:
                        try:
                            _recursion_step(group, pi, i, labelled[v], labelled[up])
                        except TheoremViolation as caught:
                            return "v=%r i=%d w=%r lam=%r mu=%r: %s" % (v, i, w, lam, mu, caught)
    return None


def suite_product_rule(grid):
    """Lowering closures of products split as stated, with disjoint parts."""
    for lam in grid.shapes:
        ascents = _ascent_pairs(grid.group, _coset_reps(grid.group, lam))
        for mu in grid.shapes:
            for w in _coset_reps(grid.group, mu):
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
        for w in _coset_reps(grid.group, lam):
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
            for v, w in _coset_pairs(grid.group, lam, mu):
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
