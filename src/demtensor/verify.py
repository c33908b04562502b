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

The six suites about the product B_v(lam) (x) B_w(mu), word-closure,
decomposition-biconditional, witness-oracle, component-recursion,
lowering-product-rule and key-positivity, are checks on one instance
(`check_*`, and `decomp._certify` for the biconditional), each raising
TheoremViolation, run by one sweep over (lam, mu, w, v) (`_sweep`).  The
sweep labels each product once per (lam, mu, w) loop, with one
`components_of` pass, keeps the labels in a dict of the loop, hands them
to every check that reads them, and clears the dict once
component-recursion, the last of those, has run.  Each product is certified
once; at v = e that certification is the witness oracle, with no second
decomposition.  Each suite still reports its own first failure in its
former loop order, and an exception other than TheoremViolation that
escaped a check is raised at its suite's turn in `run_all`, so the lines
printed before it stay the same.

tensor-vs-concatenation concatenates every pair of B(lam) (x) B(mu) once
and compares the path operators on each concatenation with the
concatenation at the code the tensor rule steps to.  word-closure compares
pair codes, with no pair decoded.
"""

import itertools
from functools import lru_cache

from .cartan import UnparsableType, parse_type, root_system, vadd, weyl_dimension
from .crystal import (
    Subset,
    _path_e,
    _path_f,
    _refuse_oversized,
    _refuse_oversized_product,
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
    _certify,
    _labelled,
    _recursion_step,
    closure_product,
    condition_check,
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
    (bound + 1)^rank shapes are enumerated: by the crystal of twice its top
    shape, and by the pair space of the top shape with itself.
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
    # The largest crystal the suites build is B(lam + mu) of the top shapes,
    # and the largest pair space is their product.
    top = (bound,) * rs.rank
    _refuse_oversized(rs, (2 * bound,) * rs.rank)
    _refuse_oversized_product(rs, top, top)
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


# -- per-instance checks of a product ---------------------------------------------------
#
# Each check reads one instance, v and w minimal coset representatives
# modulo the stabilizers of lam and mu, and raises TheoremViolation on a
# failure.  The checks that read components take the `_labelled` products
# of v (`here`) and of s_i v (`there`).  The biconditional's check is the
# certification of `decompose` on the labelled product (`decomp._certify`),
# whose message the sweep puts behind the instance.


def check_word_closure(group, v, w, lam, mu):
    """Under the condition, closing the seeded product along the minimal word
    of v recovers the whole product."""
    if not condition_check(group, v, w, lam, mu):
        return
    closed = closure_product(group, v.word, w, lam, mu)
    left = generate_demazure(group, v, lam).subset
    right = generate_demazure(group, w, mu).subset
    if closed.ids != closed.space.pairs(left.ids, right.ids):
        raise TheoremViolation("closure misses the product at v=%r w=%r" % (v, w))


def check_recursion(group, v, i, w, lam, mu, here, there):
    """The recursion formula equals the direct component on every dominant
    path, for the ascent (v, i)."""
    for pi in dominant_paths(group, w, mu, lam):
        try:
            _recursion_step(group, pi, i, here, there)
        except TheoremViolation as caught:
            raise TheoremViolation(
                "v=%r i=%d w=%r lam=%r mu=%r: %s" % (v, i, w, lam, mu, caught)
            ) from None


def check_product_rule(group, v, i, w, lam, mu):
    """The lowering closure of the product splits as stated, with disjoint
    parts, for the ascent (v, i)."""
    result = leibniz_check(group, v, w, lam, mu, i)
    if not result.disjoint:
        raise TheoremViolation("overlap at v=%r w=%r i=%d lam=%r mu=%r" % (v, w, i, lam, mu))
    if not result.equal:
        raise TheoremViolation("sides differ at v=%r w=%r i=%d lam=%r mu=%r" % (v, w, i, lam, mu))


def check_key_positivity(group, v, w, lam, mu):
    """Either orientation of the condition forces a nonnegative expansion
    matching the component count."""
    try:
        report = product_report(group, v, w, lam, mu)
    except TheoremViolation as caught:
        raise TheoremViolation("v=%r w=%r lam=%r mu=%r: %s" % (v, w, lam, mu, caught)) from None
    if (report.condition_forward or report.condition_swapped) and not report.all_nonnegative:
        raise TheoremViolation("negative coefficient at v=%r w=%r" % (v, w))


# -- one sweep over the products of a grid ------------------------------------------------

_SWEPT = ("word-closure", "decomposition-biconditional", "witness-oracle",
          "component-recursion", "lowering-product-rule", "key-positivity")


def _outcome(check):
    """None when the check passes, the message of its TheoremViolation, or
    any other exception that escaped it."""
    try:
        check()
    except TheoremViolation as caught:
        return str(caught)
    except Exception as caught:
        return caught
    return None


def _named(outcome, text, *instance):
    """An outcome with its message put behind the instance it names."""
    return text % instance + outcome if isinstance(outcome, str) else outcome


def _sweep(grid, names):
    """Run the checks of the named suites over every coset pair of the grid,
    (lam, mu, w) outside v; returns each suite's first failure, its
    message or the exception that escaped, or None.

    The products of one (lam, mu, w) loop are labelled once each, on first
    use, after the refusal `decompose` makes of a pair space over the
    limit, and dropped after component-recursion, before the label-free
    checks; each is certified once, and at v = e that certification is
    the witness oracle too.  Each suite takes the
    instances of the loop in turn, up to its first failure.  Biconditional,
    word-closure and key-positivity once ran v outside w, so within a
    (lam, mu) block their first failure is the least (v, w) by index; the
    other suites ran in this order.
    """
    group, found = grid.group, dict.fromkeys(names)

    def scan(name, position, outcome_of, items):
        # positions grow along the items: stop at a failure, or at an item
        # placed behind the suite's first
        if name not in found:
            return
        for item in items:
            if found[name] is not None and position(*item) >= found[name][0]:
                return
            outcome = outcome_of(*item)
            if outcome is not None:
                found[name] = (position(*item), outcome)
                return

    for a, lam in enumerate(grid.shapes):
        vs = _coset_reps(group, lam)
        reps = [(v,) for v in vs]
        ascents = [
            (v, i, group.coset_min_weight(group.multiply(group.simple(i), v), lam))
            for v, i in _ascent_pairs(group, vs)
        ]
        for b, mu in enumerate(grid.shapes):
            if all(found.values()):
                break
            for w in _coset_reps(group, mu):
                labelled, certified = {}, {}

                def label(u):
                    if u not in labelled:
                        _refuse_oversized_product(group.rs, lam, mu)
                        labelled[u] = _labelled(group, u, w, lam, mu)
                    return labelled[u]

                def certify(v):
                    if v not in certified:
                        certified[v] = _outcome(lambda: _certify(group, v, w, lam, mu, label(v)))
                    return certified[v]

                def across(v):
                    return a, b, v.index, w.index

                def along(v, i=0, _=None):
                    return a, b, w.index, v.index, i

                scan("word-closure", across, lambda v: _outcome(
                    lambda: check_word_closure(group, v, w, lam, mu)), reps)
                # the representatives start at e
                scan("witness-oracle", along, lambda v: _named(
                    certify(v), "w=%r lam=%r mu=%r: ", w, lam, mu), reps[:1])
                scan("decomposition-biconditional", across, lambda v: _named(
                    certify(v), "v=%r w=%r lam=%r mu=%r: ", v, w, lam, mu), reps)
                scan("component-recursion", along, lambda v, i, up: _outcome(
                    lambda: check_recursion(group, v, i, w, lam, mu, label(v), label(up))), ascents)
                # no check below reads labels
                labelled.clear()
                scan("lowering-product-rule", along, lambda v, i, _: _outcome(
                    lambda: check_product_rule(group, v, i, w, lam, mu)), ascents)
                scan("key-positivity", across, lambda v: _outcome(
                    lambda: check_key_positivity(group, v, w, lam, mu)), reps)
    return {name: first and first[1] for name, first in found.items()}


def _reported(outcome):
    """A suite's result from its sweep outcome: a deferred exception is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _swept(grid, name):
    """One product-level suite on a grid: the sweep of its checks alone."""
    return _reported(_sweep(grid, (name,))[name])


# -- decomposition suites ---------------------------------------------------------------


def suite_biconditional(grid):
    """Condition == every component Demazure, over all coset pairs and shapes."""
    return _swept(grid, "decomposition-biconditional")


def suite_witness_oracle(grid):
    """Interval recursion equals the closure match on every dominant path:
    `decompose` at v = e, where the lifted witness is the base witness."""
    return _swept(grid, "witness-oracle")


def suite_word_closure(grid):
    """Under the condition, closing the seeded product along the minimal word
    of v recovers the whole product."""
    return _swept(grid, "word-closure")


def suite_recursion(grid):
    """The recursion formula equals the direct component for every ascent."""
    return _swept(grid, "component-recursion")


def suite_product_rule(grid):
    """Lowering closures of products split as stated, with disjoint parts."""
    return _swept(grid, "lowering-product-rule")


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
    return _swept(grid, "key-positivity")


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
    """Run every suite over every grid; yields (suite, grid, failure_or_None).

    The product-level suites of `suites` share one sweep per grid, run at
    the first of their turns; each reports at its own turn, and an
    exception that escaped one of its checks is raised there.
    """
    if grids is None:
        grids = default_grids()
    swept = [name for name, _ in suites if name in _SWEPT]
    sweeps = {}
    for name, fn in suites:
        for k, grid in enumerate(grids):
            if name not in _SWEPT:
                yield name, grid, fn(grid)
                continue
            if k not in sweeps:
                sweeps[k] = _sweep(grid, swept)
            yield name, grid, _reported(sweeps[k][name])
