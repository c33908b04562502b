"""Tensor products of Demazure crystals and their decomposition.

The driving question: when does every connected component of a product of two
Demazure crystals look like a Demazure crystal again?  The answer is decided
by a finite group-theoretic condition (`condition_check`), and under it the
components are named explicitly: each highest weight element sits over a
dominant path pi, the component of the pair carries the witness u(pi, v)
obtained by folding a reduced word over the base witness w(pi) with the
0-Hecke product, and the base witness itself comes out of a recursion over
the stabilizer intervals of lam + pi(t) (`path_witness`).  `decompose`
certifies every verdict structurally, and it is the one place that
certifies witnesses: at v = e the condition holds and u(pi, e) is the base
witness, so `decompose` at v = e compares every base witness of
b_lam (x) B_w(mu) with a test that reads only weights and closures.  That
is the witness oracle, which `oracle=True` runs first.  `decompose` is a
prologue, the refusal of oversized input and the oracle, before a private
certification of a labelled product (`_certify`); `verify` certifies the
products it has labelled for its other checks with that alone.

A component can match one Demazure crystal only: B_x(nu) has character
key(x nu), keys are unitriangular (`keypoly._check_unitriangular`), so the
component's top-ranked weight x nu names the one B_x(nu) `demazure_match`
tests.  That x, like the recursion's transport of the initial direction, is
the minimal coset representative `lspath.dominant_walk` returns.  The test
runs inside the product: the full component through a highest weight pair
of weight nu is B(nu), so the component is B_x(nu) exactly when it is the
closure of its top pair under the lowering strings along x's word.  No
B(nu) is built for it; `verify` checks that each component of
B(lam) (x) B(mu) is the LS-path B(nu).

The witness work is memoized by what it depends on.  The recursion sees w
only through its minimal representative modulo the stabilizer of mu, so
`path_witness` is cached by (pi, that representative, mu, lam).  The word
that lifts a base witness to u(pi, v) is computed once per decomposition
(`lift_word`), then applied to each dominant path (`lift`).

Everything `decompose` computes depends on v and w only through the
cosets v W_lam and w W_mu.  It keeps no memo of its own, so a component
lives as long as its report; `verify` meets each product once by sweeping
minimal coset representatives, and certifies it once.

The product B_v(lam) (x) B_w(mu) is never built: a pair is the integer code
a * |B(mu)| + b of its ids in the compiled crystals, and membership is
tested factor by factor against the two Demazure id sets.  Components,
isomorphism certificates, the recursion and the product rule run on these
codes; `TensorElement`s are decoded only for the values returned.  Every
closure here is `crystal.lower_closure`: the test of a component along
x's word, the word closure of a product (`closure_product`), and the
i-closures of the recursion formula and the product rule.

`decompose` labels every component of its product in one pass
(`crystal.components_of`): the product is closed under every e_i, each
component has one highest weight pair, and each pair walks up raising steps
to it.  The pass checks the two premises of the closure test, that every
raising step from the product lands in the product and in the same
component, as explicit raises, and hands each component over with its top,
so that `_closure_match` decides it without scanning it again.  Only the
rows of the left factor's ids are filled, and a pair's weight is added from
its factors' weights once per distinct pair met.  The recursion formula
reads its two components off the same labels (`_labelled`), one pass per
product: `recursive_component` labels the products of v and s_i v, and
`verify` labels each product once per (lam, mu, w) loop and hands the
labelled products to the same step (`_recursion_step`) and to `_certify`.
`component` finds one component by a search from its pair, an
independent computation of the same sets.
"""

from functools import lru_cache
from math import lcm

from .cartan import vadd
from .crystal import (
    MultipleHighestWeights,
    PairBox,
    Subset,
    _refuse_oversized_product,
    compiled_subset,
    components_of,
    induced_component,
    lower_closure,
    tensor_space,
    weight_of,
)
from .demazure import check_string_property, generate_demazure
from .lspath import dominant_walk


class TheoremViolation(Exception):
    """A structural, positivity or counting identity failed on concrete data."""


class NoDemazureMatch(Exception):
    """A highest-component search found no matching Demazure crystal."""


# -- product sets and components ------------------------------------------------


def dominant_paths(group, w, mu, lam):
    """Paths of the right factor that stay dominant after shifting by lam.

    These index the connected components; the order is the canonical one.
    B_w(mu) depends on w only through its minimal representative modulo the
    stabilizer of mu, so the scan is memoized by (that representative, mu,
    lam), the key of `path_witness`; every call gets a new list.
    """
    return list(_dominant_paths(group, group.coset_min_weight(w, mu), tuple(mu), tuple(lam)))


@lru_cache(maxsize=None)
def _dominant_paths(group, wfloor, mu, lam):
    return tuple(pi for pi in generate_demazure(group, wfloor, mu) if pi.is_dominant_for(lam))


def _product(group, v, w, lam, mu):
    """B_v(lam) (x) B_w(mu) as a Subset of pair codes, tested factor by factor."""
    left = generate_demazure(group, v, lam).subset
    right = generate_demazure(group, w, mu).subset
    space = tensor_space(left.space, right.space)
    return Subset(space, PairBox(left.ids, right.ids, space.n))


def _pair_code(product, pi):
    """The pair code of (top path, pi) in the product."""
    space = product.space
    b = space.right.index.get(pi, -1)
    if b < 0 or b not in product.ids.right:
        raise AssertionError("pi is not an element of the right Demazure factor")
    return space.left.top * space.n + b


def component(group, pi, v, w, lam, mu):
    """Connected component of the product through the pair (top path, pi),
    found by a search from that pair.

    Membership in the product is tested on the two cached Demazure
    crystals, so the product set itself is never built.
    """
    product = _product(group, v, w, lam, mu)
    space = product.space
    return space._decoded(induced_component(_pair_code(product, pi), product))


def _labelled(group, v, w, lam, mu):
    """The product and its components as Subsets keyed by their one top,
    from one `components_of` pass."""
    product = _product(group, v, w, lam, mu)
    return product, {comp.tops()[0]: comp for comp in components_of(product)}


def _top_component(labelled, pi):
    """The component of (top path, pi) in a `_labelled` product.  A pair
    that is not the top of a labelled component raises TheoremViolation."""
    product, tops = labelled
    comp = tops.get(_pair_code(product, pi))
    if comp is None:
        raise TheoremViolation("the pair of %r is not the top of a labelled component" % (pi,))
    return comp


# -- the decomposition condition ---------------------------------------------------


def condition_check(group, v, w, lam, mu):
    """Is the minimal representative of v modulo the stabilizer of lam inside
    the left-descent parabolic of the maximal representative of w modulo the
    stabilizer of mu?  An element is in W_I when its reduced word's letters
    are, so the group answers it on element indices and the two weights'
    stabilizer masks: one walk down to vfloor, one up to wceil, and one mask
    operation, no letter of vfloor's support outside the left-descent mask
    of wceil.
    """
    return group._decomposition_condition(v, w, lam, mu)


# -- the base witness of a dominant path ----------------------------------------------


def stabilizer_intervals(group, pi, lam):
    """Stabilizer generator sets along the shifted path, minimally merged.

    The unit interval splits into finitely many pieces on which the
    reflection stabilizer of lam + pi(t) is constant.  On a segment each
    coordinate of lam + pi(t) is affine: one with zero slope is zero on the
    whole open segment or nowhere on it, any other one vanishes at one
    time at most.  So the pieces are the breakpoints, the interior zeros
    and the open spans between them, read in that order and merged where
    equal neighbours meet.  Returned as the ordered tuple of index sets.
    Everything is in ticks: den * (lam + pi(t)) at the breakpoints is
    lam * den plus the path's marks.
    """
    n = group.rs.rank
    den, ticks = pi.den, pi.ticks
    shifted = [lam[k % n] * den + m for k, m in enumerate(pi.marks)]

    def zeros(k):
        return frozenset(c + 1 for c in range(n) if shifted[k * n + c] == 0)

    fine = [zeros(0)]
    for k, d in enumerate(pi.directions):
        start = shifted[k * n:(k + 1) * n]
        length = ticks[k + 1] - ticks[k]
        flat = frozenset(c + 1 for c in range(n) if d[c] == 0 and start[c] == 0)
        # coordinate c vanishes num / q ticks into the segment
        crossings = []
        for c in range(n):
            if d[c]:
                num, q = (-start[c], d[c]) if d[c] > 0 else (start[c], -d[c])
                if 0 < num < q * length:
                    crossings.append((num, q, c + 1))
        common = lcm(*(q for _, q, _ in crossings))
        at = {}
        for num, q, c in crossings:
            at.setdefault(num * (common // q), set()).add(c)
        for time in sorted(at):
            fine.append(flat)
            fine.append(flat | at[time])
        fine.append(flat)
        fine.append(zeros(k + 1))
    merged = []
    for J in fine:
        if not merged or merged[-1] != J:
            merged.append(J)
    return tuple(merged)


def path_witness(group, pi, w, mu, lam):
    """The Weyl element whose Demazure crystal matches the component of
    (top path of shape lam, pi) inside the product with the crystal of w.

    Only the minimal representative of w modulo the stabilizer of mu enters
    the recursion, so it is memoized by (pi, that representative, mu, lam)
    and shared by every w of the coset and every v of the left factor.
    """
    mu, lam = tuple(mu), tuple(lam)
    return _interval_recursion(group, pi, group.coset_min_weight(w, mu), mu, lam)


@lru_cache(maxsize=None)
def _interval_recursion(group, pi, wfloor, mu, lam):
    """Recursion over the stabilizer intervals: seed with the identity, fold
    in the Bruhat-maximal coset representative interval by interval from the
    right, and finish over the first interval: u1 is the Bruhat maximum of
    its elements that keep the initial direction of pi below wfloor modulo
    the stabilizer of mu, and the witness is the maximum of {u wj : u <= u1},
    which is the Demazure product u1 * wj of the 0-Hecke monoid
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4; Knutson-Miller,
    Adv. Math. 2004), one walk along u1's word.

    The identity is admissible whenever pi lies in B_w(mu), so an empty
    admissible set is an internal fault, not malformed input.
    """
    Js = stabilizer_intervals(group, pi, lam)
    q = len(Js)
    wj = group.identity
    for k in range(q, 1, -1):
        wj = group.coset_bruhat_max(Js[k - 1], wj)
    first = group.parabolic(Js[0])
    shape, tau1 = dominant_walk(group, pi.initial_direction())
    if shape != mu:
        raise AssertionError("%r is not in the orbit of %r" % (pi.initial_direction(), mu))
    admissible = [
        u
        for u in first
        if group.bruhat_leq(group.coset_min_weight(group.multiply(u, tau1), mu), wfloor)
    ]
    if not admissible:
        raise AssertionError("no admissible element below %r for %r" % (wfloor, pi))
    u1 = group.bruhat_max(admissible)
    return demazure_product(group, u1.word, wj)


def demazure_match(group, comp, nu):
    """The minimal coset representative x with B_x(nu) isomorphic to the
    component (a `Subset` or a set of crystal elements), or None.

    Two premises are checked first, each an AssertionError: the
    component's unique top t has no raising step at all, and every raising
    step from the component lands in it or at the formal zero.  Components
    of a product of Demazure crystals meet both, since Demazure crystals
    are closed under every e_i and so is their product.  `_closure_match`
    then decides the candidate.
    """
    comp = compiled_subset(comp)
    tops = comp.tops()
    if len(tops) != 1:
        raise MultipleHighestWeights(
            "expected a unique highest weight vertex, got %d" % len(tops)
        )
    space, ids, top = comp.space, comp.ids, tops[0]
    rows, n, fill = space._rows, space.n, space._row
    a, b = divmod(top, n)
    row = rows[a] or fill(a)
    if max(row[k][b] for k in range(1, len(row), 2)) >= 0:
        raise AssertionError(
            "the top %r of the component is not a highest weight element" % (space._decode(top),)
        )
    for c in ids:
        a, b = c // n, c % n
        row = rows[a] or fill(a)
        for k in range(1, len(row), 2):
            y = row[k][b]
            if y >= 0 and y not in ids:
                raise AssertionError(
                    "a raising step leaves the component at %r" % (space._decode(c),)
                )
    return _closure_match(group, comp, nu)


def _closure_match(group, comp, nu):
    """`demazure_match` on a Subset whose one top and closure under raising
    are known.

    Keys are unitriangular (`keypoly._check_unitriangular`): x nu is the one
    weight of top rank in B_x(nu), and in the orbit of nu that rank is the
    length of the minimal representative u that `dominant_walk` gives.
    Isomorphisms keep weights, so only a weight alone at the top rank of the
    component names a candidate x; without one, the answer is None.

    The candidate is decided inside the component's own space, with no
    B(nu) built.  The top t is a highest weight element of weight nu (else
    None), the full component through t is B(nu) (Kashiwara, Duke Math. J.
    1991), and its closure K under the lowering strings along x's word,
    read right to left, is the image of B_x(nu).  An isomorphism of B_x(nu)
    onto the component and the isomorphism onto K both send the top to t
    and commute with the raising arrows inside B_x(nu), which reach every
    element from the top, so they are equal: the component is B_x(nu)
    exactly when it equals K.  `lower_closure` grows K inside the
    component and stops at the first code outside it.
    """
    space, ids, top = comp.space, comp.ids, comp.tops()[0]
    if space._weight(top) != nu:
        return None
    ranked = {}
    for y in space._weights_of(ids):
        shape, u = dominant_walk(group, y)
        if shape == nu:
            ranked.setdefault(group.length(u), []).append(u)
    candidates = ranked[max(ranked)] if ranked else []
    if len(candidates) != 1:
        return None
    x = candidates[0]
    closure = lower_closure(space, (top,), x.word, within=ids)
    return x if closure == ids else None


def path_witness_by_search(group, pi, w, mu, lam):
    """The component of (top, pi) in b_lam (x) B_w(mu) by `demazure_match`,
    which reads weights and closes the top pair along a word inside the
    product, never the recursion.

    b_lam is the one path of B_e(lam), so the product has |B_w(mu)|
    pairs; it is labelled by one `components_of` pass.  A pair that is not
    a labelled top raises TheoremViolation.
    """
    comp = _top_component(_labelled(group, group.identity, w, lam, mu), pi)
    match = demazure_match(group, comp, vadd(lam, weight_of(pi)))
    if match is None:
        raise NoDemazureMatch("component of %r matched no Demazure crystal" % (pi,))
    return match


# -- the lifted witness of a component ---------------------------------------------


def demazure_product(group, word, start):
    """Fold a word over `start` right to left, keeping only length increases."""
    u = start
    for i in reversed(word):
        if not group._left_descent_mask(u) & 1 << (i - 1):
            u = group.multiply(group.simple(i), u)
    return u


def lift_word(group, v, w, lam, mu, word=None):
    """The word that lifts every base witness of the product to u(pi, v).

    It is a reduced word of the minimal representative of v modulo the
    stabilizer of lam, `word` if given; it depends on the product alone, so
    callers that lift many paths compute it once.  Raises ValueError when
    the decomposition condition fails or `word` is not such a reduced word.
    """
    if not condition_check(group, v, w, lam, mu):
        raise ValueError("decomposition condition fails; the witness is undefined")
    vfloor = group.coset_min_weight(v, lam)
    if word is None:
        return vfloor.word
    word = tuple(word)
    if group.from_word(word) != vfloor or len(word) != group.length(vfloor):
        raise ValueError("word %r is not a reduced word of %r" % (word, vfloor))
    return word


def lift(group, word, pi, w, mu, lam):
    """The Demazure product of a `lift_word` over the base witness of pi."""
    return demazure_product(group, word, path_witness(group, pi, w, mu, lam))


def lifted_witness(group, pi, v, w, lam, mu, word=None, oracle=False):
    """The witness u(pi, v) of the component of (top, pi) in the product.

    Defined when the decomposition condition holds; `word` may fix a
    particular reduced word of the minimal representative of v.  With
    `oracle`, `decompose` at v = e first certifies every base witness of
    b_lam (x) B_w(mu) against its component.
    """
    word = lift_word(group, v, w, lam, mu, word)
    if oracle:
        decompose(group, group.identity, w, lam, mu)
    return lift(group, word, pi, w, mu, lam)


# -- full decomposition reports -----------------------------------------------------


class DecompositionEntry:
    """One component: its indexing path, elements, and certified verdict.

    `component` is the Subset of pair codes; `elements` are its
    `TensorElement`s, decoded by the subset on first use.
    """

    __slots__ = (
        "pi",
        "component",
        "shifted_shape",
        "demazure",
        "witness",
        "expected_witness",
        "string_violation",
    )

    def __init__(self, pi, component, shifted_shape, demazure, witness,
                 expected_witness, string_violation):
        self.pi = pi
        self.component = component
        self.shifted_shape = shifted_shape
        self.demazure = demazure
        self.witness = witness
        self.expected_witness = expected_witness
        self.string_violation = string_violation

    @property
    def elements(self):
        return self.component.elements()


class DecompositionReport:
    """All components of a product of two Demazure crystals, with verdicts."""

    __slots__ = ("group", "v", "w", "lam", "mu", "condition_holds", "entries")

    def __init__(self, group, v, w, lam, mu, condition_holds, entries):
        self.group = group
        self.v = v
        self.w = w
        self.lam = lam
        self.mu = mu
        self.condition_holds = condition_holds
        self.entries = entries

    def summands(self):
        """The (witness word, shifted shape) pairs of the Demazure verdicts."""
        return [
            (entry.witness.word, entry.shifted_shape)
            for entry in self.entries
            if entry.demazure
        ]


def decompose(group, v, w, lam, mu, oracle=False):
    """Split the product into components and certify each verdict.

    One pass of `components_of` labels every component of the product by
    its top, walking raising steps on pair codes, and checks as explicit
    raises that every raising step from the product lands in the product
    and in the same component.  Each dominant path pi must name the top
    (top path, pi) of exactly one component and every component must be
    named, so the dominant paths index the components and the product set
    is never built.  Every component is tested against the one Demazure
    crystal that `demazure_match` names, by closing its top pair along
    that crystal's word inside the product; a failed test is certified by
    an i-string through the component that meets it in more than its top
    but not in full.  The biconditional between the group condition and
    all-verdicts-positive is enforced, and under the condition the verdict
    must agree with the lifted witness.  Shapes that are not dominant and a
    pair space over `PAIR_SPACE_LIMIT` are refused before any crystal is
    built.

    At v = e the condition holds, the lift word is empty and the lifted
    witness is the base witness, so this check is the witness oracle.
    With `oracle`, a call whose lift word is not empty first runs it:
    `decompose` at v = e certifies every base witness of
    b_lam (x) B_w(mu) against its component.
    """
    _refuse_oversized_product(group.rs, lam, mu)
    if oracle and condition_check(group, v, w, lam, mu) and lift_word(group, v, w, lam, mu):
        decompose(group, group.identity, w, lam, mu)
    return _certify(group, v, w, lam, mu, _labelled(group, v, w, lam, mu))


def _certify(group, v, w, lam, mu, labelled):
    """`decompose` on the `_labelled` product of v, past its refusal and
    its oracle: the verdicts, their certificates and the biconditional,
    each failure a TheoremViolation.  `verify` hands it the product it
    labelled for its other checks."""
    cond = condition_check(group, v, w, lam, mu)
    word = lift_word(group, v, w, lam, mu) if cond else None
    product, components = labelled
    entries = []
    named = set()
    for pi in dominant_paths(group, w, mu, lam):
        top = _pair_code(product, pi)
        comp = components.get(top)
        if comp is None:
            raise TheoremViolation("the pair of %r is not the top of a component" % (pi,))
        if top in named:
            raise TheoremViolation("components indexed by dominant paths overlap")
        named.add(top)
        nu = vadd(lam, weight_of(pi))
        witness = _closure_match(group, comp, nu)
        expected = None
        if cond:
            u = lift(group, word, pi, w, mu, lam)
            expected = group.coset_min_weight(u, nu)
        if witness is not None:
            if cond and witness != expected:
                raise TheoremViolation(
                    "component of %r is the crystal of %r, expected %r"
                    % (pi, witness, expected)
                )
            entries.append(
                DecompositionEntry(pi, comp, nu, True, witness, expected, None)
            )
        else:
            if cond:
                raise TheoremViolation(
                    "condition holds but the component of %r is not Demazure" % (pi,)
                )
            violation = check_string_property(comp)
            entries.append(
                DecompositionEntry(pi, comp, nu, False, None, expected, violation)
            )
    if len(named) != len(components):
        raise TheoremViolation("dominant-path components do not cover the product")
    if cond != all(entry.demazure for entry in entries):
        raise TheoremViolation(
            "decomposition condition and component verdicts disagree"
        )
    return DecompositionReport(group, v, w, lam, mu, cond, entries)


# -- word closures of products -------------------------------------------------------


def closure_product(group, word, w, lam, mu):
    """The closure of (top of lam) x B_w(mu) under the lowering strings of
    the word, read right to left, as a Subset of the pair codes of
    B(lam) (x) B(mu)."""
    seeds = _product(group, group.identity, w, lam, mu)
    return Subset(seeds.space, lower_closure(seeds.space, seeds.ids, word))


# -- the recursion formula -------------------------------------------------------------


def _f_power(table, x, m):
    """m steps down a string in an f array; -1 once it runs off the end."""
    for _ in range(m):
        if x < 0:
            break
        x = table[x]
    return x


def recursive_component(group, pi, v, i, w, lam, mu):
    """Grow the component of (top, pi) from v to s_i v without a fresh
    search and compare it with the direct component (`_recursion_step`),
    labelling the products of v and s_i v once each."""
    if group._left_descent_mask(v) & 1 << (i - 1):
        raise ValueError("the color must increase the length of v")
    up = group.multiply(group.simple(i), v)
    return _recursion_step(
        group, pi, i, _labelled(group, v, w, lam, mu), _labelled(group, up, w, lam, mu)
    )


def _recursion_step(group, pi, i, here, there):
    """The recursion formula on the `_labelled` products of v and s_i v.

    Close the component of (top, pi) under the i-lowering strings, then
    remove the pairs whose right factor has been lowered out of the right
    Demazure crystal; those are exactly the fully lowered left factors
    against the escaped lowerings of the right factors, read in one walk
    down each escaped string.  The result is compared with the component
    of (top, pi) in the product of s_i v, and a difference raises
    TheoremViolation.  All of it runs on pair codes, and the grown
    component is returned as a `Subset` of them, decoded only when its
    `elements` are read.
    """
    rs = group.rs
    product = here[0]
    comp = _top_component(here, pi)
    space, right_ids = product.space, product.ids.right
    left, right, n = space.left, space.right, space.n
    fl, fr = left.f_table[i - 1], right.f_table[i - 1]
    grown = lower_closure(space, comp.ids, (i,))
    removed = set()
    for c in comp.ids:
        a, b = divmod(c, n)
        if left.eps_table[i - 1][a] != 0:
            continue
        fb = fr[b]
        if fb < 0 or fb in right_ids:
            continue
        lowered_left = _f_power(fl, a, rs.pairing(left.weights[a], i))
        if lowered_left < 0:
            raise AssertionError("f_%d vanishes on %r within its string" % (i, left.vertices[a]))
        lowered = b
        for k in range(1, rs.pairing(right.weights[b], i) + 1):
            lowered = fr[lowered]
            if lowered < 0:
                raise AssertionError(
                    "f_%d^%d vanishes on %r within its string" % (i, k, right.vertices[b])
                )
            removed.add(lowered_left * n + lowered)
    result = grown - removed
    if result != _top_component(there, pi).ids:
        raise TheoremViolation(
            "recursion formula disagrees with the direct component on %r" % (pi,)
        )
    return Subset(space, result)


# -- the product rule for lowering closures ----------------------------------------------


class LeibnizResult:
    """Both sides of the product rule with their two verdicts.

    The sides are pair codes of `space`, compared there; `lhs`, `first`
    and `second` decode them on first use.
    """

    __slots__ = ("space", "codes", "equal", "disjoint", "_decoded")

    def __init__(self, space, lhs, first, second):
        self.space = space
        self.codes = (lhs, first, second)
        self.disjoint = not (first & second)
        self.equal = lhs == (first | second)
        self._decoded = None

    def _sides(self):
        if self._decoded is None:
            self._decoded = tuple(self.space._decoded(side) for side in self.codes)
        return self._decoded

    @property
    def lhs(self):
        return self._sides()[0]

    @property
    def first(self):
        return self._sides()[1]

    @property
    def second(self):
        return self._sides()[2]


def leibniz_check(group, v, w, lam, mu, i):
    """Both sides of the product rule for the i-lowering closure.

    Closing the whole product under the i-strings (`lower_closure` along
    the word (i,)) equals the product with the left factor grown, `first`,
    plus the reflected tops of the left factor against the freshly grown
    part of the right factor, `second`.  The two parts are disjoint by
    construction: the right ids of `first` lie in B_w(mu), and those of
    `second` in B_{s_i w}(mu) minus B_w(mu).  The equality is the identity
    under test; `disjoint` is kept as a check of the construction.
    """
    rs = group.rs
    if group._left_descent_mask(v) & 1 << (i - 1):
        raise ValueError("the color must increase the length of v")
    si = group.simple(i)
    product = _product(group, v, w, lam, mu)
    space, box = product.space, product.ids
    lhs = lower_closure(space, box, (i,))
    grown_left = generate_demazure(group, group.multiply(si, v), lam).subset
    first = space.pairs(grown_left.ids, box.right)
    crystal = space.left
    e, f = crystal.e_table[i - 1], crystal.f_table[i - 1]
    lifted_tops = set()
    for a in box.left:
        while e[a] >= 0:
            a = e[a]
        # at the top of its string the pairing is phi, so the lift is f^phi
        lifted_tops.add(_f_power(f, a, rs.pairing(crystal.weights[a], i)))
    grown_right = generate_demazure(group, group.multiply(si, w), mu).subset
    second = space.pairs(lifted_tops, grown_right.ids - box.right)
    return LeibnizResult(space, lhs, first, second)
