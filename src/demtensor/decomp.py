"""Tensor products of Demazure crystals and their decomposition.

The driving question: when does every connected component of a product of two
Demazure crystals look like a Demazure crystal again?  The answer is decided
by a finite group-theoretic condition (`condition_check`), and under it the
components are named explicitly: each highest weight element sits over a
dominant path pi, the component of the pair carries the witness u(pi, v)
obtained by folding a reduced word over the base witness w(pi) with the
0-Hecke product, and the base witness itself comes out of a recursion over
the stabilizer intervals of lam + pi(t) (`path_witness`).  An isomorphism
search (`path_witness_by_search`) provides an independent oracle for the
same element, and `decompose` certifies every verdict structurally.
"""

from functools import lru_cache
from math import lcm

from .cartan import vadd
from .crystal import (
    TensorElement,
    generate_crystal,
    element_sort_key,
    emax,
    eps,
    f_op,
    f_power,
    f_string_closure,
    graph_on,
    induced_component,
    is_isomorphic,
    reflection_lift,
    tensor_product_elements,
    unique_top,
    weight_of,
)
from .demazure import check_string_property, generate_demazure
from .lspath import straight_path


class TheoremViolation(Exception):
    """A structural, positivity or counting identity failed on concrete data."""


class OracleMismatch(Exception):
    """The interval recursion and the isomorphism search disagreed."""


class NoDemazureMatch(Exception):
    """A highest-component search found no matching Demazure crystal."""


# -- product sets and components ------------------------------------------------


def tensor_demazure(group, v, w, lam, mu):
    """All pairs from the two Demazure crystals, as a frozenset."""
    left = generate_demazure(group, v, lam)
    right = generate_demazure(group, w, mu)
    return tensor_product_elements(left.elements, right.elements)


def dominant_paths(group, w, mu, lam):
    """Paths of the right factor that stay dominant after shifting by lam.

    These index the connected components; the order is the canonical one.
    """
    right = generate_demazure(group, w, mu)
    out = [pi for pi in right if pi.is_dominant_for(lam)]
    out.sort(key=element_sort_key)
    return out


class _ProductMembers:
    """Membership in B_v(lam) (x) B_w(mu), tested factor by factor."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __contains__(self, pair):
        return pair.left in self.left and pair.right in self.right


def component(group, pi, v, w, lam, mu):
    """Connected component of the product through the pair (top path, pi).

    Membership in the product is tested on the two cached Demazure
    crystals, so the product set itself is never built.
    """
    members = _ProductMembers(
        generate_demazure(group, v, lam).elements, generate_demazure(group, w, mu).elements
    )
    seed = TensorElement(straight_path(group.rs, lam), pi)
    if seed not in members:
        raise ValueError("pi is not an element of the right Demazure factor")
    return induced_component(group.rs, seed, members)


@lru_cache(maxsize=None)
def full_tensor_graph(rs, lam, mu):
    """The product of the two full crystals with its induced (complete) graph."""
    left = generate_crystal(rs, lam)
    right = generate_crystal(rs, mu)
    return graph_on(rs, tensor_product_elements(left.vertices, right.vertices))


# -- the decomposition condition ---------------------------------------------------


def condition_check(group, v, w, lam, mu):
    """Is the minimal representative of v modulo the stabilizer of lam inside
    the left-descent parabolic of the maximal representative of w modulo the
    stabilizer of mu?
    """
    vfloor = group.coset_min_weight(v, lam)
    wceil = group.coset_max_weight(w, mu)
    return vfloor in group.descent_subgroup(wceil)


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


def _orbit_transport(group, mu, target):
    """Some group element sending mu to the orbit point target."""
    for u in group.elements:
        if group.apply(u, mu) == target:
            return u
    raise ValueError("%r is not in the orbit of %r" % (target, mu))


def path_witness(group, pi, w, mu, lam):
    """The Weyl element whose Demazure crystal matches the component of
    (top path of shape lam, pi) inside the product with the crystal of w.

    Recursion over the stabilizer intervals: seed with the identity, fold in
    the Bruhat-maximal coset representative interval by interval from the
    right, and finish with the two-step maximization over the first interval
    that keeps the initial direction of pi below w modulo the stabilizer
    of mu.
    """
    Js = stabilizer_intervals(group, pi, lam)
    q = len(Js)
    wj = group.identity
    for k in range(q, 1, -1):
        wj = group.coset_bruhat_max(group.parabolic(Js[k - 1]), wj)
    first = group.parabolic(Js[0])
    tau1 = group.coset_min_weight(
        _orbit_transport(group, mu, pi.initial_direction()), mu
    )
    wfloor = group.coset_min_weight(w, mu)
    admissible = [
        u
        for u in first
        if group.bruhat_leq(group.coset_min_weight(group.multiply(u, tau1), mu), wfloor)
    ]
    u1 = group.bruhat_max(admissible)
    final = {group.multiply(u, wj) for u in first if group.bruhat_leq(u, u1)}
    return group.bruhat_max(final)


def demazure_matches(group, comp, nu):
    """The minimal coset representatives x whose Demazure crystal B_x(nu) is
    isomorphic to the component.

    Isomorphic crystals have the same size, so only the crystals with the
    component's size go to `is_isomorphic`, which checks the unique top of
    both sides.  When no crystal has that size, the component's unique top
    is checked here instead.
    """
    rs = group.rs
    reps = group.minimal_coset_reps(group.stabilizer_indices(nu))
    crystals = [(x, generate_demazure(group, x, nu)) for x in reps]
    candidates = [(x, crystal) for x, crystal in crystals if len(crystal) == len(comp)]
    if not candidates:
        unique_top(rs, comp)
    return [x for x, crystal in candidates if is_isomorphic(rs, comp, crystal.elements)]


def path_witness_by_search(group, pi, w, mu, lam):
    """Independent oracle: identify the component of (top, pi) by direct
    isomorphism search over the minimal coset representatives."""
    comp = component(group, pi, group.identity, w, lam, mu)
    matches = demazure_matches(group, comp, vadd(lam, weight_of(pi)))
    if len(matches) != 1:
        raise NoDemazureMatch(
            "component of %r matched %d Demazure crystals" % (pi, len(matches))
        )
    return matches[0]


def checked_path_witness(group, pi, w, mu, lam):
    """The interval-recursion witness, verified against the search oracle."""
    witness = path_witness(group, pi, w, mu, lam)
    nu = vadd(lam, weight_of(pi))
    normalized = group.coset_min_weight(witness, nu)
    oracle = path_witness_by_search(group, pi, w, mu, lam)
    if normalized != oracle:
        raise OracleMismatch(
            "interval recursion gave %r but the isomorphism search gave %r on %r"
            % (witness, oracle, pi)
        )
    return witness


# -- the lifted witness of a component ---------------------------------------------


def demazure_product(group, word, start):
    """Fold a word over `start` right to left, keeping only length increases."""
    u = start
    for i in reversed(word):
        su = group.multiply(group.simple(i), u)
        if group.length(su) > group.length(u):
            u = su
    return u


def lifted_witness(group, pi, v, w, lam, mu, word=None, oracle=False):
    """The witness u(pi, v) of the component of (top, pi) in the product.

    Defined when the decomposition condition holds; `word` may fix a
    particular reduced word of the minimal representative of v.
    """
    vfloor = group.coset_min_weight(v, lam)
    if vfloor not in group.descent_subgroup(group.coset_max_weight(w, mu)):
        raise ValueError("decomposition condition fails; the witness is undefined")
    if word is None:
        word = vfloor.word
    else:
        word = tuple(word)
        if group.from_word(word) != vfloor or len(word) != group.length(vfloor):
            raise ValueError("word %r is not a reduced word of %r" % (word, vfloor))
    if oracle:
        base = checked_path_witness(group, pi, w, mu, lam)
    else:
        base = path_witness(group, pi, w, mu, lam)
    return demazure_product(group, word, base)


# -- full decomposition reports -----------------------------------------------------


class DecompositionEntry:
    """One component: its indexing path, elements, and certified verdict."""

    __slots__ = (
        "pi",
        "elements",
        "shifted_shape",
        "demazure",
        "witness",
        "expected_witness",
        "string_violation",
    )

    def __init__(self, pi, elements, shifted_shape, demazure, witness,
                 expected_witness, string_violation):
        self.pi = pi
        self.elements = elements
        self.shifted_shape = shifted_shape
        self.demazure = demazure
        self.witness = witness
        self.expected_witness = expected_witness
        self.string_violation = string_violation


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

    Every component is tested for isomorphism with the Demazure crystals of
    the matching highest weight; a failed search is certified by a string
    property violation in the ambient full product, which is built only
    then.  The components must be disjoint with sizes adding up to
    |B_v(lam)| * |B_w(mu)|, so they cover the product without the product
    set being built.  The biconditional between the group condition and
    all-verdicts-positive is enforced, and under the condition the verdict
    must agree with the lifted witness.
    """
    rs = group.rs
    if not (rs.is_dominant(lam) and rs.is_dominant(mu)):
        raise ValueError("shapes must be dominant")
    cond = condition_check(group, v, w, lam, mu)
    entries = []
    covered = set()
    for pi in dominant_paths(group, w, mu, lam):
        comp = component(group, pi, v, w, lam, mu)
        if not covered.isdisjoint(comp):
            raise TheoremViolation("components indexed by dominant paths overlap")
        covered |= comp
        nu = vadd(lam, weight_of(pi))
        matches = demazure_matches(group, comp, nu)
        if len(matches) > 1:
            raise AssertionError("distinct Demazure crystals cannot both match")
        expected = None
        if cond:
            u = lifted_witness(group, pi, v, w, lam, mu, oracle=oracle)
            expected = group.coset_min_weight(u, nu)
        if matches:
            witness = matches[0]
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
            violation = check_string_property(comp, full_tensor_graph(rs, lam, mu))
            entries.append(
                DecompositionEntry(pi, comp, nu, False, None, expected, violation)
            )
    # disjoint components inside the product cover it when their sizes add up
    product_size = len(generate_demazure(group, v, lam)) * len(generate_demazure(group, w, mu))
    if len(covered) != product_size:
        raise TheoremViolation("dominant-path components do not cover the product")
    if cond != all(entry.demazure for entry in entries):
        raise TheoremViolation(
            "decomposition condition and component verdicts disagree"
        )
    return DecompositionReport(group, v, w, lam, mu, cond, entries)


# -- word closures of products -------------------------------------------------------


def closure_product(group, word, w, lam, mu):
    """Close (top of lam) x (crystal of w, mu) under lowering strings of a word."""
    right = generate_demazure(group, w, mu)
    top = straight_path(group.rs, lam)
    current = {TensorElement(top, b) for b in right.elements}
    for i in reversed(word):
        current = f_string_closure(current, i)
    return frozenset(current)


# -- the recursion formula -------------------------------------------------------------


def recursive_component(group, pi, v, i, w, lam, mu):
    """Grow the component of (top, pi) from v to s_i v without a fresh search.

    Close the component under the i-lowering strings, then remove the pairs
    whose right factor has been lowered out of the right Demazure crystal;
    those are exactly the fully lowered left factors against the escaped
    lowerings of the right factors.  The result is asserted against the
    directly computed component.
    """
    rs = group.rs
    si = group.simple(i)
    if group.length(group.multiply(si, v)) <= group.length(v):
        raise ValueError("the color must increase the length of v")
    comp = component(group, pi, v, w, lam, mu)
    grown = f_string_closure(comp, i)
    right = generate_demazure(group, w, mu)
    removed = set()
    for pair in comp:
        p1, p2 = pair.left, pair.right
        if eps(p1, i) != 0:
            continue
        fp2 = f_op(p2, i)
        if fp2 is None or fp2 in right:
            continue
        left = f_power(p1, i, rs.pairing(weight_of(p1), i))
        bound = rs.pairing(weight_of(p2), i)
        for b in range(1, bound + 1):
            lowered = f_power(p2, i, b)
            if lowered is None:
                raise AssertionError("f_%d^%d vanishes on %r within its string" % (i, b, p2))
            removed.add(TensorElement(left, lowered))
    result = frozenset(grown - removed)
    expected = component(group, pi, group.multiply(si, v), w, lam, mu)
    if result != expected:
        raise TheoremViolation(
            "recursion formula disagrees with the direct component on %r" % (pi,)
        )
    return result


# -- the product rule for lowering closures ----------------------------------------------


class LeibnizResult:
    __slots__ = ("lhs", "first", "second", "equal", "disjoint")

    def __init__(self, lhs, first, second):
        self.lhs = lhs
        self.first = first
        self.second = second
        self.disjoint = not (first & second)
        self.equal = lhs == (first | second)


def leibniz_check(group, v, w, lam, mu, i):
    """Both sides of the product rule for the i-lowering closure.

    Closing the whole product under the i-strings equals the product with
    the left factor grown, plus the reflected tops of the left factor
    against the freshly grown part of the right factor; the two parts are
    disjoint.
    """
    si = group.simple(i)
    if group.length(group.multiply(si, v)) <= group.length(v):
        raise ValueError("the color must increase the length of v")
    left = generate_demazure(group, v, lam)
    right = generate_demazure(group, w, mu)
    prod = tensor_product_elements(left.elements, right.elements)
    lhs = frozenset(f_string_closure(prod, i))
    grown_left = generate_demazure(group, group.multiply(si, v), lam)
    first = tensor_product_elements(grown_left.elements, right.elements)
    lifted_tops = {reflection_lift(emax(b, i), i) for b in left.elements}
    grown_right = generate_demazure(group, group.multiply(si, w), mu)
    fresh_right = grown_right.elements - right.elements
    second = tensor_product_elements(lifted_tops, fresh_right)
    return LeibnizResult(lhs, first, second)
