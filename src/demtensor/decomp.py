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

The witness work is memoized by what it depends on.  The recursion sees w
only through its minimal representative modulo the stabilizer of mu, so
`path_witness` is cached by (pi, that representative, mu, lam).  The word
that lifts a base witness to u(pi, v) is computed once per decomposition
(`lift_word`), then applied to each dominant path (`lift`).

The decomposition itself is memoized by coset pair.  B_v(lam) depends on v
only through its coset v W_lam, and so does everything `decompose`
computes: the condition, both Demazure factors, the lift word and every
witness.  So its work is cached under `product_key`, the minimal
representatives of v mod W_lam and w mod W_mu with the two shapes, and a
sweep over all of W x W runs each distinct product once instead of
|W_lam| * |W_mu| times.  Every call still normalises both cosets and gets
a report of its own with the caller's v and w; the entries are shared.
The memo keeps every report it computed, components included, for the
life of the process, so a sweep holds the pair codes of every distinct
product it visits: memory traded for the repeated work.

The product B_v(lam) (x) B_w(mu) is never built: a pair is the integer code
a * |B(mu)| + b of its ids in the compiled crystals, and membership is
tested factor by factor against the two Demazure id sets.  Components,
isomorphism certificates, the recursion and the product rule run on these
codes; `TensorElement`s are decoded only for the values returned.
"""

from functools import lru_cache
from math import lcm

from .cartan import vadd
from .crystal import (
    PairBox,
    Subset,
    compiled_subset,
    generate_crystal,
    induced_component,
    is_isomorphic,
    lower_closure,
    tensor_product_elements,
    tensor_space,
    unique_top,
    weight_of,
)
from .demazure import check_string_property, generate_demazure
from .lspath import dominant_walk


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
    return [pi for pi in generate_demazure(group, w, mu) if pi.is_dominant_for(lam)]


def _product(group, v, w, lam, mu):
    """B_v(lam) (x) B_w(mu) as a Subset of pair codes, tested factor by factor."""
    left = generate_demazure(group, v, lam).subset
    right = generate_demazure(group, w, mu).subset
    space = tensor_space(left.space, right.space)
    return Subset(space, PairBox(left.ids, right.ids, space.n))


def _component_codes(product, pi):
    """Pair codes of the component of (top path, pi) inside the product."""
    space = product.space
    b = space.right.index.get(pi, -1)
    if b < 0 or b not in product.ids.right:
        raise AssertionError("pi is not an element of the right Demazure factor")
    return induced_component(space.rs, space.left.top * space.n + b, product)


def component(group, pi, v, w, lam, mu):
    """Connected component of the product through the pair (top path, pi).

    Membership in the product is tested on the two cached Demazure
    crystals, so the product set itself is never built.
    """
    product = _product(group, v, w, lam, mu)
    return product.space._decoded(_component_codes(product, pi))


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
    """The minimal group element sending mu to the orbit point target.

    `dominant_walk` walks target up to its dominant form, which must be mu;
    its word is a reduced word of the minimal coset representative.
    """
    shape, word = dominant_walk(group, target)
    if shape != tuple(mu):
        raise AssertionError("%r is not in the orbit of %r" % (target, mu))
    return group.from_word(word)


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
    right, and finish with the two-step maximization over the first interval
    that keeps the initial direction of pi below wfloor modulo the
    stabilizer of mu.

    The identity is admissible whenever pi lies in B_w(mu), so an empty
    admissible set is an internal fault, not malformed input.
    """
    Js = stabilizer_intervals(group, pi, lam)
    q = len(Js)
    wj = group.identity
    for k in range(q, 1, -1):
        wj = group.coset_bruhat_max(group.parabolic(Js[k - 1]), wj)
    first = group.parabolic(Js[0])
    tau1 = _orbit_transport(group, mu, pi.initial_direction())
    admissible = [
        u
        for u in first
        if group.bruhat_leq(group.coset_min_weight(group.multiply(u, tau1), mu), wfloor)
    ]
    if not admissible:
        raise AssertionError("no admissible element below %r for %r" % (wfloor, pi))
    u1 = group.bruhat_max(admissible)
    final = {group.multiply(u, wj) for u in first if group.bruhat_leq(u, u1)}
    return group.bruhat_max(final)


@lru_cache(maxsize=None)
def _demazure_crystals(group, nu):
    """(x, B_x(nu)) for every minimal coset representative x modulo the
    stabilizer of nu."""
    reps = group.minimal_coset_reps(group.stabilizer_indices(nu))
    return tuple((x, generate_demazure(group, x, nu)) for x in reps)


def demazure_matches(group, comp, nu):
    """The minimal coset representatives x whose Demazure crystal B_x(nu) is
    isomorphic to the component.

    Isomorphic crystals have the same size, so only the crystals with the
    component's size go to `is_isomorphic`, which checks the unique top of
    both sides.  When no crystal has that size, the component's unique top
    is checked here instead.  The component is a `Subset` of pair codes or
    a set of crystal elements.
    """
    rs = group.rs
    comp = compiled_subset(comp)
    candidates = [(x, crystal) for x, crystal in _demazure_crystals(group, nu)
                  if len(crystal) == len(comp)]
    if not candidates:
        unique_top(rs, comp)
    return [x for x, crystal in candidates if is_isomorphic(rs, comp, crystal.subset)]


def path_witness_by_search(group, pi, w, mu, lam):
    """Independent oracle: identify the component of (top, pi) by direct
    isomorphism search over the minimal coset representatives."""
    product = _product(group, group.identity, w, lam, mu)
    comp = Subset(product.space, _component_codes(product, pi))
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


def lift(group, word, pi, w, mu, lam, oracle=False):
    """The Demazure product of a `lift_word` over the base witness of pi."""
    if oracle:
        base = checked_path_witness(group, pi, w, mu, lam)
    else:
        base = path_witness(group, pi, w, mu, lam)
    return demazure_product(group, word, base)


def lifted_witness(group, pi, v, w, lam, mu, word=None, oracle=False):
    """The witness u(pi, v) of the component of (top, pi) in the product.

    Defined when the decomposition condition holds; `word` may fix a
    particular reduced word of the minimal representative of v.
    """
    return lift(group, lift_word(group, v, w, lam, mu, word), pi, w, mu, lam, oracle)


# -- full decomposition reports -----------------------------------------------------


def product_key(group, v, w, lam, mu):
    """The memo key of B_v(lam) (x) B_w(mu): (group, v mod W_lam, w mod W_mu,
    lam, mu), the cosets as minimal representatives, the shapes as tuples."""
    lam, mu = tuple(lam), tuple(mu)
    return group, group.coset_min_weight(v, lam), group.coset_min_weight(w, mu), lam, mu


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

    Every component is tested for isomorphism with the Demazure crystals of
    the matching highest weight; a failed search is certified by an i-string
    through the component that meets it in more than its top but not in
    full.  Components are searched on pair codes and decoded for the
    report.  They must be disjoint with sizes adding up to
    |B_v(lam)| * |B_w(mu)|, so they cover the product without the product
    set being built.  The biconditional between the group condition and
    all-verdicts-positive is enforced, and under the condition the verdict
    must agree with the lifted witness.

    The work runs once per `product_key` and oracle flag; the report is
    new on every call and carries the caller's v and w.
    """
    rs = group.rs
    if not (rs.is_dominant(lam) and rs.is_dominant(mu)):
        raise ValueError("shapes must be dominant")
    cond, entries = _decompose_product(*product_key(group, v, w, lam, mu), oracle)
    return DecompositionReport(group, v, w, lam, mu, cond, list(entries))


@lru_cache(maxsize=None)
def _decompose_product(group, v, w, lam, mu, oracle):
    """(condition, entries) of the product; v and w are the minimal coset
    representatives of `product_key`.  Every check of `decompose` runs here,
    and a failed one raises, so no failure is ever cached."""
    cond = condition_check(group, v, w, lam, mu)
    word = lift_word(group, v, w, lam, mu) if cond else None
    product = _product(group, v, w, lam, mu)
    entries = []
    covered = set()
    for pi in dominant_paths(group, w, mu, lam):
        comp = Subset(product.space, _component_codes(product, pi))
        if not covered.isdisjoint(comp.ids):
            raise TheoremViolation("components indexed by dominant paths overlap")
        covered |= comp.ids
        nu = vadd(lam, weight_of(pi))
        matches = demazure_matches(group, comp, nu)
        if len(matches) > 1:
            raise AssertionError("distinct Demazure crystals cannot both match")
        expected = None
        if cond:
            u = lift(group, word, pi, w, mu, lam, oracle)
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
            violation = check_string_property(comp)
            entries.append(
                DecompositionEntry(pi, comp, nu, False, None, expected, violation)
            )
    # disjoint components inside the product cover it when their sizes add up
    if len(covered) != len(product):
        raise TheoremViolation("dominant-path components do not cover the product")
    if cond != all(entry.demazure for entry in entries):
        raise TheoremViolation(
            "decomposition condition and component verdicts disagree"
        )
    return cond, tuple(entries)


# -- word closures of products -------------------------------------------------------


def closure_product(group, word, w, lam, mu):
    """Close (top of lam) x (crystal of w, mu) under lowering strings of a word."""
    right = generate_demazure(group, w, mu).subset
    left = generate_crystal(group.rs, tuple(lam))
    space = tensor_space(left, right.space)
    current = space.pairs((left.top,), right.ids)
    for i in reversed(word):
        current = lower_closure(space, current, i)
    return space._decoded(current)


# -- the recursion formula -------------------------------------------------------------


def _f_power(table, x, m):
    """m steps down a string in an f array; -1 once it runs off the end."""
    for _ in range(m):
        if x < 0:
            break
        x = table[x]
    return x


def recursive_component(group, pi, v, i, w, lam, mu):
    """Grow the component of (top, pi) from v to s_i v without a fresh search.

    Close the component under the i-lowering strings, then remove the pairs
    whose right factor has been lowered out of the right Demazure crystal;
    those are exactly the fully lowered left factors against the escaped
    lowerings of the right factors.  The result is asserted against the
    directly computed component.  All of it runs on pair codes.
    """
    rs = group.rs
    si = group.simple(i)
    if group.length(group.multiply(si, v)) <= group.length(v):
        raise ValueError("the color must increase the length of v")
    product = _product(group, v, w, lam, mu)
    space, right_ids = product.space, product.ids.right
    left, right, n = space.left, space.right, space.n
    fl, fr = left.f_table[i - 1], right.f_table[i - 1]
    comp = _component_codes(product, pi)
    grown = lower_closure(space, comp, i)
    removed = set()
    for c in comp:
        a, b = divmod(c, n)
        if left.eps_table[i - 1][a] != 0:
            continue
        fb = fr[b]
        if fb < 0 or fb in right_ids:
            continue
        lowered_left = _f_power(fl, a, rs.pairing(left.weights[a], i))
        if lowered_left < 0:
            raise AssertionError("f_%d vanishes on %r within its string" % (i, left.vertices[a]))
        for k in range(1, rs.pairing(right.weights[b], i) + 1):
            lowered = _f_power(fr, b, k)
            if lowered < 0:
                raise AssertionError(
                    "f_%d^%d vanishes on %r within its string" % (i, k, right.vertices[b])
                )
            removed.add(lowered_left * n + lowered)
    result = grown - removed
    expected = _component_codes(_product(group, group.multiply(si, v), w, lam, mu), pi)
    if result != expected:
        raise TheoremViolation(
            "recursion formula disagrees with the direct component on %r" % (pi,)
        )
    return space._decoded(result)


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

    Closing the whole product under the i-strings equals the product with
    the left factor grown, plus the reflected tops of the left factor
    against the freshly grown part of the right factor; the two parts are
    disjoint.
    """
    rs = group.rs
    si = group.simple(i)
    if group.length(group.multiply(si, v)) <= group.length(v):
        raise ValueError("the color must increase the length of v")
    left = generate_demazure(group, v, lam).subset
    right = generate_demazure(group, w, mu).subset
    space = tensor_space(left.space, right.space)
    lhs = lower_closure(space, space.pairs(left.ids, right.ids), i)
    grown_left = generate_demazure(group, group.multiply(si, v), lam).subset
    first = space.pairs(grown_left.ids, right.ids)
    crystal = left.space
    e, f = crystal.e_table[i - 1], crystal.f_table[i - 1]
    lifted_tops = set()
    for b in left.ids:
        while e[b] >= 0:
            b = e[b]
        # at the top of its string the pairing is phi, so the lift is f^phi
        lifted_tops.add(_f_power(f, b, rs.pairing(crystal.weights[b], i)))
    grown_right = generate_demazure(group, group.multiply(si, w), mu).subset
    second = space.pairs(lifted_tops, grown_right.ids - right.ids)
    return LeibnizResult(space, lhs, first, second)
