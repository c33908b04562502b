"""Key polynomials: Demazure operators, the key basis, product expansion.

A key polynomial is indexed by an arbitrary weight nu through the pair
(dominant representative, minimal coset representative moving it to nu),
which is `lspath.dominant_walk` of nu, and is realized as the character of
the corresponding Demazure crystal.  The divided-difference operators give
an independent route to the same characters.

Keys are unitriangular.  Rank a weight by the height of its dominant form
and then by the length of its minimal coset representative: key(nu) has
e^nu with coefficient 1, and every other weight of it ranks strictly lower
(a dominance-lower dominant form, or u.lam with u Bruhat-below the witness).
So products expand in the key basis by an exact integer peel: take a weight
of maximal rank from the residual, record its coefficient for its key,
subtract that multiple of the key, and repeat until the residual is zero.
Every key is checked to be unitriangular when it is built.

Ranks are memoized by (group, weight), key polynomials by their index and
the dominant walks of `lspath` by weight, so the peel ranks and walks each
weight once per process.

`product_report` is memoized by `product_key`, the pair of cosets
(v mod W_lam, w mod W_mu) with the two shapes: both key indices, both
orientations of the condition and the reconciliation depend on v and w
only through those cosets, so a sweep over W x W checks each distinct
product once.  Under it sit two memos of pure results.  The expansion
(`_key_product`) is keyed by the two key indices in `KeyIndex.sort_key`
order: key(a) * key(b) = key(b) * key(a), so both orientations of a
product share one expansion.  The count of lifted witnesses over the
dominant paths (`_counted`) is keyed by the oriented coset pair whose
condition holds, with the lifting word computed once per count.  The
checks, nonnegativity and the comparison of the count with the
expansion, run on every distinct product and are not shared.  Each call
returns a new report with its own coefficient dict; the key indices are
shared.  The memos keep every expansion and count they computed for the
life of the process, but no component: the count needs none.
"""

from functools import lru_cache

from .cartan import vadd, vsub
from .crystal import CharPoly, _refuse_oversized_product, character, weight_of
from .decomp import (
    TheoremViolation,
    condition_check,
    dominant_paths,
    lift,
    lift_word,
)
from .demazure import generate_demazure
from .lspath import dominant_walk


def demazure_operator(rs, f, i):
    """Divided-difference operator on the group algebra, term by term.

    A monomial with pairing m against the i-th simple coroot contributes the
    geometric string down to its reflection when m >= 0, nothing when
    m == -1, and minus the interior string when m <= -2.
    """
    alpha = rs.simple_roots[i - 1].fw
    out = {}

    def add(w, c):
        out[w] = out.get(w, 0) + c

    for w, c in f.terms.items():
        m = rs.pairing(w, i)
        if m >= 0:
            x = w
            for _ in range(m + 1):
                add(x, c)
                x = vsub(x, alpha)
        elif m <= -2:
            x = vadd(w, alpha)
            for _ in range(-m - 1):
                add(x, -c)
                x = vadd(x, alpha)
    return CharPoly(out)


def demazure_operator_word(rs, f, word):
    """Apply the operators of a word, rightmost letter first."""
    for i in reversed(word):
        f = demazure_operator(rs, f, i)
    return f


class KeyIndex:
    """Canonical index of a key polynomial: dominant shape plus witness."""

    __slots__ = ("shape", "witness")

    def __init__(self, shape, witness):
        self.shape = shape
        self.witness = witness

    @property
    def weight(self):
        """The indexing weight: the witness applied to the shape."""
        return self.witness.group.apply(self.witness, self.shape)

    def __eq__(self, other):
        return (
            isinstance(other, KeyIndex)
            and self.shape == other.shape
            and self.witness == other.witness
        )

    def __hash__(self):
        return hash((self.shape, self.witness))

    def sort_key(self):
        return (self.shape, self.witness.word)

    def __repr__(self):
        return "KeyIndex(shape=%r, witness=%r)" % (self.shape, self.witness)


def key_index(group, nu):
    """Normalize an arbitrary weight to its key index: its dominant walk."""
    return KeyIndex(*dominant_walk(group, nu))


@lru_cache(maxsize=None)
def _height_form(rs):
    """Positive integers h with sum(h_i x_i) a fixed positive multiple of the
    height (sum of simple-root coordinates) of every weight x: the
    coordinates of 2 rho^vee, the sum of the positive coroots, in the
    simple-coroot basis, so sum(h_i x_i) = <x, 2 rho^vee>."""
    return tuple(map(sum, zip(*(beta.cocoords for beta in rs.positive_roots))))


@lru_cache(maxsize=None)
def _height(rs, shape):
    return sum(h * x for h, x in zip(_height_form(rs), shape))


@lru_cache(maxsize=None)
def _rank(group, nu):
    """(height of the dominant form lam of nu, length of the minimal coset
    representative u with nu = u lam)."""
    shape, u = dominant_walk(group, nu)
    return (_height(group.rs, shape), group.length(u))


def _check_unitriangular(group, idx, poly):
    """The key of idx has e^{idx.weight} with coefficient 1 and every other
    weight of strictly lower rank: the premise of the peel in expand_in_keys."""
    lead = idx.weight
    top = _rank(group, lead)
    if poly.coeff(lead) != 1:
        raise AssertionError("key %r: leading coefficient %d" % (idx, poly.coeff(lead)))
    for x in poly.terms:
        if x != lead and _rank(group, x) >= top:
            raise AssertionError("key %r: weight %r does not rank below %r" % (idx, x, lead))


@lru_cache(maxsize=None)
def _key_polynomial_cached(group, shape, witness):
    dem = generate_demazure(group, witness, shape)
    poly = character(dem.elements)
    check = demazure_operator_word(group.rs, CharPoly.monomial(shape), witness.word)
    if poly != check:
        raise AssertionError(
            "crystal character and operator character disagree on %r" % (witness,)
        )
    _check_unitriangular(group, KeyIndex(shape, witness), poly)
    return poly


def key_polynomial(group, nu):
    """Character of the Demazure crystal indexed by a weight or KeyIndex."""
    idx = nu if isinstance(nu, KeyIndex) else key_index(group, nu)
    return _key_polynomial_cached(group, idx.shape, idx.witness)


# -- expansion in the key basis ----------------------------------------------------


def expand_in_keys(group, f):
    """Exact expansion of f in the key basis; KeyIndex -> integer.

    Peels keys off along the rank order: a residual weight of maximal rank
    is the leading weight of a key that must appear with exactly its
    coefficient, since every other weight of every key ranks below its own
    leading weight.  Subtracting that multiple only adds weights of lower
    rank, so the weights of the top rank are peeled together, and each
    weight is ranked and peeled at most once.  Only integers are
    subtracted; keys are a Z-basis, so the residual always reaches zero.
    The result is ordered by KeyIndex.sort_key().
    """
    residual = dict(f.terms)
    ranked = set()
    levels = {}

    def enter(x):
        if x not in ranked:
            ranked.add(x)
            levels.setdefault(_rank(group, x), []).append(x)

    for x in residual:
        enter(x)
    coeffs = {}
    while levels:
        for nu in levels.pop(max(levels)):
            c = residual.get(nu, 0)
            if not c:
                continue
            idx = key_index(group, nu)
            coeffs[idx] = c
            for x, k in key_polynomial(group, idx).terms.items():
                left = residual.get(x, 0) - c * k
                if left:
                    residual[x] = left
                    enter(x)
                else:
                    residual.pop(x, None)
    if residual:
        raise AssertionError("key peel left a residual on %r" % (sorted(residual),))
    return dict(sorted(coeffs.items(), key=lambda kv: kv[0].sort_key()))


# -- the product report -------------------------------------------------------------


class ProductReport:
    """Key expansion of a product of two keys, with positivity accounting."""

    __slots__ = (
        "left_index",
        "right_index",
        "coefficients",
        "condition_forward",
        "condition_swapped",
        "all_nonnegative",
    )

    def __init__(self, left_index, right_index, coefficients, forward, swapped):
        self.left_index = left_index
        self.right_index = right_index
        self.coefficients = coefficients
        self.condition_forward = forward
        self.condition_swapped = swapped
        self.all_nonnegative = all(c >= 0 for c in coefficients.values())


def product_key(group, v, w, lam, mu):
    """What B_v(lam) (x) B_w(mu) depends on: (group, v mod W_lam, w mod W_mu,
    lam, mu), the cosets as minimal representatives, the shapes as tuples."""
    lam, mu = tuple(lam), tuple(mu)
    return group, group.coset_min_weight(v, lam), group.coset_min_weight(w, mu), lam, mu


def product_report(group, v, w, lam, mu):
    """Expand key(v lam) * key(w mu) and reconcile with the decomposition.

    When either orientation of the decomposition condition holds the
    coefficients must be nonnegative, and for the orientation that holds
    they must count the dominant paths with the matching shifted shape and
    normalized lifted witness.

    The checks run once per `product_key`, on an expansion shared by both
    orientations of the product and a count shared by every product that
    reconciles in the same orientation; the report and its coefficient dict
    are new on every call.
    """
    left_idx, right_idx, coeffs, forward, swapped = _product_report(
        *product_key(group, v, w, lam, mu)
    )
    return ProductReport(left_idx, right_idx, dict(coeffs), forward, swapped)


@lru_cache(maxsize=None)
def _product_report(group, v, w, lam, mu):
    """(left index, right index, coefficients, forward, swapped) of the
    product; v and w are the minimal coset representatives of
    `product_key`.  A failed check raises, so no failure is ever cached;
    shapes that are not dominant and a pair space over `PAIR_SPACE_LIMIT`
    are refused before any work."""
    _refuse_oversized_product(group.rs, lam, mu)
    left_idx = key_index(group, group.apply(v, lam))
    right_idx = key_index(group, group.apply(w, mu))
    coeffs = _key_product(group, *sorted((left_idx, right_idx), key=KeyIndex.sort_key))
    forward = condition_check(group, v, w, lam, mu)
    swapped = condition_check(group, w, v, mu, lam)
    if forward or swapped:
        if any(c < 0 for c in coeffs.values()):
            raise TheoremViolation("negative key coefficient under the decomposition condition")
        counted = _counted(group, v, w, lam, mu) if forward else _counted(group, w, v, mu, lam)
        if counted != coeffs:
            raise TheoremViolation("key coefficients disagree with the component count")
    return left_idx, right_idx, coeffs, forward, swapped


@lru_cache(maxsize=None)
def _key_product(group, a, b):
    """Expansion of key(a) * key(b) in the key basis, for a and b in
    `KeyIndex.sort_key` order: both orientations of a product share it."""
    return expand_in_keys(group, key_polynomial(group, a) * key_polynomial(group, b))


@lru_cache(maxsize=None)
def _counted(group, v, w, lam, mu):
    """The counting formula over dominant paths, KeyIndex -> count: one per
    dominant path of B_w(mu) for lam, under the shifted shape and the
    normalized lifted witness."""
    word = lift_word(group, v, w, lam, mu)
    counted = {}
    for pi in dominant_paths(group, w, mu, lam):
        nu = vadd(lam, weight_of(pi))
        u = lift(group, word, pi, w, mu, lam)
        idx = KeyIndex(nu, group.coset_min_weight(u, nu))
        counted[idx] = counted.get(idx, 0) + 1
    return counted


# -- type A monomial rendering ---------------------------------------------------------


def monomials_type_a(rs, f):
    """Render a character as polynomial monomials in x_1 .. x_{rank+1}.

    The epsilon exponents are shifted uniformly so the smallest is zero.
    """
    from .cartan import eps_from_weight

    rendered = []
    exps = {w: eps_from_weight(rs, w) for w in f.terms}
    if not exps:
        return "0"
    shift = -min(min(e) for e in exps.values())
    for w in sorted(f.terms):
        c = f.terms[w]
        body = "*".join(
            "x%d^%d" % (k + 1, e + shift)
            for k, e in enumerate(exps[w])
            if e + shift != 0
        )
        rendered.append("%+d%s" % (c, "*" + body if body else ""))
    return " ".join(rendered)
