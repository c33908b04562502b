"""Demazure crystals inside a highest weight path crystal.

A Demazure crystal is generated from the straight dominant path by closing
under one lowering operator at a time along a reduced word, processed right
to left.  The closure runs on the ids of the compiled crystal B(lam): a
Demazure crystal is a frozenset of ids, closed along its witness word on
the f arrays, and its paths are decoded only when `elements` is read.  Its
element set only depends on the coset of the word's element modulo the
shape stabilizer, so the stored witness is always the minimal coset
representative, making equality of generated crystals decidable by
(shape, witness).  Crystals are cached by witness and looked up by group
element, so the coset query runs once per (element, shape).  Membership is
equivalently the initial-direction test against the orbit order, which is
what `contains` uses.
"""

from functools import lru_cache

from .crystal import (
    Subset,
    compiled_subset,
    e_op,
    eps,
    f_op,
    f_string_closure,
    generate_crystal,
    lower_closure,
)
from .lspath import straight_path
from .weyl import weyl_group


class DemazureCrystal:
    """A generated Demazure crystal with its canonical witness.

    `subset` holds its ids in the compiled B(shape); `elements` are its
    paths, decoded by the subset on first use.
    """

    __slots__ = ("rs", "shape", "witness", "subset", "reduced_word_used")

    def __init__(self, rs, shape, witness, subset, reduced_word_used):
        self.rs = rs
        self.shape = shape
        self.witness = witness
        self.subset = subset
        self.reduced_word_used = reduced_word_used

    @property
    def elements(self):
        return self.subset.elements()

    def __eq__(self, other):
        return (
            isinstance(other, DemazureCrystal)
            and self.shape == other.shape
            and self.witness == other.witness
        )

    def __hash__(self):
        return hash((self.shape, self.witness))

    def __len__(self):
        return len(self.subset)

    def __iter__(self):
        vertices = self.subset.space.vertices
        return iter([vertices[k] for k in sorted(self.subset.ids)])

    def __contains__(self, x):
        return x in self.elements

    def __repr__(self):
        return "DemazureCrystal(shape=%r, witness=%r, size=%d)" % (
            self.shape,
            self.witness,
            len(self.subset),
        )


def _word_closure(crystal, word):
    """The ids of the Demazure crystal of a word, closed right to left."""
    ids = frozenset([crystal.top])
    for i in reversed(word):
        ids = lower_closure(crystal, ids, i)
    return ids


def demazure_elements_for_word(rs, word, lam):
    """Close the straight path under lowering strings along the word, right to left."""
    crystal = generate_crystal(rs, tuple(lam))
    return crystal._decoded(_word_closure(crystal, word))


@lru_cache(maxsize=None)
def _generate_demazure_cached(group, witness, lam):
    crystal = generate_crystal(group.rs, lam)
    subset = Subset(crystal, _word_closure(crystal, witness.word))
    if subset.tops() != [crystal.top]:
        raise AssertionError(
            "the Demazure crystal of %r has a top other than the straight path" % (witness,)
        )
    return DemazureCrystal(group.rs, lam, witness, subset, witness.word)


@lru_cache(maxsize=None)
def _demazure_of_element(group, w, lam):
    if not group.rs.is_dominant(lam):
        raise ValueError("Demazure crystals need a dominant shape")
    return _generate_demazure_cached(group, group.coset_min_weight(w, lam), lam)


def generate_demazure(group, w, lam):
    """The Demazure crystal of w and a dominant shape, canonically witnessed."""
    return _demazure_of_element(group, w, tuple(lam))


def contains(pi, w, lam):
    """Membership by the initial-direction criterion in the orbit order."""
    if pi.shape != tuple(lam):
        raise ValueError("path of shape %r tested against shape %r" % (pi.shape, lam))
    group = weyl_group(pi.rs)
    poset = group.orbit_poset(tuple(lam))
    return poset.leq(pi.initial_direction(), group.apply(w, lam))


def string_parametrization(b, word, lam):
    """Greedy raising exponents of b along the word.

    Returns the exponent tuple and asserts that lowering by it from the
    straight dominant path reconstructs b; failure means b is not in the
    Demazure crystal of the word.
    """
    exponents = []
    x = b
    for i in word:
        a = eps(x, i)
        exponents.append(a)
        for _ in range(a):
            x = e_op(x, i)
    if x != straight_path(b.rs, lam):
        raise ValueError("string parametrization did not reach the top: %r" % (b,))
    y = straight_path(b.rs, lam)
    for i, a in zip(reversed(word), reversed(exponents)):
        for _ in range(a):
            y = f_op(y, i)
    if y != b:
        raise AssertionError("string parametrization failed to reconstruct %r" % (b,))
    return tuple(exponents)


def f_closure(group, demazure, k):
    """Close a Demazure crystal under one more lowering color.

    The result is again a Demazure crystal: the witness grows by s_k exactly
    when that increases its length; both branches are asserted against a
    fresh generation.
    """
    closed = f_string_closure(demazure.elements, k)
    sk = group.simple(k)
    w = demazure.witness
    if group.length(group.multiply(sk, w)) > group.length(w):
        expected = generate_demazure(group, group.multiply(sk, w), demazure.shape)
    else:
        expected = demazure
    if closed != expected.elements:
        raise AssertionError("lowering closure disagrees with the generated crystal")
    return expected


def check_string_property(subset):
    """Every i-string of the ambient crystal meets the subset in nothing,
    its top element, or the whole string; returns None or a counterexample.

    The subset is a DemazureCrystal, a `Subset` or a set of crystal
    elements.  Only a string through a member can break the property, and
    it does exactly when one of its members other than the top has a
    neighbour on the string outside the subset.  So each colour, in
    increasing order, is one pass over the members; the strings through
    the members found there are walked (up to the top, then down by f),
    and the one whose least element comes first in `element_sort_key`
    order (the least id or pair code) is returned as (colour, string from
    the top down), decoded.
    """
    if isinstance(subset, DemazureCrystal):
        subset = subset.subset
    subset = compiled_subset(subset)
    ids, space = subset.ids, subset.space
    if not ids:
        return None
    steps = space._steps
    for i in range(1, space.rank + 1):
        down, up = 2 * i - 2, 2 * i - 1
        strings = {}
        for x in ids:
            near = steps(x)
            # a top, or a member with both string neighbours inside
            if near[up] < 0 or (near[up] in ids and (near[down] < 0 or near[down] in ids)):
                continue
            while near[up] >= 0:
                x = near[up]
                near = steps(x)
            if x not in strings:
                string = strings[x] = [x]
                while near[down] >= 0:
                    string.append(near[down])
                    near = steps(near[down])
        if strings:
            worst = min(strings.values(), key=min)
            return (i, tuple(space._decode(y) for y in worst))
    return None
