"""Demazure crystals inside a highest weight path crystal.

A Demazure crystal is generated from the straight dominant path by closing
under one lowering operator at a time along a reduced word, processed right
to left.  Its element set only depends on the coset of the word's element
modulo the shape stabilizer, so the stored witness is always the minimal
coset representative, making equality of generated crystals decidable by
(shape, witness).  Membership is equivalently the initial-direction test
against the orbit order, which is what `contains` uses.
"""

from functools import lru_cache

from .crystal import (
    element_sort_key,
    emax,
    eps,
    f_op,
    f_string_closure,
    refuse_oversized,
    unique_top,
)
from .lspath import straight_path
from .weyl import weyl_group


class DemazureCrystal:
    """A generated Demazure crystal with its canonical witness."""

    __slots__ = ("rs", "shape", "witness", "elements", "reduced_word_used")

    def __init__(self, rs, shape, witness, elements, reduced_word_used):
        self.rs = rs
        self.shape = shape
        self.witness = witness
        self.elements = frozenset(elements)
        self.reduced_word_used = reduced_word_used

    def __eq__(self, other):
        return (
            isinstance(other, DemazureCrystal)
            and self.shape == other.shape
            and self.witness == other.witness
        )

    def __hash__(self):
        return hash((self.shape, self.witness))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(sorted(self.elements, key=element_sort_key))

    def __contains__(self, x):
        return x in self.elements

    def __repr__(self):
        return "DemazureCrystal(shape=%r, witness=%r, size=%d)" % (
            self.shape,
            self.witness,
            len(self.elements),
        )


def demazure_elements_for_word(rs, word, lam):
    """Close the straight path under lowering strings along the word, right to left."""
    current = {straight_path(rs, lam)}
    for i in reversed(word):
        current = f_string_closure(current, i)
    return frozenset(current)


@lru_cache(maxsize=None)
def _generate_demazure_cached(group, witness, lam):
    refuse_oversized(group.rs, lam)
    elements = demazure_elements_for_word(group.rs, witness.word, lam)
    if unique_top(group.rs, elements) != straight_path(group.rs, lam):
        raise AssertionError(
            "the Demazure crystal of %r has a top other than the straight path" % (witness,)
        )
    return DemazureCrystal(group.rs, lam, witness, elements, witness.word)


def generate_demazure(group, w, lam):
    """The Demazure crystal of w and a dominant shape, canonically witnessed."""
    if not group.rs.is_dominant(lam):
        raise ValueError("Demazure crystals need a dominant shape")
    witness = group.coset_min_weight(w, lam)
    return _generate_demazure_cached(group, witness, lam)


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
        x = emax(x, i)
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


def check_string_property(demazure, ambient):
    """Every i-string of the ambient crystal meets the subset in nothing,
    its top element, or the whole string; returns None or a counterexample.
    """
    members = demazure.elements if isinstance(demazure, DemazureCrystal) else frozenset(demazure)
    for i in range(1, ambient.rs.rank + 1):
        for string in ambient.i_strings(i):
            got = [x for x in string if x in members]
            if not got:
                continue
            if len(got) == len(string):
                continue
            if len(got) == 1 and got[0] == string[0]:
                continue
            return (i, string)
    return None
