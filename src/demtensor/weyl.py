"""Weyl group arithmetic on top of a root system.

Groups are materialized as explicit element lists (target scale is rank <= 3,
so enumeration beats cleverness and makes every claim exhaustively checkable).
An element is identified by its index in `WeylGroup.elements`, and there is
one `WeylElement` per group element, so equality is identity.  The group
keeps one integer generator table, built once with it, w*s_i, beside w^-1,
the length and two bit masks of every element: its right descents and the
support of its reduced words (bit i - 1 for the letter i).  Products,
inverses, lengths and Bruhat comparisons walk these tables with right steps
only, and descents, cosets and parabolic subgroups are mask operations: a
left descent of w is a right descent of w^-1, and w lies in W_J when its
support is inside J.  Bruhat order reads the word of the larger element
from the right (property Z; Bjorner-Brenti, Combinatorics of Coxeter
Groups, 2.2.7).  No coset is enumerated: a coset extreme is where a walk by
the generators of J stops, the minimum at the first element with no right
descent in J, the maximum at the first with all of J (ibid., 2.4).  The
stabilizer of a dominant weight is one mask, memoized per weight, so the
coset queries by weight and the decomposition condition read element
indices and masks only: the condition walks v down on lam's mask and w up
on mu's, and tests the floor's support against the ceiling's left
descents, with no element object or frozenset made on the way.  An
element stores one reduced word, the lexicographically least, and `apply`
reflects along it.  The build keys w by w^-1(rho), rho = (1, ..., 1): rho
is regular, so the key is injective, (w s_i)^-1 rho = s_i(w^-1 rho) is one
reflection, and the right descents of w are the negative coordinates of the
key (ibid., ch. 4), read as the build meets it.  `WeylElement.matrix` is
derived from `apply`, for matrix checks outside the package.  No orbit is
enumerated either: `lspath.dominant_walk` maps a weight to its dominant
form and minimal coset representative, and the order on an orbit W lam is
Bruhat order on those representatives.
"""

from functools import lru_cache
from math import factorial

from .cartan import normalize_coords


class NonUniqueMaximum(Exception):
    """A Bruhat maximum was requested on a set without a dominating element."""


GROUP_SIZE_LIMIT = 100000

# |W| per type in closed form, so an oversized group is refused before it
# is enumerated.
GROUP_ORDERS = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "C": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


def group_order(rs):
    """The order of the Weyl group of a root system, in closed form."""
    return GROUP_ORDERS[rs.type_letter](rs.rank)


def _too_large(type_letter, rank, count):
    return ValueError(
        "Weyl group of RootSystem(%s%d) too large to materialize (%s elements, the limit is %d)"
        % (type_letter, rank, count, GROUP_SIZE_LIMIT)
    )


def refuse_oversized_group(type_letter, rank):
    """Refuse a valid type whose Weyl group, by its closed-form order, is
    over GROUP_SIZE_LIMIT; its root system need not exist yet.

    Every type has |W| >= 2^rank, so a rank of the limit's bit length or
    more is refused as "at least 2^rank" before the closed form is
    evaluated: factorial(10**6 + 1) alone takes seconds, and an order of
    more digits than Python prints from an int (A2000) is never formed.
    """
    if rank >= GROUP_SIZE_LIMIT.bit_length():
        raise _too_large(type_letter, rank, "at least 2^%d" % rank)
    order = GROUP_ORDERS[type_letter](rank)
    if order > GROUP_SIZE_LIMIT:
        raise _too_large(type_letter, rank, order)


def _right_step(x, c, alpha):
    """s_{c+1}(x), alpha = alpha_{c+1} as (k, a_k) pairs for a_k != 0; it takes
    the key w^-1(rho) of w to the key of w s_{c+1}."""
    out = list(x)
    for k, a in alpha:
        out[k] -= x[c] * a
    return tuple(out)


class WeylElement:
    """A group element: its index in the group and its least reduced word.

    Elements are canonical, so equality is identity (the default); the hash
    is the index, which keeps set iteration order deterministic.
    """

    __slots__ = ("group", "index", "word", "_matrix")

    def __init__(self, group, index, word):
        self.group = group
        self.index = index
        self.word = word
        self._matrix = None

    @property
    def matrix(self):
        """The action on fundamental-weight coordinates, column j = apply(e_j); memoized."""
        if self._matrix is None:
            n = self.group.rs.rank
            basis = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            self._matrix = tuple(zip(*(self.group.apply(self, e) for e in basis)))
        return self._matrix

    def __hash__(self):
        return self.index

    def __repr__(self):
        if not self.word:
            return "e"
        return "*".join("s%d" % i for i in self.word)


class WeylGroup:
    """The full Weyl group of a root system, materialized element by element."""

    def __init__(self, rs):
        refuse_oversized_group(rs.type_letter, rs.rank)
        order = group_order(rs)
        self.rs = rs
        n = rs.rank
        self._alphas = [tuple((k, a) for k, a in enumerate(r.fw) if a) for r in rs.simple_roots]
        keys = [(1,) * n]
        index = {keys[0]: 0}
        words = [()]
        support = [0]
        rdes = []
        rmul = [[] for _ in range(n)]
        steps = [(c, alpha, 1 << c) for c, alpha in enumerate(self._alphas)]
        # Queue BFS over right multiplication, generators in increasing
        # order: each element is first reached by its lexicographically
        # least reduced word, so discovery order is (length, word) order.
        # `keys` grows while it is walked.
        for k, key in enumerate(keys):
            # the negative coordinates of the key are w's right descents
            descents = 0
            for c, alpha, bit in steps:
                if key[c] < 0:
                    descents |= bit
                key2 = _right_step(key, c, alpha)
                j = index.get(key2)
                if j is None:
                    j = index[key2] = len(keys)
                    keys.append(key2)
                    words.append(words[k] + (c + 1,))
                    support.append(support[k] | bit)
                rmul[c].append(j)
            rdes.append(descents)
            if len(keys) > GROUP_SIZE_LIMIT:
                raise _too_large(rs.type_letter, rs.rank, len(keys))
        if len(keys) != order:
            raise AssertionError("%r has %d elements, not %d" % (rs, len(keys), order))
        self.elements = tuple(WeylElement(self, k, w) for k, w in enumerate(words))
        self.identity = self.elements[0]
        self._rmul = rmul
        self._len = [len(w) for w in words]
        self._rdes = rdes
        self._support = support
        # w^-1 is w's word read backwards, walked from the identity
        tables = [None] + rmul
        self._inv = inv = []
        for w in words:
            k = 0
            for i in reversed(w):
                k = tables[i][k]
            inv.append(k)
        # memos of the masks of index sets, their sets and the stabilizer
        # mask of each weight
        self._masks = {}
        self._index_sets = {}
        self._stabilizer_masks = {}
        self._check_tables()

    def _check_tables(self):
        """Every generator step is an involution that changes the length by
        one, down exactly at the right descents; inversion is an involution
        that keeps it; and the support of each element is that of its word
        without its last letter, plus that letter."""
        length, inv, rdes, support = self._len, self._inv, self._rdes, self._support
        for k, j in enumerate(inv):
            if inv[j] != k or length[j] != length[k]:
                raise AssertionError("inverse table fails at element %d" % k)
        for c, table in enumerate(self._rmul):
            bit = 1 << c
            for k, j in enumerate(table):
                if table[j] != k or length[j] - length[k] != (-1 if rdes[k] & bit else 1):
                    raise AssertionError("generator or descent table fails at element %d" % k)
        if support[0]:
            raise AssertionError("support table fails at element 0")
        rmul = self._rmul
        for w in self.elements[1:]:
            c = w.word[-1] - 1
            if support[w.index] != support[rmul[c][w.index]] | 1 << c:
                raise AssertionError("support table fails at element %d" % w.index)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def _walk(self, k, word):
        """Index of elements[k] * s_word[0] * s_word[1] * ..."""
        rmul = self._rmul
        for i in word:
            k = rmul[i - 1][k]
        return k

    # -- construction of elements ------------------------------------------

    def simple(self, i):
        return self.elements[self._rmul[i - 1][0]]

    def from_word(self, word):
        """Element of a (not necessarily reduced) word of 1-based indices."""
        rank = self.rs.rank
        for i in word:
            if not 1 <= i <= rank:
                raise ValueError("generator index %d out of range" % i)
        return self.elements[self._walk(0, word)]

    def longest(self):
        """The longest element, last in (length, word) order."""
        return self.elements[-1]

    # -- basic operations ----------------------------------------------------

    def multiply(self, u, v):
        """The element u*v."""
        if u.group is not self or v.group is not self:
            raise ValueError("elements of a different Weyl group")
        return self.elements[self._walk(u.index, v.word)]

    def inverse(self, w):
        return self.elements[self._inv[w.index]]

    def apply(self, w, x):
        """Action of w on a weight or rational point x, along w's word."""
        for i in reversed(w.word):
            x = _right_step(x, i - 1, self._alphas[i - 1])
        return normalize_coords(x)

    def length(self, w):
        return self._len[w.index]

    # -- descents and masks ----------------------------------------------------

    def _mask(self, J):
        """The bit mask of a frozenset J of simple indices, memoized per set."""
        got = self._masks.get(J)
        if got is None:
            got = self._masks[J] = sum(1 << (j - 1) for j in J)
        return got

    def _indices(self, mask):
        """The frozenset of simple indices of a bit mask, one per mask."""
        got = self._index_sets.get(mask)
        if got is None:
            got = self._index_sets[mask] = frozenset(
                c + 1 for c in range(self.rs.rank) if mask >> c & 1
            )
        return got

    def _right_descent_mask(self, w):
        """Bit i - 1 set for each i with length(w s_i) < length(w)."""
        return self._rdes[w.index]

    def _left_descent_mask(self, w):
        """Bit i - 1 set for each i with length(s_i w) < length(w)."""
        return self._rdes[self._inv[w.index]]

    def left_descents(self, w):
        """Simple indices i with length(s_i w) < length(w): the right descents of w^-1."""
        return self._indices(self._rdes[self._inv[w.index]])

    # -- parabolic subgroups and cosets ---------------------------------------

    @lru_cache(maxsize=None)
    def parabolic(self, J):
        """All elements of the standard parabolic subgroup W_J, J a frozenset:
        those whose reduced word uses only letters of J."""
        outside = ~self._mask(J)
        return tuple(w for w, s in zip(self.elements, self._support) if not s & outside)

    def _stabilizer_mask(self, lam):
        """The stabilizer of the dominant weight lam as a mask, bit c set where
        lam[c] == 0; memoized per weight, a list read as its tuple."""
        if type(lam) is not tuple:
            lam = tuple(lam)
        got = self._stabilizer_masks.get(lam)
        if got is None:
            got = self._stabilizer_masks[lam] = sum(1 << c for c, a in enumerate(lam) if a == 0)
        return got

    def stabilizer_indices(self, lam):
        """Simple indices whose reflection fixes the dominant weight lam; one
        frozenset per stabilizer mask."""
        return self._indices(self._stabilizer_mask(lam))

    def _coset_floor(self, k, J):
        """Index of the minimal element of elements[k] W_J, J a mask: step by
        a right descent in J while there is one; each step shortens."""
        rdes, rmul = self._rdes, self._rmul
        m = rdes[k] & J
        while m:
            k = rmul[(m & -m).bit_length() - 1][k]
            m = rdes[k] & J
        return k

    def _coset_ceiling(self, k, J):
        """Index of the maximal element of elements[k] W_J, J a mask: step by
        a right ascent in J while there is one; each step lengthens."""
        rdes, rmul = self._rdes, self._rmul
        m = J & ~rdes[k]
        while m:
            k = rmul[(m & -m).bit_length() - 1][k]
            m = J & ~rdes[k]
        return k

    def coset_min(self, w, J):
        """Minimal-length representative of the coset w W_J, J a frozenset."""
        return self.elements[self._coset_floor(w.index, self._mask(J))]

    def coset_max(self, w, J):
        """Maximal-length representative of the coset w W_J, J a frozenset."""
        return self.elements[self._coset_ceiling(w.index, self._mask(J))]

    def coset_min_weight(self, w, lam):
        """Minimal-length representative of w modulo the stabilizer of lam."""
        return self.elements[self._coset_floor(w.index, self._stabilizer_mask(lam))]

    def coset_max_weight(self, w, lam):
        """Maximal-length representative of w modulo the stabilizer of lam."""
        return self.elements[self._coset_ceiling(w.index, self._stabilizer_mask(lam))]

    def _decomposition_condition(self, v, w, lam, mu):
        """The decomposition condition: the floor of v on lam's stabilizer mask
        lies in the parabolic subgroup of the left descents of the ceiling of
        w on mu's, that is, no letter of the floor's support is outside the
        right descents of the ceiling's inverse."""
        floor = self._coset_floor(v.index, self._stabilizer_mask(lam))
        ceiling = self._coset_ceiling(w.index, self._stabilizer_mask(mu))
        return not self._support[floor] & ~self._rdes[self._inv[ceiling]]

    # -- Bruhat order ----------------------------------------------------------

    def bruhat_leq(self, u, v):
        """u <= v in Bruhat order, by property Z (Deodhar): for a right
        descent s of v, u <= v iff min(u, us) <= vs.  Each letter of v's
        word, read from the right, is a right descent of what is left of v,
        so u <= v iff stepping u down along them ends at the identity."""
        k, rmul, length = u.index, self._rmul, self._len
        for i in reversed(v.word):
            j = rmul[i - 1][k]
            if length[j] < length[k]:
                k = j
        return k == 0

    def bruhat_max(self, elements):
        """The element of the collection dominating all others in Bruhat order."""
        elements = list(elements)
        if not elements:
            raise ValueError("Bruhat maximum of an empty set")
        top_len = max(self.length(u) for u in elements)
        candidates = [u for u in elements if self.length(u) == top_len]
        winners = [
            c for c in candidates if all(self.bruhat_leq(u, c) for u in elements)
        ]
        if len(winners) != 1:
            raise NonUniqueMaximum(
                "no unique Bruhat maximum among %r" % ([u.word for u in elements],)
            )
        return winners[0]

    def coset_bruhat_max(self, J, w):
        """Bruhat-maximal element of the coset W_J w: its longest element, the
        inverse of the longest element of w^-1 W_J."""
        inv = self._inv
        return self.elements[inv[self._coset_ceiling(inv[w.index], self._mask(J))]]


@lru_cache(maxsize=None)
def weyl_group(rs):
    """Cached Weyl group per root system."""
    return WeylGroup(rs)
