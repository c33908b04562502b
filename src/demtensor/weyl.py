"""Weyl group arithmetic on top of a root system.

Groups are materialized as explicit element lists (target scale is rank <= 3,
so enumeration beats cleverness and makes every claim exhaustively checkable).
An element is identified by its action matrix on fundamental-weight
coordinates; reduced words are bookkeeping on the side.
"""

from fractions import Fraction
from functools import lru_cache

from .cartan import normalize_coords


class NonUniqueMaximum(Exception):
    """A Bruhat maximum was requested on a set without a dominating element."""


GROUP_SIZE_LIMIT = 100000


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _matvec(a, x):
    n = len(a)
    return tuple(sum(a[i][k] * x[k] for k in range(n)) for i in range(n))


class WeylElement:
    """A group element: action matrix plus one stored reduced word."""

    __slots__ = ("group", "matrix", "word")

    def __init__(self, group, matrix, word):
        self.group = group
        self.matrix = matrix
        self.word = word

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.group is other.group
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        if not self.word:
            return "e"
        return "*".join("s%d" % i for i in self.word)


class WeylGroup:
    """The full Weyl group of a root system, materialized element by element."""

    def __init__(self, rs):
        self.rs = rs
        n = rs.rank
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        gens = []
        for i in range(1, n + 1):
            fw = rs.simple_roots[i - 1].fw
            mat = tuple(
                tuple(int(j == k) - fw[j] * int(k == i - 1) for k in range(n)) for j in range(n)
            )
            gens.append(mat)
        self._gen_matrices = gens
        # BFS over right multiplication; the first word found is reduced.
        words = {eye: ()}
        frontier = [eye]
        while frontier:
            nxt = []
            for mat in frontier:
                w = words[mat]
                for i in range(1, n + 1):
                    m2 = _matmul(mat, gens[i - 1])
                    if m2 not in words:
                        words[m2] = w + (i,)
                        nxt.append(m2)
            frontier = nxt
            if len(words) > GROUP_SIZE_LIMIT:
                raise ValueError("Weyl group of %r too large to materialize" % rs)
        self._words = words
        self.elements = tuple(
            WeylElement(self, m, w) for m, w in sorted(words.items(), key=lambda kv: (len(kv[1]), kv[1]))
        )
        self._by_matrix = {el.matrix: el for el in self.elements}
        self.identity = self._by_matrix[eye]
        self._bruhat_cache = {}
        self._length_cache = {}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    # -- construction of elements ------------------------------------------

    def simple(self, i):
        return self._by_matrix[self._gen_matrices[i - 1]]

    def from_word(self, word):
        """Element of a (not necessarily reduced) word of 1-based indices."""
        mat = self.identity.matrix
        for i in word:
            if not 1 <= i <= self.rs.rank:
                raise ValueError("generator index %d out of range" % i)
            mat = _matmul(mat, self._gen_matrices[i - 1])
        return self._by_matrix[mat]

    def element_of_matrix(self, matrix):
        return self._by_matrix[matrix]

    def longest(self):
        return max(self.elements, key=lambda w: len(w.word))

    # -- basic operations ----------------------------------------------------

    def multiply(self, u, v):
        """u*v with the stored word re-reduced via the deletion condition."""
        if u.group is not self or v.group is not self:
            raise ValueError("elements of a different Weyl group")
        mat = _matmul(u.matrix, v.matrix)
        word = self.reduce_word(u.word + v.word)
        el = self._by_matrix[mat]
        if word == el.word:
            return el
        return WeylElement(self, mat, word)

    def inverse(self, w):
        return self.from_word(tuple(reversed(w.word)))

    def apply(self, w, x):
        """Action of w on a weight or rational point x."""
        return normalize_coords(_matvec(w.matrix, x))

    def length(self, w):
        """Length as the inversion count over the positive roots."""
        got = self._length_cache.get(w.matrix)
        if got is None:
            got = sum(
                1
                for beta in self.rs.positive_roots
                if self.rs.root_sign(_matvec(w.matrix, beta.fw)) < 0
            )
            self._length_cache[w.matrix] = got
        return got

    def reduce_word(self, word):
        """Shrink a word to a reduced one by repeated pair deletion."""
        word = tuple(word)
        target_mat = self.from_word(word).matrix
        target_len = self.length(self._by_matrix[target_mat])
        while len(word) > target_len:
            found = False
            for j in range(len(word)):
                for k in range(j + 1, len(word)):
                    cand = word[:j] + word[j + 1 : k] + word[k + 1 :]
                    if self.from_word(cand).matrix == target_mat:
                        word = cand
                        found = True
                        break
                if found:
                    break
            if not found:
                raise AssertionError("deletion condition failed on %r" % (word,))
        return word

    # -- descents ------------------------------------------------------------

    def left_descents(self, w):
        """Simple indices i with length(s_i w) < length(w)."""
        out = []
        inv = self.inverse(w)
        for i in range(1, self.rs.rank + 1):
            image = _matvec(inv.matrix, self.rs.simple_roots[i - 1].fw)
            if self.rs.root_sign(image) < 0:
                out.append(i)
        return frozenset(out)

    def descent_subgroup(self, w):
        """The parabolic subgroup generated by the left descents of w."""
        return self.parabolic(self.left_descents(w))

    # -- parabolic subgroups and cosets ---------------------------------------

    @lru_cache(maxsize=None)
    def parabolic(self, J):
        """All elements of the standard parabolic subgroup W_J, J a frozenset."""
        J = frozenset(J)
        seen = {self.identity.matrix}
        frontier = [self.identity.matrix]
        while frontier:
            nxt = []
            for mat in frontier:
                for i in J:
                    m2 = _matmul(mat, self._gen_matrices[i - 1])
                    if m2 not in seen:
                        seen.add(m2)
                        nxt.append(m2)
            frontier = nxt
        return tuple(sorted((self._by_matrix[m] for m in seen), key=lambda w: (len(w.word), w.word)))

    def stabilizer_indices(self, lam):
        """Simple indices whose reflection fixes the dominant weight lam."""
        return frozenset(i for i in range(1, self.rs.rank + 1) if lam[i - 1] == 0)

    def coset(self, w, J):
        return tuple(self._by_matrix[_matmul(w.matrix, h.matrix)] for h in self.parabolic(frozenset(J)))

    def _coset_extreme(self, w, J, pick_max):
        coset = self.coset(w, J)
        lens = [self.length(u) for u in coset]
        ext = max(lens) if pick_max else min(lens)
        hits = [u for u, l in zip(coset, lens) if l == ext]
        if len(hits) != 1:
            raise AssertionError("coset extreme not unique on %r" % (coset,))
        return hits[0]

    def coset_min(self, w, J):
        """Minimal-length representative of the coset w W_J."""
        return self._coset_extreme(w, frozenset(J), False)

    def coset_max(self, w, J):
        """Maximal-length representative of the coset w W_J."""
        return self._coset_extreme(w, frozenset(J), True)

    def coset_min_weight(self, w, lam):
        """Minimal-length representative of w modulo the stabilizer of lam."""
        return self.coset_min(w, self.stabilizer_indices(lam))

    def coset_max_weight(self, w, lam):
        return self.coset_max(w, self.stabilizer_indices(lam))

    @lru_cache(maxsize=None)
    def minimal_coset_reps(self, J):
        """All minimal-length coset representatives modulo W_J, sorted."""
        J = frozenset(J)
        reps = {self.coset_min(w, J) for w in self.elements}
        return tuple(sorted(reps, key=lambda w: (len(w.word), w.word)))

    # -- Bruhat order ----------------------------------------------------------

    def bruhat_leq(self, u, v):
        """True iff a reduced word of v contains a reduced word of u as a subword."""
        key = (u.matrix, v.matrix)
        got = self._bruhat_cache.get(key)
        if got is not None:
            return got
        word = v.word
        memo = {}

        def sub(k, x):
            if self.length(x) == 0:
                return True
            if len(word) - k < self.length(x):
                return False
            state = (k, x.matrix)
            if state in memo:
                return memo[state]
            s = self.simple(word[k])
            ok = False
            sx = self._by_matrix[_matmul(s.matrix, x.matrix)]
            if self.length(sx) < self.length(x):
                ok = sub(k + 1, sx)
            if not ok:
                ok = sub(k + 1, x)
            memo[state] = ok
            return ok

        got = sub(0, u)
        self._bruhat_cache[key] = got
        return got

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

    # -- reflection subgroups ----------------------------------------------------

    def reflection(self, root):
        """The group element acting as the reflection in `root`."""
        n = self.rs.rank
        mat = tuple(
            tuple(int(j == k) - root.cocoords[k] * root.fw[j] for k in range(n))
            for j in range(n)
        )
        return self._by_matrix[mat]

    def stabilizer(self, x):
        """The subgroup generated by reflections fixing the rational point x.

        Asserted equal to the full point stabilizer; for the points this
        library feeds in (dominant ones) that is automatic, but the check
        guards the general case.
        """
        gens = [
            self.reflection(beta)
            for beta in self.rs.positive_roots
            if self.rs.root_pairing(x, beta) == 0
        ]
        seen = {self.identity.matrix}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for u in frontier:
                for g in gens:
                    m2 = _matmul(u.matrix, g.matrix)
                    if m2 not in seen:
                        seen.add(m2)
                        nxt.append(self._by_matrix[m2])
            frontier = nxt
        subgroup = tuple(
            sorted((self._by_matrix[m] for m in seen), key=lambda w: (len(w.word), w.word))
        )
        full = tuple(
            sorted(
                (w for w in self.elements if self.apply(w, x) == normalize_coords(x)),
                key=lambda w: (len(w.word), w.word),
            )
        )
        if subgroup != full:
            raise AssertionError("reflection stabilizer differs from point stabilizer at %r" % (x,))
        return subgroup

    def coset_bruhat_max(self, subgroup_elements, w):
        """Bruhat-maximal element of the coset {h*w : h in the subgroup}."""
        coset = {self._by_matrix[_matmul(h.matrix, w.matrix)] for h in subgroup_elements}
        return self.bruhat_max(coset)

    # -- orbits -------------------------------------------------------------------

    @lru_cache(maxsize=None)
    def orbit(self, lam):
        """The orbit of a weight as a sorted tuple."""
        seen = {normalize_coords(lam)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for x in frontier:
                for i in range(1, self.rs.rank + 1):
                    y = self.rs.simple_reflect(x, i)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen))

    @lru_cache(maxsize=None)
    def orbit_poset(self, lam):
        if not self.rs.is_dominant(lam):
            raise ValueError("orbit poset needs a dominant base weight")
        return OrbitPoset(self, normalize_coords(lam))


class OrbitPoset:
    """The order on an orbit W.lam generated by reflections with negative pairing.

    A step goes from mu to s_beta(mu) whenever <mu, beta^vee> < 0; the step
    source is the larger element, so the dominant weight lam is the unique
    minimum and w_0(lam) the unique maximum.  dist is the longest chain length
    between comparable points, and covers are the steps at dist one.
    """

    def __init__(self, group, lam):
        self.group = group
        self.base = lam
        rs = group.rs
        self.points = group.orbit(lam)
        point_set = set(self.points)
        # down_steps[mu] = [(root, nu)] with mu > nu
        self.down_steps = {}
        for mu in self.points:
            steps = []
            for beta in rs.positive_roots:
                if rs.root_pairing(mu, beta) < 0:
                    nu = rs.reflect(mu, beta)
                    if nu not in point_set:
                        raise AssertionError("reflection of %r leaves the orbit of %r" % (mu, lam))
                    steps.append((beta, nu))
            self.down_steps[mu] = tuple(steps)
        # descendants[mu] = every nu with nu <= mu
        self._below = {}
        for mu in self.points:
            seen = {mu}
            stack = [mu]
            while stack:
                x = stack.pop()
                for _, y in self.down_steps[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            self._below[mu] = frozenset(seen)
        minima = [mu for mu in self.points if self._below[mu] == {mu}]
        if minima != [lam]:
            raise AssertionError("dominant weight is not the unique minimum")
        self._dist = {}
        self._covers = None

    def __contains__(self, x):
        return x in self._below

    def leq(self, mu, nu):
        """mu <= nu in the orbit order."""
        self._check(mu)
        self._check(nu)
        return mu in self._below[nu]

    def _check(self, x):
        if x not in self._below:
            raise ValueError("%r is not in the orbit of %r" % (x, self.base))

    def _longest_down(self, top, bottom):
        """Longest chain length from top down to bottom, or None."""
        if top == bottom:
            return 0
        key = (top, bottom)
        if key in self._dist:
            return self._dist[key]
        best = None
        for _, y in self.down_steps[top]:
            if bottom in self._below[y]:
                sub = self._longest_down(y, bottom)
                if sub is not None and (best is None or sub + 1 > best):
                    best = sub + 1
        self._dist[key] = best
        return best

    def dist(self, mu, nu):
        """Longest chain length between two comparable orbit points."""
        self._check(mu)
        self._check(nu)
        if self.leq(nu, mu):
            return self._longest_down(mu, nu)
        if self.leq(mu, nu):
            return self._longest_down(nu, mu)
        raise ValueError("%r and %r are incomparable" % (mu, nu))

    def covers(self):
        """All cover steps as a dict mu -> tuple of (root, nu) with dist 1."""
        if self._covers is None:
            self._covers = {
                mu: tuple(
                    (beta, nu)
                    for beta, nu in self.down_steps[mu]
                    if self._longest_down(mu, nu) == 1
                )
                for mu in self.points
            }
        return self._covers

    def sigma_chain_exists(self, mu, nu, sigma):
        """Is there a cover chain mu > ... > nu whose pairings scale to integers?

        Each cover step from x by the root beta contributes <x, beta^vee>;
        the chain qualifies when sigma times every such pairing is an integer.
        """
        self._check(mu)
        self._check(nu)
        if not self.leq(nu, mu):
            return False
        sigma = Fraction(sigma)
        covers = self.covers()
        rs = self.group.rs
        memo = {}

        def search(x):
            if x == nu:
                return True
            if x in memo:
                return memo[x]
            ok = False
            for beta, y in covers[x]:
                if nu in self._below[y] and (sigma * rs.root_pairing(x, beta)).denominator == 1:
                    if search(y):
                        ok = True
                        break
            memo[x] = ok
            return ok

        return search(mu)


@lru_cache(maxsize=None)
def weyl_group(rs):
    """Cached Weyl group per root system."""
    return WeylGroup(rs)
