"""The orbit poset, kept as a test oracle for the orbit order of `lspath`.

This is how the order on an orbit W lam was answered before `lspath` read
it as Bruhat order on minimal coset representatives: a frozenset of lower
points for every orbit point, built by reflecting in every positive root
with a negative pairing, and a longest-chain DP for distances and covers.
`validate` is LS-path validation on this poset.  Nothing here reads a
coset representative or a Bruhat comparison: only `orbit`, a breadth-first
search by simple reflections, and the root system's pairings and
reflections are used.
"""

from fractions import Fraction
from functools import lru_cache

from demtensor.cartan import normalize_coords
from demtensor.weyl import weyl_group


@lru_cache(maxsize=None)
def orbit(group, lam):
    """The orbit of a weight as a sorted tuple."""
    seen = {normalize_coords(lam)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(1, group.rs.rank + 1):
                y = group.rs.simple_reflect(x, i)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def orbit_poset(group, lam):
    if not group.rs.is_dominant(lam):
        raise ValueError("orbit poset needs a dominant base weight")
    return OrbitPoset(group, normalize_coords(lam))


def validate(pi):
    """None if the path is a valid LS path, else the first violation."""
    rs = pi.rs
    if not rs.is_dominant(pi.shape):
        return "shape %r is not dominant" % (pi.shape,)
    poset = orbit_poset(weyl_group(rs), pi.shape)
    if not pi.directions:
        return "no segments"
    for d in pi.directions:
        if d not in poset:
            return "direction %r is not in the orbit of %r" % (d, pi.shape)
    den, ticks = pi.den, pi.ticks
    if ticks[0] != 0 or ticks[-1] != den:
        return "breakpoints must run from 0 to 1"
    if any(a >= b for a, b in zip(ticks, ticks[1:])):
        return "breakpoints must increase strictly"
    for k in range(len(pi.directions) - 1):
        hi, lo = pi.directions[k], pi.directions[k + 1]
        if hi == lo:
            return "adjacent directions %r repeat" % (hi,)
        if not poset.leq(lo, hi):
            return "directions %r, %r do not decrease" % (hi, lo)
        if not poset.tick_chain_exists(hi, lo, ticks[k + 1], den):
            return "no %s-chain between %r and %r" % (pi.breaks[k + 1], hi, lo)
    if any(c % den for c in pi.marks[-rs.rank:]):
        return "endpoint %r is not a lattice weight" % (pi.endpoint(),)
    return None


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
        self.points = orbit(group, lam)
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
        sigma = Fraction(sigma)
        return self.tick_chain_exists(mu, nu, sigma.numerator, sigma.denominator)

    def tick_chain_exists(self, mu, nu, tick, den):
        """`sigma_chain_exists` for sigma = tick / den, in integers: sigma
        times a pairing is an integer exactly when tick * pairing % den == 0."""
        self._check(mu)
        self._check(nu)
        if not self.leq(nu, mu):
            return False
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
                if nu in self._below[y] and tick * rs.root_pairing(x, beta) % den == 0:
                    if search(y):
                        ok = True
                        break
            memo[x] = ok
            return ok

        return search(mu)
