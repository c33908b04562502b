"""Lakshmibai-Seshadri paths and raw piecewise-linear paths.

An LS path of shape lam is stored as the pair of a strictly decreasing
direction sequence in the orbit W.lam and rational breakpoints
0 = a_0 < ... < a_r = 1; the path itself is the piecewise-linear map with
slope nu_k on [a_{k-1}, a_k].  Concatenations of paths of different shapes
live in RawPath, which drops the orbit bookkeeping but supports the same
evaluation and root-operator machinery.  Paths are immutable and kept in a
normal form (no zero-length segments, no equal adjacent directions), so
structural equality is path equality.

LS paths are hash-consed: `make_path` keeps one table keyed by
(root system, shape, directions, breakpoints) and returns the same object
for every request of the same path, so each distinct path exists once.
Every path computes its hash once, at construction, and equality returns
early on identity; the structural comparison stays as the fallback for
paths built directly.  An interned path also carries `checked`, set by the
root operators once the path has passed `validate`, so each distinct path
an operator produces is validated exactly once.
"""

from fractions import Fraction

from .cartan import normalize_coords, vadd, vscale
from .weyl import weyl_group


def _normalize_segments(directions, breaks):
    """Drop empty segments and merge equal adjacent directions."""
    dirs, brks = [], [Fraction(breaks[0])]
    for k, d in enumerate(directions):
        a, b = Fraction(breaks[k]), Fraction(breaks[k + 1])
        if a == b:
            continue
        d = normalize_coords(d)
        if dirs and dirs[-1] == d:
            brks[-1] = b
        else:
            dirs.append(d)
            brks.append(b)
    return tuple(dirs), tuple(brks)


class _PathBase:
    """Shared evaluation machinery for LSPath and RawPath."""

    __slots__ = ()

    def segments(self):
        return tuple(
            (self.directions[k], self.breaks[k], self.breaks[k + 1])
            for k in range(len(self.directions))
        )

    def value_at(self, t):
        """Exact value of the path at rational time t in [0, 1]."""
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise ValueError("time %s outside [0, 1]" % t)
        acc = (Fraction(0),) * self.rank()
        for d, a, b in self.segments():
            if t <= b:
                return normalize_coords(vadd(acc, vscale(t - a, d)))
            acc = vadd(acc, vscale(b - a, d))
        return normalize_coords(acc)

    def endpoint(self):
        acc = (Fraction(0),) * self.rank()
        for d, a, b in self.segments():
            acc = vadd(acc, vscale(b - a, d))
        return normalize_coords(acc)

    def height(self, i, t):
        """Pairing of the path value at time t with the i-th simple coroot."""
        return self.rs.pairing(self.value_at(t), i)

    def height_profile(self, i):
        """Heights at the breakpoints (piecewise-affine, so extrema sit there)."""
        out = [Fraction(0)]
        acc = Fraction(0)
        for d, a, b in self.segments():
            acc += (b - a) * self.rs.pairing(d, i)
            out.append(acc)
        return out

    def rank(self):
        return self.rs.rank

    def is_dominant_for(self, lam):
        """Does lam + path(t) stay in the dominant cone for all t?

        Checked at breakpoints only; each coordinate is affine per segment.
        """
        for t in self.breaks:
            v = self.value_at(t)
            if any(lam[i] + v[i] < 0 for i in range(self.rank())):
                return False
        return True


class LSPath(_PathBase):
    """An LS path; use make_path / straight_path instead of raw construction."""

    __slots__ = ("rs", "shape", "directions", "breaks", "checked", "_hash")

    def __init__(self, rs, shape, directions, breaks):
        self.rs = rs
        self.shape = shape
        self.directions = directions
        self.breaks = breaks
        self.checked = False
        self._hash = hash((shape, directions, breaks))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, LSPath)
            and self._hash == other._hash
            and self.rs == other.rs
            and self.shape == other.shape
            and self.directions == other.directions
            and self.breaks == other.breaks
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (
            self.shape,
            self.directions,
            tuple((b.numerator, b.denominator) for b in self.breaks),
        )

    def __repr__(self):
        inner = ", ".join(repr(d) for d in self.directions)
        times = ", ".join(str(b) for b in self.breaks)
        return "LSPath(%s; %s)" % (inner, times)

    def initial_direction(self):
        """The first direction; membership in Demazure crystals reads it."""
        return self.directions[0]

    def weight(self):
        """The endpoint, asserted integral."""
        w = self.endpoint()
        if any(isinstance(c, Fraction) for c in w):
            raise AssertionError("non-integral endpoint on %r" % self)
        return w

    def validate(self):
        """None if the path is a valid LS path, else the first violation."""
        rs = self.rs
        if not rs.is_dominant(self.shape):
            return "shape %r is not dominant" % (self.shape,)
        group = weyl_group(rs)
        poset = group.orbit_poset(self.shape)
        if not self.directions:
            return "no segments"
        for d in self.directions:
            if d not in poset:
                return "direction %r is not in the orbit of %r" % (d, self.shape)
        if self.breaks[0] != 0 or self.breaks[-1] != 1:
            return "breakpoints must run from 0 to 1"
        if any(a >= b for a, b in zip(self.breaks, self.breaks[1:])):
            return "breakpoints must increase strictly"
        for k in range(len(self.directions) - 1):
            hi, lo = self.directions[k], self.directions[k + 1]
            if hi == lo:
                return "adjacent directions %r repeat" % (hi,)
            if not poset.leq(lo, hi):
                return "directions %r, %r do not decrease" % (hi, lo)
            sigma = self.breaks[k + 1]
            if not poset.sigma_chain_exists(hi, lo, sigma):
                return "no %s-chain between %r and %r" % (sigma, hi, lo)
        w = self.endpoint()
        if any(isinstance(c, Fraction) for c in w):
            return "endpoint %r is not a lattice weight" % (w,)
        return None


class RawPath(_PathBase):
    """A piecewise-linear path that need not be an LS path of one shape."""

    __slots__ = ("rs", "directions", "breaks", "_hash")

    def __init__(self, rs, directions, breaks):
        directions, breaks = _normalize_segments(directions, breaks)
        self.rs = rs
        self.directions = directions
        self.breaks = breaks
        self._hash = hash((directions, breaks))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, RawPath)
            and self._hash == other._hash
            and self.rs == other.rs
            and self.directions == other.directions
            and self.breaks == other.breaks
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(repr(d) for d in self.directions)
        times = ", ".join(str(b) for b in self.breaks)
        return "RawPath(%s; %s)" % (inner, times)


# Every LSPath made by make_path, keyed by its fields; like the operator
# caches it lives as long as the process.
_INTERNED = {}


def make_path(rs, shape, directions, breaks):
    """The interned, normalized LSPath of the given shape.

    Equal inputs give the same object.  Validity is not enforced here.
    """
    directions, breaks = _normalize_segments(directions, breaks)
    key = (rs, normalize_coords(shape), directions, breaks)
    path = _INTERNED.get(key)
    if path is None:
        path = _INTERNED[key] = LSPath(*key)
    return path


def straight_path(rs, shape, x=None):
    """The straight path toward an orbit point x of the dominant shape."""
    shape = normalize_coords(shape)
    if x is None:
        x = shape
    x = normalize_coords(x)
    if x not in weyl_group(rs).orbit(shape):
        raise ValueError("%r is not in the orbit of %r" % (x, shape))
    return make_path(rs, shape, (x,), (Fraction(0), Fraction(1)))


def concatenate(first, second):
    """Concatenation: run `first` on [0, 1/2] doubled, then `second`.

    The result is a RawPath; the two inputs may have different shapes.
    """
    if first.rs != second.rs:
        raise ValueError("cannot concatenate paths over different root systems")
    half = Fraction(1, 2)
    dirs, brks = [], [Fraction(0)]
    for d, a, b in first.segments():
        dirs.append(vscale(2, d))
        brks.append(half * b)
    for d, a, b in second.segments():
        dirs.append(vscale(2, d))
        brks.append(half + half * b)
    return RawPath(first.rs, tuple(dirs), tuple(brks))


# -- serialization -----------------------------------------------------------


def fraction_to_str(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def fraction_from_str(s):
    return Fraction(s)


def path_to_json(path):
    return {
        "directions": [list(d) for d in path.directions],
        "breaks": [fraction_to_str(b) for b in path.breaks],
    }


def path_from_json(rs, data):
    directions = tuple(tuple(int(c) for c in d) for d in data["directions"])
    breaks = tuple(fraction_from_str(b) for b in data["breaks"])
    group = weyl_group(rs)
    shape = dominant_representative(group, directions[0])
    return make_path(rs, shape, directions, breaks)


def dominant_walk(group, x):
    """The dominant weight in the orbit of x and the word of the walk to it.

    Each step reflects x in the first simple root it pairs negatively with;
    for the word (i_1, ..., i_k) of those steps, x = s_{i_1} ... s_{i_k} (dominant).
    """
    x = normalize_coords(x)
    word = []
    while True:
        neg = [i for i in range(group.rs.rank) if x[i] < 0]
        if not neg:
            return x, tuple(word)
        word.append(neg[0] + 1)
        x = group.rs.simple_reflect(x, neg[0] + 1)


def dominant_representative(group, x):
    """The dominant weight in the orbit of x."""
    return dominant_walk(group, x)[0]
