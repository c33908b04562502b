"""Lakshmibai-Seshadri paths and raw piecewise-linear paths.

An LS path of shape lam is the pair of a strictly decreasing direction
sequence in the orbit W.lam and rational breakpoints 0 = a_0 < ... < a_r = 1;
the path itself is the piecewise-linear map with slope nu_k on
[a_{k-1}, a_k].  Concatenations of paths of different shapes live in
RawPath, which drops the orbit bookkeeping but shares the representation
and the root-operator machinery.  Paths are immutable and kept in a normal
form (no zero-length segments, no equal adjacent directions), so structural
equality is path equality.  The public constructors (`make_path`,
`LSPath(...)`, `RawPath(...)`, `concatenate`) bring their input to normal
form with `_canonical`.  The root operators of `crystal` emit normal-form
fields in their one pass and hand them to `_intern` or `_raw_path`, which
take the fields as they are.

Breakpoints are stored as integer ticks over one denominator: `den` is the
least common denominator of the a_k and `ticks[k] = a_k * den`, so
gcd(den, *ticks) == 1 and the form is canonical.  `marks` holds the value of
the path at each breakpoint scaled by den, the integer vectors
den * pi(a_0), ..., den * pi(a_r) laid end to end in one flat tuple, so
`marks[i-1::rank]` is the i-height profile scaled by den.  Root operators,
heights, weights, dominance and validation read only these integers.
Fractions appear only at the edges: the constructors and `make_path` take
rational breakpoints, and `breaks` (built on first use),
`height_profile` and `value_at` give rationals back for JSON, DOT and
callers.

LS paths are hash-consed: `make_path` keeps one table keyed by
(root system, shape, directions, den, ticks) and returns the same object
for every request of the same path, so each distinct path exists once.
Every path computes its hash once, at construction, and equality returns
early on identity; the structural comparison stays as the fallback for
paths built directly.  An interned path also carries `checked`, set by the
root operators once the path has passed `validate`, so each distinct path
an operator produces is validated exactly once.

`dominant_walk` is the one orbit map: it sends a weight x to the pair
(lam, u) of its dominant form and the minimal coset representative u
with x = u lam, and it is the only orbit memo keyed by weight.  Key
indices and ranks, the witness recursion's transport, the candidate that
`demazure_match` closes inside a product, and the orbit order all read it.

Validation reads the order on an orbit W lam off the Weyl tables, with no
orbit structure of its own.  A direction x lies in W lam when its dominant
walk ends at lam.  The order is Bruhat order on the walks'
representatives, graded by their length (`orbit_leq`), and an a-chain is
searched down the covers of that order, one length step at a time.  The
chain searches are memoized.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import ge, mod

from .cartan import normalize_coords, vscale
from .weyl import weyl_group


def _ticks_of(breaks):
    """Rational breakpoints as (den, ticks) over their least common denominator."""
    breaks = [Fraction(b) for b in breaks]
    den = lcm(*(b.denominator for b in breaks))
    return den, tuple(b.numerator * (den // b.denominator) for b in breaks)


def _canonical(directions, den, ticks):
    """Drop empty segments, merge equal adjacent directions, and divide the
    ticks and den by their gcd."""
    dirs, tks = [], [ticks[0]]
    for k, d in enumerate(directions):
        b = ticks[k + 1]
        if b == ticks[k]:
            continue
        if dirs and dirs[-1] == d:
            tks[-1] = b
        else:
            dirs.append(d)
            tks.append(b)
    g = gcd(den, *tks)
    if g > 1:
        den //= g
        tks = [t // g for t in tks]
    return tuple(dirs), den, tuple(tks)


def _normalize_segments(directions, breaks):
    """Normal form of directions and rational breakpoints, as (dirs, den, ticks)."""
    den, ticks = _ticks_of(breaks)
    return _canonical([normalize_coords(d) for d in directions], den, ticks)


def _scaled_marks(directions, ticks, rank):
    """den * pi(a_k) for every breakpoint, flattened."""
    acc = [0] * rank
    out = list(acc)
    for k, d in enumerate(directions):
        step = ticks[k + 1] - ticks[k]
        acc = [a + step * c for a, c in zip(acc, d)]
        out.extend(acc)
    return tuple(out)


def _unscale(values, den):
    """Divide integers by den: ints where exact, Fractions elsewhere."""
    return tuple(v // den if v % den == 0 else Fraction(v, den) for v in values)


class _PathBase:
    """Shared evaluation machinery for LSPath and RawPath."""

    __slots__ = ()

    def _set_segments(self, rs, directions, den, ticks):
        self.rs = rs
        self.directions = directions
        self.den = den
        self.ticks = ticks
        self.marks = _scaled_marks(directions, ticks, rs.rank)
        self._breaks = None

    def _heights(self, i):
        """The i-height at every breakpoint, scaled by den."""
        rank = self.rs.rank
        if not 1 <= i <= rank:
            raise IndexError("simple index %d out of range for rank %d" % (i, rank))
        return self.marks[i - 1::rank]

    @property
    def breaks(self):
        """The breakpoints as Fractions, built on first use."""
        if self._breaks is None:
            self._breaks = tuple(Fraction(t, self.den) for t in self.ticks)
        return self._breaks

    def value_at(self, t):
        """Exact value of the path at rational time t in [0, 1]."""
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise ValueError("time %s outside [0, 1]" % t)
        p, q = t.numerator, t.denominator
        rank, den, ticks, marks = self.rs.rank, self.den, self.ticks, self.marks
        for k, d in enumerate(self.directions):
            if p * den <= ticks[k + 1] * q:
                run = p * den - ticks[k] * q
                start = marks[k * rank:(k + 1) * rank]
                return _unscale([m * q + run * c for m, c in zip(start, d)], den * q)
        return self.endpoint()

    def endpoint(self):
        return _unscale(self.marks[-self.rs.rank:], self.den)

    def height(self, i, t):
        """Pairing of the path value at time t with the i-th simple coroot."""
        return self.rs.pairing(self.value_at(t), i)

    def height_profile(self, i):
        """Heights at the breakpoints (piecewise-affine, so extrema sit there)."""
        den = self.den
        return [Fraction(h, den) for h in self._heights(i)]

    def is_dominant_for(self, lam):
        """Does lam + path(t) stay in the dominant cone for all t?

        Checked at breakpoints only; each coordinate is affine per segment.
        """
        rank, den, marks = self.rs.rank, self.den, self.marks
        return all(lam[c] * den + min(marks[c::rank]) >= 0 for c in range(rank))


class LSPath(_PathBase):
    """An LS path; use make_path / straight_path instead of raw construction."""

    __slots__ = (
        "rs", "shape", "directions", "den", "ticks", "marks", "checked", "_breaks", "_hash",
    )

    def __init__(self, rs, shape, directions, breaks):
        self._set(rs, normalize_coords(shape), *_normalize_segments(directions, breaks))

    def _set(self, rs, shape, directions, den, ticks):
        self._set_segments(rs, directions, den, ticks)
        self.shape = shape
        self.checked = False
        self._hash = hash((shape, directions, ticks))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, LSPath)
            and self._hash == other._hash
            and self.rs == other.rs
            and self.shape == other.shape
            and self.directions == other.directions
            and self.den == other.den
            and self.ticks == other.ticks
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        den, ticks = self.den, self.ticks
        reduced = [(t // g, den // g) for t, g in zip(ticks, map(gcd, ticks, repeat(den)))]
        return (self.shape, self.directions, tuple(reduced))

    def __repr__(self):
        inner = ", ".join(repr(d) for d in self.directions)
        times = ", ".join(str(b) for b in self.breaks)
        return "LSPath(%s; %s)" % (inner, times)

    def initial_direction(self):
        """The first direction; membership in Demazure crystals reads it."""
        return self.directions[0]

    def weight(self):
        """The endpoint, asserted integral."""
        weight, rest = zip(*map(divmod, self.marks[-self.rs.rank:], repeat(self.den)))
        if any(rest):
            raise AssertionError("non-integral endpoint on %r" % self)
        return weight

    def validate(self):
        """None if the path is a valid LS path, else the first violation.

        Orbit membership, the order of the directions and their a-chains
        are read off the Weyl tables.  Each direction's dominant walk is
        read once: it must end at the shape (`in_orbit`), and adjacent
        directions must decrease in Bruhat order on the walks'
        representatives (`orbit_leq`) with an a-chain between them
        (`_chain_exists`).
        """
        rs, shape, directions = self.rs, self.shape, self.directions
        if not rs.is_dominant(shape):
            return "shape %r is not dominant" % (shape,)
        group = weyl_group(rs)
        if not directions:
            return "no segments"
        reps = []
        for d in directions:
            walk = _dominant_walk(group, d) if len(d) == rs.rank else None
            if walk is None or walk[0] != shape:
                return "direction %r is not in the orbit of %r" % (d, shape)
            reps.append(walk[1])
        den, ticks = self.den, self.ticks
        if ticks[0] != 0 or ticks[-1] != den:
            return "breakpoints must run from 0 to 1"
        if any(map(ge, ticks, ticks[1:])):
            return "breakpoints must increase strictly"
        for k in range(len(directions) - 1):
            hi, lo = directions[k], directions[k + 1]
            if hi == lo:
                return "adjacent directions %r repeat" % (hi,)
            if not group.bruhat_leq(reps[k + 1], reps[k]):
                return "directions %r, %r do not decrease" % (hi, lo)
            g = gcd(ticks[k + 1], den)
            if not _chain_exists(group, hi, lo, ticks[k + 1] // g, den // g):
                return "no %s-chain between %r and %r" % (self.breaks[k + 1], hi, lo)
        if any(map(mod, self.marks[-rs.rank:], repeat(den))):
            return "endpoint %r is not a lattice weight" % (self.endpoint(),)
        return None


class RawPath(_PathBase):
    """A piecewise-linear path that need not be an LS path of one shape."""

    __slots__ = ("rs", "directions", "den", "ticks", "marks", "_breaks", "_hash")

    def __init__(self, rs, directions, breaks):
        self._set(rs, *_normalize_segments(directions, breaks))

    def _set(self, rs, directions, den, ticks):
        self._set_segments(rs, directions, den, ticks)
        self._hash = hash((directions, ticks))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, RawPath)
            and self._hash == other._hash
            and self.rs == other.rs
            and self.directions == other.directions
            and self.den == other.den
            and self.ticks == other.ticks
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(repr(d) for d in self.directions)
        times = ", ".join(str(b) for b in self.breaks)
        return "RawPath(%s; %s)" % (inner, times)


# Every LSPath made by make_path or a root operator, keyed by its fields;
# like the operator caches it lives as long as the process.
_INTERNED = {}


def _intern(rs, shape, directions, den, ticks):
    """The one LSPath with these normal-form fields."""
    key = (rs, shape, directions, den, ticks)
    path = _INTERNED.get(key)
    if path is None:
        path = _INTERNED[key] = LSPath.__new__(LSPath)
        path._set(*key)
    return path


def _raw_path(rs, directions, den, ticks):
    """The RawPath with these normal-form fields."""
    path = RawPath.__new__(RawPath)
    path._set(rs, directions, den, ticks)
    return path


def make_path(rs, shape, directions, breaks):
    """The interned, normalized LSPath of the given shape.

    Equal inputs give the same object.  Validity is not enforced here.
    """
    return _intern(rs, normalize_coords(shape), *_normalize_segments(directions, breaks))


def straight_path(rs, shape, x=None):
    """The straight path toward an orbit point x of the dominant shape."""
    shape = normalize_coords(shape)
    if x is None:
        x = shape
    x = normalize_coords(x)
    if not in_orbit(weyl_group(rs), x, shape):
        raise ValueError("%r is not in the orbit of %r" % (x, shape))
    return _intern(rs, shape, (x,), 1, (0, 1))


def concatenate(first, second):
    """Concatenation: run `first` on [0, 1/2] doubled, then `second`.

    The result is a RawPath over 2 * lcm of the two denominators; the two
    inputs may have different shapes.
    """
    if first.rs != second.rs:
        raise ValueError("cannot concatenate paths over different root systems")
    half = lcm(first.den, second.den)
    a, b = half // first.den, half // second.den
    dirs = tuple(vscale(2, d) for d in first.directions + second.directions)
    ticks = (
        (0,)
        + tuple(a * t for t in first.ticks[1:])
        + tuple(half + b * t for t in second.ticks[1:])
    )
    return _raw_path(first.rs, *_canonical(dirs, 2 * half, ticks))


# -- serialization -----------------------------------------------------------


def fraction_to_str(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def path_to_json(path):
    return {
        "directions": [list(d) for d in path.directions],
        "breaks": [fraction_to_str(b) for b in path.breaks],
    }


def path_from_json(rs, data):
    """The LS path of a `path_to_json` form; ValueError unless it is one."""
    if not {"directions", "breaks"} <= set(data):
        raise ValueError("path needs 'directions' and 'breaks', has %r" % sorted(data))
    directions = tuple(tuple(int(c) for c in d) for d in data["directions"])
    breaks = tuple(Fraction(b) for b in data["breaks"])
    if not directions or len(breaks) != len(directions) + 1:
        counts = (len(directions), len(breaks))
        raise ValueError("%d directions and %d breaks, not n >= 1 and n + 1" % counts)
    for d in directions:
        if len(d) != rs.rank:
            raise ValueError("direction %r has %d coordinates, not %d" % (d, len(d), rs.rank))
    shape = dominant_walk(weyl_group(rs), directions[0])[0]
    path = make_path(rs, shape, directions, breaks)
    problem = path.validate()
    if problem:
        raise ValueError("directions %r are not an LS path: %s" % (directions, problem))
    return path


def dominant_walk(group, x):
    """(lam, u): the dominant weight lam in the orbit of x and the minimal
    representative u of the coset modulo the stabilizer of lam with x = u lam.

    Each step reflects x in the first simple root it pairs negatively with;
    the word (i_1, ..., i_k) of those steps is a reduced word of u, so
    x = s_{i_1} ... s_{i_k} lam (Deodhar, Invent. Math. 1977).  Memoized by
    (group, x).  An integral Fraction hashes and compares equal to its int,
    so a tuple is looked up as it is and normalized on a miss only; lam is
    int-normalized either way.
    """
    return _dominant_walk(group, x if type(x) is tuple else normalize_coords(x))


@lru_cache(maxsize=None)
def _dominant_walk(group, x):
    x = normalize_coords(x)
    word = []
    while True:
        neg = [i for i in range(group.rs.rank) if x[i] < 0]
        if not neg:
            return x, group.from_word(word)
        word.append(neg[0] + 1)
        x = group.rs.simple_reflect(x, neg[0] + 1)


def in_orbit(group, x, lam):
    """Is x in the orbit W lam of the dominant weight lam?"""
    return len(x) == group.rs.rank and _dominant_walk(group, x)[0] == lam


def orbit_leq(group, lo, hi):
    """lo <= hi in the order on an orbit W lam.

    This is Bruhat order on the minimal representatives modulo W_lam
    (Deodhar, Invent. Math. 1977), graded by their length, so lam is the
    minimum and w_0 lam the maximum.  Both points must lie in one orbit.
    """
    return group.bruhat_leq(_dominant_walk(group, lo)[1], _dominant_walk(group, hi)[1])


@lru_cache(maxsize=None)
def _chain_exists(group, hi, lo, tick, den):
    """Is there a chain of covers hi > ... > lo in the orbit order along
    which tick/den times every pairing is an integer?

    A cover steps from x to s_beta x for a positive root beta with
    <x, beta^vee> < 0 whose representative is exactly one shorter; it
    counts only if it stays above lo and tick * <x, beta^vee> % den == 0.
    tick/den is in lowest terms, so the memo has one entry per fraction.
    """
    if hi == lo:
        return True
    rs = group.rs
    bottom = _dominant_walk(group, lo)[1]
    step_len = group.length(_dominant_walk(group, hi)[1]) - 1
    for beta in rs.positive_roots:
        pairing = rs.root_pairing(hi, beta)
        if pairing < 0 and tick * pairing % den == 0:
            y = rs.reflect(hi, beta)
            rep = _dominant_walk(group, y)[1]
            if (
                group.length(rep) == step_len
                and group.bruhat_leq(bottom, rep)
                and _chain_exists(group, y, lo, tick, den)
            ):
                return True
    return False
