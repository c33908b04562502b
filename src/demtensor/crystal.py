"""Crystal structure: root operators, tensor rule, graphs, characters.

The raising/lowering operators act on paths by the cutting construction:
locate the last (resp. first) time the height function attains its minimum,
the adjacent time it attains minimum + 1, reflect the directions between the
two times by the simple reflection, and leave the rest untouched.  All of it
reads the paths' integer ticks and marks: heights are compared scaled by
the path's denominator, and a cut time that falls between ticks rescales
the result's ticks by the least factor that makes it whole.  On ordered
pairs they act by the tensor rule, choosing the factor from the sign of
phi(left) - eps(right).  Everything is exact and immutable; operator results
are memoized since graph searches revisit elements constantly.
"""

from functools import lru_cache
from math import gcd

from .cartan import vadd, weyl_dimension
from .lspath import LSPath, straight_path


class MultipleHighestWeights(Exception):
    """Isomorphism testing needs connected inputs with a unique top."""


class TensorElement:
    """An ordered pair of LS paths carrying the tensor crystal structure."""

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left, right):
        if left.rs != right.rs:
            raise ValueError("tensor factors over different root systems")
        self.left = left
        self.right = right
        self._hash = hash((left, right))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, TensorElement)
            and self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "%r (x) %r" % (self.left, self.right)

    @property
    def rs(self):
        return self.left.rs


def element_sort_key(x):
    """Canonical sort key; fixes the deterministic order of all reports."""
    if isinstance(x, TensorElement):
        return (1, x.left.sort_key(), x.right.sort_key())
    return (0, x.sort_key(), ())


# -- root operators on paths ---------------------------------------------------


def _reflect_between(path, i, scale, t0, t1):
    """Reflect the directions of `path` by s_i exactly on the ticks [t0, t1].

    The ticks count units of 1 / (den * scale); the result is renormalised.
    """
    alpha = path.rs.simple_roots[i - 1].fw
    ticks = path.ticks
    dirs, brks = [], [ticks[0] * scale]

    def emit(d, b):
        dirs.append(d)
        brks.append(b)

    for k, d in enumerate(path.directions):
        a, b = ticks[k] * scale, ticks[k + 1] * scale
        lo, hi = max(a, t0), min(b, t1)
        if lo >= hi:
            emit(d, b)
            continue
        if a < lo:
            emit(d, lo)
        emit(tuple(c - d[i - 1] * r for c, r in zip(d, alpha)), hi)
        if hi < b:
            emit(d, b)
    return path._with_segments(tuple(dirs), path.den * scale, tuple(brks))


def _cut(tick, rise, slope):
    """The time tick + rise / slope as (scale, ticks of 1 / (den * scale)),
    with the least scale that makes it a whole number of ticks."""
    scale = abs(slope) // gcd(rise, slope)
    return scale, tick * scale + rise * scale // slope


def _validated(path):
    """Validate an operator result; interned paths are checked only once."""
    if isinstance(path, LSPath) and not path.checked:
        problem = path.validate()
        if problem is not None:
            raise AssertionError("operator produced an invalid path: %s" % problem)
        path.checked = True
    return path


def _integral_minimum(path, i, heights):
    low = min(heights)
    if low % path.den:
        raise AssertionError("the %d-height of %r has a non-integral minimum" % (i, path))
    return low


def _path_f(path, i):
    heights = path._heights(i)
    low = _integral_minimum(path, i, heights)
    if low == heights[-1]:
        return None
    ticks = path.ticks
    k0 = len(heights) - 1 - heights[::-1].index(low)
    target = low + path.den
    for j in range(k0 + 1, len(heights)):
        if heights[j] >= target:
            slope = path.directions[j - 1][i - 1]
            scale, t1 = _cut(ticks[j - 1], target - heights[j - 1], slope)
            return _validated(_reflect_between(path, i, scale, ticks[k0] * scale, t1))
    raise AssertionError(
        "the %d-height never reaches %s after %s" % (i, low // path.den + 1, path.breaks[k0])
    )


def _path_e(path, i):
    heights = path._heights(i)
    low = _integral_minimum(path, i, heights)
    if low == 0:
        return None
    ticks = path.ticks
    k1 = heights.index(low)
    target = low + path.den
    for j in range(k1, 0, -1):
        if heights[j - 1] >= target:
            slope = path.directions[j - 1][i - 1]
            scale, t0 = _cut(ticks[j - 1], target - heights[j - 1], slope)
            return _validated(_reflect_between(path, i, scale, t0, ticks[k1] * scale))
    raise AssertionError(
        "the %d-height never reaches %s before %s" % (i, low // path.den + 1, path.breaks[k1])
    )


# -- generic crystal maps -------------------------------------------------------


@lru_cache(maxsize=None)
def weight_of(x):
    if isinstance(x, TensorElement):
        return vadd(weight_of(x.left), weight_of(x.right))
    if isinstance(x, LSPath):
        return x.weight()
    return x.endpoint()


@lru_cache(maxsize=None)
def f_op(x, i):
    """Lowering operator; None plays the role of the formal zero."""
    if isinstance(x, TensorElement):
        if phi(x.left, i) > eps(x.right, i):
            y = f_op(x.left, i)
            return None if y is None else TensorElement(y, x.right)
        y = f_op(x.right, i)
        return None if y is None else TensorElement(x.left, y)
    return _path_f(x, i)


@lru_cache(maxsize=None)
def e_op(x, i):
    """Raising operator; None plays the role of the formal zero."""
    if isinstance(x, TensorElement):
        if phi(x.left, i) >= eps(x.right, i):
            y = e_op(x.left, i)
            return None if y is None else TensorElement(y, x.right)
        y = e_op(x.right, i)
        return None if y is None else TensorElement(x.left, y)
    return _path_e(x, i)


@lru_cache(maxsize=None)
def eps(x, i):
    """Number of raising steps to the top of the i-string through x."""
    if isinstance(x, TensorElement):
        return max(
            eps(x.left, i),
            eps(x.right, i) - x.rs.pairing(weight_of(x.left), i),
        )
    n = 0
    y = e_op(x, i)
    while y is not None:
        n += 1
        y = e_op(y, i)
    if n * x.den != -min(x._heights(i)):
        raise AssertionError("eps(%r, %d) = %d disagrees with the minimal height" % (x, i, n))
    return n


@lru_cache(maxsize=None)
def phi(x, i):
    """Number of lowering steps to the bottom of the i-string through x."""
    if isinstance(x, TensorElement):
        return max(
            phi(x.right, i),
            phi(x.left, i) + x.rs.pairing(weight_of(x.right), i),
        )
    n = 0
    y = f_op(x, i)
    while y is not None:
        n += 1
        y = f_op(y, i)
    heights = x._heights(i)
    if n * x.den != heights[-1] - min(heights):
        raise AssertionError("phi(%r, %d) = %d disagrees with the final height" % (x, i, n))
    return n


def f_power(x, i, n):
    for _ in range(n):
        if x is None:
            return None
        x = f_op(x, i)
    return x


def e_power(x, i, n):
    for _ in range(n):
        if x is None:
            return None
        x = e_op(x, i)
    return x


def emax(x, i):
    return e_power(x, i, eps(x, i))


def fmax(x, i):
    return f_power(x, i, phi(x, i))


def reflection_lift(x, i):
    """Move x along its i-string to the position with reflected weight."""
    pairing = x.rs.pairing(weight_of(x), i)
    if pairing >= 0:
        return f_power(x, i, pairing)
    return e_power(x, i, -pairing)


def f_string_closure(elements, i):
    """Union of all lowering powers of a set, the formal zero dropped."""
    out = set()
    for x in elements:
        while x is not None:
            out.add(x)
            x = f_op(x, i)
    return out


# -- graphs ----------------------------------------------------------------------


class CrystalGraph:
    """A finite crystal graph: vertices plus deterministic colored edges."""

    def __init__(self, rs, vertices, edges):
        self.rs = rs
        self.vertices = tuple(sorted(vertices, key=element_sort_key))
        self.edges = edges
        self.highest_weight_vertices = tuple(
            x
            for x in self.vertices
            if all(e_op(x, i) is None for i in range(1, rs.rank + 1))
        )

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, x):
        return x in self._vertex_set()

    def _vertex_set(self):
        if not hasattr(self, "_vset"):
            self._vset = frozenset(self.vertices)
        return self._vset

    def i_strings(self, i):
        """The partition of the vertex set into i-strings, tops first.

        Only meaningful when the vertex set is closed under the i-operators
        (full crystals and full products are); checked, not assumed.
        """
        members = self._vertex_set()
        seen = set()
        strings = []
        for x in self.vertices:
            if x in seen:
                continue
            top = emax(x, i)
            string = [top]
            y = f_op(top, i)
            while y is not None:
                string.append(y)
                y = f_op(y, i)
            if any(z not in members for z in string):
                raise ValueError("vertex set is not closed under color %d" % i)
            seen.update(string)
            strings.append(tuple(string))
        return strings


# Largest crystal B(lam) generated by closure; the Weyl dimension formula
# refuses a larger one before any path is built.
CRYSTAL_SIZE_LIMIT = 10000


def refuse_oversized(rs, lam):
    """Raise ValueError when B(lam) has more than CRYSTAL_SIZE_LIMIT elements."""
    size = weyl_dimension(rs, lam)
    if size > CRYSTAL_SIZE_LIMIT:
        raise ValueError(
            "crystal of highest weight %r for %r too large to generate "
            "(%d elements, the limit is %d)" % (tuple(lam), rs, size, CRYSTAL_SIZE_LIMIT)
        )


@lru_cache(maxsize=None)
def generate_crystal(rs, lam):
    """The highest weight crystal of a dominant weight, generated by closure."""
    if not rs.is_dominant(lam):
        raise ValueError("highest weight %r is not dominant" % (lam,))
    refuse_oversized(rs, lam)
    start = straight_path(rs, lam)
    vertices = {start}
    edges = {}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(1, rs.rank + 1):
                y = f_op(x, i)
                if y is None:
                    continue
                edges[(x, i)] = y
                if e_op(y, i) != x:
                    raise AssertionError("e_%d(f_%d(x)) != x at %r" % (i, i, x))
                if weight_of(y) != tuple(
                    w - a for w, a in zip(weight_of(x), rs.simple_roots[i - 1].fw)
                ):
                    raise AssertionError("f_%d does not lower the weight of %r by a root" % (i, x))
                if y not in vertices:
                    vertices.add(y)
                    nxt.append(y)
        frontier = nxt
    graph = CrystalGraph(rs, vertices, edges)
    if graph.highest_weight_vertices != (start,):
        raise AssertionError("B(%r) has a top other than the straight path" % (lam,))
    return graph


def tensor_product_elements(left_elements, right_elements):
    return frozenset(
        TensorElement(a, b) for a in left_elements for b in right_elements
    )


def graph_on(rs, elements):
    """The graph induced on a subset: edges whose two ends both belong."""
    members = frozenset(elements)
    edges = {}
    for x in members:
        for i in range(1, rs.rank + 1):
            y = f_op(x, i)
            if y is not None and y in members:
                edges[(x, i)] = y
    return CrystalGraph(rs, members, edges)


def induced_component(rs, seed, members):
    """Connected component of the induced graph through the seed.

    `members` is any container whose `in` is the membership predicate.
    """
    if seed not in members:
        raise ValueError("seed does not satisfy the membership predicate")
    seen = {seed}
    stack = [seed]
    while stack:
        x = stack.pop()
        for i in range(1, rs.rank + 1):
            for y in (f_op(x, i), e_op(x, i)):
                if y is not None and y in members and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return frozenset(seen)


def components_of(rs, members):
    """All connected components of the induced graph, deterministically ordered."""
    members = frozenset(members)
    remaining = set(members)
    out = []
    for x in sorted(members, key=element_sort_key):
        if x not in remaining:
            continue
        comp = induced_component(rs, x, members)
        remaining -= comp
        out.append(comp)
    return out


# -- characters -------------------------------------------------------------------


class CharPoly:
    """A finitely supported integer map on the weight lattice."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = dict(terms)
        self.terms = {w: c for w, c in data.items() if c != 0}

    @classmethod
    def monomial(cls, weight, coeff=1):
        return cls({tuple(weight): coeff})

    def __eq__(self, other):
        return isinstance(other, CharPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return CharPoly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return CharPoly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return CharPoly({w: other * c for w, c in self.terms.items()})
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = vadd(w1, w2)
                out[w] = out.get(w, 0) + c1 * c2
        return CharPoly(out)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, weight):
        return self.terms.get(tuple(weight), 0)

    def support(self):
        return sorted(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            c = self.terms[w]
            bits.append("%+d*e%r" % (c, (w,)))
        return " ".join(bits)


def character(elements):
    """Weight generating function of a finite set of crystal elements."""
    out = {}
    for x in elements:
        w = weight_of(x)
        out[w] = out.get(w, 0) + 1
    return CharPoly(out)


# -- isomorphism -------------------------------------------------------------------


def _tops(rs, members):
    return [
        x
        for x in members
        if all(e_op(x, i) not in members for i in range(1, rs.rank + 1))
    ]


def unique_top(rs, elements):
    """The single element of the set that no raising operator stays inside."""
    tops = _tops(rs, frozenset(elements))
    if len(tops) != 1:
        raise MultipleHighestWeights(
            "expected a unique highest weight vertex, got %d" % len(tops)
        )
    return tops[0]


def is_isomorphic(rs, a_elements, b_elements):
    """Colored, weight-preserving isomorphism of two anchored subcrystals.

    Both inputs must be connected with a unique source; the map is forced by
    matching sources and propagating along the induced edges in both
    directions, so existence is decided by a single sweep.
    """
    a_members = frozenset(a_elements)
    b_members = frozenset(b_elements)
    tops_a = _tops(rs, a_members)
    tops_b = _tops(rs, b_members)
    if len(tops_a) != 1 or len(tops_b) != 1:
        raise MultipleHighestWeights(
            "inputs must have a unique highest weight vertex (got %d and %d)"
            % (len(tops_a), len(tops_b))
        )
    if len(a_members) != len(b_members):
        return False

    def step(members, x, i, lower):
        y = f_op(x, i) if lower else e_op(x, i)
        return y if (y is not None and y in members) else None

    mapping = {tops_a[0]: tops_b[0]}
    stack = [tops_a[0]]
    while stack:
        a = stack.pop()
        b = mapping[a]
        if weight_of(a) != weight_of(b):
            return False
        for i in range(1, rs.rank + 1):
            for lower in (True, False):
                ya = step(a_members, a, i, lower)
                yb = step(b_members, b, i, lower)
                if (ya is None) != (yb is None):
                    return False
                if ya is None:
                    continue
                known = mapping.get(ya)
                if known is None:
                    mapping[ya] = yb
                    stack.append(ya)
                elif known != yb:
                    return False
    if len(mapping) != len(a_members) or len(set(mapping.values())) != len(b_members):
        return False
    return True


# -- DOT export ---------------------------------------------------------------------


def _vertex_label(x):
    if isinstance(x, TensorElement):
        return "%s (x) %s" % (_vertex_label(x.left), _vertex_label(x.right))
    dirs = ",".join(str(list(d)) for d in x.directions)
    brks = ",".join(str(b) for b in x.breaks)
    return "wt=%s [%s; %s]" % (list(weight_of(x)), dirs, brks)


def to_dot(graph, name="crystal", highlight=()):
    """Graphviz digraph with edges labeled by color, deterministic order."""
    highlight = frozenset(highlight)
    index = {x: k for k, x in enumerate(graph.vertices)}
    lines = ["digraph %s {" % name]
    for x in graph.vertices:
        style = ' style=filled fillcolor="lightgrey"' if x in highlight else ""
        lines.append('  n%d [label="%s"%s];' % (index[x], _vertex_label(x), style))
    for (x, i), y in sorted(
        graph.edges.items(), key=lambda kv: (index[kv[0][0]], kv[0][1])
    ):
        lines.append('  n%d -> n%d [label=%d];' % (index[x], index[y], i))
    lines.append("}")
    return "\n".join(lines) + "\n"
