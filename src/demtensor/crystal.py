"""Crystal structure: root operators, tensor rule, compiled crystals, characters.

The path-model operators `_path_f`/`_path_e` act on paths by the cutting
construction: locate the last (resp. first) time the height function
attains its minimum, the adjacent time it attains minimum + 1, reflect the
directions between the two times by the simple reflection, and leave the
rest untouched.  All of it reads the paths' integer ticks and marks:
heights are compared scaled by the path's denominator, and a cut time that
falls between ticks rescales the result's ticks by the least factor that
makes it whole.  They run when a crystal is generated and compiled, and on
the raw concatenated paths that `verify` checks the tensor rule against.

Each highest weight crystal B(lam) is generated once by closing the
straight path under `_path_f`, and then compiled (`CompiledCrystal`): its
elements are numbered 0..n-1 in `element_sort_key` order, and per-colour f
and e arrays (-1 for the formal zero), eps, phi and weight arrays hold the
whole structure as integers.  Compilation checks that the f and e arrays
are mutually inverse, that the straight path is the only top, and eps and
phi against the height function of every element; nothing of the path
operators' results is kept beyond the arrays.  A pair (a, b) of
B(lam) (x) B(mu) is the code a * |B(mu)| + b (`TensorCodes`), and the
tensor rule reads phi of the left id against eps of the right one.
`f_op`/`e_op` decode the step of an element's code in its compiled space,
a path's in its B(shape) and a pair's by that rule, and `eps`/`phi` count
steps along the compiled rows.  Ids follow the sort order, so code order is
the sort order of the pairs and the least element of a set is its minimum.
Components, isomorphism tests, closures and DOT output run on these
integers (`Subset`); paths and `TensorElement`s are decoded only for public
return values and output.
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


def _step(x, k):
    """Entry k of the compiled steps of x, decoded; None for the zero."""
    space = space_of(x)
    y = space._steps(space._encode(x))[k]
    return None if y < 0 else space._decode(y)


@lru_cache(maxsize=None)
def f_op(x, i):
    """Lowering operator; None plays the role of the formal zero.

    It is the step of x in its compiled space: the f table of a path's
    B(shape), or the tensor rule of `TensorCodes` on a pair's code."""
    return _step(x, 2 * i - 2)


@lru_cache(maxsize=None)
def e_op(x, i):
    """Raising operator; None plays the role of the formal zero."""
    return _step(x, 2 * i - 1)


def _string_steps(x, k):
    """How many times entry k of the compiled steps applies from x."""
    space = space_of(x)
    steps = space._steps
    c = steps(space._encode(x))[k]
    n = 0
    while c >= 0:
        n += 1
        c = steps(c)[k]
    return n


@lru_cache(maxsize=None)
def eps(x, i):
    """Number of raising steps to the top of the i-string through x."""
    return _string_steps(x, 2 * i - 1)


@lru_cache(maxsize=None)
def phi(x, i):
    """Number of lowering steps to the bottom of the i-string through x."""
    return _string_steps(x, 2 * i - 2)


def f_string_closure(elements, i):
    """Union of all lowering powers of a set, the formal zero dropped."""
    subset = compiled_subset(elements)
    if not subset.ids:
        return set()
    return set(subset.space._decoded(lower_closure(subset.space, subset.ids, i)))


# -- compiled crystals ------------------------------------------------------------


class CompiledCrystal:
    """A generated B(lam) with its elements numbered in sort order.

    `vertices[k]` is the element with id k, `index` maps back, and `top` is
    the id of the straight path.  Per colour i (at position i - 1), the
    tuples `f_table` and `e_table` give the id of f_i / e_i of every id, -1
    for the formal zero, and `eps_table` / `phi_table` its string position;
    `weights[k]` is the weight of id k.  The f table is read off `edges`,
    the (x, i) -> f_i(x) map of the generation, which is not kept; the e
    table is `_path_e` of every element.  The tables are checked to be
    mutually inverse partial maps with the top as the only element that e
    takes to zero in every colour, and the string positions against the
    height function of every element.  Per-element methods are private, so
    that the benchmark tracer (perfbench/spans.py), which wraps public
    callables, does not time each table lookup.
    """

    def __init__(self, rs, vertices, edges, top):
        self.rs = rs
        self.rank = rank = rs.rank
        self.vertices = tuple(sorted(vertices, key=element_sort_key))
        self.index = index = {x: k for k, x in enumerate(self.vertices)}
        self.top = index[top]
        n = len(self.vertices)
        f = [[-1] * n for _ in range(rank)]
        e = [[-1] * n for _ in range(rank)]
        for (x, i), y in edges.items():
            f[i - 1][index[x]] = index[y]
        for k, y in enumerate(self.vertices):
            for i in range(1, rank + 1):
                x = _path_e(y, i)
                if x is None:
                    continue
                j = index.get(x, -1)
                if j < 0 or f[i - 1][j] != k:
                    raise AssertionError("f_%d(e_%d(y)) != y at %r" % (i, i, y))
                e[i - 1][k] = j
        for i, fi, ei in zip(range(1, rank + 1), f, e):
            for k, y in enumerate(fi):
                if y >= 0 and ei[y] != k:
                    raise AssertionError("e_%d(f_%d(x)) != x at %r" % (i, i, self.vertices[k]))
        if [k for k in range(n) if all(ei[k] < 0 for ei in e)] != [self.top]:
            raise AssertionError("B(%r) has a top other than the straight path" % (top.shape,))
        eps_t, phi_t = _string_positions(f, e)
        for i, ep, ph in zip(range(1, rank + 1), eps_t, phi_t):
            for k, x in enumerate(self.vertices):
                heights = x._heights(i)
                low = min(heights)
                if ep[k] * x.den != -low or ph[k] * x.den != heights[-1] - low:
                    raise AssertionError(
                        "eps_%d, phi_%d = %d, %d of %r disagree with its heights"
                        % (i, i, ep[k], ph[k], x)
                    )
        self.f_table = tuple(map(tuple, f))
        self.e_table = tuple(map(tuple, e))
        self.eps_table = tuple(map(tuple, eps_t))
        self.phi_table = tuple(map(tuple, phi_t))
        self.weights = tuple(weight_of(x) for x in self.vertices)
        self._step_rows = tuple(
            tuple(y for fi, ei in zip(f, e) for y in (fi[k], ei[k])) for k in range(n)
        )

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, x):
        return x in self.index

    def _f(self, k, i):
        return self.f_table[i - 1][k]

    def _steps(self, k):
        return self._step_rows[k]

    def _weight(self, k):
        return self.weights[k]

    def _decode(self, k):
        return self.vertices[k]

    def _decoded(self, ids):
        vertices = self.vertices
        return frozenset(vertices[k] for k in ids)

    def _encode(self, x):
        k = self.index.get(x)
        if k is None:
            shape = self.vertices[self.top].shape
            raise ValueError("%r is not an element of the crystal of %r" % (x, shape))
        return k


def _string_positions(f, e):
    """Per colour, the eps and phi lists of every id: its place in the
    string walked down the f list from the id that e takes to zero."""
    n = len(f[0])
    eps_t = [[0] * n for _ in f]
    phi_t = [[0] * n for _ in f]
    for fi, ei, ep, ph in zip(f, e, eps_t, phi_t):
        for k in range(n):
            if ei[k] >= 0:
                continue
            string = [k]
            while fi[string[-1]] >= 0:
                string.append(fi[string[-1]])
            last = len(string) - 1
            for pos, y in enumerate(string):
                ep[y] = pos
                ph[y] = last - pos
    return eps_t, phi_t


class TensorCodes:
    """B(lam) (x) B(mu) of two compiled crystals, on pair codes.

    The pair of ids (a, b) is the code a * n + b with n = |B(mu)|, so code
    order is the sort order of the pairs.  The tensor rule reads the tables:
    f_i acts on the left factor when phi_i(a) > eps_i(b), e_i when
    phi_i(a) >= eps_i(b), and on the right factor otherwise.
    """

    __slots__ = ("rs", "rank", "left", "right", "n", "_colours", "_memo")

    def __init__(self, left, right):
        if left.rs != right.rs:
            raise ValueError("tensor factors over different root systems")
        self.rs = left.rs
        self.rank = left.rank
        self.left = left
        self.right = right
        self.n = len(right.vertices)
        self._colours = tuple(zip(
            left.phi_table, right.eps_table,
            left.f_table, right.f_table, left.e_table, right.e_table,
        ))
        self._memo = {}

    def __len__(self):
        return len(self.left.vertices) * self.n

    def _f(self, c, i):
        return self._steps(c)[2 * i - 2]

    def _steps(self, c):
        """[f_1(c), e_1(c), ..., f_r(c), e_r(c)], -1 for the formal zero.

        Memoized per code: the same product is searched for many (v, w).
        """
        out = self._memo.get(c)
        if out is not None:
            return out
        n = self.n
        a, b = divmod(c, n)
        out = []
        for phi_l, eps_r, fl, fr, el, er in self._colours:
            balance = phi_l[a] - eps_r[b]
            if balance > 0:
                y = fl[a]
                out.append(y if y < 0 else c + (y - a) * n)
            else:
                y = fr[b]
                out.append(y if y < 0 else c + y - b)
            if balance >= 0:
                y = el[a]
                out.append(y if y < 0 else c + (y - a) * n)
            else:
                y = er[b]
                out.append(y if y < 0 else c + y - b)
        out = self._memo[c] = tuple(out)
        return out

    def _weight(self, c):
        a, b = divmod(c, self.n)
        return vadd(self.left.weights[a], self.right.weights[b])

    def _decode(self, c):
        return TensorElement(self.left.vertices[c // self.n], self.right.vertices[c % self.n])

    def _decoded(self, codes):
        n, lv, rv = self.n, self.left.vertices, self.right.vertices
        return frozenset(TensorElement(lv[c // n], rv[c % n]) for c in codes)

    def _encode(self, x):
        return self.left._encode(x.left) * self.n + self.right._encode(x.right)

    def pairs(self, left_ids, right_ids):
        """The codes of all pairs of the two id sets."""
        n = self.n
        return frozenset(a * n + b for a in left_ids for b in right_ids)


@lru_cache(maxsize=None)
def tensor_space(left, right):
    """The pair codes of the product of two compiled crystals."""
    return TensorCodes(left, right)


class PairBox:
    """The codes of the pairs with left id in `left` and right id in `right`.

    Membership is tested factor by factor, so the set is never built.
    """

    __slots__ = ("left", "right", "n")

    def __init__(self, left, right, n):
        self.left = left
        self.right = right
        self.n = n

    def __contains__(self, c):
        return c // self.n in self.left and c % self.n in self.right

    def __len__(self):
        return len(self.left) * len(self.right)


class Subset:
    """Part of a compiled space (a crystal on ids, a product on pair codes).

    `ids` is any container of ids whose `in` is membership; searches that
    enumerate it need a finite iterable such as a frozenset or a range.
    It is not changed after construction: `tops` is scanned once and
    `elements` decoded once, and both are kept.
    """

    __slots__ = ("space", "ids", "_tops", "_elements")

    def __init__(self, space, ids):
        self.space = space
        self.ids = ids
        self._tops = None
        self._elements = None

    def __len__(self):
        return len(self.ids)

    def __contains__(self, x):
        return x in self.ids

    def elements(self):
        """The members decoded to crystal elements, on the first call; later
        calls return the same frozenset."""
        if self._elements is None:
            self._elements = self.space._decoded(self.ids) if self.ids else frozenset()
        return self._elements

    def tops(self):
        """The members that no raising operator keeps inside, in id order.

        The scan runs on the first call; later calls copy its result.
        """
        if self._tops is None:
            ids = self.ids
            if not ids:
                self._tops = ()
            else:
                steps = self.space._steps
                self._tops = tuple(
                    sorted(x for x in ids if all(y not in ids for y in steps(x)[1::2]))
                )
        return list(self._tops)


def space_of(x):
    """The compiled space of a crystal element: its B(lam), or the product
    of the two crystals of a pair of paths."""
    if isinstance(x, TensorElement) and isinstance(x.left, LSPath) and isinstance(x.right, LSPath):
        return tensor_space(space_of(x.left), space_of(x.right))
    if not isinstance(x, LSPath):
        raise ValueError("%r is not an element of a generated crystal" % (x,))
    return generate_crystal(x.rs, x.shape)


def compiled_subset(elements):
    """A set of crystal elements as a Subset of their one compiled space.

    Elements of several crystals have several highest weight vertices, one
    in each, and are refused as such.
    """
    if isinstance(elements, Subset):
        return elements
    members = frozenset(elements)
    spaces = {space_of(x) for x in members}
    if len(spaces) > 1:
        raise MultipleHighestWeights(
            "elements of %d crystals have more than one highest weight vertex" % len(spaces)
        )
    if not spaces:
        return Subset(None, frozenset())
    space = spaces.pop()
    return Subset(space, frozenset(map(space._encode, members)))


def lower_closure(space, ids, i):
    """The ids together with all their f_i-powers, the formal zero dropped.

    A walk down a string stops at the first id already taken, whose own
    string is then walked from it or was walked already.
    """
    grown = set(ids)
    f = space._f
    for x in ids:
        x = f(x, i)
        while x >= 0 and x not in grown:
            grown.add(x)
            x = f(x, i)
    return frozenset(grown)


# Largest crystal B(lam) generated by closure; the Weyl dimension formula
# refuses a larger one before any path is built.
CRYSTAL_SIZE_LIMIT = 10000


@lru_cache(maxsize=None)
def generate_crystal(rs, lam):
    """The highest weight crystal of a dominant weight, generated by closure
    under `_path_f` and compiled to integer tables."""
    if not rs.is_dominant(lam):
        raise ValueError("highest weight %r is not dominant" % (lam,))
    size = weyl_dimension(rs, lam)
    if size > CRYSTAL_SIZE_LIMIT:
        raise ValueError(
            "crystal of highest weight %r for %r too large to generate "
            "(%d elements, the limit is %d)" % (tuple(lam), rs, size, CRYSTAL_SIZE_LIMIT)
        )
    start = straight_path(rs, lam)
    vertices = {start}
    edges = {}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(1, rs.rank + 1):
                y = _path_f(x, i)
                if y is None:
                    continue
                edges[(x, i)] = y
                if weight_of(y) != tuple(
                    w - a for w, a in zip(weight_of(x), rs.simple_roots[i - 1].fw)
                ):
                    raise AssertionError("f_%d does not lower the weight of %r by a root" % (i, x))
                if y not in vertices:
                    vertices.add(y)
                    nxt.append(y)
        frontier = nxt
    return CompiledCrystal(rs, vertices, edges, start)


def tensor_product_elements(left_elements, right_elements):
    return frozenset(
        TensorElement(a, b) for a in left_elements for b in right_elements
    )


def _search(space, seed, member):
    """The ids reachable from the seed by f and e steps through members."""
    steps = space._steps
    seen = {seed}
    stack = [seed]
    while stack:
        for y in steps(stack.pop()):
            if y >= 0 and y not in seen and member(y):
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def induced_component(rs, seed, members):
    """Connected component of the induced graph through the seed.

    On a `Subset` the seed is an id (or pair code) of its space and so is
    the result.  Any other `members` is a finite set of crystal elements of
    one compiled space; it is encoded, the search runs on its codes, and
    the result is decoded.
    """
    if seed not in members:
        raise ValueError("seed does not satisfy the membership predicate")
    if isinstance(members, Subset):
        return _search(members.space, seed, members.ids.__contains__)
    subset = compiled_subset(members)
    space = subset.space
    return space._decoded(induced_component(rs, space._encode(seed), subset))


def components_of(rs, members):
    """All connected components of the induced graph, deterministically ordered."""
    subset = compiled_subset(members)
    remaining = set(subset.ids)
    out = []
    for x in sorted(subset.ids):
        if x not in remaining:
            continue
        comp = induced_component(rs, x, subset)
        remaining -= comp
        out.append(subset.space._decoded(comp))
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


def unique_top(rs, elements):
    """The single element of the set that no raising operator stays inside."""
    subset = compiled_subset(elements)
    tops = subset.tops()
    if len(tops) != 1:
        raise MultipleHighestWeights(
            "expected a unique highest weight vertex, got %d" % len(tops)
        )
    return subset.space._decode(tops[0])


def is_isomorphic(rs, a_elements, b_elements):
    """Colored, weight-preserving isomorphism of two anchored subcrystals.

    Each input is a `Subset` or a set of crystal elements.  Both must be
    connected with a unique source; the map is forced by matching sources
    and propagating along the induced edges in both directions, so
    existence is decided by a single sweep over ids.  Weights need only be
    compared at the sources: every edge of colour i lowers the weight by
    the i-th simple root on both sides.
    """
    a = compiled_subset(a_elements)
    b = compiled_subset(b_elements)
    tops_a = a.tops()
    tops_b = b.tops()
    if len(tops_a) != 1 or len(tops_b) != 1:
        raise MultipleHighestWeights(
            "inputs must have a unique highest weight vertex (got %d and %d)"
            % (len(tops_a), len(tops_b))
        )
    if len(a) != len(b):
        return False
    if a.space._weight(tops_a[0]) != b.space._weight(tops_b[0]):
        return False
    a_ids, b_ids = a.ids, b.ids
    steps_a, steps_b = a.space._steps, b.space._steps
    mapping = {tops_a[0]: tops_b[0]}
    stack = [tops_a[0]]
    while stack:
        x = stack.pop()
        for xa, yb in zip(steps_a(x), steps_b(mapping[x])):
            inside_a = xa >= 0 and xa in a_ids
            if inside_a != (yb >= 0 and yb in b_ids):
                return False
            if not inside_a:
                continue
            known = mapping.get(xa)
            if known is None:
                mapping[xa] = yb
                stack.append(xa)
            elif known != yb:
                return False
    return len(mapping) == len(a_ids) and len(set(mapping.values())) == len(b_ids)


# -- DOT export ---------------------------------------------------------------------


def _vertex_label(x):
    if isinstance(x, TensorElement):
        return "%s (x) %s" % (_vertex_label(x.left), _vertex_label(x.right))
    dirs = ",".join(str(list(d)) for d in x.directions)
    brks = ",".join(str(b) for b in x.breaks)
    return "wt=%s [%s; %s]" % (list(weight_of(x)), dirs, brks)


def to_dot(elements, name="crystal", highlight=()):
    """Graphviz digraph of the graph induced on a set of crystal elements
    (or a `Subset`), with edges labeled by colour, in id order."""
    subset = compiled_subset(elements)
    space = subset.space
    highlight = frozenset(highlight)
    ids = sorted(subset.ids)
    index = {c: k for k, c in enumerate(ids)}
    lines = ["digraph %s {" % name]
    for k, c in enumerate(ids):
        x = space._decode(c)
        style = ' style=filled fillcolor="lightgrey"' if x in highlight else ""
        lines.append('  n%d [label="%s"%s];' % (k, _vertex_label(x), style))
    for k, c in enumerate(ids):
        for i in range(1, space.rank + 1):
            y = index.get(space._f(c, i))
            if y is not None:
                lines.append('  n%d -> n%d [label=%d];' % (k, y, i))
    lines.append("}")
    return "\n".join(lines) + "\n"
