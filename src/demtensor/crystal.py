"""Crystal structure: root operators, tensor rule, compiled crystals, characters.

The path-model operators `_path_f`/`_path_e` act on paths by the cutting
construction: locate the last (resp. first) time the height function
attains its minimum, the adjacent time it attains minimum + 1, reflect the
directions between the two times by the simple reflection, and leave the
rest untouched.  All of it reads the paths' integer ticks and marks:
heights are compared scaled by the path's denominator, and a cut time that
falls between ticks rescales the result's ticks by the least factor that
makes it whole.  One application is one pass: the operator reads the
i-heights off the marks once, checks that their minimum is integral and
finds both cut times; `_reflect_between` emits the segments before the
cut, the reflected run (s_i d from a memo per root system and colour) and
the segments after it, merges (`_merge`) a junction of the run where the
directions agree, divides by the gcd once and hands the normal-form fields
to `lspath._intern` (validated the first time it is made) or `_raw_path`.
No intermediate path is built and nothing is normalized twice.  The
operators run when a crystal is generated and compiled, and on the raw
concatenated paths that `verify` checks the tensor rule against.

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

Both kinds of space hold their steps in rows (`_Rows`): row a lists f_i and
e_i of the codes a * n .. a * n + n - 1.  A crystal is one row; a product
fills the row of a left id on first touch, so only the left ids a search
meets cost anything.  The hot readers (searches, the closure, tops, the
labelling pass of `components_of`, isomorphism and string tests) index the
rows themselves.  `lower_closure` is the one closure of the package: it
grows a set of ids along the lowering strings of a word, read right to
left.  Demazure crystals, the word closures of products, the grown side
of the recursion formula and the closed side of the product rule are its
results.  `f_op`/`e_op` decode the step of an element's code in its
compiled space, and `eps`/`phi` count steps along the rows.  Ids follow the
sort order, so code order is the sort order of the pairs and the least
element of a set is its minimum.  Components, isomorphism tests, closures
and DOT output run on these integers (`Subset`); paths and `TensorElement`s
are decoded only for public return values and output.
"""
from functools import lru_cache
from math import gcd
from operator import sub

from .cartan import vadd, weyl_dimension
from .lspath import LSPath, _intern, _raw_path, straight_path


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


class _Reflections(dict):
    """s_i d for every direction d met so far, one table per (root system, i);
    a table holds at most the directions of the paths its operators see."""

    __slots__ = ("rs", "i")

    def __init__(self, rs, i):
        super().__init__()
        self.rs = rs
        self.i = i

    def __missing__(self, d):
        r = self[d] = self.rs.simple_reflect(d, self.i)
        return r


@lru_cache(maxsize=None)
def _reflections(rs, i):
    return _Reflections(rs, i)


def _merge(dirs, ticks, more_dirs, more_ticks):
    """Append the segments (more_dirs, more_ticks) to the run (dirs, ticks),
    as one segment where the two directions that meet are equal."""
    if dirs and more_dirs and dirs[-1] == more_dirs[0]:
        ticks[-1] = more_ticks[0]
        dirs.extend(more_dirs[1:])
        ticks.extend(more_ticks[1:])
    else:
        dirs.extend(more_dirs)
        ticks.extend(more_ticks)


def _reflect_between(path, i, scale, p, t0, q, t1):
    """`path` with its directions reflected by s_i exactly on [t0, t1], in
    normal form: an LSPath interned and validated, or a RawPath.

    Times count units of 1 / (den * scale); t0 lies in segment p
    (ticks[p] <= t0 < ticks[p + 1]) and t1 in segment q
    (ticks[q] < t1 <= ticks[q + 1]).  The input is in normal form and s_i
    moves the direction of a cut segment, so equal directions can meet only
    where the reflected run starts or ends at a breakpoint of the path;
    `_merge` joins the segments there.
    """
    directions = path.directions
    ticks = path.ticks if scale == 1 else [t * scale for t in path.ticks]
    flip = _reflections(path.rs, i)
    dirs, tks = list(directions[:p]), list(ticks[:p + 1])
    reflected, reflected_ticks = [flip[d] for d in directions[p:q + 1]], [*ticks[p + 1:q + 1], t1]
    if t0 > ticks[p]:
        dirs += directions[p], *reflected
        tks += t0, *reflected_ticks
    else:
        _merge(dirs, tks, reflected, reflected_ticks)
    if t1 < ticks[q + 1]:
        dirs += directions[q:]
        tks += ticks[q + 1:]
    else:
        _merge(dirs, tks, directions[q + 1:], ticks[q + 2:])
    den = path.den * scale
    g = gcd(den, *tks)
    if g > 1:
        den //= g
        tks = [t // g for t in tks]
    if not isinstance(path, LSPath):
        return _raw_path(path.rs, tuple(dirs), den, tuple(tks))
    out = _intern(path.rs, path.shape, tuple(dirs), den, tuple(tks))
    if not out.checked:
        # each distinct path an operator makes is validated once, when first made
        problem = out.validate()
        if problem is not None:
            raise AssertionError("operator produced an invalid path: %s" % problem)
        out.checked = True
    return out


def _path_f(path, i):
    """f_i of a path, 1 <= i <= rank: reflect from the last time the i-height
    is minimal to the first time after it that the height is one more."""
    den = path.den
    heights = path.marks[i - 1::path.rs.rank]
    low = min(heights)
    if low % den:
        raise AssertionError("the %d-height of %r has a non-integral minimum" % (i, path))
    if low == heights[-1]:
        return None
    k0 = len(heights) - 1 - heights[::-1].index(low)
    target = low + den
    for j in range(k0 + 1, len(heights)):
        if heights[j] >= target:
            rise, slope = target - heights[j - 1], path.directions[j - 1][i - 1]
            scale = slope // gcd(rise, slope)
            t0, t1 = path.ticks[k0] * scale, path.ticks[j - 1] * scale + rise * scale // slope
            return _reflect_between(path, i, scale, k0, t0, j - 1, t1)
    raise AssertionError(
        "the %d-height never reaches %s after %s" % (i, low // den + 1, path.breaks[k0])
    )


def _path_e(path, i):
    """e_i of a path, 1 <= i <= rank: reflect from the last time before the
    first minimum of the i-height that the height is one more, to that
    minimum."""
    den = path.den
    heights = path.marks[i - 1::path.rs.rank]
    low = min(heights)
    if low % den:
        raise AssertionError("the %d-height of %r has a non-integral minimum" % (i, path))
    if low == 0:
        return None
    k1 = heights.index(low)
    target = low + den
    for j in range(k1, 0, -1):
        if heights[j - 1] >= target:
            rise, slope = target - heights[j - 1], path.directions[j - 1][i - 1]
            scale = -slope // gcd(rise, slope)
            t0, t1 = path.ticks[j - 1] * scale + rise * scale // slope, path.ticks[k1] * scale
            return _reflect_between(path, i, scale, j - 1, t0, k1 - 1, t1)
    raise AssertionError(
        "the %d-height never reaches %s before %s" % (i, low // den + 1, path.breaks[k1])
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
    y = space._at(space._encode(x), k)
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
    at = space._at
    c = at(space._encode(x), k)
    n = 0
    while c >= 0:
        n += 1
        c = at(c, k)
    return n


@lru_cache(maxsize=None)
def eps(x, i):
    """Number of raising steps to the top of the i-string through x."""
    return _string_steps(x, 2 * i - 1)


@lru_cache(maxsize=None)
def phi(x, i):
    """Number of lowering steps to the bottom of the i-string through x."""
    return _string_steps(x, 2 * i - 2)


# -- compiled crystals ------------------------------------------------------------


class _Rows:
    """The steps of a compiled space, held row by row.

    A code c is the pair (a, b) = divmod(c, n).  Row a is a tuple of
    2 * rank lists (f_1, e_1, ..., f_r, e_r) of length n, and entry b of
    list k is step k of the code a * n + b, -1 for the formal zero.
    `_rows[a]` is None until `_row(a)` fills it, so a hot reader takes
    `rows[a] or fill(a)` once per code and indexes the lists itself;
    `_at`, `_f` and `_steps` read one code for the cold paths.
    """

    __slots__ = ()

    def _row(self, a):
        return self._rows[a]

    def _at(self, c, k):
        """Step k of code c: f_i at k = 2i - 2, e_i at k = 2i - 1."""
        a, b = divmod(c, self.n)
        return (self._rows[a] or self._row(a))[k][b]

    def _f(self, c, i):
        return self._at(c, 2 * i - 2)

    def _steps(self, c):
        """(f_1(c), e_1(c), ..., f_r(c), e_r(c)), -1 for the formal zero."""
        a, b = divmod(c, self.n)
        return tuple(steps[b] for steps in self._rows[a] or self._row(a))


class CompiledCrystal(_Rows):
    """A generated B(lam) with its elements numbered in sort order.

    `vertices[k]` is the element with id k, `index` maps back, and `top` is
    the id of the straight path.  Per colour i (at position i - 1), the
    tuples `f_table` and `e_table` give the id of f_i / e_i of every id, -1
    for the formal zero, and `eps_table` / `phi_table` its string position;
    `weights[k]` is the weight of id k.  The steps are one row (`_Rows`) of
    length n = |B(lam)|, made of the f and e tables.  The f table is read
    off `edges`, the (x, i) -> f_i(x) map of the generation, which is not
    kept; the e table is `_path_e` of every element.  The tables are
    checked to be mutually inverse partial maps with the top as the only
    element that e takes to zero in every colour, and the string positions
    against the height function of every element.  Per-element methods are private, so
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
        if [k for k, up in enumerate(zip(*e)) if max(up) < 0] != [self.top]:
            raise AssertionError("B(%r) has a top other than the straight path" % (top.shape,))
        eps_t, phi_t = _string_positions(f, e)
        for i, ep, ph in zip(range(1, rank + 1), eps_t, phi_t):
            for k, x in enumerate(self.vertices):
                heights = x.marks[i - 1::rank]
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
        self.n = n
        self._rows = (tuple(t for pair in zip(self.f_table, self.e_table) for t in pair),)

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, x):
        return x in self.index

    def _weight(self, k):
        return self.weights[k]

    def _weights_of(self, ids):
        """The distinct weights of a set of ids."""
        return set(map(self.weights.__getitem__, ids))

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


class TensorCodes(_Rows):
    """B(lam) (x) B(mu) of two compiled crystals, on pair codes.

    The pair of ids (a, b) is the code a * n + b with n = |B(mu)|, so code
    order is the sort order of the pairs.  The tensor rule reads the tables:
    f_i acts on the left factor when phi_i(a) > eps_i(b), e_i when
    phi_i(a) >= eps_i(b), and on the right factor otherwise.  The steps are
    kept in rows (`_Rows`), one per left id, each filled on first touch by
    one list comprehension per colour and direction over the right factor's
    tables; a row no reader touches is never built.  A pair's weight is the
    sum of its factors' weights, added once per distinct pair of them.
    """

    __slots__ = (
        "rs", "rank", "left", "right", "n", "_colours", "_rows",
        "_left_keys", "_right_keys", "_addends", "_sums",
    )

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
        self._rows = [None] * len(left.vertices)
        # a pair's weight is keyed by the numbers of its factors' distinct weights
        left_w = {x: k for k, x in enumerate(dict.fromkeys(left.weights))}
        right_w = {x: k for k, x in enumerate(dict.fromkeys(right.weights))}
        size = len(right_w)
        self._left_keys = [left_w[x] * size for x in left.weights]
        self._right_keys = [right_w[x] for x in right.weights]
        self._addends = (list(left_w), list(right_w), size)
        self._sums = {}

    def __len__(self):
        return len(self.left.vertices) * self.n

    def _row(self, a):
        """Fill row a: f_i and e_i of the codes a * n .. a * n + n - 1."""
        n = self.n
        base = a * n
        right = range(n)
        row = []
        for phi_l, eps_r, fl, fr, el, er in self._colours:
            p = phi_l[a]
            # f_i moves the left factor where phi_i(a) > eps_i(b) >= 0, so
            # f_i(a) exists there
            moved = fl[a] * n
            row.append([
                moved + b if p > ep else base + y if y >= 0 else -1
                for b, ep, y in zip(right, eps_r, fr)
            ])
            # e_i moves it where phi_i(a) >= eps_i(b), to the zero if eps_i(a) = 0
            moved = el[a] * n
            row.append([
                (moved + b if moved >= 0 else -1) if p >= ep else base + y if y >= 0 else -1
                for b, ep, y in zip(right, eps_r, er)
            ])
        row = self._rows[a] = tuple(row)
        return row

    def _sum(self, key):
        s = self._sums.get(key)
        if s is None:
            left, right, size = self._addends
            s = self._sums[key] = vadd(left[key // size], right[key % size])
        return s

    def _weight(self, c):
        a, b = divmod(c, self.n)
        return self._sum(self._left_keys[a] + self._right_keys[b])

    def _weights_of(self, codes):
        """The distinct weights of a set of codes."""
        n, lk, rk = self.n, self._left_keys, self._right_keys
        return set(map(self._sum, {lk[c // n] + rk[c % n] for c in codes}))

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


class Subset:
    """Part of a compiled space (a crystal on ids, a product on pair codes).

    `ids` is a frozenset of ids (or pair codes), so a product is built as
    its set of codes (`TensorCodes.pairs`).  It is not changed after
    construction: `tops` is scanned once (or given, by a caller that found
    them) and `elements` decoded once, and both are kept.
    """

    __slots__ = ("space", "ids", "_tops", "_elements")

    def __init__(self, space, ids, tops=None):
        self.space = space
        self.ids = ids
        self._tops = tops
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
            found = []
            if ids:
                space = self.space
                rows, n, fill = space._rows, space.n, space._row
                raising = range(1, 2 * space.rank, 2)
                for x in ids:
                    a = x // n
                    row, b = rows[a] or fill(a), x % n
                    for k in raising:
                        if row[k][b] in ids:
                            break
                    else:
                        found.append(x)
            self._tops = tuple(sorted(found))
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


def lower_closure(space, seeds, word, within=None):
    """The seeds grown along the lowering strings of the word, its letters
    read right to left: per letter i, the f_i string from each id taken so
    far is walked on the rows down to the formal zero or the first id
    already taken.  A frozenset of ids (or pair codes); with `within`, a
    container of ids, None at the first id outside it."""
    rows, n, fill = space._rows, space.n, space._row
    grown = set(seeds)
    for i in reversed(word):
        k = 2 * i - 2
        for x in list(grown):
            while True:
                a = x // n
                x = (rows[a] or fill(a))[k][x % n]
                if x < 0 or x in grown:
                    break
                if within is not None and x not in within:
                    return None
                grown.add(x)
    return frozenset(grown)


# Largest crystal B(lam) generated by closure; the Weyl dimension formula
# refuses a larger one before any path is built.
CRYSTAL_SIZE_LIMIT = 10000

# Largest pair space |B(lam)| * |B(mu)| that `decompose` and
# `product_report` take on, refused by the same formula before any crystal
# is built.  The largest of the A2:2, B2:2, G2:1 and A3:1 grids is 6561.
PAIR_SPACE_LIMIT = 10**6


def _refuse_oversized(rs, lam):
    size = weyl_dimension(rs, lam)
    if size > CRYSTAL_SIZE_LIMIT:
        raise ValueError(
            "crystal of highest weight %r for %r too large to generate "
            "(%d elements, the limit is %d)" % (tuple(lam), rs, size, CRYSTAL_SIZE_LIMIT)
        )


@lru_cache(maxsize=None)
def _pair_space(rs, lam, mu):
    """|B(lam)| * |B(mu)| by the Weyl dimension formula, memoized: `decompose`
    checks it on every call."""
    return weyl_dimension(rs, lam) * weyl_dimension(rs, mu)


def _refuse_oversized_product(rs, lam, mu):
    """Refuse shapes that are not dominant, then a pair space over
    `PAIR_SPACE_LIMIT`, both with ValueError."""
    if not (rs.is_dominant(lam) and rs.is_dominant(mu)):
        raise ValueError("shapes must be dominant")
    size = _pair_space(rs, tuple(lam), tuple(mu))
    if size > PAIR_SPACE_LIMIT:
        raise ValueError(
            "product of the crystals of highest weights %r and %r for %r too large "
            "(%d pairs, the limit is %d)" % (tuple(lam), tuple(mu), rs, size, PAIR_SPACE_LIMIT)
        )


@lru_cache(maxsize=None)
def generate_crystal(rs, lam):
    """The highest weight crystal of a dominant weight, generated by closure
    under `_path_f` and compiled to integer tables."""
    if not rs.is_dominant(lam):
        raise ValueError("highest weight %r is not dominant" % (lam,))
    _refuse_oversized(rs, lam)
    start = straight_path(rs, lam)
    vertices = {start}
    edges = {}
    frontier = [start]
    alphas = [(i, rs.simple_roots[i - 1].fw) for i in range(1, rs.rank + 1)]
    while frontier:
        nxt = []
        for x in frontier:
            wx = weight_of(x)
            for i, alpha in alphas:
                y = _path_f(x, i)
                if y is None:
                    continue
                edges[(x, i)] = y
                if weight_of(y) != tuple(map(sub, wx, alpha)):
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
    rows, n, fill = space._rows, space.n, space._row
    seen = {seed}
    stack = [seed]
    while stack:
        x = stack.pop()
        a, b = x // n, x % n
        for steps in rows[a] or fill(a):
            y = steps[b]
            if y >= 0 and y not in seen and member(y):
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def induced_component(seed, members):
    """Connected component through the seed of the graph induced on a
    `Subset`: the seed and the result are ids (or pair codes) of its space."""
    if seed not in members:
        raise ValueError("seed does not satisfy the membership predicate")
    return _search(members.space, seed, members.ids.__contains__)


def components_of(members):
    """All connected components of the induced graph, ordered by their
    least members, for a set of members closed under every e_i.

    A product of Demazure crystals is such a set, and every component of
    a full crystal or product of crystals has exactly one highest weight
    element (Kashiwara, Duke Math. J. 1991).  So one pass labels all
    components: each member follows its first raising step until it meets
    a labelled member or a top, a member with no raising step, and the
    walk takes that label.  The pass then checks, as explicit raises,
    that every raising step from a member lands in a member (an
    AssertionError names the first that leaves) of the same label; with
    that, a lowering step between members, the inverse of a raising one,
    joins equal labels too, so the labels are the components and each
    has its label as its one top.

    The members are a `Subset`, and the components are Subsets of its space
    with their tops given.
    """
    if not members.ids:
        return []
    space = members.space
    inside = members.ids
    order = sorted(inside)
    rows, n, fill = space._rows, space.n, space._row
    raising = range(1, 2 * space.rank, 2)
    label = {}
    parts = {}
    # (member, a raising step from it other than the first it follows)
    further = []
    for c in order:
        if c in label:
            continue
        walk = [c]
        while True:
            x = walk[-1]
            a, b = x // n, x % n
            row = rows[a] or fill(a)
            up = -1
            for k in raising:
                y = row[k][b]
                if y >= 0:
                    if up < 0:
                        up = y
                    else:
                        further.append((x, y))
            if up < 0:
                top = x
                break
            top = label.get(up)
            if top is not None:
                break
            if up not in inside:
                raise AssertionError("a raising step leaves the set at %r" % (space._decode(x),))
            if len(walk) == len(order):
                raise AssertionError("raising steps from %r run in a cycle" % (space._decode(c),))
            walk.append(up)
        for x in walk:
            label[x] = top
        parts.setdefault(top, []).extend(walk)
    for x, y in further:
        if label.get(y) != label[x]:
            raise AssertionError("a raising step %s at %r" % (
                "lands in another component" if y in label else "leaves the set",
                space._decode(x),
            ))
    return [Subset(space, frozenset(part), (top,)) for top, part in parts.items()]


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
    rows_a, n_a, fill_a = a.space._rows, a.space.n, a.space._row
    rows_b, n_b, fill_b = b.space._rows, b.space.n, b.space._row
    mapping = {tops_a[0]: tops_b[0]}
    stack = [tops_a[0]]
    while stack:
        x = stack.pop()
        y = mapping[x]
        p, q, r, t = x // n_a, x % n_a, y // n_b, y % n_b
        for steps_a, steps_b in zip(rows_a[p] or fill_a(p), rows_b[r] or fill_b(r)):
            xa, yb = steps_a[q], steps_b[t]
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
