"""Root system data for the finite simple types.

Everything downstream works in fundamental-weight coordinates: a weight is a
plain tuple whose i-th entry is its pairing with the i-th simple coroot, so
pairings are projections and no inner product is ever needed.  Roots carry
their coordinates in the simple-root basis, the simple-coroot basis of their
coroot, and the fundamental-weight basis, all integers.  All arithmetic is
exact (int / Fraction); no floats anywhere.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, mul, sub


# Number of positive roots per type, used as a construction-time sanity check.
POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def vadd(x, y):
    return tuple(map(add, x, y))


def vsub(x, y):
    return tuple(map(sub, x, y))


def vscale(c, x):
    return tuple(map(mul, repeat(c), x))


def normalize_coords(x):
    """Collapse integral Fractions to int so equal vectors hash equally.

    The test is on the exact type: `isinstance` against `Fraction`, an ABC
    subclass, costs a Python-level `__instancecheck__` call per coordinate.
    """
    out = []
    for a in x:
        if type(a) is Fraction:
            a = int(a) if a.denominator == 1 else a
        out.append(a)
    return tuple(out)


def _simple_root_realization(letter, rank):
    """Simple roots of the standard Euclidean realization, as Fraction rows."""
    F = Fraction
    if letter == "A":
        m = rank + 1
        return [[F(int(j == i) - int(j == i + 1)) for j in range(m)] for i in range(rank)]
    if letter in ("B", "C", "D"):
        m = rank
        rows = [[F(int(j == i) - int(j == i + 1)) for j in range(m)] for i in range(rank - 1)]
        last = [F(0)] * m
        if letter == "B":
            last[rank - 1] = F(1)
        elif letter == "C":
            last[rank - 1] = F(2)
        else:
            last[rank - 2] = F(1)
            last[rank - 1] = F(1)
        rows.append(last)
        return rows
    if letter == "G":
        return [
            [F(1), F(-1), F(0)],
            [F(-2), F(1), F(1)],
        ]
    if letter == "F":
        return [
            [F(0), F(1), F(-1), F(0)],
            [F(0), F(0), F(1), F(-1)],
            [F(0), F(0), F(0), F(1)],
            [F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2)],
        ]
    if letter == "E":
        a1 = [F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2), F(-1, 2), F(-1, 2), F(-1, 2), F(1, 2)]
        a2 = [F(1), F(1), F(0), F(0), F(0), F(0), F(0), F(0)]
        rest = [
            [F(int(j == i - 2) - int(j == i - 3)) for j in range(8)] for i in range(3, 9)
        ]
        return ([a1, a2] + rest)[:rank]
    raise ValueError("unknown type letter %r" % letter)


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


class Root:
    """A positive root with cached coordinate triple.

    coords    -- coefficients in the simple-root basis (the i-th simple root
                 is the i-th unit vector)
    cocoords  -- coefficients of the coroot in the simple-coroot basis
    fw        -- fundamental-weight coordinates (pairings with simple coroots)
    """

    __slots__ = ("coords", "cocoords", "fw")

    def __init__(self, coords, cocoords, fw):
        self.coords = coords
        self.cocoords = cocoords
        self.fw = fw

    def __eq__(self, other):
        return isinstance(other, Root) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "Root(%r)" % (self.coords,)


def _check_type(type_letter, rank):
    """Refuse a type letter and rank that name no finite simple type."""
    if type_letter not in VALID_RANKS or not VALID_RANKS[type_letter](rank):
        raise ValueError("invalid type %s%d" % (type_letter, rank))


class RootSystem:
    """Cartan matrix plus the full list of positive roots of a finite type."""

    def __init__(self, type_letter, rank):
        _check_type(type_letter, rank)
        self.type_letter = type_letter
        self.rank = rank
        # every memo and intern table keys on the root system: hash it once
        self._hash = hash((type_letter, rank))
        realization = _simple_root_realization(type_letter, rank)
        cartan = []
        for i in range(rank):
            row = []
            for j in range(rank):
                a = 2 * _dot(realization[i], realization[j]) / _dot(realization[i], realization[i])
                if a.denominator != 1:
                    raise AssertionError("non-integral Cartan entry for %s%d" % (type_letter, rank))
                row.append(int(a))
            cartan.append(tuple(row))
        self.cartan = tuple(cartan)
        self.positive_roots = self._close_roots()
        by_coords = {r.coords: r for r in self.positive_roots}
        self.simple_roots = tuple(
            by_coords[tuple(int(j == i) for j in range(rank))] for i in range(rank)
        )
        expected = POSITIVE_ROOT_COUNTS[type_letter](rank)
        if len(self.positive_roots) != expected:
            raise AssertionError(
                "positive root count mismatch for %s%d: got %d, expected %d"
                % (type_letter, rank, len(self.positive_roots), expected)
            )

    def _close_roots(self):
        """All positive roots as the reflection-orbit closure of the simples."""
        n = self.rank
        a = self.cartan

        def reflect_pair(k, coords, cocoords):
            # s_k on root coordinates uses row k of the Cartan matrix,
            # on coroot coordinates column k (the dual root system).
            pair = sum(a[k][j] * coords[j] for j in range(n))
            copair = sum(a[j][k] * cocoords[j] for j in range(n))
            new_c = list(coords)
            new_c[k] -= pair
            new_cc = list(cocoords)
            new_cc[k] -= copair
            return tuple(new_c), tuple(new_cc)

        unit = lambda i: tuple(int(j == i) for j in range(n))
        seen = {}
        frontier = [(unit(i), unit(i)) for i in range(n)]
        for c, cc in frontier:
            seen[c] = cc
        while frontier:
            nxt = []
            for c, cc in frontier:
                for k in range(n):
                    c2, cc2 = reflect_pair(k, c, cc)
                    if c2 not in seen:
                        seen[c2] = cc2
                        nxt.append((c2, cc2))
            frontier = nxt
        roots = []
        for c, cc in seen.items():
            if all(v >= 0 for v in c):
                fw = tuple(sum(a[i][j] * c[j] for j in range(n)) for i in range(n))
                roots.append(Root(c, cc, fw))
        # simple roots first, then by height, then lexicographically
        roots.sort(key=lambda r: (sum(r.coords), r.coords))
        return tuple(roots)

    # -- pairings and reflections ------------------------------------------

    def pairing(self, x, i):
        """Pairing of x with the i-th simple coroot (1-based i)."""
        if not 1 <= i <= self.rank:
            raise IndexError("simple index %d out of range for rank %d" % (i, self.rank))
        return x[i - 1]

    def root_pairing(self, x, root):
        """Pairing of x with the coroot of `root`."""
        return sum(c * xi for c, xi in zip(root.cocoords, x))

    def reflect(self, x, root):
        """Reflection of x in the hyperplane of `root` (works for -root too)."""
        return normalize_coords(vsub(x, vscale(self.root_pairing(x, root), root.fw)))

    def simple_reflect(self, x, i):
        """Reflection of x by the i-th simple root (1-based i)."""
        return normalize_coords(vsub(x, vscale(x[i - 1], self.simple_roots[i - 1].fw)))

    def is_dominant(self, x):
        return all(c >= 0 for c in x)

    def zero(self):
        return (0,) * self.rank

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RootSystem)
            and self.type_letter == other.type_letter
            and self.rank == other.rank
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "RootSystem(%s%d)" % (self.type_letter, self.rank)


def weyl_dimension(rs, lam):
    """Weyl's product formula: the size of the highest weight crystal B(lam)."""
    rho = (1,) * rs.rank
    num, den = 1, 1
    for beta in rs.positive_roots:
        num *= rs.root_pairing(vadd(lam, rho), beta)
        den *= rs.root_pairing(rho, beta)
    if num % den:
        raise AssertionError("Weyl dimension of %r is not an integer" % (lam,))
    return num // den


@lru_cache(maxsize=None)
def root_system(type_letter, rank):
    """Cached constructor, so equal types share orbit/crystal caches."""
    return RootSystem(type_letter, rank)


class UnparsableType(ValueError):
    """A type string that is not a letter followed by a rank."""


def parse_type(name):
    """Parse a type string like "A2" or "B2" into a cached RootSystem.

    A valid type whose Weyl group is over the size limit is refused by the
    group's closed-form order, before the positive roots are closed.
    """
    from .weyl import refuse_oversized_group  # weyl imports this module

    name = name.strip()
    if len(name) < 2 or not name[0].isalpha():
        raise UnparsableType("cannot parse root system type %r" % name)
    letter = name[0].upper()
    try:
        rank = int(name[1:])
    except ValueError:
        raise UnparsableType("cannot parse root system type %r" % name) from None
    _check_type(letter, rank)
    refuse_oversized_group(letter, rank)
    return root_system(letter, rank)


# -- type A epsilon coordinates -------------------------------------------
#
# For A_n the weight lattice is usually presented in coordinates
# eps_1, ..., eps_{n+1} with eps_1 + ... + eps_{n+1} = 0.  This helper
# translates fundamental-weight coordinates into that presentation:
# eps_k = fund_k - fund_{k-1} (with fund_0 = fund_{n+1} = 0).


def eps_from_weight(rs, x):
    """Epsilon-coordinates of x, normalized so the last entry is zero."""
    if rs.type_letter != "A":
        raise ValueError("epsilon coordinates are only defined for type A")
    zs = [0] * (rs.rank + 1)
    acc = 0
    for i in range(rs.rank, 0, -1):
        acc += x[i - 1]
        zs[i - 1] = acc
    return tuple(zs)
