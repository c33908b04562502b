"""The dense key expansion, kept as a test oracle for the integer peel.

This is the rational linear solve `expand_in_keys` used before the peel:
candidate keys are every key index whose shape is dominance-below a
dominant form of the support, and the coefficients solve the monomial
system by Gaussian elimination over Fractions.  `scan_key_index` is the
key-index normalization by a scan over the whole group, and
`root_coordinates` reads a weight in the simple-root basis by exact
elimination.  Cosets and stabilizers come from `coset_oracle`, and the
scan applies an element by the simple reflections of its word, so no coset
query or action of `WeylGroup` is read.
"""

from fractions import Fraction

from coset_oracle import coset_min, minimal_coset_reps, stabilizer
from demtensor.cartan import vsub
from demtensor.keypoly import KeyIndex, key_polynomial
from demtensor.lspath import dominant_walk


def root_coordinates(rs, x):
    """Coordinates of x in the simple-root basis, by exact elimination."""
    n = rs.rank
    rows = [[Fraction(rs.cartan[i][j]) for j in range(n)] + [Fraction(x[i])] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = rows[col][col]
        rows[col] = [v / scale for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def scan_key_index(group, nu):
    """Key index of nu: the first group element that moves its dominant form
    to nu, reduced to its minimal coset representative."""
    nu, rs = tuple(nu), group.rs
    shape = dominant_walk(group, nu)[0]
    for u in group.elements:
        x = shape
        for i in reversed(u.word):
            x = rs.simple_reflect(x, i)
        if x == nu:
            return KeyIndex(shape, coset_min(group, u, stabilizer(shape)))
    raise AssertionError("unreachable: %r not in the orbit of its dominant form" % (nu,))


def _dominant_weights_below(group, bound):
    """Dominant weights whose difference from the bound is a sum of simple roots.

    Walks the weight diagram of the bound: subtract simple roots, keep
    whatever stays inside the convex hull of the orbit of the bound.
    """
    rs = group.rs
    seen = {bound}
    frontier = [bound]
    out = [bound] if rs.is_dominant(bound) else []
    while frontier:
        nxt = []
        for x in frontier:
            for root in rs.simple_roots:
                y = vsub(x, root.fw)
                if y in seen:
                    continue
                seen.add(y)
                if dominance_leq(group, dominant_walk(group, y)[0], bound):
                    nxt.append(y)
                    if rs.is_dominant(y):
                        out.append(y)
        frontier = nxt
    return sorted(set(out))


def dominance_leq(group, theta, bound):
    """theta <= bound in dominance: the difference is a nonnegative rational
    combination of simple roots (both weights dominant)."""
    diff = vsub(bound, theta)
    coeffs = root_coordinates(group.rs, diff)
    return all(c >= 0 for c in coeffs)


def candidate_key_indices(group, f):
    """All key indices that can appear in an expansion of f.

    Any expansion only uses shapes dominance-below the dominant forms of the
    support (peeling the dominance-maximal shape, then the orbit-maximal
    index of that shape, shows the leading coefficient must come from the
    support itself).
    """
    if not f.terms:
        return []
    supports = [dominant_walk(group, x)[0] for x in f.support()]
    maxima = []
    for s in set(supports):
        if not any(s != t and dominance_leq(group, s, t) for t in supports):
            maxima.append(s)
    shapes = set()
    for m in maxima:
        shapes.update(_dominant_weights_below(group, m))
    indices = []
    for shape in sorted(shapes):
        for rep in minimal_coset_reps(group, stabilizer(shape)):
            indices.append(KeyIndex(shape, rep))
    indices.sort(key=lambda idx: idx.sort_key())
    return indices


def dense_expand_in_keys(group, f):
    """Exact expansion of f in the key basis; KeyIndex -> integer.

    Solves the linear system in the monomial basis over the rationals;
    raises if the system is inconsistent (not in the span), ambiguous (the
    candidates were dependent, which would contradict the basis property),
    or solves to non-integers.
    """
    if not f.terms:
        return {}
    indices = candidate_key_indices(group, f)
    keys = [key_polynomial(group, idx) for idx in indices]
    monomials = sorted(set(f.support()).union(*[k.support() for k in keys]))
    row_of = {w: r for r, w in enumerate(monomials)}
    ncols = len(indices)
    matrix = [[Fraction(0)] * (ncols + 1) for _ in monomials]
    for c, k in enumerate(keys):
        for w, coeff in k.terms.items():
            matrix[row_of[w]][c] = Fraction(coeff)
    for w, coeff in f.terms.items():
        matrix[row_of[w]][ncols] = Fraction(coeff)
    # Gaussian elimination over the rationals
    pivot_rows = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(matrix)) if matrix[k][c] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        scale = matrix[r][c]
        matrix[r] = [v / scale for v in matrix[r]]
        for k in range(len(matrix)):
            if k != r and matrix[k][c] != 0:
                factor = matrix[k][c]
                matrix[k] = [a - factor * b for a, b in zip(matrix[k], matrix[r])]
        pivot_rows.append((r, c))
        r += 1
    if len(pivot_rows) != ncols:
        raise AssertionError("candidate key polynomials are linearly dependent")
    for k in range(r, len(matrix)):
        if matrix[k][ncols] != 0:
            raise AssertionError("nonzero residual after solving the key expansion")
    coeffs = {}
    for row, col in pivot_rows:
        value = matrix[row][ncols]
        if value.denominator != 1:
            raise AssertionError("non-integral coefficient %s of %r" % (value, indices[col]))
        if value != 0:
            coeffs[indices[col]] = int(value)
    return coeffs
