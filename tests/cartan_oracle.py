"""Root-system lookups that only tests read, kept as a test oracle.

The sign of a root and the fundamental weights were methods of
`RootSystem`, but nothing in the package calls them: weights are plain
tuples in fundamental-weight coordinates and the Weyl group reads its
lengths and descents off generator tables.  The matrix oracles of
`test_weyl` still count inversions by root signs.
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def _signs(rs):
    signs = {}
    for r in rs.positive_roots:
        signs[r.fw] = 1
        signs[tuple(-c for c in r.fw)] = -1
    return signs


def root_sign(rs, fw_coords):
    """+1 / -1 if the vector is a positive / negative root of rs, else None."""
    return _signs(rs).get(tuple(fw_coords))


def fundamental_weight(rs, i):
    """The i-th fundamental weight (1-based i), in fundamental-weight coordinates."""
    return tuple(int(j == i - 1) for j in range(rs.rank))
