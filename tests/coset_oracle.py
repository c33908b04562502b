"""The coset scans, kept as a test oracle for the descent walks of `weyl`.

This is how cosets were answered before `WeylGroup` walked its generator
tables: enumerate w W_J element by element through the parabolic subgroup,
then scan it for its shortest or longest element, and refuse when that
extreme is not unique.  The minimal representatives are the set of scan
minima (the key oracle and the Demazure sweep of `test_decomp` enumerate
them), the Bruhat maximum of a right coset W_J w is `bruhat_max` of the
enumerated coset, and the decomposition condition tests membership in the
enumerated left-descent parabolic.

Nothing here reads a table, a mask or a coset query of the group: only
`multiply`, `simple`, `length` and `bruhat_max` are used, besides iterating
over the elements.  W_J is the closure of {e} under right multiplication by
the s_j, j in J; a left descent of w is an i with s_i w shorter than w; and
the stabilizer of a dominant weight is the set of its zero coordinates.  A
set J of simple indices is a plain set of integers here; `mask` turns it
into the bit mask that `WeylGroup.parabolic` and `coset_bruhat_max` take.
"""

from functools import lru_cache


def mask(J):
    """The bit mask of a set of simple indices: bit j - 1 for s_j."""
    return sum(1 << (j - 1) for j in J)


def stabilizer(lam):
    """The simple indices whose reflection fixes the dominant weight lam."""
    return frozenset(c + 1 for c, a in enumerate(lam) if a == 0)


def zero_on(J, rank):
    """The 0/1 weight that is zero exactly on J: its stabilizer is J."""
    return tuple(0 if c + 1 in J else 1 for c in range(rank))


def left_descents(group, w):
    """The i with length(s_i w) < length(w)."""
    below = group.length(w)
    return frozenset(
        i for i in range(1, group.rs.rank + 1)
        if group.length(group.multiply(group.simple(i), w)) < below
    )


@lru_cache(maxsize=None)
def parabolic(group, J):
    """W_J, J a frozenset: the identity, closed under right multiplication
    by each s_j, j in J."""
    s = group.simple(1)
    found = [group.multiply(s, s)]  # the identity, read off no attribute
    seen = set(found)
    for u in found:
        for j in sorted(J):
            x = group.multiply(u, group.simple(j))
            if x not in seen:
                seen.add(x)
                found.append(x)
    return tuple(found)


def coset(group, w, J):
    """The coset w W_J, in the order of parabolic(J)."""
    return tuple(group.multiply(w, h) for h in parabolic(group, J))


def _extreme(group, w, J, pick_max):
    members = coset(group, w, J)
    lens = [group.length(u) for u in members]
    ext = max(lens) if pick_max else min(lens)
    hits = [u for u, n in zip(members, lens) if n == ext]
    if len(hits) != 1:
        raise AssertionError("coset extreme not unique on %r" % (members,))
    return hits[0]


def coset_min(group, w, J):
    """Minimal-length element of the scanned coset w W_J."""
    return _extreme(group, w, J, False)


def coset_max(group, w, J):
    """Maximal-length element of the scanned coset w W_J."""
    return _extreme(group, w, J, True)


def minimal_coset_reps(group, J):
    """The scan minima of every coset modulo W_J, in index order."""
    reps = {coset_min(group, w, J) for w in group}
    return tuple(sorted(reps, key=lambda w: w.index))


def coset_bruhat_max(group, J, w):
    """Bruhat maximum of the enumerated right coset W_J w."""
    return group.bruhat_max({group.multiply(h, w) for h in parabolic(group, J)})


def descent_subgroup(group, w):
    """The parabolic subgroup generated by the left descents of w."""
    return parabolic(group, left_descents(group, w))


def condition_check(group, v, w, lam, mu):
    """The decomposition condition by membership in the enumerated
    left-descent parabolic of the scanned maximal representative."""
    vfloor = coset_min(group, v, stabilizer(lam))
    wceil = coset_max(group, w, stabilizer(mu))
    return vfloor in descent_subgroup(group, wceil)
