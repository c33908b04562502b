"""The coset scans, kept as a test oracle for the descent walks of `weyl`.

This is how cosets were answered before `WeylGroup` walked its generator
tables: enumerate w W_J element by element through the words of the
parabolic subgroup, then scan it for its shortest or longest element, and
refuse when that extreme is not unique.  The minimal representatives are
the set of scan minima (the key oracle and the Demazure sweep of
`test_decomp` enumerate them), the Bruhat maximum of a right coset W_J w is
`bruhat_max` of the enumerated coset, and the decomposition condition tests
membership in the enumerated left-descent parabolic.  Nothing here reads a
descent off a table step: only `parabolic`, `multiply`, `length`,
`left_descents` and `bruhat_max` of the group are used.
"""


def coset(group, w, J):
    """The coset w W_J, in the order of parabolic(J)."""
    return tuple(group.multiply(w, h) for h in group.parabolic(frozenset(J)))


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
    return group.bruhat_max({group.multiply(h, w) for h in group.parabolic(frozenset(J))})


def descent_subgroup(group, w):
    """The parabolic subgroup generated by the left descents of w."""
    return group.parabolic(group.left_descents(w))


def condition_check(group, v, w, lam, mu):
    """The decomposition condition by membership in the enumerated
    left-descent parabolic of the scanned maximal representative."""
    vfloor = coset_min(group, v, group.stabilizer_indices(lam))
    wceil = coset_max(group, w, group.stabilizer_indices(mu))
    return vfloor in descent_subgroup(group, wceil)
