"""The LS-path isomorphism matcher, kept as a test oracle for
`decomp.demazure_match`.

This is how a component was matched before the matcher decided inside the
product: name the one candidate x from the lone weight of top rank (as the
matcher still does), generate the Demazure crystal B_x(nu) as ids of a
freshly compiled LS-path crystal B(nu), and run the colored isomorphism
test of the component against it.  Nothing here closes anything inside the
component's own space.
"""

from demtensor.crystal import MultipleHighestWeights, compiled_subset, is_isomorphic, weight_of
from demtensor.demazure import generate_demazure
from demtensor.lspath import dominant_walk


def unique_top(elements):
    """The single element of the set that no raising operator stays inside."""
    subset = compiled_subset(elements)
    tops = subset.tops()
    if len(tops) != 1:
        raise MultipleHighestWeights(
            "expected a unique highest weight vertex, got %d" % len(tops)
        )
    return subset.space._decode(tops[0])


def top_rank_candidates(group, comp, nu):
    """The minimal representatives u whose weight u nu has the top rank
    among the component's weights in the orbit of nu."""
    comp = compiled_subset(comp)
    ranked = {}
    for y in {weight_of(x) for x in comp.elements()}:
        shape, u = dominant_walk(group, y)
        if shape == nu:
            ranked.setdefault(group.length(u), []).append(u)
    return ranked[max(ranked)] if ranked else []


def isomorphism_match(group, comp, nu):
    """x with the component isomorphic to the LS-path B_x(nu), or None."""
    comp = compiled_subset(comp)
    candidates = top_rank_candidates(group, comp, nu)
    if len(candidates) != 1:
        unique_top(comp)
        return None
    crystal = generate_demazure(group, candidates[0], nu)
    return crystal.witness if is_isomorphic(group.rs, comp, crystal.subset) else None
