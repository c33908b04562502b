"""The ambient i-string scan, kept as a test oracle for the local certificate.

This is how a non-Demazure component was certified before the string
certificate walked only the strings through the component: build the whole
product B(lam) (x) B(mu) of the two full crystals, partition it into
i-strings in `element_sort_key` order of their least elements, and return
the first string, colours in increasing order, that meets the subset in
more than its top but not in full.  Everything runs on crystal elements
through `f_op`, `e_op` and `emax`, never on ids or pair codes.
"""

from demtensor.crystal import (
    element_sort_key,
    emax,
    f_op,
    generate_crystal,
    tensor_product_elements,
)


def ambient_product(rs, lam, mu):
    """Every pair of the two full crystals, in sort order."""
    left = generate_crystal(rs, lam)
    right = generate_crystal(rs, mu)
    pairs = tensor_product_elements(left.vertices, right.vertices)
    return tuple(sorted(pairs, key=element_sort_key))


def i_strings(vertices, i):
    """The partition of a sorted, i-closed vertex tuple into i-strings, tops first."""
    members = frozenset(vertices)
    seen = set()
    strings = []
    for x in vertices:
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


def check_string_property(members, strings_by_colour):
    """The first violated string of the scan, as (colour, string), or None.

    `strings_by_colour[i - 1]` is `i_strings(ambient, i)`.
    """
    for i, strings in enumerate(strings_by_colour, start=1):
        for string in strings:
            got = [x for x in string if x in members]
            if not got or len(got) == len(string):
                continue
            if len(got) == 1 and got[0] == string[0]:
                continue
            return (i, string)
    return None
