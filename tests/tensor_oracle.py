"""The element tensor rule, kept as a test oracle for the pair codes.

This is how the root operators acted on a `TensorElement` before the
compiled tables became the only crystal structure: recursively, f_i on the
left factor when phi_i(left) > eps_i(right) and on the right one otherwise,
e_i on the left factor when phi_i(left) >= eps_i(right), with eps and phi of
a pair by their closed forms.  On a path, f and e are the cutting
construction (`_path_f`/`_path_e`), and eps and phi count its steps.
Nothing here reads ids, tables or pair codes.
"""

from demtensor.crystal import TensorElement, _path_e, _path_f, weight_of


def _count(op, x, i):
    n = 0
    x = op(x, i)
    while x is not None:
        n += 1
        x = op(x, i)
    return n


def eps(x, i):
    if isinstance(x, TensorElement):
        return max(eps(x.left, i), eps(x.right, i) - x.rs.pairing(weight_of(x.left), i))
    return _count(_path_e, x, i)


def phi(x, i):
    if isinstance(x, TensorElement):
        return max(phi(x.right, i), phi(x.left, i) + x.rs.pairing(weight_of(x.right), i))
    return _count(_path_f, x, i)


def f(x, i):
    """Lowering operator; None plays the role of the formal zero."""
    if not isinstance(x, TensorElement):
        return _path_f(x, i)
    if phi(x.left, i) > eps(x.right, i):
        y = f(x.left, i)
        return None if y is None else TensorElement(y, x.right)
    y = f(x.right, i)
    return None if y is None else TensorElement(x.left, y)


def e(x, i):
    """Raising operator; None plays the role of the formal zero."""
    if not isinstance(x, TensorElement):
        return _path_e(x, i)
    if phi(x.left, i) >= eps(x.right, i):
        y = e(x.left, i)
        return None if y is None else TensorElement(y, x.right)
    y = e(x.right, i)
    return None if y is None else TensorElement(x.left, y)


def emax(x, i):
    """The top of the i-string through x."""
    for _ in range(eps(x, i)):
        x = e(x, i)
    return x
