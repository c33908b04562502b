"""Exact combinatorics of Demazure crystals in the path model.

The package computes with Lakshmibai-Seshadri paths over the finite simple
root systems: crystals and their tensor products, Demazure crystals, the
decomposition of products of Demazure crystals into Demazure components,
key polynomials and their product expansions, and exhaustive verification
of the structural identities behind all of it.
"""

from .cartan import RootSystem, parse_type, root_system
from .crystal import (
    CharPoly,
    TensorElement,
    character,
    e_op,
    eps,
    f_op,
    generate_crystal,
    is_isomorphic,
    phi,
    weight_of,
)
from .decomp import (
    DecompositionReport,
    component,
    condition_check,
    decompose,
    dominant_paths,
    leibniz_check,
    lifted_witness,
    path_witness,
    path_witness_by_search,
    recursive_component,
)
from .demazure import DemazureCrystal, contains, generate_demazure
from .keypoly import KeyIndex, demazure_operator, expand_in_keys, key_polynomial, product_report
from .lspath import LSPath, RawPath, concatenate, make_path, straight_path
from .weyl import WeylElement, WeylGroup, weyl_group

__all__ = [
    "CharPoly",
    "DecompositionReport",
    "DemazureCrystal",
    "KeyIndex",
    "LSPath",
    "RawPath",
    "RootSystem",
    "TensorElement",
    "WeylElement",
    "WeylGroup",
    "character",
    "component",
    "concatenate",
    "condition_check",
    "contains",
    "decompose",
    "demazure_operator",
    "dominant_paths",
    "e_op",
    "eps",
    "expand_in_keys",
    "f_op",
    "generate_crystal",
    "generate_demazure",
    "is_isomorphic",
    "key_polynomial",
    "leibniz_check",
    "lifted_witness",
    "make_path",
    "parse_type",
    "path_witness",
    "path_witness_by_search",
    "phi",
    "product_report",
    "recursive_component",
    "root_system",
    "straight_path",
    "weight_of",
    "weyl_group",
]
