"""Command line surface: decompose, check, expand, graph, verify.

Instances are passed as flags (--type A2 --v 1,2 --w 1,2,1 --lambda 1,1
--mu 1,0); reduced words are comma-separated 1-based simple indices, the
empty string for the identity.  Output is JSON on stdout (or --out) with
deterministic ordering, plus optional DOT files.  Exit codes: 0 success,
1 malformed input, 2 a structural identity failed on the data.
"""

import argparse
import json
import os
import sys

from .cartan import parse_type
from .crystal import MultipleHighestWeights, generate_crystal, to_dot
from .decomp import (
    NoDemazureMatch,
    OracleMismatch,
    TheoremViolation,
    condition_check,
    decompose,
)
from .demazure import generate_demazure
from .keypoly import key_polynomial, monomials_type_a, product_report
from .lspath import path_to_json
from .verify import default_grids, parse_grid, run_all
from .weyl import NonUniqueMaximum, weyl_group

# Failures of an identity on well-formed input: exit code 2.
STRUCTURAL_FAILURES = (
    AssertionError,
    MultipleHighestWeights,
    NoDemazureMatch,
    NonUniqueMaximum,
    OracleMismatch,
    TheoremViolation,
)


class InstanceError(Exception):
    """Malformed command line instance."""


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with code 1; code 2 is reserved for math failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _parse_word(text):
    text = (text or "").strip()
    if text in ("", "e", "[]"):
        return ()
    try:
        return tuple(int(part) for part in text.replace("[", "").replace("]", "").split(","))
    except ValueError:
        raise InstanceError("cannot parse word %r" % text) from None


def _parse_element(group, text, name):
    """The group element of a reduced word; non-reduced words are refused."""
    word = _parse_word(text)
    try:
        element = group.from_word(word)
    except ValueError as caught:
        raise InstanceError(str(caught)) from None
    if len(word) != group.length(element):
        raise InstanceError(
            "%s word %s is not reduced: it has length %d but its element has length %d"
            % (name, ",".join(map(str, word)), len(word), group.length(element))
        )
    return element


def _parse_weight(text, rank, dominant=False, name="weight"):
    try:
        coords = tuple(int(part) for part in text.strip().split(","))
    except (ValueError, AttributeError):
        raise InstanceError("cannot parse %s %r" % (name, text)) from None
    if len(coords) != rank:
        raise InstanceError("%s needs %d coordinates, got %d" % (name, rank, len(coords)))
    if dominant and any(c < 0 for c in coords):
        raise InstanceError("%s must be dominant, got %r" % (name, list(coords)))
    return coords


def _load_instance(args, need_v=True):
    rs = parse_type(args.type)
    group = weyl_group(rs)
    v = _parse_element(group, args.v, "--v") if need_v else None
    w = _parse_element(group, args.w, "--w")
    lam = _parse_weight(args.lam, rs.rank, dominant=True, name="lambda")
    mu = _parse_weight(args.mu, rs.rank, dominant=True, name="mu")
    return rs, group, v, w, lam, mu


def _emit(args, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _tensor_json(pair):
    return {"left": path_to_json(pair.left), "right": path_to_json(pair.right)}


def _entry_json(entry):
    body = {
        "pi": path_to_json(entry.pi),
        "lambda_plus_wt": list(entry.shifted_shape),
        "size": len(entry.elements),
        "demazure": entry.demazure,
        "u": list(entry.expected_witness.word) if entry.expected_witness else None,
    }
    if entry.demazure:
        body["witness"] = list(entry.witness.word)
    elif entry.string_violation is not None:
        color, string = entry.string_violation
        body["witness"] = {
            "violated_string_color": color,
            "string": [_tensor_json(x) for x in string],
            "inside_component": [_tensor_json(x) for x in string if x in entry.elements],
        }
    else:
        # no matching crystal and no violated string; report the bare facts
        body["witness"] = None
    return body


def cmd_decompose(args):
    _, group, v, w, lam, mu = _load_instance(args)
    report = decompose(group, v, w, lam, mu, oracle=args.oracle)
    payload = {
        "type": args.type.upper(),
        "v": list(v.word),
        "w": list(w.word),
        "lambda": list(lam),
        "mu": list(mu),
        "condition_holds": report.condition_holds,
        "entries": [_entry_json(entry) for entry in report.entries],
    }
    _emit(args, payload)
    if args.dot_dir:
        os.makedirs(args.dot_dir, exist_ok=True)
        for k, entry in enumerate(report.entries):
            highlight = ()
            if not entry.demazure:
                highlight = [x for x in entry.string_violation[1] if x in entry.elements]
            dot = to_dot(entry.component, name="component_%d" % k, highlight=highlight)
            with open(os.path.join(args.dot_dir, "component_%d.dot" % k), "w") as handle:
                handle.write(dot)
    return 0


def cmd_check(args):
    _, group, v, w, lam, mu = _load_instance(args)
    payload = {
        "forward": condition_check(group, v, w, lam, mu),
        "swapped": condition_check(group, w, v, mu, lam),
    }
    _emit(args, payload)
    return 0


def cmd_expand(args):
    rs, group, v, w, lam, mu = _load_instance(args)
    report = product_report(group, v, w, lam, mu)
    terms = [
        {
            "shape": list(idx.shape),
            "witness": list(idx.witness.word),
            "weight": list(idx.weight),
            "coefficient": coeff,
        }
        for idx, coeff in sorted(report.coefficients.items(), key=lambda kv: kv[0].sort_key())
    ]
    payload = {
        "left": {"shape": list(lam), "witness": list(report.left_index.witness.word)},
        "right": {"shape": list(mu), "witness": list(report.right_index.witness.word)},
        "condition_forward": report.condition_forward,
        "condition_swapped": report.condition_swapped,
        "all_nonnegative": report.all_nonnegative,
        "terms": terms,
    }
    if rs.type_letter == "A":
        product = key_polynomial(group, report.left_index) * key_polynomial(
            group, report.right_index
        )
        payload["product_monomials"] = monomials_type_a(rs, product)
        for term in terms:
            idx_poly = key_polynomial(group, tuple(term["weight"]))
            term["monomials"] = monomials_type_a(rs, idx_poly)
    _emit(args, payload)
    return 0


def cmd_graph(args):
    rs = parse_type(args.type)
    group = weyl_group(rs)
    lam = _parse_weight(args.lam, rs.rank, dominant=True, name="lambda")
    crystal = generate_crystal(rs, lam)
    highlight = ()
    if args.w is not None:
        w = _parse_element(group, args.w, "--w")
        highlight = generate_demazure(group, w, lam).elements
    dot = to_dot(crystal.vertices, name="crystal", highlight=highlight)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


def cmd_verify(args):
    grids = [parse_grid(text) for text in args.grid] if args.grid else default_grids()
    failures = 0
    for name, grid, failure in run_all(grids):
        if failure is None:
            print("PASS %-28s %s" % (name, grid.name))
        else:
            failures += 1
            print("FAIL %-28s %s: %s" % (name, grid.name, failure))
    return 2 if failures else 0


def build_parser():
    parser = _Parser(
        prog="demtensor",
        description="Exact Demazure crystal combinatorics in the path model.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_instance_flags(p, need_v=True):
        p.add_argument("--type", required=True, help="root system, e.g. A2")
        if need_v:
            p.add_argument("--v", default="", help="reduced word of v, e.g. 1,2")
        p.add_argument("--w", default="", help="reduced word of w")
        p.add_argument("--lambda", dest="lam", required=True, help="left shape, e.g. 1,1")
        p.add_argument("--mu", required=True, help="right shape")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("decompose", help="decompose a product of two Demazure crystals")
    add_instance_flags(p)
    p.add_argument("--dot-dir", default=None, help="write one DOT file per component")
    p.add_argument("--oracle", action="store_true", help="cross-check witnesses by search")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("check", help="evaluate the decomposition condition")
    add_instance_flags(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("expand", help="expand a product of key polynomials")
    add_instance_flags(p)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("graph", help="DOT graph of a crystal, optionally highlighted")
    p.add_argument("--type", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--w", default=None, help="highlight the Demazure crystal of w")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("verify", help="run the verification suites over a grid")
    p.add_argument("--grid", action="append", default=None, help="grid string like A2:2")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InstanceError, ValueError) as caught:
        print("error: %s" % caught, file=sys.stderr)
        return 1
    except STRUCTURAL_FAILURES as caught:
        print("structural failure: %s" % caught, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
