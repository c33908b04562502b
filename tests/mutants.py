"""Mutation checks: each entry breaks one spot of `src/` and names the tests
that must then fail.

Run from the root of the repository:

    python3 tests/mutants.py              # every entry, one after another
    python3 tests/mutants.py NAME ...     # the named entries only

The runner first runs the named tests on an unmutated copy of `src/`, so a
kill means the mutant, not a test that already fails.  Then, for each entry
in turn, it copies `src/` to a temporary directory, replaces the entry's
snippet by its replacement, and runs the entry's tests in one pytest
subprocess that imports the package from the copy, under `python -O` when
the entry says so.  A mutant is killed when that run reports failed tests
or a collection error.  One line per mutant is printed, then the kill
count; the exit status is 1 when a mutant survived.

pytest does not collect this module.  `test_mutants.py` checks that every
snippet occurs exactly once in `src/`, so a change that moves mutated code
updates its entry here.  A change that adds a check adds its mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

Mutant = namedtuple("Mutant", "name path snippet replacement tests optimize")

MUTANTS = [
    Mutant(
        "floor-steps-on-an-ascent",
        "demtensor/weyl.py",
        "        m = rdes[k] & J\n"
        "        while m:\n"
        "            k = rmul[(m & -m).bit_length() - 1][k]\n"
        "            m = rdes[k] & J\n",
        "        m = J & ~rdes[k]\n"
        "        while m:\n"
        "            k = rmul[(m & -m).bit_length() - 1][k]\n"
        "            m = J & ~rdes[k]\n",
        ["tests/test_weyl.py::test_coset_walks_match_the_scan_oracle"],
        False,
    ),
    Mutant(
        "parabolic-support-meets-the-mask",
        "demtensor/weyl.py",
        "if not s & ~J)",
        "if s & J)",
        ["tests/test_weyl.py::test_parabolics_match_the_word_filter"],
        False,
    ),
    Mutant(
        "stabilizer-interval-zero-bit-shifted",
        "demtensor/decomp.py",
        "sum(1 << c for c in range(n) if shifted[k * n + c] == 0)",
        "sum(1 << (c + 1) for c in range(n) if shifted[k * n + c] == 0)",
        ["tests/test_decomp.py::test_stabilizer_intervals_match_fraction_oracle",
         "tests/test_decomp.py::test_stabilizer_intervals_match_fraction_oracle_on_drawn_paths"],
        False,
    ),
    Mutant(
        "stabilizer-intervals-take-any-path",
        "demtensor/decomp.py",
        "    if min(shifted) < 0:\n",
        "    if False:\n",
        ["tests/test_decomp.py::test_stabilizer_intervals_match_fraction_oracle"],
        False,
    ),
    Mutant(
        "recursion-right-id-read-as-a-code",
        "demtensor/decomp.py",
        "if fb < 0 or a * n + fb in ids:",
        "if fb < 0 or fb in ids:",
        ["tests/test_acceptance.py::test_criterion_05_recursion_over_grid"],
        False,
    ),
    Mutant(
        "pair-code-membership-unchecked",
        "demtensor/decomp.py",
        "if b < 0 or code not in product.ids:",
        "if b < 0:",
        ["tests/test_cli.py::test_dominant_path_outside_the_right_factor_is_structural"],
        False,
    ),
    Mutant(
        "condition-and-for-and-not",
        "demtensor/weyl.py",
        "not self._support[floor] & ~self._rdes[",
        "not self._support[floor] & self._rdes[",
        ["tests/test_decomp.py::test_condition_check_examples",
         "tests/test_weyl.py::test_condition_on_masks_matches_the_coset_oracle"],
        False,
    ),
    Mutant(
        "descent-bit-from-positive-key",
        "demtensor/weyl.py",
        "if key[c] < 0:",
        "if key[c] > 0:",
        ["tests/test_cli.py::test_check_command"],
        True,
    ),
    Mutant(
        "stabilizer-mask-from-nonzero-coordinates",
        "demtensor/weyl.py",
        "enumerate(lam) if a == 0)",
        "enumerate(lam) if a != 0)",
        ["tests/test_weyl.py::test_coset_representatives",
         "tests/test_weyl.py::test_coset_queries_by_weight_match_the_frozenset_queries"],
        True,
    ),
    Mutant(
        "condition-stabilizer-masks-swapped",
        "demtensor/weyl.py",
        "        floor = self._coset_floor(v.index, self._stabilizer_mask(lam))\n"
        "        ceiling = self._coset_ceiling(w.index, self._stabilizer_mask(mu))\n",
        "        floor = self._coset_floor(v.index, self._stabilizer_mask(mu))\n"
        "        ceiling = self._coset_ceiling(w.index, self._stabilizer_mask(lam))\n",
        ["tests/test_decomp.py::test_condition_by_word_support_matches_the_subgroup_oracle_on_b2",
         "tests/test_weyl.py::test_condition_on_masks_matches_the_coset_oracle"],
        False,
    ),
    Mutant(
        "condition-right-descents-of-the-ceiling",
        "demtensor/weyl.py",
        "& ~self._rdes[self._inv[ceiling]]",
        "& ~self._rdes[ceiling]",
        ["tests/test_decomp.py::test_condition_by_word_support_matches_the_subgroup_oracle_on_b2",
         "tests/test_weyl.py::test_condition_on_masks_matches_the_coset_oracle"],
        False,
    ),
    Mutant(
        "closure-letters-left-to-right",
        "demtensor/crystal.py",
        "    grown = set(seeds)\n    for i in reversed(word):\n",
        "    grown = set(seeds)\n    for i in word:\n",
        ["tests/test_crystal.py::test_lower_closure_is_the_composition_of_its_letters"],
        False,
    ),
    Mutant(
        "sweep-skips-v-equal-e",
        "demtensor/verify.py",
        "vs = _coset_reps(group, lam)\n",
        "vs = _coset_reps(group, lam)[1:]\n",
        ["tests/test_verify.py::test_verify_labels_each_product_once",
         "tests/test_cli.py::test_witness_oracle_failure_names_its_instance"],
        False,
    ),
    Mutant(
        "first-failure-by-greatest-key",
        "demtensor/verify.py",
        "position(*item) >= found[name][0]",
        "position(*item) <= found[name][0]",
        ["tests/test_verify.py::test_each_suite_reports_its_first_failure_in_its_former_order"],
        False,
    ),
    Mutant(
        "key-positivity-count-unchecked",
        "demtensor/keypoly.py",
        "        if counted != coeffs:\n",
        "        if False:\n",
        ["tests/test_keypoly.py::test_key_positivity_faults_raise",
         "tests/test_cli.py::test_key_positivity_failure_names_its_instance"],
        False,
    ),
    Mutant(
        "key-product-of-the-left-index-twice",
        "demtensor/keypoly.py",
        "_key_product(group, *sorted((left_idx, right_idx), key=KeyIndex.sort_key))",
        "_key_product(group, left_idx, left_idx)",
        ["tests/test_keypoly.py::test_every_report_sums_back_to_the_product_of_its_keys"],
        False,
    ),
]

# pytest exit statuses: 1 some tests failed, 2 interrupted (here: a module
# failed to import, which the mutant caused when the baseline passed).
KILLED = {1, 2}


def copy_src(dest):
    shutil.copytree(SRC, os.path.join(dest, "src"), ignore=shutil.ignore_patterns("__pycache__"))
    return os.path.join(dest, "src")


def apply(src, mutant):
    path = os.path.join(src, mutant.path)
    with open(path) as handle:
        text = handle.read()
    if text.count(mutant.snippet) != 1:
        raise SystemExit("%s: the snippet does not occur exactly once in %s" % (mutant.name, mutant.path))
    with open(path, "w") as handle:
        handle.write(text.replace(mutant.snippet, mutant.replacement))


def run_tests(src, tests, optimize):
    """Run the tests in one subprocess on the package under `src`; return
    pytest's exit status.  The ini file's `pythonpath` is pointed at the
    copy, so the package is imported from it, and so are the subprocesses
    that tests start from `demtensor.__file__`."""
    argv = [sys.executable] + (["-O"] if optimize else []) + [
        "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", "pythonpath=" + src, *tests
    ]
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout


def baseline(mutants):
    """The named tests pass on the unmutated package, plain and under -O
    where an entry runs so."""
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(tmp)
        for optimize in (False, True):
            tests = sorted({t for m in mutants if m.optimize == optimize for t in m.tests})
            if tests:
                status, out = run_tests(src, tests, optimize)
                if status != 0:
                    print(out)
                    raise SystemExit("baseline fails (%s): exit %d" % ("-O" if optimize else "plain", status))


def main(names):
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit("unknown mutants: %s" % ", ".join(sorted(unknown)))
    chosen = [m for m in MUTANTS if not names or m.name in names]
    baseline(chosen)
    survivors = []
    for mutant in chosen:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(tmp)
            apply(src, mutant)
            status, _ = run_tests(src, mutant.tests, mutant.optimize)
        verdict = "killed" if status in KILLED else "SURVIVED"
        if status not in KILLED:
            survivors.append(mutant.name)
        print("%-8s %-42s %s exit %d, %.1f s" % (
            verdict, mutant.name, "-O   " if mutant.optimize else "plain", status,
            time.perf_counter() - start), flush=True)
    print("killed %d of %d" % (len(chosen) - len(survivors), len(chosen)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
