"""The mutant list of `mutants.py` stays applicable to the code it mutates."""

import ast
import os

from mutants import MUTANTS, ROOT, SRC


def sources():
    out = {}
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as handle:
                    out[os.path.relpath(path, SRC).replace(os.sep, "/")] = handle.read()
    return out


def test_every_snippet_occurs_exactly_once_in_src():
    texts = sources()
    for mutant in MUTANTS:
        assert mutant.snippet != mutant.replacement, mutant.name
        counts = {path: text.count(mutant.snippet) for path, text in texts.items()}
        assert sum(counts.values()) == 1 and counts.get(mutant.path) == 1, (mutant.name, counts)


def test_every_entry_names_tests_that_exist():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.tests and isinstance(mutant.optimize, bool), mutant.name
        for test in mutant.tests:
            path, _, name = test.partition("::")
            with open(os.path.join(ROOT, path)) as handle:
                tree = ast.parse(handle.read())
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name.split("[")[0] in defined, (mutant.name, test)
