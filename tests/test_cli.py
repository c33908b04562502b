"""Command line surface: JSON reports, DOT output, exit codes, determinism."""

import ast
import json
import os
import subprocess
import sys

import pytest

import demtensor
from demtensor import decomp
from demtensor.cartan import root_system
from demtensor.cli import main
from demtensor.crystal import MultipleHighestWeights
from demtensor.decomp import NoDemazureMatch, TheoremViolation
from demtensor.weyl import NonUniqueMaximum

EX1 = ["--type", "A2", "--v", "1,2", "--w", "1,2,1", "--lambda", "1,1", "--mu", "1,0"]
EX2 = ["--type", "A2", "--v", "1", "--w", "1,2", "--lambda", "2,1", "--mu", "1,2"]
EX3 = ["--type", "A2", "--v", "1,2", "--w", "1,2", "--lambda", "1,1", "--mu", "1,0"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_decompose_positive_instance(capsys):
    code, out = run(capsys, "decompose", *EX1, "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["condition_holds"] is True
    assert len(report["entries"]) == 3
    assert all(entry["demazure"] for entry in report["entries"])
    got = sorted((tuple(e["witness"]), tuple(e["lambda_plus_wt"])) for e in report["entries"])
    assert got == sorted([((1, 2), (2, 1)), ((1, 2), (0, 2)), ((1,), (1, 0))])


def test_decompose_counterexample_instance(capsys):
    code, out = run(capsys, "decompose", *EX3)
    assert code == 0
    report = json.loads(out)
    assert report["condition_holds"] is False
    bad = [entry for entry in report["entries"] if not entry["demazure"]]
    assert len(bad) == 1
    assert bad[0]["size"] == 3
    assert bad[0]["lambda_plus_wt"] == [0, 2]
    witness = bad[0]["witness"]
    assert witness["violated_string_color"] in (1, 2)
    assert 0 < len(witness["inside_component"]) < len(witness["string"])


def test_decompose_sizes_components_without_decoding_them(capsys, monkeypatch):
    """Every component of EX1 is Demazure, so its JSON reads only the
    component's pair codes and no entry decodes its elements."""
    _, plain = run(capsys, "decompose", *EX1)
    decoded = []
    monkeypatch.setattr(
        decomp.DecompositionEntry, "elements", property(lambda entry: decoded.append(entry))
    )
    code, out = run(capsys, "decompose", *EX1)
    assert code == 0 and out == plain
    assert decoded == []


def test_counterexample_json_tests_string_members_by_pair_code(capsys, monkeypatch, tmp_path):
    """EX3 has a non-Demazure component; its `inside_component` list and
    the DOT highlight read the component's pair codes, and no `Subset` is
    decoded for them."""
    from demtensor import crystal

    _, plain = run(capsys, "decompose", *EX3)
    calls = []
    decode = crystal.Subset.elements

    def counted(subset):
        calls.append(subset)
        return decode(subset)

    monkeypatch.setattr(crystal.Subset, "elements", counted)
    code, out = run(capsys, "decompose", *EX3)
    assert code == 0 and out == plain
    code, _ = run(capsys, "decompose", *EX3, "--dot-dir", str(tmp_path))
    assert code == 0
    assert calls == []


def test_decompose_is_deterministic(capsys):
    _, first = run(capsys, "decompose", *EX2)
    _, second = run(capsys, "decompose", *EX2)
    assert first == second


def test_malformed_weight_exits_one(capsys):
    code = main(["decompose", "--type", "A2", "--v", "1", "--w", "1", "--lambda", "1,0", "--mu=-1,0"])
    assert code == 1
    assert "dominant" in capsys.readouterr().err


def test_bad_type_exits_one(capsys):
    code = main(["decompose", "--type", "Q9", "--v", "", "--w", "", "--lambda", "1", "--mu", "1"])
    assert code == 1


def test_oversized_group_exits_one_without_traceback():
    src = os.path.dirname(os.path.dirname(demtensor.__file__))
    shape = ",".join(["1"] + ["0"] * 7)
    argv = [sys.executable, "-m", "demtensor.cli", "check", "--type", "E8",
            "--v", "", "--w", "", "--lambda", shape, "--mu", shape]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and "too large" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--type", "A80", "--v", "", "--w", "", "--lambda", "1", "--mu", "1"],
        ["verify", "--grid", "A160:1"],
        ["verify", "--grid", "A2000:1"],
        ["check", "--type", "A1000000", "--v", "", "--w", "", "--lambda", "1", "--mu", "1"],
        ["verify", "--grid", "A1000000:1"],
    ],
    ids=["check-A80", "verify-A160", "verify-A2000", "check-A1000000", "verify-A1000000"],
)
def test_oversized_rank_refused_before_the_root_closure(capsys, argv):
    """`parse_type` refuses the type before its positive roots are closed
    (those of A80 alone took 15 s), and a rank past the limit's bit length
    before the closed-form order is evaluated (factorial(10**6 + 1) takes
    seconds)."""
    import time

    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: Weyl group of RootSystem(A")
    assert captured.err.count("\n") == 1 and "too large" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ["check", "--type", "E9", "--v", "", "--w", "", "--lambda", "1", "--mu", "1"],
    ["verify", "--grid", "E9:1"],
])
def test_invalid_rank_is_named_before_the_size_refusal(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: invalid type E9\n"


def test_check_command(capsys):
    code, out = run(capsys, "check", *EX2)
    assert code == 0
    assert json.loads(out) == {"forward": True, "swapped": False}
    code, out = run(capsys, "check", *EX3)
    # the counterexample fails forward but holds after swapping the factors
    assert json.loads(out) == {"forward": False, "swapped": True}


def test_expand_command(capsys):
    code, out = run(capsys, "expand", *EX1)
    assert code == 0
    data = json.loads(out)
    assert data["condition_forward"] is True
    assert data["all_nonnegative"] is True
    terms = sorted((tuple(t["shape"]), tuple(t["witness"]), t["coefficient"]) for t in data["terms"])
    assert terms == sorted(
        [((2, 1), (1, 2), 1), ((0, 2), (1, 2), 1), ((1, 0), (1,), 1)]
    )


def test_graph_command(capsys):
    code, out = run(capsys, "graph", "--type", "A2", "--lambda", "1,0")
    assert code == 0
    assert out.count("->") == 2
    # three vertices, two colored edges
    assert sum(1 for line in out.splitlines() if "->" not in line and "label=" in line) == 3
    assert "[label=1]" in out and "[label=2]" in out


def test_graph_highlights_demazure_part(capsys):
    code, out = run(capsys, "graph", "--type", "A2", "--lambda", "1,0", "--w", "1")
    assert code == 0
    assert out.count("fillcolor") == 2


def test_dot_dir_written(tmp_path, capsys):
    dot_dir = str(tmp_path / "dots")
    code, _ = run(capsys, "decompose", *EX3, "--dot-dir", dot_dir, "--out", str(tmp_path / "r.json"))
    assert code == 0
    files = sorted(os.listdir(dot_dir))
    assert files == ["component_0.dot", "component_1.dot"]
    bad = (tmp_path / "dots" / "component_1.dot").read_text()
    highlighted = "fillcolor" in bad or "fillcolor" in (tmp_path / "dots" / "component_0.dot").read_text()
    assert highlighted


def test_out_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, stdout = run(capsys, "decompose", *EX1, "--out", str(out_file))
    assert code == 0
    assert stdout == ""
    assert json.loads(out_file.read_text())["condition_holds"] is True


@pytest.mark.parametrize(
    "flag,under", [("--out", "x.json"), ("--dot-dir", "dots"), ("--dot-dir", "")],
    ids=["out-under-file", "dot-dir-under-file", "dot-dir-is-file"],
)
def test_unwritable_output_path_exits_one(tmp_path, capsys, flag, under):
    """An output path under (or at) a regular file is refused with one error
    line and exit 1; the DOT directory is made before any JSON is written."""
    blocker = tmp_path / "plain"
    blocker.write_text("kept")
    target = str(blocker / under) if under else str(blocker)
    code = main(["decompose", *EX3, flag, target])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert blocker.read_text() == "kept"


def test_verify_tiny_grid(capsys):
    code, out = run(capsys, "verify", "--grid", "A1:1")
    assert code == 0
    lines = [line for line in out.strip().splitlines()]
    assert lines and all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("grid", ["A2:0", "A2:-1"])
def test_verify_refuses_empty_grid(capsys, grid):
    code = main(["verify", "--grid", grid])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert repr(grid) in captured.err and "no nonzero shapes" in captured.err


@pytest.mark.parametrize("grid,top", [("B3:1", (2, 2, 2)), ("A4:1", (2, 2, 2, 2))])
def test_oversized_grid_refused_at_parse_time(capsys, grid, top):
    """The top shapes' product B(lam + mu) is over the crystal limit: the
    parser refuses the grid with generate_crystal's message before any
    suite runs."""
    import time

    from demtensor.crystal import generate_crystal
    from demtensor.verify import parse_grid

    with pytest.raises(ValueError) as refused:
        generate_crystal(root_system(grid[0], int(grid[1])), top)
    with pytest.raises(ValueError) as parsed:
        parse_grid(grid)
    assert str(parsed.value) == str(refused.value)
    start = time.perf_counter()
    code = main(["verify", "--grid", grid])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: %s\n" % refused.value
    assert elapsed < 1.0


def test_grid_refused_by_the_pair_space_of_its_top_product(capsys):
    """A2:10 passes the crystal limit on B(20, 20), but its top product
    (10, 10) x (10, 10) is over the pair-space limit: the parser refuses
    the grid with decompose's message before any suite runs."""
    import time

    from demtensor.decomp import decompose
    from demtensor.verify import parse_grid
    from demtensor.weyl import weyl_group

    group = weyl_group(root_system("A", 2))
    with pytest.raises(ValueError) as refused:
        decompose(group, group.identity, group.identity, (10, 10), (10, 10))
    with pytest.raises(ValueError) as parsed:
        parse_grid("A2:10")
    assert str(parsed.value) == str(refused.value)
    assert "1771561 pairs" in str(parsed.value)
    start = time.perf_counter()
    code = main(["verify", "--grid", "A2:10"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: %s\n" % refused.value
    assert elapsed < 1.0


def test_huge_grid_refused_before_enumeration(capsys):
    """The size check runs before the (bound + 1)^rank shapes are listed."""
    import time

    start = time.perf_counter()
    code = main(["verify", "--grid", "A2:99999999999"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "too large" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("grid", ["A", "A2:", "A2:x", ":2"])
def test_unparsable_grid_refused_by_name(capsys, grid):
    code = main(["verify", "--grid", grid])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: cannot parse grid %r\n" % grid


@pytest.mark.parametrize("grid", ["A3:1", "B2:2", "G2:1"])
def test_grids_within_the_crystal_limit_parse(grid):
    from demtensor.verify import parse_grid

    assert parse_grid(grid).name == grid.split(":")[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--type", "A2", "--v", "1,1", "--w", "1", "--lambda", "1,0", "--mu", "1,0"],
        ["check", "--type", "A2", "--v", "1", "--w", "1,2,1,2", "--lambda", "1,0", "--mu", "1,0"],
        ["graph", "--type", "A2", "--lambda", "1,0", "--w", "2,2"],
    ],
    ids=["decompose-v", "check-w", "graph-w"],
)
def test_non_reduced_words_exit_one(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "is not reduced" in captured.err


def bare_asserts(source, name):
    """file:line of every assert statement in a module's source."""
    tree = ast.parse(source, filename=name)
    return ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def test_no_bare_asserts_in_package():
    """Checks of the paper's identities must survive python -O, so no
    module of the package holds an assert statement."""
    package = os.path.dirname(demtensor.__file__)
    names = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    # the scan reaches the modules that hold the checks, and would name a planted assert
    assert {"crystal.py", "decomp.py", "keypoly.py", "weyl.py"} <= set(names)
    assert bare_asserts("x = 1\nif x:\n    assert x\n", "probe.py") == ["probe.py:3"]
    found = []
    for name in names:
        with open(os.path.join(package, name)) as handle:
            found += bare_asserts(handle.read(), name)
    assert found == []


def non_stdlib_imports(source, name):
    """Absolute imports in the source whose top-level module is not in the
    standard library, as "name:line module"."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += ["%s:%d %s" % (name, node.lineno, module) for module in modules
                  if module.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_package_imports_only_the_standard_library():
    """The runtime is stdlib-only: every import of the package is relative
    or names a standard-library module."""
    package = os.path.dirname(demtensor.__file__)
    names = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert {"cli.py", "crystal.py", "keypoly.py", "weyl.py"} <= set(names)
    # the scan would name a planted third-party import, and passes relative ones
    probe = "import os.path\nfrom . import weyl\nfrom .cartan import vadd\n\ndef f():\n    import numpy\n"
    assert non_stdlib_imports(probe, "probe.py") == ["probe.py:6 numpy"]
    assert non_stdlib_imports("from numpy.linalg import solve\n", "p.py") == ["p.py:1 numpy.linalg"]
    found = []
    for name in names:
        with open(os.path.join(package, name)) as handle:
            found += non_stdlib_imports(handle.read(), name)
    assert found == []


def unused_imports(source, name):
    """Names an import binds in the source that no expression reads and
    `__all__` does not list, as "name:line binding"."""
    tree = ast.parse(source, filename=name)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return ["%s:%d %s" % (name, line, binding) for line, binding in bound if binding not in used]


def test_every_import_of_the_package_is_used():
    """A deletion leaves no import behind: every name a module of the
    package imports is read in it or listed in its `__all__`."""
    package = os.path.dirname(demtensor.__file__)
    names = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert {"__init__.py", "crystal.py", "decomp.py", "demazure.py", "verify.py"} <= set(names)
    # the scan names a planted unused import, and passes a used, an exported
    # and an attribute-only one
    probe = (
        "import os.path\nfrom .weyl import weyl_group, WeylGroup as W\n"
        "from .cartan import vadd\n__all__ = ['W']\nos.sep\nvadd((), ())\n"
    )
    assert unused_imports(probe, "probe.py") == ["probe.py:2 weyl_group"]
    found = []
    for name in names:
        with open(os.path.join(package, name)) as handle:
            found += unused_imports(handle.read(), name)
    assert found == []


WEYL_TABLES = {
    "_rmul", "_inv", "_len", "_rdes", "_support", "_walk", "_coset_floor", "_coset_ceiling",
}


def weyl_table_reads(source, name):
    """Reads of a private `WeylGroup` table in the source, as "name:line attribute"."""
    return sorted(
        "%s:%d %s" % (name, node.lineno, node.attr)
        for node in ast.walk(ast.parse(source, filename=name))
        if isinstance(node, ast.Attribute) and node.attr in WEYL_TABLES
    )


def unraised(classes, sources):
    """The names in `classes` that no `raise` statement of the sources
    (a dict of file name to source) raises, by name or attribute, called or
    not."""
    raised = set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source, filename=name)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return [name for name in classes if name not in raised]


def test_every_structural_failure_is_raised_in_the_package():
    """Exit code 2 stands for no dead class: every class of
    `cli.STRUCTURAL_FAILURES` but AssertionError is raised somewhere in
    the package."""
    from demtensor.cli import STRUCTURAL_FAILURES

    package = os.path.dirname(demtensor.__file__)
    sources = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as handle:
                sources[name] = handle.read()
    # the scan names a planted class that nothing raises, and passes raised ones
    probe = (
        "class Planted(Exception):\n    pass\n\n"
        "def f(x):\n    if x:\n        raise errors.Raised('x')\n    raise Bare\n"
    )
    assert unraised(["Planted", "Raised", "Bare"], {"probe.py": probe}) == ["Planted"]
    classes = [cls.__name__ for cls in STRUCTURAL_FAILURES if cls is not AssertionError]
    assert len(classes) == len(STRUCTURAL_FAILURES) - 1
    assert unraised(classes, sources) == []


def test_only_weyl_reads_the_group_tables():
    """The table format stays behind one module: no module of the package
    but weyl.py reads `_rmul`, `_inv`, `_len`, the descent and support masks
    `_rdes` and `_support`, or walks them with `_walk`, `_coset_floor` or
    `_coset_ceiling`; the others read masks through weyl's helpers."""
    package = os.path.dirname(demtensor.__file__)
    names = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert {"decomp.py", "demazure.py", "lspath.py", "verify.py", "weyl.py"} <= set(names)
    # the scan would name a planted read, and weyl.py's own reads
    probe = "def f(group, w):\n    k = group._inv[w.index]\n    return group.length(w)\n"
    assert weyl_table_reads(probe, "probe.py") == ["probe.py:2 _inv"]
    with open(os.path.join(package, "weyl.py")) as handle:
        assert weyl_table_reads(handle.read(), "weyl.py")
    found = []
    for name in names:
        if name != "weyl.py":
            with open(os.path.join(package, name)) as handle:
                found += weyl_table_reads(handle.read(), name)
    assert found == []


def test_decompose_output_unchanged_under_optimize():
    src = os.path.dirname(os.path.dirname(demtensor.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run_cli(*flags):
        argv = [sys.executable, *flags, "-m", "demtensor.cli", "decompose", *EX1]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    plain = run_cli()
    assert json.loads(plain)["condition_holds"] is True
    assert run_cli("-O") == plain


BROKEN_RAISING = """
import sys
from demtensor import cli, crystal

crystal._path_e = lambda path, i: None  # every raising step on a path vanishes
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
def test_structural_check_survives_optimize_and_exits_two(flags):
    """A broken raising operator: the inverse-identity check of crystal
    compilation raises in a fresh interpreter, and decompose exits 2, also
    under python -O."""
    src = os.path.dirname(os.path.dirname(demtensor.__file__))
    argv = [sys.executable, *flags, "-c", BROKEN_RAISING, "decompose", "--type", "A2",
            "--v", "1", "--w", "1,2", "--lambda", "1,0", "--mu", "1,0"]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("structural failure: e_1(f_1(x)) != x at ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "failure",
    [AssertionError, MultipleHighestWeights, NoDemazureMatch, NonUniqueMaximum,
     TheoremViolation],
    ids=lambda failure: failure.__name__,
)
def test_structural_failures_exit_two(monkeypatch, capsys, failure, cold_caches):
    from demtensor import crystal

    def broken(path, i):
        raise failure("injected at color %d" % i)

    # path operators run only while a crystal is generated and compiled,
    # which cold_caches forces
    monkeypatch.setattr(crystal, "_path_f", broken)
    code = main(["decompose", *EX1])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("structural failure: injected at color ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_wrong_raising_step_exits_two(monkeypatch, capsys, cold_caches):
    from demtensor import crystal
    from demtensor.cartan import root_system
    from demtensor.lspath import straight_path

    A2 = root_system("A", 2)
    path_e = crystal._path_e
    moved = crystal._path_f(straight_path(A2, (1, 1)), 1)
    wrong = crystal._path_f(straight_path(A2, (1, 1)), 2)
    # compilation checks the e table against the f table: exit 2
    monkeypatch.setattr(
        crystal, "_path_e", lambda path, i: wrong if path is moved and i == 1 else path_e(path, i)
    )
    code = main(["decompose", *EX1])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("structural failure: f_1(e_1(y)) != y at ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_oversized_crystal_exits_one_quickly(capsys):
    import time

    start = time.perf_counter()
    code = main(["decompose", "--type", "G2", "--v", "", "--w", "",
                 "--lambda", "40,40", "--mu", "1,0"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "too large" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["decompose", "expand"])
def test_oversized_pair_space_exits_one_before_any_crystal(capsys, command, cold_caches):
    """B(11,11) of A2 is under the crystal limit, but the product of two
    has 1728^2 pairs: refused from the dimension formula alone, before any
    crystal is built."""
    import time

    from demtensor import crystal

    start = time.perf_counter()
    code = main([command, "--type", "A2", "--v", "1,2,1", "--w", "1,2,1",
                 "--lambda", "11,11", "--mu", "11,11"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: product of the crystals of highest weights ")
    assert captured.err.count("\n") == 1 and "too large (2985984 pairs" in captured.err
    assert crystal.generate_crystal.cache_info().currsize == 0
    assert elapsed < 1.0


def test_orbit_miss_is_structural(monkeypatch, capsys, cold_caches):
    import demtensor.decomp as decomp
    from demtensor.cartan import root_system
    from demtensor.lspath import straight_path
    from demtensor.weyl import weyl_group

    group = weyl_group(root_system("A", 2))
    pi = straight_path(group.rs, (0, 1))
    with pytest.raises(AssertionError, match=r"\(0, 1\) is not in the orbit of \(1, 0\)"):
        decomp.path_witness(group, pi, group.identity, (1, 0), (1, 1))
    # a walk that ends anywhere but mu is an internal fault: exit 2
    monkeypatch.setattr(decomp, "dominant_walk", lambda group, x: ((9, 9), group.identity))
    code = main(["decompose", *EX1])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("structural failure: ") and "not in the orbit" in captured.err


def test_dominant_path_outside_the_right_factor_is_structural(monkeypatch, capsys, cold_caches):
    import demtensor.decomp as decomp
    from demtensor.cartan import root_system
    from demtensor.crystal import f_op
    from demtensor.lspath import straight_path
    from demtensor.weyl import weyl_group

    A2 = root_system("A", 2)
    group = weyl_group(A2)
    lowered = f_op(straight_path(A2, (1, 0)), 1)  # in B(1,0), not in B_e(1,0)
    with pytest.raises(AssertionError, match="right Demazure factor"):
        decomp.component(group, lowered, group.identity, group.identity, (1, 1), (1, 0))
    # a dominant path of another shape is not in the right factor either: exit 2
    reached = []
    monkeypatch.setattr(
        decomp, "dominant_paths", lambda *args: reached.append(args) or [straight_path(A2, (0, 1))]
    )
    code = main(["decompose", *EX1])
    captured = capsys.readouterr()
    assert reached
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("structural failure: pi is not an element of the right")
    assert captured.err.count("\n") == 1


def test_empty_admissible_set_is_structural(monkeypatch, capsys, cold_caches):
    import demtensor.decomp as decomp

    # the identity is admissible for every pi in B_w(mu); a transport above
    # w's coset leaves nothing admissible, which is an internal fault: exit 2
    walk = decomp.dominant_walk
    monkeypatch.setattr(
        decomp, "dominant_walk", lambda group, x: (walk(group, x)[0], group.from_word((2, 1)))
    )
    code = main(["decompose", "--type", "A2", "--v", "1", "--w", "1",
                 "--lambda", "1,1", "--mu", "1,0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("structural failure: no admissible element below s1 for ")
    assert captured.err.count("\n") == 1


def _first_call_fails(failure, seen):
    def broken(group, *args, **kwargs):
        seen.append(args)
        raise failure("injected")

    return broken


def test_witness_oracle_failure_names_its_instance(monkeypatch, capsys):
    """The certification of `decompose` failing everywhere fails the
    biconditional at its first coset pair and the witness oracle, the
    certification at v = e, at its first (lam, mu, w): one certification,
    at v = w = e, fails both, each named in its FAIL line."""
    from demtensor import verify

    seen = []
    monkeypatch.setattr(verify, "_certify", _first_call_fails(TheoremViolation, seen))
    code = main(["verify", "--grid", "A2:1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    [(v, w, lam, mu, _)] = seen
    assert v is w is verify.parse_grid("A2:1").group.identity
    expected = [
        "FAIL %-28s A2: v=%r w=%r lam=%r mu=%r: injected"
        % ("decomposition-biconditional", v, w, lam, mu),
        "FAIL %-28s A2: w=%r lam=%r mu=%r: injected" % ("witness-oracle", w, lam, mu),
    ]
    assert [line for line in lines if line.startswith("FAIL")] == expected


def test_recursion_failure_names_its_instance(monkeypatch, capsys):
    """The recursion step fails at the first ascent of the first
    (lam, mu, w), and the FAIL line names that instance."""
    from demtensor import verify
    from demtensor.demazure import generate_demazure

    seen = []
    monkeypatch.setattr(verify, "_recursion_step", _first_call_fails(TheoremViolation, seen))
    code = main(["verify", "--grid", "A2:1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    grid = verify.parse_grid("A2:1")
    group = grid.group
    lam = mu = grid.shapes[0]
    (v, i), w = verify._ascent_pairs(group, verify._coset_reps(group, lam))[0], group.identity
    pi, got_i, here, there = seen[0]
    assert (pi, got_i) == (decomp.dominant_paths(group, w, mu, lam)[0], i)
    assert here[0].ids.left == generate_demazure(group, v, lam).subset.ids
    assert here[0].ids.right == generate_demazure(group, w, mu).subset.ids
    expected = "FAIL %-28s A2: v=%r i=%d w=%r lam=%r mu=%r: injected" % (
        "component-recursion", v, i, w, lam, mu)
    assert [line for line in lines if line.startswith("FAIL")] == [expected]


def test_output_matches_the_benchmark_reference_digests(capsys):
    """`verify` and the G2 decompose at w0 print exactly the bytes whose
    sha256 the benchmark records as its reference payloads, so output drift
    fails here and not only in a benchmark run."""
    import hashlib

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "reference.json")) as handle:
        reference = json.load(handle)
    w0 = "1,2,1,2,1,2"
    commands = {
        "verify-default": ["verify"],
        "g2-decompose": ["decompose", "--type", "G2", "--v", w0, "--w", w0,
                         "--lambda", "1,1", "--mu", "1,1"],
    }
    for name, argv in commands.items():
        code, out = run(capsys, *argv)
        assert code == 0, name
        assert hashlib.sha256(out.encode()).hexdigest() == reference[name]["full"], name


def test_dot_output_matches_recorded_digests(capsys, tmp_path):
    """The DOT text of the README's `graph` and `decompose --dot-dir`
    examples, pinned by sha256 digests, since `to_dot` writes both."""
    import hashlib

    code, out = run(capsys, "graph", "--type", "A2", "--lambda", "1,1", "--w", "1,2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "80abd13ff8c68f847a07d1c5f90207377e0f3df54449ea6f8ac8c34b4d03804f")
    code, _ = run(capsys, "decompose", *EX3, "--dot-dir", str(tmp_path))
    assert code == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == {
        "component_0.dot": "d0597c2699d26b38b8771fa467de0772a8156add9ee2ef385f45c23df93ca40a",
        "component_1.dot": "09c58c8a718ea054f842cb7f7d5decc243631ed077c0ce7670d5ced3b528c72b",
    }


@pytest.mark.parametrize(
    "memo, fault, message",
    [
        ("_key_product", lambda c: -c, "negative key coefficient under the decomposition condition"),
        ("_counted", lambda c: c + 1, "key coefficients disagree with the component count"),
    ],
    ids=["negative", "miscounted"],
)
def test_key_positivity_failure_names_its_instance(monkeypatch, capsys, cold_caches, memo, fault, message):
    """A key-positivity fault on every product fails key-positivity alone,
    at its first product, v = w = e on the first shapes, where the
    condition holds: exit 2 and one FAIL line naming that instance."""
    import demtensor.keypoly as keypoly
    from demtensor import verify

    real = getattr(keypoly, memo)
    monkeypatch.setattr(
        keypoly, memo, lambda group, *args: {idx: fault(c) for idx, c in real(group, *args).items()}
    )
    code = main(["verify", "--grid", "A2:1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    grid = verify.parse_grid("A2:1")
    e, lam = grid.group.identity, grid.shapes[0]
    expected = "FAIL %-28s A2: v=%r w=%r lam=%r mu=%r: %s" % (
        "key-positivity", e, e, lam, lam, message)
    assert [line for line in lines if line.startswith("FAIL")] == [expected]
    assert len(lines) == len(verify.ALL_SUITES)
