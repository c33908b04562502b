"""Command line surface: JSON reports, DOT output, exit codes, determinism."""

import ast
import json
import os
import subprocess
import sys

import pytest

import demtensor
from demtensor.cli import main
from demtensor.crystal import MultipleHighestWeights
from demtensor.decomp import NoDemazureMatch, OracleMismatch, TheoremViolation
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


def test_no_bare_asserts_in_package():
    """Checks of the paper's identities must survive python -O."""
    package = os.path.dirname(demtensor.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as handle:
                tree = ast.parse(handle.read(), filename=name)
            found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
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


@pytest.mark.parametrize(
    "failure",
    [AssertionError, MultipleHighestWeights, NoDemazureMatch, NonUniqueMaximum,
     OracleMismatch, TheoremViolation],
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


def test_orbit_miss_is_structural(monkeypatch, capsys, cold_caches):
    import demtensor.decomp as decomp
    from demtensor.cartan import root_system
    from demtensor.weyl import weyl_group

    group = weyl_group(root_system("A", 2))
    with pytest.raises(AssertionError, match="not in the orbit"):
        decomp._orbit_transport(group, (1, 0), (0, 1))
    # a walk that ends anywhere but mu is an internal fault: exit 2
    monkeypatch.setattr(decomp, "dominant_walk", lambda group, x: ((9, 9), ()))
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
    monkeypatch.setattr(decomp, "_orbit_transport", lambda group, mu, target: group.from_word((2, 1)))
    code = main(["decompose", "--type", "A2", "--v", "1", "--w", "1",
                 "--lambda", "1,1", "--mu", "1,0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("structural failure: no admissible element below s1 for ")
    assert captured.err.count("\n") == 1


def _first_call_fails(failure, seen):
    def broken(group, *args):
        seen.append(args)
        raise failure("injected")

    return broken


def test_witness_oracle_failure_names_its_instance(monkeypatch, capsys):
    from demtensor import verify

    seen = []
    monkeypatch.setattr(verify, "checked_path_witness", _first_call_fails(OracleMismatch, seen))
    code = main(["verify", "--grid", "A2:1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    _, w, mu, lam = seen[0]
    expected = "FAIL %-28s A2: w=%r lam=%r mu=%r: injected" % ("witness-oracle", w, lam, mu)
    assert [line for line in lines if line.startswith("FAIL")] == [expected]


def test_recursion_failure_names_its_instance(monkeypatch, capsys):
    from demtensor import verify

    seen = []
    monkeypatch.setattr(verify, "recursive_component", _first_call_fails(TheoremViolation, seen))
    code = main(["verify", "--grid", "A2:1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    _, v, i, w, lam, mu = seen[0]
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
