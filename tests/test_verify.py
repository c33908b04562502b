"""The sweeps of `verify`: coset representatives, ascent pairs, reduced words."""

import functools
import gc
import itertools
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coset_oracle
from demtensor import crystal, decomp, keypoly, verify
from demtensor.cartan import root_system
from demtensor.crystal import Subset, generate_crystal, tensor_space
from demtensor.decomp import dominant_paths
from demtensor.demazure import generate_demazure
from demtensor.verify import _ascent_pairs, _coset_reps, _reduced_words, parse_grid
from demtensor.weyl import WeylGroup, weyl_group

GRIDS = ["A3:1", "B2:2", "G2:1"]


@pytest.mark.parametrize("name", GRIDS)
def test_coset_reps_are_the_scanned_minimal_representatives(name):
    grid = parse_grid(name)
    group = grid.group
    for lam in grid.shapes:
        expected = coset_oracle.minimal_coset_reps(group, group.stabilizer_indices(lam))
        assert tuple(_coset_reps(group, lam)) == expected, lam


def test_coset_reps_scan_the_group_once_per_stabilizer_mask(monkeypatch):
    """The representatives are memoized by (group, stabilizer mask): every
    shape of a grid, asked twice, costs one scan of the group per distinct
    mask, and the memo holds what that scan finds."""
    verify._reps_by_mask.cache_clear()
    original = WeylGroup._right_descent_mask
    scanned = []

    def counted(group, w):
        scanned.append(group)
        return original(group, w)

    monkeypatch.setattr(WeylGroup, "_right_descent_mask", counted)
    grids = [parse_grid(name) for name in GRIDS] + verify.default_grids()
    masks = set()
    for grid in grids * 2:
        group = grid.group
        for lam in grid.shapes:
            mask = group._mask(group.stabilizer_indices(lam))
            masks.add((group, mask))
            assert _coset_reps(group, lam) == list(verify._reps_by_mask(group, mask))
    assert len(scanned) == sum(len(group) for group, _ in masks)
    monkeypatch.undo()
    for group, mask in masks:
        scan = [w for w in group if not group._right_descent_mask(w) & mask]
        assert list(verify._reps_by_mask(group, mask)) == scan
    assert len(masks) < sum(len(grid.shapes) for grid in grids)


@pytest.mark.parametrize("name", GRIDS)
def test_representative_ascents_are_the_normalized_full_ascents(name):
    """Deodhar's lemma: (v, i) an ascent gives (v mod W_lam, i) an ascent,
    so sweeping representatives drops no instance of the recursion."""
    grid = parse_grid(name)
    group = grid.group
    everything = _ascent_pairs(group, list(group))
    for lam in grid.shapes:
        normalized = {(group.coset_min_weight(v, lam), i) for v, i in everything}
        reps = _ascent_pairs(group, _coset_reps(group, lam))
        assert len(reps) == len(set(reps))
        assert set(reps) == normalized, lam


@pytest.mark.parametrize("letter, rank", [("A", 3), ("B", 3), ("G", 2)])
def test_reduced_words_equal_the_brute_force_filter(letter, rank):
    """Every word of length l(w) that multiplies to w, and nothing else, in
    lexicographic order, so the first word is the stored least word."""
    group = weyl_group(root_system(letter, rank))
    brute = {w: [] for w in group}
    for length in range(group.length(group.longest()) + 1):
        for word in itertools.product(range(1, rank + 1), repeat=length):
            w = group.from_word(word)
            if group.length(w) == length:
                brute[w].append(word)
    for w in group:
        words = list(_reduced_words(group, w))
        assert words == brute[w], w
        assert words[0] == w.word


def _spy(monkeypatch, name, key):
    """Wrap verify's `name`, recording the key of its positional arguments
    on every call; keyword arguments are passed through."""
    original = getattr(verify, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(key(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, spy)
    return calls


@pytest.mark.parametrize("name", ["B2:1", "G2:1"])
def test_biconditional_decomposes_each_product_once(monkeypatch, name):
    grid = parse_grid(name)
    calls = _spy(monkeypatch, "_certify",
                 lambda group, v, w, lam, mu, here: keypoly.product_key(group, v, w, lam, mu))
    assert verify.suite_biconditional(grid) is None
    group = grid.group
    keys = {
        keypoly.product_key(group, v, w, lam, mu)
        for lam, mu in itertools.product(grid.shapes, repeat=2)
        for v, w in itertools.product(group, repeat=2)
    }
    assert len(calls) == len(set(calls)) == len(keys)
    assert set(calls) == keys


@pytest.mark.parametrize("name", ["B2:1", "G2:1"])
def test_recursion_grows_each_component_once(monkeypatch, name):
    """One step per (v mod W_lam, i, w mod W_mu, pi, lam, mu) over the
    ascents (v, i) and the dominant paths pi of every (w, lam, mu), on the
    products of v and s_i v.  A step sees a product as its space, which
    fixes (lam, mu), and its factors' Demazure ids, which fix the cosets."""
    grid = parse_grid(name)
    group = grid.group

    def key(group, pi, i, here, there):
        product, up = here[0], there[0]
        return product.space, product.ids.left, up.ids.left, i, product.ids.right, pi

    def ids(u, shape):
        return generate_demazure(group, u, shape).subset.ids

    calls = _spy(monkeypatch, "_recursion_step", key)
    assert verify.suite_recursion(grid) is None
    ascents = _ascent_pairs(group, list(group))
    keys = {
        (tensor_space(generate_crystal(grid.rs, lam), generate_crystal(grid.rs, mu)),
         ids(v, lam), ids(group.multiply(group.simple(i), v), lam), i, ids(w, mu), pi)
        for lam, mu in itertools.product(grid.shapes, repeat=2)
        for w in group
        for pi in dominant_paths(group, w, mu, lam)
        for v, i in ascents
    }
    assert len(calls) == len(set(calls)) == len(keys)
    assert set(calls) == keys


def interval_maximum(group, first, u1, wj):
    """The finish of the interval recursion as a set maximum: the Bruhat
    maximum of {u wj : u in the first interval's parabolic, u <= u1}."""
    return group.bruhat_max({group.multiply(u, wj) for u in first if group.bruhat_leq(u, u1)})


@pytest.mark.parametrize("name", ["G2:1", "B2:2"])
def test_demazure_finish_is_the_interval_maximum(monkeypatch, name):
    """Every interval recursion of the witness-oracle and biconditional
    suites finishes with the Demazure product u1 * wj, which is the maximum
    of {u wj : u <= u1} over the first interval."""
    grid = parse_grid(name)
    recursion, product = decomp._interval_recursion.__wrapped__, decomp.demazure_product
    inside, finishes = [], []

    @functools.lru_cache(maxsize=None)
    def recorded(group, pi, wfloor, mu, lam):
        inside.append((pi, lam))
        try:
            return recursion(group, pi, wfloor, mu, lam)
        finally:
            inside.pop()

    def finish(group, word, start):
        got = product(group, word, start)
        if inside:
            first = group.parabolic(decomp.stabilizer_intervals(group, *inside[-1])[0])
            u1 = group.from_word(word)
            finishes.append((u1, start, got, interval_maximum(group, first, u1, start)))
        return got

    monkeypatch.setattr(decomp, "_interval_recursion", recorded)
    monkeypatch.setattr(decomp, "demazure_product", finish)
    assert verify.suite_witness_oracle(grid) is None
    assert verify.suite_biconditional(grid) is None
    assert len(finishes) == recorded.cache_info().misses
    for u1, wj, got, expected in finishes:
        assert got is expected, (u1, wj)
    # the finish is not vacuous: both factors are often not the identity
    group = grid.group
    assert sum(u1 is not group.identity and wj is not group.identity for u1, wj, _, _ in finishes)


def test_concatenation_suite_concatenates_each_pair_code_once(monkeypatch):
    """tensor-vs-concatenation concatenates every pair of every product of
    the grid once, and reads the steps' targets off those concatenations."""
    calls = _spy(monkeypatch, "concatenate", lambda left, right: (left, right))
    grids = verify.default_grids()
    for grid in grids:
        assert verify.suite_tensor_vs_concatenation(grid) is None
    expected = []
    for grid in grids:
        for lam, mu in itertools.product(grid.shapes, repeat=2):
            space = tensor_space(generate_crystal(grid.rs, lam), generate_crystal(grid.rs, mu))
            expected += [(pair.left, pair.right) for pair in map(space._decode, range(len(space)))]
    assert calls == expected
    assert len(expected) == 277


class _Tracked(Subset):
    """A labelled component that a weak reference can follow."""

    __slots__ = ("__weakref__",)


def _track_labels(monkeypatch):
    """Wrap `components_of` in decomp: each component it hands out is
    followed by a weak reference, one list of them per labelling pass."""
    label = decomp.components_of
    passes = []

    def tracked(members):
        comps = [_Tracked(comp.space, comp.ids, tuple(comp.tops())) for comp in label(members)]
        passes.append([weakref.ref(comp) for comp in comps])
        return comps

    monkeypatch.setattr(decomp, "components_of", tracked)
    return passes


def _recursion_products(grid):
    """The number of distinct products labelled by suite_recursion: per
    (lam, mu, w), the products of v and s_i v over the ascents (v, i)."""
    group = grid.group
    count = 0
    for lam, mu in itertools.product(grid.shapes, repeat=2):
        ascents = _ascent_pairs(group, _coset_reps(group, lam))
        for w in _coset_reps(group, mu):
            count += len({
                keypoly.product_key(group, u, w, lam, mu)
                for v, i in ascents
                for u in (v, group.multiply(group.simple(i), v))
            })
    return count


@pytest.mark.parametrize("name", ["B2:1", "G2:1"])
def test_recursion_and_witness_oracle_search_nothing(monkeypatch, name):
    """Both suites read their components off one labelling per product
    and per (lam, mu, w) loop, with no single-component search; the labels
    are dropped with the loop, so none survives the suite and a second
    run labels the same products again."""
    grid = parse_grid(name)
    searches, search = [], crystal._search
    monkeypatch.setattr(crystal, "_search", lambda *args: searches.append(args) or search(*args))
    passes = _track_labels(monkeypatch)
    loops = sum(len(_coset_reps(grid.group, mu)) for mu in grid.shapes) * len(grid.shapes)
    for suite, labelled in [
        (verify.suite_recursion, _recursion_products(grid)),
        (verify.suite_witness_oracle, loops),
    ]:
        for _ in range(2):
            del passes[:]
            assert suite(grid) is None
            gc.collect()
            assert len(passes) == labelled, suite.__name__
            refs = [ref for comps in passes for ref in comps]
            assert refs and all(ref() is None for ref in refs), suite.__name__
    assert searches == []


def test_unlabelled_pair_fails_structurally_under_optimized_mode():
    """When a dominant pair is not the top of a labelled component, the
    recursion suite and the witness oracle each name their instance in a
    FAIL line, and `verify` exits 2 with nothing on stderr, also under
    python -O."""
    import demtensor
    from demtensor.lspath import straight_path

    src = os.path.dirname(os.path.dirname(demtensor.__file__))
    script = (
        "import sys; sys.path[:0] = [%r]\n"
        "from demtensor import decomp, verify\n"
        "from demtensor.cli import main\n"
        "label = decomp.components_of\n"
        "decomp.components_of = lambda members: label(members)[:-1]\n"
        "print(verify.suite_recursion(verify.parse_grid('A2:1')))\n"
        "print('exit', main(['verify', '--grid', 'A2:1']))\n"
        % src
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    message = "is not the top of a labelled component"
    assert lines[0].startswith("v=") and lines[0].endswith(message)
    assert lines[-1] == "exit 2"
    assert out.stderr == ""
    grid = parse_grid("A2:1")
    lam = mu = grid.shapes[0]
    oracle = "FAIL %-28s A2: w=%r lam=%r mu=%r: the pair of %r is not the top of a component" % (
        "witness-oracle", grid.group.identity, lam, mu, straight_path(grid.rs, mu))
    assert oracle in lines


def test_word_closure_suite_sees_a_missing_pair(monkeypatch):
    """A closure that misses one pair of the product fails word-closure at
    the first coset pair under the condition, named in the message."""
    grid = parse_grid("A2:1")
    closure = verify.closure_product
    seen = []

    def short(group, word, w, lam, mu):
        closed = closure(group, word, w, lam, mu)
        seen.append(group.from_word(word))
        seen.append(w)
        return Subset(closed.space, closed.ids - {max(closed.ids)})

    monkeypatch.setattr(verify, "closure_product", short)
    assert verify.suite_word_closure(grid) == "closure misses the product at v=%r w=%r" % tuple(seen[:2])
    assert len(seen) == 2


def _one_step_closure(space, seeds, word, within=None):
    """A faulty `lower_closure` that walks each string at most one step
    per letter."""
    grown = set(seeds)
    for i in reversed(word):
        for x in list(grown):
            y = space._f(x, i)
            if y < 0 or y in grown:
                continue
            if within is not None and y not in within:
                return None
            grown.add(y)
    return frozenset(grown)


def test_one_step_closure_fails_every_closure_suite(monkeypatch, capsys, cold_caches):
    """With the closure walking one step per string, in every module that
    imports it and on cold caches, `verify --grid B2:1` exits 2 with FAIL
    lines for the suites built on the closure.  B2:1 has an i-string of
    length 2, so the fault is reachable."""
    from demtensor.cli import main

    grid = parse_grid("B2:1")
    assert max(max(map(max, generate_crystal(grid.rs, lam).phi_table)) for lam in grid.shapes) >= 2
    modules = [m for name, m in sys.modules.items()
               if name.startswith("demtensor") and getattr(m, "lower_closure", None) is crystal.lower_closure]
    assert {m.__name__ for m in modules} >= {"demtensor.crystal", "demtensor.demazure", "demtensor.decomp"}
    for module in modules:
        monkeypatch.setattr(module, "lower_closure", _one_step_closure)
    assert main(["verify", "--grid", "B2:1"]) == 2
    failed = {line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")}
    assert failed >= {"string-property", "word-closure", "component-recursion", "lowering-product-rule"}


def test_default_verify_scans_each_dominant_path_key_once(monkeypatch, cold_caches):
    """`dominant_paths` is memoized by (coset of w mod W_mu, mu, lam): the
    default `verify` asks for it far more often than it scans, and scans
    each of its 52 keys once.  Each memoized scan equals the uncached scan
    of B_w(mu) for every w of the coset, and every call gets a new list."""
    keys = []
    scan = decomp._dominant_paths.__wrapped__

    def counted(*key):
        keys.append(key)
        return scan(*key)

    memo = functools.lru_cache(maxsize=None)(counted)
    monkeypatch.setattr(decomp, "_dominant_paths", memo)
    for name, grid, failure in verify.run_all():
        assert failure is None, (name, grid.name)
    assert len(keys) == len(set(keys)) == 52
    assert memo.cache_info().hits > len(keys)
    for group, wfloor, mu, lam in keys:
        coset = [w for w in group if group.coset_min_weight(w, mu) is wfloor]
        for w in coset:
            got = dominant_paths(group, w, list(mu), list(lam))
            uncached = [pi for pi in generate_demazure(group, w, mu) if pi.is_dominant_for(lam)]
            assert got == uncached, (wfloor, mu, lam)
            assert got is not dominant_paths(group, w, mu, lam)
    # other members of the coset and list weights scanned nothing new
    assert len(keys) == 52


# Exact output of `verify --grid B2:1` with the closure walking one step per
# string: the key-positivity check meets the broken Demazure crystals in
# its key polynomials and raises an AssertionError, which `verify` reports
# at that suite's turn, after every earlier suite's line.
ONE_STEP_B2_STDOUT = """\
FAIL string-property              B2: string property fails for w=s2*s1 lam=(1, 0) color=2
FAIL reduced-word-independence    B2: word (2, 1, 2, 1) of s1*s2*s1*s2 changes the crystal of (1, 0)
FAIL membership-criterion         B2: membership criterion fails at LSPath((1, -2); 0, 1), w=s2*s1
PASS dimension-formula            B2
PASS tensor-vs-concatenation      B2
PASS full-tensor-partition        B2
FAIL word-closure                 B2: closure misses the product at v=s2 w=s2
FAIL decomposition-biconditional  B2: v=s2 w=s2 lam=(0, 1) mu=(0, 1): condition holds but \
the component of LSPath((0, 1); 0, 1) is not Demazure
FAIL witness-oracle               B2: w=s2*s1 lam=(0, 1) mu=(1, 0): component of \
LSPath((1, -2), (-1, 2); 0, 1/2, 1) is the crystal of e, expected s2
FAIL component-recursion          B2: v=e i=2 w=s2 lam=(0, 1) mu=(0, 1): recursion formula \
disagrees with the direct component on LSPath((0, 1); 0, 1)
FAIL lowering-product-rule        B2: sides differ at v=e w=e i=2 lam=(0, 1) mu=(0, 1)
FAIL character-formula            B2: character formula fails at w=s2*s1 lam=(1, 0)
"""


def test_one_step_closure_crash_is_reported_at_its_suite(monkeypatch, capsys, cold_caches):
    """Under the one-step closure, `verify --grid B2:1` prints every suite's
    line up to key-positivity, whose check crashes: exit 2, the crash on
    stderr, and the same bytes whatever order the checks ran in."""
    from demtensor.cli import main

    modules = [m for name, m in sys.modules.items()
               if name.startswith("demtensor") and getattr(m, "lower_closure", None) is crystal.lower_closure]
    for module in modules:
        monkeypatch.setattr(module, "lower_closure", _one_step_closure)
    assert main(["verify", "--grid", "B2:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ONE_STEP_B2_STDOUT
    assert captured.err == "structural failure: crystal character and operator character disagree on s2\n"


def test_each_suite_reports_its_first_failure_in_its_former_order(monkeypatch, cold_caches):
    """A fault on exactly two coset pairs, (v1, w2) and (v2, w1) with v1 < v2
    and w1 < w2 by index.  The suites that ran v outside w (biconditional,
    word-closure, key-positivity) name (v1, w2); those that ran w outside v
    (recursion, product rule) name (v2, w1) at the first ascent of v2; the
    witness oracle, which sees neither, passes."""
    from types import SimpleNamespace

    from demtensor.cartan import root_system

    grid = verify.Grid(root_system("A", 2), [(1, 1)])
    group = grid.group
    lam = mu = (1, 1)
    v1, v2 = group.from_word((1,)), group.from_word((2,))
    w1, w2 = group.from_word((2,)), group.longest()
    assert v1.index < v2.index and w1.index < w2.index
    targets = {(v1, w2), (v2, w1)}
    assert all(verify.condition_check(group, v, w, lam, mu) for v, w in targets)

    def hit(v, w):
        return (group.coset_min_weight(v, lam), group.coset_min_weight(w, mu)) in targets

    def by_ids(product):
        ids = product.ids
        return {(v, w) for v in group for w in group
                if generate_demazure(group, v, lam).subset.ids == ids.left
                and generate_demazure(group, w, mu).subset.ids == ids.right}

    lift_word, closure, step = decomp.lift_word, verify.closure_product, verify._recursion_step
    leibniz, report = verify.leibniz_check, verify.product_report

    def faulty_lift_word(group, v, w, lam, mu, word=None):
        if hit(v, w):
            raise decomp.TheoremViolation("injected")
        return lift_word(group, v, w, lam, mu, word)

    def faulty_closure(group, word, w, lam, mu):
        closed = closure(group, word, w, lam, mu)
        if hit(group.from_word(word), w):
            return Subset(closed.space, closed.ids - {max(closed.ids)})
        return closed

    def faulty_step(group, pi, i, here, there):
        if any(hit(v, w) for v, w in by_ids(here[0])):
            raise decomp.TheoremViolation("injected")
        return step(group, pi, i, here, there)

    def faulty_leibniz(group, v, w, lam, mu, i):
        result = leibniz(group, v, w, lam, mu, i)
        return SimpleNamespace(disjoint=True, equal=False) if hit(v, w) else result

    def faulty_report(group, v, w, lam, mu):
        if hit(v, w):
            raise decomp.TheoremViolation("injected")
        return report(group, v, w, lam, mu)

    monkeypatch.setattr(decomp, "lift_word", faulty_lift_word)
    monkeypatch.setattr(verify, "closure_product", faulty_closure)
    monkeypatch.setattr(verify, "_recursion_step", faulty_step)
    monkeypatch.setattr(verify, "leibniz_check", faulty_leibniz)
    monkeypatch.setattr(verify, "product_report", faulty_report)
    got = {name: failure for name, _, failure in verify.run_all([grid])}
    i = min(i for i in range(1, 3) if not group._left_descent_mask(v2) & 1 << (i - 1))
    assert got == dict.fromkeys(name for name, _ in verify.ALL_SUITES) | {
        "word-closure": "closure misses the product at v=%r w=%r" % (v1, w2),
        "decomposition-biconditional": "v=%r w=%r lam=%r mu=%r: injected" % (v1, w2, lam, mu),
        "key-positivity": "v=%r w=%r lam=%r mu=%r: injected" % (v1, w2, lam, mu),
        "component-recursion": "v=%r i=%d w=%r lam=%r mu=%r: injected" % (v2, i, w1, lam, mu),
        "lowering-product-rule": "sides differ at v=%r w=%r i=%d lam=%r mu=%r" % (v2, w1, i, lam, mu),
    }


@pytest.mark.parametrize("names", [(), ("B2:1", "G2:1")], ids=["default", "B2:1+G2:1"])
def test_verify_labels_each_product_once(monkeypatch, names):
    """A whole `verify` run makes one labelling pass per distinct product,
    and the products are the coset pairs of every (lam, mu): 208 on the
    default grids.  Every label is dropped with its (lam, mu, w) loop."""
    grids = [parse_grid(name) for name in names] or verify.default_grids()
    passes = _track_labels(monkeypatch)
    keys = _spy(monkeypatch, "_labelled", keypoly.product_key)
    for name, grid, failure in verify.run_all(grids):
        assert failure is None, (name, grid.name)
    pairs = sum(len(_coset_reps(grid.group, lam)) * len(_coset_reps(grid.group, mu))
                for grid in grids for lam, mu in itertools.product(grid.shapes, repeat=2))
    assert len(passes) == len(keys) == len(set(keys)) == pairs
    if not names:
        assert pairs == 208
    gc.collect()
    refs = [ref for comps in passes for ref in comps]
    assert refs and all(ref() is None for ref in refs)


def _small_shapes(rank):
    """The fundamental weights, and for rank two their sum."""
    units = [tuple(int(k == j) for k in range(rank)) for j in range(rank)]
    return units + ([(1,) * rank] if rank == 2 else [])


@st.composite
def _instances(draw):
    """(group, v, w, lam, mu) over A2, B2, G2 and A3 with small shapes, v and
    w the minimal representatives of drawn elements."""
    letter, rank = draw(st.sampled_from([("A", 2), ("B", 2), ("G", 2), ("A", 3)]))
    group = weyl_group(root_system(letter, rank))
    lam, mu = (draw(st.sampled_from(_small_shapes(rank))) for _ in range(2))
    v, w = (group.elements[draw(st.integers(0, len(group) - 1))] for _ in range(2))
    return group, group.coset_min_weight(v, lam), group.coset_min_weight(w, mu), lam, mu


@settings(derandomize=True, deadline=5000, max_examples=100, database=None)
@given(_instances())
def test_every_check_holds_on_drawn_instances(instance):
    """Each per-instance check of the sweep passes on its own, handed the
    labelled products it reads; at v = e the biconditional is the witness
    oracle."""
    group, v, w, lam, mu = instance
    here = decomp._labelled(group, v, w, lam, mu)
    verify.check_word_closure(group, v, w, lam, mu)
    decomp._certify(group, v, w, lam, mu, here)
    decomp._certify(group, group.identity, w, lam, mu,
                    decomp._labelled(group, group.identity, w, lam, mu))
    for _, i in _ascent_pairs(group, [v]):
        up = group.coset_min_weight(group.multiply(group.simple(i), v), lam)
        verify.check_recursion(group, v, i, w, lam, mu, here, decomp._labelled(group, up, w, lam, mu))
        verify.check_product_rule(group, v, i, w, lam, mu)
    verify.check_key_positivity(group, v, w, lam, mu)
