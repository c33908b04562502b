"""The sweeps of `verify`: coset representatives, ascent pairs, reduced words."""

import functools
import itertools

import pytest

import coset_oracle
from demtensor import decomp, keypoly, verify
from demtensor.cartan import root_system
from demtensor.decomp import dominant_paths
from demtensor.verify import _ascent_pairs, _coset_reps, _reduced_words, parse_grid
from demtensor.weyl import weyl_group

GRIDS = ["A3:1", "B2:2", "G2:1"]


@pytest.mark.parametrize("name", GRIDS)
def test_coset_reps_are_the_scanned_minimal_representatives(name):
    grid = parse_grid(name)
    group = grid.group
    for lam in grid.shapes:
        expected = coset_oracle.minimal_coset_reps(group, group.stabilizer_indices(lam))
        assert tuple(_coset_reps(group, lam)) == expected, lam


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
    """Wrap verify's `name`, recording the key of every call."""
    original = getattr(verify, name)
    calls = []

    def spy(*args):
        calls.append(key(*args))
        return original(*args)

    monkeypatch.setattr(verify, name, spy)
    return calls


@pytest.mark.parametrize("name", ["B2:1", "G2:1"])
def test_biconditional_decomposes_each_product_once(monkeypatch, name):
    grid = parse_grid(name)
    calls = _spy(monkeypatch, "decompose", keypoly.product_key)
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
    """One call per (v mod W_lam, i, w mod W_mu, pi, lam, mu) over the
    ascents (v, i) and the dominant paths pi of every (w, lam, mu)."""
    grid = parse_grid(name)
    group = grid.group

    def key(group, pi, v, i, w, lam, mu):
        return (group.coset_min_weight(v, lam), i, group.coset_min_weight(w, mu), pi, lam, mu)

    calls = _spy(monkeypatch, "recursive_component", key)
    assert verify.suite_recursion(grid) is None
    ascents = _ascent_pairs(group, list(group))
    keys = {
        key(group, pi, v, i, w, lam, mu)
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
