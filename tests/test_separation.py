"""Separator hierarchy, disjointness checking, sampling, verification."""

import math
import random

import pytest

from treegames.trees import bisimilar, constant_tree, random_regular_tree, tree_to_json
from treegames.automata import (
    BINARY,
    BUILTIN_NAMES,
    NPTA,
    builtin,
    is_buchi,
    member,
    member_alt,
    witness,
)
from treegames import separation
from treegames.separation import (
    EmptyLanguage,
    NotDisjoint,
    build_hierarchy,
    disjointness_witness,
    example_pairs,
    report_to_json,
    sample_language,
    separator_level_bound,
    synthesize_separator,
    verify_separation,
)

from helpers import random_npta, reference_sample


def singleton(symbol):
    return NPTA(BINARY, ("s",), "s", (("s", symbol, "s", "s"),), {"s": 2})


def test_level_bound_arithmetic():
    assert separator_level_bound(1, 1) == 3
    assert separator_level_bound(3, 1) == 9
    assert separator_level_bound(2, 2) == 17
    with pytest.raises(ValueError):
        separator_level_bound(0, 1)


def test_level_zero_checks_run_existence_only():
    level0 = build_hierarchy(singleton("0"), 0).top
    assert member_alt(level0, constant_tree(BINARY, "0"))
    assert not member_alt(level0, constant_tree(BINARY, "1"))
    empty = NPTA(BINARY, ("q",), "q", (), {"q": 2})
    assert not member_alt(build_hierarchy(empty, 0).top, constant_tree(BINARY, "0"))
    # Rank structure is irrelevant at level 0: L runs exist on all-0 even
    # though acceptance fails there.
    assert member_alt(build_hierarchy(builtin("L"), 0).top, constant_tree(BINARY, "0"))


def test_hierarchy_levels_contain_the_language():
    for automaton in (builtin("L"), builtin("K-buchi"), singleton("1")):
        levels = [build_hierarchy(automaton, n).top for n in range(4)]
        for seed, t in enumerate(sample_language(automaton, 8, 31).trees):
            for n, level in enumerate(levels):
                assert member_alt(level, t), (automaton.initial, n, seed)


def test_hierarchy_levels_shrink():
    levels = [build_hierarchy(builtin("L"), n).top for n in range(4)]
    rng = random.Random(430)
    for _ in range(60):
        t = random_regular_tree(BINARY, 5, rng.randrange(10 ** 6))
        verdicts = [member_alt(level, t) for level in levels]
        for n in range(3):
            assert verdicts[n + 1] <= verdicts[n], (t, verdicts)


def test_lower_levels_are_prefixes_of_higher_ones():
    # Level n of a taller hierarchy is the whole of the level-n hierarchy:
    # its first |a|*(n+1) states with their formulas and ranks, entered at
    # the base's initial state on level n.
    for pair in example_pairs():
        for a in (pair.a, pair.b):
            tall = build_hierarchy(a, 6).top
            for n in range(7):
                top = build_hierarchy(a, n).top
                states = tall.states[:len(a.states) * (n + 1)]
                assert top.states == states, (pair.name, n)
                assert top.delta == {k: f for k, f in tall.delta.items() if k[0] in states}
                assert top.rank == {q: tall.rank[q] for q in states}
                assert top.initial == f"{a.initial}@{n}"


def test_hierarchy_wants_buchi_ranks():
    with pytest.raises(ValueError):
        build_hierarchy(builtin("K-det"), 2)
    with pytest.raises(ValueError):
        build_hierarchy(builtin("L"), -1)


def test_disjointness_decision():
    assert disjointness_witness(singleton("0"), singleton("1")) is None
    w = disjointness_witness(builtin("L"), singleton("1"))
    assert member(builtin("L"), w) and member(singleton("1"), w)


def test_synthesis_refuses_overlap_with_witness():
    a = builtin("L")
    with pytest.raises(NotDisjoint) as info:
        synthesize_separator(a, a)
    assert member(a, info.value.tree)


def test_synthesized_separator_separates_the_singletons():
    a, b = singleton("0"), singleton("1")
    separator = synthesize_separator(a, b)  # full bound: level 3
    assert member_alt(separator, constant_tree(BINARY, "0"))
    assert not member_alt(separator, constant_tree(BINARY, "1"))


def test_sampling_is_deterministic_and_sound():
    a = builtin("L")
    first = sample_language(a, 10, 77)
    second = sample_language(a, 10, 77)
    assert len(first.trees) == len(second.trees)
    for t, u in zip(first.trees, second.trees):
        assert bisimilar(t, u)
    for t in first.trees:
        assert member(a, t)
    for i, t in enumerate(first.trees):
        for u in first.trees[i + 1:]:
            assert not bisimilar(t, u), "samples must be pairwise distinct"


def counted_sample(monkeypatch, a, n, seed):
    """sample_language(a, n, seed), the number of draws it made, and the
    number of Eve's full choice functions.  Every draw calls `choice` once
    on each of the same option lists."""
    sizes, calls = {}, []

    class Counting(random.Random):
        def choice(self, seq):
            sizes[id(seq)] = len(seq)
            calls.append(seq)
            return super().choice(seq)

    with monkeypatch.context() as m:
        m.setattr(separation.random, "Random", Counting)
        result = sample_language(a, n, seed)
    return result, len(calls) // len(sizes), math.prod(sizes.values())


def test_sampling_matches_the_reference_sampler(monkeypatch):
    # Skipping repeated strategies, and stopping once every strategy has
    # been tried, must not change a single sampled tree or their order.
    rng = random.Random(418)
    cases = [builtin(name) for name in BUILTIN_NAMES if is_buchi(builtin(name))]
    cases += [side for pair in example_pairs() for side in (pair.a, pair.b)]
    nonempty = 0
    while nonempty < 30:
        a = random_npta(rng, BINARY, 4, 1)
        a = NPTA(a.alphabet, a.states, a.initial, a.transitions,
                 {q: r + 1 for q, r in a.rank.items()})
        if witness(a) is not None:
            cases.append(a)
            nonempty += 1
    for i, a in enumerate(cases):
        for n, seed in ((3, i), (12, 1000 + i)):
            want = [tree_to_json(t) for t in reference_sample(a, n, seed)]
            got = [tree_to_json(t) for t in sample_language(a, n, seed).trees]
            assert got == want, (i, n, seed)
    # Drawing stops before the budget: every example side, L and M01.  L
    # also has a case where n trees come before its 32 full choice
    # functions could all have been drawn.
    stops = [(side, 20, 5) for pair in example_pairs() for side in (pair.a, pair.b)]
    stops += [(builtin("L"), 20, 5), (builtin("M01"), 5, 3), (builtin("M01"), 20, 5)]
    cases = [case + (True,) for case in stops] + [(builtin("L"), 3, 0, False)]
    for a, n, seed, stopped in cases:
        result, draws, total = counted_sample(monkeypatch, a, n, seed)
        want = [tree_to_json(t) for t in reference_sample(a, n, seed)]
        assert [tree_to_json(t) for t in result.trees] == want, (a, n, seed)
        assert total <= max(100, 20 * n)
        if stopped:
            assert total <= draws < max(100, 20 * n), (a, n, seed)
        else:
            assert len(result.trees) == n and draws < total


def test_sampling_stops_once_every_strategy_is_tried(monkeypatch):
    result, draws, total = counted_sample(monkeypatch, builtin("M01"), 5, 3)
    assert len(result.trees) == 1 and total == 4
    assert draws < 100
    # W01 has 144 full choice functions; 400 draws never try them all.
    result, draws, total = counted_sample(monkeypatch, builtin("W01"), 20, 0)
    assert len(result.trees) == 8 and total == 144
    assert draws == 400


def test_sampling_reports_exhaustion():
    result = sample_language(builtin("M01"), 5, 3)
    assert len(result.trees) == 1, "all-0 is the only positional witness"
    assert not result.complete
    assert result.requested == 5


def test_sampling_empty_language():
    empty = NPTA(BINARY, ("q",), "q", (), {"q": 2})
    with pytest.raises(EmptyLanguage):
        sample_language(empty, 3, 0)
    with pytest.raises(ValueError):
        sample_language(builtin("L"), 0, 0)


def test_verification_passes_on_a_true_separator():
    a, b = singleton("0"), singleton("1")
    report = verify_separation(synthesize_separator(a, b), a, b, 10, 5)
    assert report.passed
    assert report.accept_checked == 1 and report.reject_checked == 1
    assert report.seed == 5 and report.samples_per_side == 10
    doc = report_to_json(report)
    assert doc["passed"] and doc["failures"] == []


def test_verification_records_failures():
    a, b = singleton("0"), singleton("1")
    backwards = synthesize_separator(b, a)
    report = verify_separation(backwards, a, b, 10, 5)
    assert not report.passed
    sides = {f.side for f in report.failures}
    assert sides == {"accept", "reject"}
    doc = report_to_json(report)
    assert doc["passed"] is False and len(doc["failures"]) == 2


def test_example_pairs_are_disjoint_and_separable():
    pairs = example_pairs()
    assert len(pairs) >= 5
    for pair in pairs:
        assert disjointness_witness(pair.a, pair.b) is None, pair.name
        separator = synthesize_separator(pair.a, pair.b, level=pair.level)
        report = verify_separation(separator, pair.a, pair.b, 12, 9)
        assert report.passed, (pair.name, report.failures)
