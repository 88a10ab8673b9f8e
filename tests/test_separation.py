"""Separator hierarchy, disjointness checking, sampling, verification."""

import json
import math
import random
from dataclasses import replace

import pytest

from treegames.trees import RegularTree, bisimilar, constant_tree, doc_text, tree_to_json
from treegames.automata import (
    BINARY,
    BUILTIN_NAMES,
    NPTA,
    acceptance_game,
    apta_to_json,
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
    SeparationFailure,
    SeparationReport,
    build_hierarchy,
    disjointness_witness,
    example_pairs,
    report_to_json,
    sample_language,
    separator_level_bound,
    synthesize_separator,
    verify_separation,
)

from helpers import hierarchy_afresh, random_npta, random_regular_tree, reference_sample


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


def test_shared_level_moves_change_no_automaton_game_or_document():
    # Each level move is one object, held by every transition of its level;
    # the reference makes each afresh.  Formulas are compared by value, so
    # the automata, their acceptance games and their documents are the same.
    bases = [a for pair in example_pairs() for a in (pair.a, pair.b)]
    bases += [builtin("L"), builtin("K-buchi")]
    rng = random.Random(3007)
    for i, a in enumerate(bases):
        trees = [random_regular_tree(a.alphabet, 6, rng.randrange(10 ** 6)) for _ in range(20)]
        for n in range(9):
            top, afresh = build_hierarchy(a, n).top, hierarchy_afresh(a, n)
            assert top == afresh, (i, n)
            assert doc_text(apta_to_json(top)) == doc_text(apta_to_json(afresh)), (i, n)
            for t in trees:
                g, h = acceptance_game(top, t), acceptance_game(afresh, t)
                assert (g.owners, g.prios, g.succs) == (h.owners, h.prios, h.succs), (i, n, t)


def test_hierarchy_document_holds_each_level_move_once():
    # L's accepting state gives each level above 0 an And move; one such
    # object, and so one sub-document, serves every transition that uses it.
    top = build_hierarchy(builtin("L"), 3).top
    doc = apta_to_json(top)
    moves, uses = {}, 0
    for entry in doc["delta"]:
        for choice in entry["formula"].get("parts", ()):
            for move in choice["parts"]:
                moves.setdefault(json.dumps(move, sort_keys=True), set()).add(id(move))
                uses += 1
    assert all(len(ids) == 1 for ids in moves.values()), moves
    assert any(json.loads(text)["op"] == "and" for text in moves)
    assert uses > len(moves) > 0


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
    # The level is checked before the product is built.
    with pytest.raises(ValueError, match="level must be nonnegative") as info:
        synthesize_separator(a, a, -1)
    assert not isinstance(info.value, NotDisjoint)


def test_synthesized_separator_separates_the_singletons():
    a, b = singleton("0"), singleton("1")
    separator = synthesize_separator(a, b)  # full bound: level 3
    assert separator == build_hierarchy(a, 3)
    assert member_alt(separator.top, constant_tree(BINARY, "0"))
    assert not member_alt(separator.top, constant_tree(BINARY, "1"))


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


def test_sampling_count_and_budget_floor(monkeypatch):
    # One tree is a valid request.
    result = sample_language(builtin("L"), 1, 0)
    assert len(result.trees) == 1 and result.complete
    # Each of seven states has two transitions on 0, which give 128 full
    # choice functions and the one tree all-0: a request for up to five
    # trees draws the whole budget floor of 100.
    ring = [f"q{i}" for i in range(7)]
    transitions = [(q, "0", l, r) for q, nxt in zip(ring, ring[1:] + ring[:1])
                   for l, r in ((q, nxt), (nxt, q))]
    a = NPTA(BINARY, tuple(ring), "q0", tuple(transitions), dict.fromkeys(ring, 2))
    for n in (2, 5):
        result, draws, total = counted_sample(monkeypatch, a, n, 0)
        assert len(result.trees) == 1 and total == 128 and draws == 100, n


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


def test_verification_samples_b_with_the_next_seed():
    # A separator that accepts everything fails on every b sample, so the
    # failures show which trees the b side checked.
    universal = NPTA(BINARY, ("s",), "s", (("s", "0", "s", "s"), ("s", "1", "s", "s")), {"s": 2})
    accept_all = build_hierarchy(universal, 1)
    b = builtin("L")
    report = verify_separation(accept_all, singleton("0"), b, 3, 5)
    assert {f.side for f in report.failures} == {"reject"}
    checked = [tree_to_json(f.tree) for f in report.failures]
    samples = {seed: [tree_to_json(t) for t in sample_language(b, 3, seed).trees]
               for seed in (4, 5, 6, 7)}
    assert checked == samples[6]
    assert all(samples[seed] != checked for seed in (4, 5, 7))


def test_example_pairs_are_disjoint_and_separable():
    pairs = example_pairs()
    assert len(pairs) >= 5
    for pair in pairs:
        assert disjointness_witness(pair.a, pair.b) is None, pair.name
        separator = synthesize_separator(pair.a, pair.b, level=pair.level)
        report = verify_separation(separator, pair.a, pair.b, 12, 9)
        assert report.passed, (pair.name, report.failures)


def buchi_bases(count, seed):
    """Both sides of every example pair, L, K-buchi, and random Büchi NPTAs
    with up to 4 states, `count` automata in all."""
    bases = [side for pair in example_pairs() for side in (pair.a, pair.b)]
    bases += [builtin("L"), builtin("K-buchi")]
    rng = random.Random(seed)
    while len(bases) < count:
        a = random_npta(rng, BINARY, 4, 2)
        if is_buchi(a):
            bases.append(a)
    return bases, rng


def test_hierarchy_accepts_as_member_alt_on_its_top():
    # The one-solve decision on a's membership game against the acceptance
    # game of the whole hierarchy.
    bases, rng = buchi_bases(60, 11)
    verdicts = set()
    for i, a in enumerate(bases):
        trees = [random_regular_tree(a.alphabet, 6, rng.randrange(10 ** 6)) for _ in range(12)]
        for k in (0, 1, 2, 3, 5, 9, 17):
            hierarchy = build_hierarchy(a, k)
            for t in trees:
                want = member_alt(hierarchy.top, t)
                assert hierarchy.accepts(t) == want, (i, k, t)
                verdicts.add(want)
    assert verdicts == {False, True}


def level_region(a, n, t):
    """The state positions (q, v) Eve wins on level n: member_alt on the
    level-n hierarchy entered at q@n, on t's subtree at v."""
    top = build_hierarchy(a, n).top
    return {(q, v) for q in a.states for v in t.label
            if member_alt(replace(top, initial=f"{q}@{n}"),
                          RegularTree(t.alphabet, v, t.label, t.left, t.right))}


def test_level_regions_are_nested_and_equal_above_level_0():
    # S_0 ⊇ S_1 = S_2 = ... = B, a's own region: SeparatorHierarchy.accepts
    # solves one game for any level.
    bases, rng = buchi_bases(24, 5)
    shrunk = 0
    for i, a in enumerate(bases):
        for _ in range(3):
            t = random_regular_tree(a.alphabet, 5, rng.randrange(10 ** 6))
            regions = [level_region(a, n, t) for n in range(5)]
            runs = {(q, v) for q in a.states for v in t.label
                    if member(replace(a, initial=q),
                              RegularTree(t.alphabet, v, t.label, t.left, t.right))}
            assert regions[1] <= regions[0], (i, t)
            assert regions[1:] == [runs] * 4, (i, t)
            shrunk += regions[1] != regions[0]
    assert shrunk


def test_level_65537_verdict_matches_a_buildable_level():
    # Two 4-state automata get the default level 2^16 + 1.  A chain of
    # nested regions of at most |Q|·N state positions is fixed by level
    # |Q|·N + 1, where member_alt can still build the hierarchy.
    rng = random.Random(3)
    while True:
        a, b = random_npta(rng, BINARY, 4, 2), random_npta(rng, BINARY, 4, 2)
        if (len(a.states) == len(b.states) == 4 and is_buchi(a) and is_buchi(b)
                and witness(a) and witness(b) and disjointness_witness(a, b) is None):
            break
    level = separator_level_bound(4, 4)
    assert level == 65537
    L = builtin("L")
    for base, other in ((a, b), (L, singleton("0"))):
        trees = list(sample_language(base, 6, 1).trees) + list(sample_language(other, 6, 2).trees)
        trees += [random_regular_tree(BINARY, 6, rng.randrange(10 ** 6)) for _ in range(20)]
        verdicts = set()
        for t in trees:
            got = separation._level_accepts(base, level, t)
            fixed = len(base.states) * len(t.label) + 1
            assert got == member_alt(build_hierarchy(base, fixed).top, t), (base, t)
            verdicts.add(got)
        assert verdicts == {False, True}


def report_by_member_alt(top, a, b, n, seed):
    """verify_separation's report with every sample decided by member_alt
    on the APTA top."""
    samples = (sample_language(a, n, seed), sample_language(b, n, seed + 1))
    failures = []
    for side, sample, want in zip(("accept", "reject"), samples, (True, False)):
        for i, t in enumerate(sample.trees):
            got = member_alt(top, t)
            if got != want:
                failures.append(SeparationFailure(side, i, want, got, t))
    return SeparationReport(len(samples[0].trees), len(samples[1].trees),
                            tuple(failures), False, n, seed)


def test_verification_by_hierarchy_gives_the_report_of_its_top():
    # A hierarchy decides samples on its base's membership game; the
    # report matches one decided on its top by member_alt, passing or
    # failing.
    outcomes = set()
    for pair in example_pairs():
        for a, b in ((pair.a, pair.b), (pair.b, pair.a)):
            level = pair.level or separator_level_bound(len(a.states), len(b.states))
            hierarchy = build_hierarchy(a, level)
            assert hierarchy == synthesize_separator(a, b, pair.level)
            for sides in ((a, b), (b, a)):
                report = verify_separation(hierarchy, *sides, 12, 9)
                assert report == report_by_member_alt(hierarchy.top, *sides, 12, 9), pair.name
                outcomes.add(report.passed)
    assert outcomes == {False, True}
