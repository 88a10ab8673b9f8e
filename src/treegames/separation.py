"""Separator synthesis for disjoint Büchi tree languages.

The separator for T(a) versus T(b) is an alternating Büchi automaton built
as a finite hierarchy over a's state set: ranks 0 on the absorbing level 0,
a's {1, 2} above it.  All levels 0..N live in one APTA with states q@k, the
state q of a running level k.  Level 0 accepts the trees admitting any a-run
at all (a pure safety check).  Level n+1 re-runs a with its Büchi ranks, but
whenever a branch passes through an accepting (rank 2) state p, it
additionally launches p@n, the level-n check on the subtree there.  A
winning run of a passes every such check, so level 1 already accepts
exactly T(a), and so does every level above it; level k is
build_hierarchy(a, k).top, the APTA on levels 0..k started at q0@k for a's
initial state q0.  synthesize_separator returns the hierarchy up to level
2^(|a| * |b|) + 1 by default, which is far more than the shipped examples
need.

T(a) always sits inside every level, so verification is sample-based on the
b side: draw members of both languages and check the separator accepts the
a-samples and rejects the b-samples.  The hierarchy decides each sample by
one solve of a's membership game (SeparatorHierarchy.accepts), so checking a
sample does not grow with the level; building and writing the separator do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import product

from .trees import RegularTree, bisimilar, tree_to_json
from .games import EVE, Strategy, _solve, verify_strategy
from .automata import (
    APTA,
    BINARY,
    BIT_SWAP,
    NPTA,
    And,
    Atom,
    builtin,
    emptiness_game,
    intersection_product,
    is_buchi,
    member,
    rename_automaton,
    strategy_tree,
    transition_formula,
    transition_table,
    witness,
)


class NotDisjoint(ValueError):
    """Separator requested for overlapping languages; carries a tree in the
    intersection."""

    def __init__(self, tree: RegularTree):
        super().__init__("languages are not disjoint")
        self.tree = tree


class EmptyLanguage(ValueError):
    """Samples requested from an automaton that accepts no tree."""


def separator_level_bound(n_states_a: int, n_states_b: int) -> int:
    """Hierarchy level sufficient for separation, from the state counts."""
    if n_states_a < 1 or n_states_b < 1:
        raise ValueError("state counts must be positive")
    return 2 ** (n_states_a * n_states_b) + 1


def level_state(q: str, n: int) -> str:
    return f"{q}@{n}"


def _require_buchi(a: NPTA):
    if not is_buchi(a):
        raise ValueError("automaton is not Büchi (ranks must lie in {1, 2})")


def _level_move(a: NPTA, p: str, direction: str, n: int):
    # Level n sends p@n; above level 0, an accepting p also launches the
    # level n-1 check on the subtree there.
    atom = Atom(direction, level_state(p, n))
    if n == 0 or a.rank[p] == 1:
        return atom
    return And((atom, Atom(direction, level_state(p, n - 1))))


@dataclass(frozen=True)
class SeparatorHierarchy:
    """build_hierarchy(a, n): levels 0..n of the construction for a, as
    one APTA `top` whose states q@k run level k and whose initial state is
    a's initial state on level n.  Level k on its own is
    build_hierarchy(a, k).top.  accepts(t) is member_alt(top, t), decided
    on a's membership game without building top's acceptance game: its
    cost does not grow with the level.  synthesize_separator returns one,
    verify_separation decides by it, and the CLI writes its top."""

    base: NPTA
    level: int
    top: APTA

    def accepts(self, t: RegularTree) -> bool:
        return _level_accepts(self.base, self.level, t)


def _level_accepts(a: NPTA, level: int, t: RegularTree) -> bool:
    """Whether level `level` of a's hierarchy accepts t, decided by one
    solve of a's membership game, whose state positions (q, v) stand for
    q@n at v.  Level 0 is Eve's region S_0 with every priority 0: some run
    of a.  Level n >= 1 is her region with a's ranks where each state
    position keeps only the transitions whose rank-2 targets lie in
    S_{n-1}, the checks Adam may launch.  Let B be her region with a's
    ranks and no transition dropped.  Dropping transitions only shrinks
    her region, so S_n lies in B.  B lies in S_0, and a strategy that wins
    B keeps every play in B, so it picks only transitions whose targets
    lie in B, and so in S_{n-1} once B does.  So B is S_n for every
    n >= 1: every level above 0 accepts exactly T(a)."""
    return member(a if level else replace(a, rank=dict.fromkeys(a.rank, 0)), t)


def build_hierarchy(a: NPTA, up_to: int) -> SeparatorHierarchy:
    """Levels 0..up_to for the Büchi automaton a.  Each level move is one
    object, held by every transition of its level, so apta_to_json makes
    one sub-document of it and doc_text writes that once per indent."""
    _require_buchi(a)
    if up_to < 0:
        raise ValueError("level must be nonnegative")
    table = transition_table(a)
    states, delta, rank = [], {}, {}
    for n in range(up_to + 1):
        moves = {(p, d): _level_move(a, p, d, n) for p in a.states for d in "12"}
        for q in a.states:
            s = level_state(q, n)
            states.append(s)
            rank[s] = a.rank[q] if n else 0
            for letter in a.alphabet:
                delta[s, letter] = transition_formula(
                    table, q, letter, lambda p, d: moves[p, d])
    top = APTA(a.alphabet, tuple(states), level_state(a.initial, up_to), delta, rank)
    return SeparatorHierarchy(a, up_to, top)


def disjointness_witness(a: NPTA, b: NPTA) -> RegularTree | None:
    """A tree in both Büchi languages, or None when they are disjoint."""
    _require_buchi(a)
    _require_buchi(b)
    return witness(intersection_product(a, b))


def synthesize_separator(a: NPTA, b: NPTA,
                         level: int | None = None) -> SeparatorHierarchy:
    """Separator for T(a) versus T(b), as the hierarchy whose top accepts
    everything in T(a) and rejects everything in T(b).  Raises ValueError
    for a negative level before any product is built, and NotDisjoint
    (with a witness tree) when the languages overlap.  `level` overrides
    the default hierarchy height separator_level_bound(|a|, |b|)."""
    if level is None:
        level = separator_level_bound(len(a.states), len(b.states))
    elif level < 0:
        raise ValueError("level must be nonnegative")
    w = disjointness_witness(a, b)
    if w is not None:
        raise NotDisjoint(w)
    return build_hierarchy(a, level)


# ---------------------------------------------------------------------------
# Sampling and verification.

@dataclass(frozen=True)
class SampleSet:
    """Distinct members of a language; may fall short of the request when
    the positional witness space is smaller than asked for."""

    trees: tuple[RegularTree, ...]
    requested: int

    @property
    def complete(self) -> bool:
        return len(self.trees) >= self.requested


def sample_language(a: NPTA, n: int, seed: int) -> SampleSet:
    """Up to n pairwise non-bisimilar accepted trees, deterministic in seed.

    Draws random positional choices inside Eve's winning region of the
    emptiness game and keeps those that verify as winning, so every returned
    tree is a member.  Every draw picks a move at every position, so the
    random stream is the same whichever draws are skipped.  A draw whose
    strategy, on the positions it reaches, was already tried is skipped,
    so each distinct strategy is verified once, before its tree is used.
    When Eve has at most as many full choice functions as there are draws,
    drawing stops once every strategy they give has been tried: each later
    draw would be a skipped repeat, so the trees and their order are the
    same as after the whole budget.
    Raises EmptyLanguage when the automaton accepts no tree, ValueError
    when n is below 1.
    """
    if n < 1:
        raise ValueError("sample count must be positive")
    game = emptiness_game(a)
    win, _ = _solve(game)

    # Draws and walks run on ids; the start is id 0.  Eve's region holds
    # her chosen moves and all of Adam's, so every Eve position the walk
    # meets has a choice.  A strategy is named only when it is verified.
    names, succs = game.positions, game.succs
    won = list(map(win[EVE].__contains__, range(len(names))))
    if not won[0]:
        raise EmptyLanguage("language is empty")
    options = {i: [j for j in succs[i] if won[j]]
               for i, o in enumerate(game.owners) if o == EVE and won[i]}

    def walk(choice):
        # The walk is fixed by Eve's moves in the order it meets them, so
        # `moves` names the strategy restricted to `reach`, which is all the
        # check and the trimmed tree below depend on.
        reach = {0}
        frontier = [0]
        moves = []
        while frontier:
            i = frontier.pop()
            if i in choice:
                moves.append(choice[i])
                nxts = (choice[i],)
            else:
                nxts = succs[i]
            for nxt in nxts:
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        return reach, tuple(moves)

    budget = max(100, 20 * n)
    total = 1  # full choice functions, or just past the budget
    for opts in options.values():
        total *= len(opts)
        if total > budget:
            break
    distinct = None  # restricted strategies any draw can give, once counted
    rng = random.Random(seed)
    trees: list[RegularTree] = []
    tried = set()
    for drawn in range(budget):
        if drawn == total:
            # No dearer than the draws made so far.  Every draw lands in
            # this set, so once `tried` fills it, no draw can add a tree.
            distinct = len({walk(dict(zip(options, pick)))[1]
                            for pick in product(*options.values())})
        if len(tried) == distinct:
            break
        choice = {i: rng.choice(opts) for i, opts in options.items()}
        reach, moves = walk(choice)
        # A repeat was rejected before, or its tree is bisimilar to a kept one.
        if moves in tried:
            continue
        tried.add(moves)
        named = {names[i]: names[j] for i, j in choice.items()}
        if not verify_strategy(game, Strategy(EVE, named), [names[i] for i in reach]):
            continue
        t = strategy_tree(a, named)
        if not any(bisimilar(t, u) for u in trees):
            trees.append(t)
            if len(trees) == n:
                break
    return SampleSet(tuple(trees), n)


@dataclass(frozen=True)
class SeparationFailure:
    side: str
    index: int
    expected: bool
    got: bool
    tree: RegularTree


@dataclass(frozen=True)
class SeparationReport:
    accept_checked: int
    reject_checked: int
    failures: tuple[SeparationFailure, ...]
    disjointness_checked: bool
    samples_per_side: int
    seed: int

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_separation(separator: SeparatorHierarchy, a: NPTA, b: NPTA,
                      n: int, seed: int,
                      disjointness_checked: bool = False) -> SeparationReport:
    """Sample a with seed and b with seed + 1 and check the separator's
    verdicts, each decided by separator.accepts(t) on its base's
    membership game.  a and b need not be the pair it was synthesized for.
    Violations are recorded in the report, never raised."""
    sample_a = sample_language(a, n, seed)
    sample_b = sample_language(b, n, seed + 1)
    failures = []
    for side, sample, want in (("accept", sample_a, True), ("reject", sample_b, False)):
        for i, t in enumerate(sample.trees):
            got = separator.accepts(t)
            if got != want:
                failures.append(SeparationFailure(side, i, want, got, t))
    return SeparationReport(
        accept_checked=len(sample_a.trees),
        reject_checked=len(sample_b.trees),
        failures=tuple(failures),
        disjointness_checked=disjointness_checked,
        samples_per_side=n,
        seed=seed,
    )


def report_to_json(report: SeparationReport) -> dict:
    return {
        "passed": report.passed,
        "accept_checked": report.accept_checked,
        "reject_checked": report.reject_checked,
        "disjointness_checked": report.disjointness_checked,
        "samples_per_side": report.samples_per_side,
        "seed": report.seed,
        "failures": [
            {
                "side": f.side,
                "index": f.index,
                "expected": f.expected,
                "got": f.got,
                "tree": tree_to_json(f.tree),
            }
            for f in report.failures
        ],
    }


# ---------------------------------------------------------------------------
# Example pairs of disjoint Büchi languages, for exercising the synthesis.

@dataclass(frozen=True)
class ExamplePair:
    name: str
    a: NPTA
    b: NPTA
    # Hierarchy level at which the separator is exercised; None means the
    # full default bound.
    level: int | None


def _singleton(symbol: str) -> NPTA:
    return NPTA(BINARY, ("s",), "s", (("s", symbol, "s", "s"),), {"s": 2})


def _leftmost_constant(symbol: str) -> NPTA:
    # Trees whose leftmost branch is constantly `symbol`; a 2-state safety
    # automaton, trivially Büchi with all ranks 2.
    transitions = [("m", symbol, "m", "T"),
                   ("T", "0", "T", "T"), ("T", "1", "T", "T")]
    return NPTA(BINARY, ("m", "T"), "m", tuple(transitions), {"m": 2, "T": 2})


def _leftmost_finitely_many_ones() -> NPTA:
    # K-buchi's mirror image: the leftmost branch carries finitely many 1s.
    a = builtin("K-buchi")
    return replace(a, transitions=tuple((q, s, r, l) for q, s, l, r in a.transitions))


def example_pairs() -> tuple[ExamplePair, ...]:
    """Disjoint Büchi pairs covering singleton, dense and renamed languages.
    Pairs whose default bound is large carry a small exercise level that
    already separates them."""
    all0 = _singleton("0")
    all1 = _singleton("1")
    return (
        ExamplePair("all0-vs-all1", all0, all1, None),
        ExamplePair("all1-vs-all0", all1, all0, None),
        ExamplePair("L-vs-all0", builtin("L"), all0, 4),
        ExamplePair("swapped-L-vs-all1", rename_automaton(builtin("L"), BIT_SWAP), all1, 4),
        ExamplePair("leftmost0-vs-leftmost1", _leftmost_constant("0"), _leftmost_constant("1"), 4),
        ExamplePair("leftmost-finite1s-vs-all1", _leftmost_finitely_many_ones(), all1, 4),
    )
