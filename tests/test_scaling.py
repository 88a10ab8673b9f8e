"""How each layer's cost grows with its input.  A family runs at n and 4n,
and a test bounds the ratio of a cost measure: linear reads 4, quadratic
16.  Counts and memory peaks are exact; times are the best of 3
process_time runs, with bounds wide enough for a loaded machine.  A test
of a defect still open is a strict xfail naming its ROADMAP item, so that
the fix must flip it."""

import gc
import random
import time
import tracemalloc
from collections import OrderedDict

import pytest

from treegames import games
from treegames.automata import (
    APTA,
    BINARY,
    GAME_ALPHABET,
    NPTA,
    And,
    Atom,
    Or,
    acceptance_game,
    builtin,
    member,
    member_alt,
    membership_game,
    witness,
)
from treegames.gamelang import game_of_tree
from treegames.games import (
    ADAM,
    ParityGame,
    _solve,
    game_from_text,
    game_to_text,
    solve,
    verify_strategy,
)
from treegames.trees import RegularTree, tree_from_json, tree_to_json

from helpers import peel_chain


def binary_tree(n, seed=0, alphabet=BINARY):
    # Node i has children 2i+1 and 2i+2 modulo n, so every node is reached;
    # labels are drawn from the alphabet by a seeded generator.
    rng = random.Random(seed)
    return RegularTree(alphabet, 0, {i: rng.choice(alphabet.symbols) for i in range(n)},
                       {i: (2 * i + 1) % n for i in range(n)},
                       {i: (2 * i + 2) % n for i in range(n)})


def nested_family(n):
    # ROADMAP item 16: Adam owns every position, position i has priority i
    # and moves to i+1 (the last to 0) and, when i is even, also to 0.  For
    # odd n every cycle's top priority is even, and Eve wins everywhere.
    return ParityGame(range(n), dict.fromkeys(range(n), ADAM), {i: i for i in range(n)},
                      {i: ((i + 1) % n, 0) if i % 2 == 0 else ((i + 1) % n,)
                       for i in range(n)})


def best_time(run, arg):
    # Fastest of 3 runs in process CPU seconds, the collector paused.
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            start = time.process_time()
            run(arg)
            best = min(best, time.process_time() - start)
    finally:
        gc.enable()
    return best


def time_growth(run, make, n):
    return best_time(run, make(4 * n)) / best_time(run, make(n))


def test_membership_game_memory_follows_the_reached_pairs():
    # Two states reach every node of the tree; k more states, with no
    # transitions, reach none.  The game is the same 18,000 positions at
    # every k, and so should its peak be: a table of |Q|·N ids grew it
    # from 3.3 MB at k = 0 to 8.1 MB at k = 200.
    t = binary_tree(3000)

    def peak(k):
        states = ("a", "b") + tuple(f"u{i}" for i in range(k))
        rank = dict.fromkeys(states, 0)
        rank["b"] = 1
        moves = tuple((q, c, *to) for q in "ab" for c in "01" for to in ("ab", "ba"))
        a = NPTA(BINARY, states, "a", moves, rank)
        tracemalloc.start()
        try:
            g = membership_game(a, t)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.owners) == 18000
        return top

    assert peak(200) < 1.5 * peak(0)


def test_solve_time_grows_linearly_on_peel_chains():
    assert time_growth(_solve, peel_chain, 2000) < 10


def test_game_text_parse_time_grows_linearly():
    assert time_growth(game_from_text, lambda n: game_to_text(peel_chain(n)), 4000) < 10


def test_member_time_grows_linearly_in_the_tree():
    a = builtin("L")
    assert time_growth(lambda t: member(a, t), binary_tree, 1000) < 10


STATES = tuple(f"q{i}" for i in range(100))


def deep_delta(n):
    # Every delta entry of 100 states is one And/Or chain n levels deep,
    # with an Atom at every level naming one of the first 20 states.
    f = Atom("1", "q0")
    for i in range(n):
        f = (And if i % 2 else Or)((f, Atom("2", f"q{i % 20}")))
    return dict.fromkeys(((q, c) for q in STATES for c in "01"), f)


def deep_apta(delta):
    return APTA(BINARY, STATES, "q0", delta, dict.fromkeys(STATES, 0))


def test_apta_check_time_grows_linearly_in_formula_depth():
    # A recursive walk of the parts grew 16 times from depth 75 to 300.
    assert time_growth(deep_apta, deep_delta, 75) <= 8


def test_acceptance_game_time_grows_linearly_in_formula_depth():
    # Hashing a nested formula afresh at every position lookup grew the
    # build 16 times from depth 75 to 300.
    t = binary_tree(16)
    assert time_growth(lambda a: acceptance_game(a, t), lambda n: deep_apta(deep_delta(n)), 75) <= 8


def test_member_alt_plays_formulas_deeper_than_the_recursion_limit():
    # The first hash of a formula hashed its nested parts by recursion, so
    # member_alt raised RecursionError at about 450-600 And/Or levels.  Now
    # it keeps the hash of every junction nested in a position's formula.
    # Every rank is 0 and every play goes on forever, so Eve wins.
    a = deep_apta(deep_delta(1000))
    assert member_alt(a, binary_tree(4))
    f, levels = a.delta["q0", "0"].parts[0], 1
    while not isinstance(f, Atom):
        assert "_hash" in vars(f)
        f, levels = f.parts[0], levels + 1
    assert levels == 1000


def random_npta(n, seed=0):
    # n states with two seeded transitions each and ranks 0..3; every state
    # may also move to the accepting sink T, so the language is not empty.
    rng = random.Random(seed)
    states = tuple(f"q{i}" for i in range(n))
    moves = [(q, rng.choice("01"), rng.choice(states), rng.choice(states))
             for q in states for _ in range(2)]
    moves += [(q, "1", "T", "T") for q in states] + [("T", "0", "T", "T")]
    rank = {q: rng.randint(0, 3) for q in states}
    return NPTA(BINARY, states + ("T",), "q0", tuple(moves), dict(rank, T=0))


def test_witness_time_grows_linearly_in_the_automaton():
    assert time_growth(witness, random_npta, 1000) < 10


def test_tree_load_time_grows_linearly_on_both_paths():
    def checked(n):
        # A dict subclass passes every field check but not the bulk path's.
        doc = tree_to_json(binary_tree(n))
        doc["nodes"][0] = OrderedDict(doc["nodes"][0])
        return doc

    assert time_growth(tree_from_json, lambda n: tree_to_json(binary_tree(n)), 6000) < 10
    assert time_growth(tree_from_json, checked, 6000) < 10


def test_game_of_tree_time_grows_linearly():
    assert time_growth(game_of_tree, lambda n: binary_tree(n, alphabet=GAME_ALPHABET), 16000) < 10


def test_named_game_text_parse_time_grows_linearly():
    # Names send a text to the line loop.
    def named(n):
        g = peel_chain(n)
        names = [f"p{i}" for i in range(n)]
        return game_to_text(ParityGame(names, dict(zip(names, g.owners)),
                                       dict(zip(names, g.prios)),
                                       {v: [names[j] for j in s] for v, s in zip(names, g.succs)}))

    assert time_growth(game_from_text, named, 2000) < 10


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: verify_strategy is quadratic "
                                        "on nested certificates")
def test_verify_strategy_work_grows_linearly_on_nested_certificates(monkeypatch):
    # Work is the positions handed to the SCC decomposition, summed over
    # the cycle check's passes: one pass per odd priority makes it
    # quadratic in n.
    sccs, work = games._sccs, [0]

    def counted(nodes, succ_of):
        nodes = list(nodes)
        work[0] += len(nodes)
        return sccs(nodes, succ_of)

    def cost(n):
        g = nested_family(n)
        res = solve(g)
        work[0] = 0
        assert verify_strategy(g, res.eve_strategy, res.eve_region)
        return work[0]

    monkeypatch.setattr(games, "_sccs", counted)
    assert cost(801) < 8 * cost(201)
