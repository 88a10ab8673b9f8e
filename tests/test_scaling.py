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

import pytest

from treegames import games
from treegames.automata import BINARY, NPTA, builtin, member, membership_game
from treegames.games import (
    ADAM,
    ParityGame,
    _solve,
    game_from_text,
    game_to_text,
    solve,
    verify_strategy,
)
from treegames.trees import RegularTree

from helpers import peel_chain


def binary_tree(n, seed=0):
    # Node i has children 2i+1 and 2i+2 modulo n, so every node is reached;
    # labels are seeded random bits.
    rng = random.Random(seed)
    return RegularTree(BINARY, 0, {i: rng.choice("01") for i in range(n)},
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
