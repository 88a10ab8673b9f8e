"""Parity game solving.  The ground truth throughout is brute_force_solve,
which enumerates positional strategies and evaluates forced lassos; the
solver must match it exactly.  Games too large to enumerate are checked
against reference_solve, the same recursion in the form that copies its
sets at every frame, down to the order of the strategy maps."""

import random
import re
import tracemalloc
from collections import deque
from pathlib import Path

import pytest

from treegames import games
from treegames.games import (
    ADAM,
    EVE,
    GameError,
    ParityGame,
    Strategy,
    explore,
    game_from_text,
    game_to_dot,
    game_to_text,
    has_cycle_with_max_parity,
    solve,
    verify_strategy,
)
from treegames.games import _plain_game as plain_game
from treegames.trees import RegularTree, constant_tree
from treegames.automata import (
    BINARY,
    GAME_ALPHABET,
    NPTA,
    membership_game,
    membership_start,
    transition_table,
)
from treegames.gamelang import game_of_tree

from helpers import (
    brute_force_solve,
    digits_past_int_limit,
    game_from_text_by_lines,
    odd_dominated_cycle,
    peel_chain,
    random_game,
    random_npta,
    random_regular_tree,
    reference_solve,
    successor_names,
)


def game(owner, prio, succ):
    return ParityGame(tuple(sorted(owner)), owner, prio, succ)


def test_single_even_loop_is_eve_won():
    g = game({0: EVE}, {0: 0}, {0: (0,)})
    res = solve(g)
    assert res.eve_region == frozenset({0})
    assert res.adam_region == frozenset()


def test_single_odd_loop_is_adam_won():
    g = game({0: EVE}, {0: 1}, {0: (0,)})
    assert solve(g).adam_region == frozenset({0})


def test_dead_ends_lose_for_their_owner():
    g = game({0: EVE, 1: ADAM}, {0: 0, 1: 0}, {0: (), 1: ()})
    res = solve(g)
    assert res.adam_region == frozenset({0}), "stuck Eve loses"
    assert res.eve_region == frozenset({1}), "stuck Adam loses"


def test_eve_escapes_through_even_priority():
    # Eve cycles a(1) -> b(2) -> a; limsup 2 is even, so she wins both.
    g = game({"a": EVE, "b": EVE}, {"a": 1, "b": 2},
             {"a": ("a", "b"), "b": ("a",)})
    oracle = brute_force_solve(g)
    assert oracle.eve_region == frozenset({"a", "b"})
    res = solve(g)
    assert res.eve_region == oracle.eve_region
    assert res.eve_strategy.choice["a"] == "b", "staying on a loses"


def test_adam_can_force_the_odd_loop():
    g = game({0: ADAM, 1: EVE}, {0: 0, 1: 1},
             {0: (0, 1), 1: (1,)})
    res = solve(g)
    assert res.adam_region == frozenset({0, 1})
    assert res.adam_strategy.choice[0] == 1


def test_solver_matches_brute_force_on_random_games():
    # The second set spreads priorities over 0..40, so most subregions miss
    # some of the priorities present in the whole game.
    for seed, max_priority in ((404, 3), (409, 40)):
        rng = random.Random(seed)
        for trial in range(300):
            g = random_game(rng, 6, max_priority, 3)
            got = solve(g)
            want = brute_force_solve(g)
            assert got.eve_region == want.eve_region, (seed, trial, g)
            assert got.adam_region == want.adam_region, (seed, trial, g)


def test_brute_force_strategies_verify():
    rng = random.Random(405)
    for trial in range(60):
        g = random_game(rng, 5, 2, 2)
        res = brute_force_solve(g)
        assert verify_strategy(g, res.eve_strategy, res.eve_region), (trial, g)
        assert verify_strategy(g, res.adam_strategy, res.adam_region), (trial, g)
    # 21 Eve positions with two moves each: 2^21 strategies, over the limit.
    wide = game({i: EVE for i in range(21)}, {i: 0 for i in range(21)},
                {i: (i, (i + 1) % 21) for i in range(21)})
    with pytest.raises(GameError, match="strategy space larger than 1000000"):
        brute_force_solve(wide)


def test_solver_strategies_verify():
    rng = random.Random(406)
    for trial in range(300):
        g = random_game(rng, 7, 3, 3)
        res = solve(g)
        notes = []
        ok = (verify_strategy(g, res.eve_strategy, res.eve_region, notes)
              and verify_strategy(g, res.adam_strategy, res.adam_region, notes))
        assert ok, (trial, g, notes)


def assert_solves_like_reference(g, note):
    got, want = solve(g), reference_solve(g)
    assert got == want, note
    for mine, theirs in ((got.eve_strategy, want.eve_strategy),
                         (got.adam_strategy, want.adam_strategy)):
        assert list(mine.choice.items()) == list(theirs.choice.items()), note


def test_solve_matches_the_reference_solver_on_random_games():
    # Equal regions and strategies, with the strategy maps in the same
    # order.  Duplicate edges come in through the name-keyed constructor;
    # priorities are 0..8 or all distinct.
    rng = random.Random(414)
    for trial in range(500):
        n = rng.randint(0, 60)
        prio = (rng.sample(range(2 * n), n) if trial % 3 == 0
                else [rng.randint(0, 8) for _ in range(n)])
        g = ParityGame(
            tuple(range(n)),
            {i: rng.randint(0, 1) for i in range(n)},
            dict(enumerate(prio)),
            {i: tuple(rng.choice(range(n)) for _ in range(rng.randint(0, 3)))
             for i in range(n)})
        assert_solves_like_reference(g, (trial, g))


def test_solve_matches_the_reference_solver_when_one_player_wins_almost_everything():
    # Most positions carry the winner's parity, so attractors are built on
    # targets that fill most of their region, from the positions outside.
    rng = random.Random(415)
    for trial in range(300):
        n = rng.randint(5, 80)
        winner = trial % 2
        g = ParityGame(
            tuple(range(n)),
            {i: rng.randint(0, 1) for i in range(n)},
            {i: winner + 2 * rng.randint(0, 2) if rng.random() < 0.9 else rng.randint(0, 9)
             for i in range(n)},
            {i: tuple(rng.choice(range(n)) for _ in range(rng.randint(1, 3)))
             for i in range(n)})
        assert_solves_like_reference(g, (trial, g))
    for n in list(range(1, 41)) + [97, 256, 511, 1200]:
        assert_solves_like_reference(peel_chain(n), n)
    # Adam's 13 moves only into the top priority's 0..12, so Eve's attractor
    # takes it when the later of its targets, 5, is walked; 14, taken at 3,
    # comes first in the queue, and 15 is pulled in through 14.
    tops = {i: (i,) for i in range(13)}
    g = game({**{i: ADAM for i in tops}, 13: ADAM, 14: EVE, 15: EVE},
             {**{i: 2 for i in tops}, 13: 1, 14: 1, 15: 1},
             {**tops, 13: (1, 5), 14: (3,), 15: (13, 14)})
    assert_solves_like_reference(g, "late target")
    assert solve(g).eve_strategy.choice[15] == 14


def test_solve_matches_the_reference_solver_on_tree_games():
    # Tuple-named membership games of random automata on random trees, and
    # the games induced by random game-labeled trees.
    rng = random.Random(416)
    for trial in range(150):
        a = random_npta(rng, BINARY, 6, 5, density=rng.choice((0.3, 0.7)))
        t = random_regular_tree(BINARY, 30, rng.randrange(10 ** 6))
        assert_solves_like_reference(membership_game(a, t), trial)
        u = random_regular_tree(GAME_ALPHABET, 60, rng.randrange(10 ** 6))
        assert_solves_like_reference(game_of_tree(u), trial)


def test_solve_memory_stays_linear_on_peel_chains():
    # Frames that copied their regions held a quadratic number of
    # positions at once: an 85 MB peak at this size.
    g = peel_chain(2000)
    tracemalloc.start()
    try:
        solve(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


def test_solver_handles_one_priority_per_position_deep_chains():
    # Each of the peel chain's 20,000 priorities is one level of Zielonka's
    # algorithm, far past Python's default recursion limit, and no level
    # copies the region it peels one position from.
    n = 20000
    g = peel_chain(n)
    res = solve(g)
    assert res.eve_region == frozenset(range(n))
    assert verify_strategy(g, res.eve_strategy, res.eve_region)
    assert verify_strategy(g, res.adam_strategy, res.adam_region)


def test_verify_handles_one_priority_per_position_long_chains():
    # One cycle check per distinct priority made this quadratic in n.
    n = 5000
    g = peel_chain(n)
    res = solve(g)
    assert res.eve_region == frozenset(range(n))
    assert verify_strategy(g, res.eve_strategy, res.eve_region)
    assert verify_strategy(g, res.adam_strategy, res.adam_region)


def test_cycle_check_does_not_peel_priorities_of_the_wrong_parity(monkeypatch):
    # Adam owns every position and every priority is even.  Peeling one top
    # priority per SCC pass took 660 passes here.
    n = 1000
    rng = random.Random(3)
    succ = {i: ((i + 1) % n, rng.randrange(n), rng.randrange(n)) for i in range(n)}
    g = game({i: ADAM for i in range(n)}, {i: 2 * i for i in range(n)}, succ)
    res = solve(g)
    passes, sccs = [], games._sccs

    def counted(nodes, succ_of):
        passes.append(None)
        return sccs(nodes, succ_of)

    monkeypatch.setattr(games, "_sccs", counted)
    assert res.eve_region == frozenset(range(n))
    assert verify_strategy(g, res.eve_strategy, res.eve_region)
    assert len(passes) <= 2


def test_verify_rejects_bad_strategies():
    # Eve wins 0 by looping; sending her to the odd self-loop instead must
    # be flagged, as must a choice leaving her region.
    g = game({0: EVE, 1: EVE}, {0: 0, 1: 1}, {0: (0, 1), 1: (1,)})
    assert verify_strategy(g, Strategy(EVE, {0: 0}), {0})
    notes = []
    assert not verify_strategy(g, Strategy(EVE, {0: 1}), {0}, notes)
    assert notes, "diagnostics should name the violation"
    assert not verify_strategy(g, Strategy(EVE, {0: 0, 1: 1}), {0, 1})
    for strategy, region, reason in (
        (Strategy(EVE, {0: 0}), {0, 5}, "5 is not a position"),
        (Strategy(EVE, {}), {0}, "0: no move chosen"),
        (Strategy(EVE, {0: 7}), {0}, "0: chosen move 7 is not an edge"),
        (Strategy(ADAM, {}), {0}, "0: opponent can leave the region via 1"),
        (Strategy(ADAM, {}), {0, 1}, "cycle with unfavorable maximal priority"),
    ):
        notes = []
        assert not verify_strategy(g, strategy, region, notes)
        assert notes == [reason]


def test_verify_rejects_a_player_that_is_neither_eve_nor_adam():
    # Adam's odd self-loop: Eve loses it, and a player 1 - player would
    # make an opponent of no parity, for whom no cycle is unfavorable.
    g = game({0: ADAM}, {0: 1}, {0: (0,)})
    assert not verify_strategy(g, Strategy(EVE, {}), {0})
    assert verify_strategy(g, Strategy(ADAM, {0: 0}), {0})
    for player in (2, -1, None):
        notes = []
        assert not verify_strategy(g, Strategy(player, {}), {0}, notes)
        assert notes == ["player must be 0 (Eve) or 1 (Adam)"]


def test_verify_rejects_owned_dead_end_in_region():
    g = game({0: EVE}, {0: 0}, {0: ()})
    assert not verify_strategy(g, Strategy(EVE, {}), {0})


def test_cycle_analysis_matches_reachability_oracle():
    rng = random.Random(407)
    for trial in range(200):
        n = rng.randint(1, 6)
        succ = {i: tuple(sorted(rng.sample(range(n), min(rng.randint(0, 2), n))))
                for i in range(n)}
        rank = {i: rng.randint(0, 3) for i in range(n)}
        for parity in (0, 1):
            got = has_cycle_with_max_parity(
                list(range(n)), lambda v: succ[v], rank, parity)
            want = odd_dominated_cycle(range(n), lambda v: succ[v], rank, parity)
            assert got == want, (trial, succ, rank, parity)


def test_nested_scc_cycle_check_matches_per_priority_oracle():
    rng = random.Random(411)
    for trial in range(3000):
        n = rng.randint(1, 12)
        succ = {i: tuple(rng.sample(range(n), rng.randint(0, min(3, n))))
                for i in range(n)}
        prio = {i: rng.randint(0, 6) for i in range(n)}
        for parity in (0, 1):
            got = has_cycle_with_max_parity(range(n), lambda v: succ[v], prio, parity)
            want = odd_dominated_cycle(range(n), lambda v: succ[v], prio, parity)
            assert got == want, (trial, succ, prio, parity)


def test_game_construction_validation():
    owner_message = "position {!r}: owner must be 0 (Eve) or 1 (Adam)"
    priority_message = "position {!r}: priority must be a nonnegative integer"
    for owner, prio, message in (
        ({0: 2}, {0: 0}, owner_message),
        ({0: None}, {0: 0}, owner_message),
        ({0: True}, {0: 0}, owner_message),  # equal to 1, but not written as 1
        ({0: 1.0}, {0: 0}, owner_message),
        ({0: 0.0}, {0: 0}, owner_message),
        ({0: EVE}, {0: -1}, priority_message),
        ({0: EVE}, {0: True}, priority_message),
        ({0: EVE}, {0: 1.0}, priority_message),
        ({0: EVE}, {}, priority_message),
    ):
        with pytest.raises(GameError) as exc:
            game(owner, prio, {0: ()})
        assert str(exc.value) == message.format(0)
    # Labels are checked in position order, owner before priority.
    succ = {"r": ("a",), "a": ("b",), "b": ("c",), "c": ("r",)}
    for owner, prio, message in (
        ({"b": 2, "c": 7}, {"c": -1}, owner_message.format("b")),
        ({"c": -1}, {"a": True, "b": -3}, priority_message.format("a")),
    ):
        with pytest.raises(GameError) as exc:
            ParityGame(("r", "a", "b", "c"), {v: owner.get(v, EVE) for v in succ},
                       {v: prio.get(v, 0) for v in succ}, succ)
        assert str(exc.value) == message
    with pytest.raises(GameError):
        game({0: EVE}, {0: 0}, {0: (1,)})  # unknown successor
    with pytest.raises(GameError, match="duplicate positions"):
        ParityGame((0, 0), {0: EVE}, {0: 0}, {0: ()})
    with pytest.raises(GameError, match="no successor list"):
        ParityGame((0,), {0: EVE}, {0: 0}, {})


def test_parse_names_the_bad_successor():
    with pytest.raises(GameError) as exc:
        game_from_text("parity 1;\n0 1 0 0,5;\n")
    assert str(exc.value) == "inconsistent game: position 0: successor 5 is not a position"


def test_explore_gives_ids_in_breadth_first_discovery_order():
    succ = {"r": ("a", "b"), "a": ("c", "b"), "b": ("r", "r"), "c": ("d", "c"), "d": ()}
    g = explore("r", lambda v: (EVE, 0, succ[v]))
    assert g.positions == ("r", "a", "b", "c", "d")
    assert g.index == {"r": 0, "a": 1, "b": 2, "c": 3, "d": 4}
    assert g.succs == ((1, 2), (3, 2), (0, 0), (4, 3), ())
    assert successor_names(g) == succ

    rng = random.Random(413)
    for trial in range(200):
        n = rng.randint(1, 12)
        edges = {i: tuple(rng.choice(range(n)) for _ in range(rng.randint(0, 3)))
                 for i in range(n)}
        order, queue = [0], deque([0])
        while queue:
            for w in edges[queue.popleft()]:
                if w not in order:
                    order.append(w)
                    queue.append(w)
        g = explore(0, lambda v: (v % 2, v, edges[v]))
        assert g.positions == tuple(order), (trial, edges)
        assert g.succs == tuple(tuple(order.index(w) for w in edges[v]) for v in order)

    # Tuple-named positions, duplicate edges and Eve dead ends: membership
    # games of random automata on random trees, against a queue walk over
    # the game's definition.  A state position with exactly one transition
    # is that transition's Adam position.
    duplicates = dead_ends = 0
    for trial in range(200):
        a = random_npta(rng, BINARY, 3, 3, density=rng.choice((0.3, 0.7)))
        t = random_regular_tree(BINARY, 6, rng.randrange(10 ** 6))
        table = transition_table(a)

        def transition(pos):
            # The transition an Adam position plays, or None at Eve's.
            if pos[0] == "t":
                return pos[1]
            block = table.get((pos[1], t.label[pos[2]]), ())
            return block[0] if len(block) == 1 else None

        def moves(pos):
            tr, v = transition(pos), pos[2]
            if tr is None:
                return [("t", k, v) for k in table.get((pos[1], t.label[v]), ())]
            _, _, l, r = tr
            return [("s", l, t.left[v]), ("s", r, t.right[v])]

        start = membership_start(a, t)
        order, queue = [start], deque([start])
        while queue:
            for w in moves(queue.popleft()):
                if w not in order:
                    order.append(w)
                    queue.append(w)
        g = membership_game(a, t)
        # Made from its names source, the game equals and hashes like the
        # one the name-keyed constructor builds.
        named = ParityGame(order, {v: EVE if transition(v) is None else ADAM for v in order},
                           {v: a.rank[v[1] if v[0] == "s" else v[1][0]] for v in order},
                           {v: moves(v) for v in order})
        assert "positions" not in vars(g) and g == named and hash(g) == hash(named), trial
        assert g.positions == tuple(order), trial
        assert list(g.index.items()) == [(v, i) for i, v in enumerate(order)], trial
        assert g.succs == tuple(tuple(order.index(w) for w in moves(v)) for v in order), trial
        assert g.owners == tuple(EVE if transition(v) is None else ADAM for v in order), trial
        assert g.prios == tuple(a.rank[v[1] if v[0] == "s" else v[1][0]] for v in order), trial
        duplicates += any(len(set(s)) < len(s) for s in g.succs)
        dead_ends += not all(g.succs)
    assert duplicates and dead_ends


def test_solve_is_independent_of_position_names():
    # Renaming the positions, in the same order, renames the result: both
    # regions, and both strategy maps in their insertion order.  The games
    # have dead ends and duplicate edges.
    rng = random.Random(412)
    for trial in range(600):
        n = rng.randint(1, 9)
        g = ParityGame(
            tuple(range(n)),
            {i: rng.randint(0, 1) for i in range(n)},
            {i: rng.randint(0, 5) for i in range(n)},
            {i: tuple(rng.choice(range(n)) for _ in range(rng.randint(0, 3)))
             for i in range(n)})
        sparse = rng.sample(range(10 * n), n)
        for name in ((lambda i: ("p", i, str(i))), str, sparse.__getitem__):
            names = tuple(map(name, g.positions))
            renamed = ParityGame(
                names, dict(zip(names, g.owners)), dict(zip(names, g.prios)),
                {v: tuple(names[j] for j in s) for v, s in zip(names, g.succs)})
            # Equal arrays, so the games are equal exactly when the names are.
            assert (renamed == g) == (names == g.positions), (trial, g)
            want, got = solve(g), solve(renamed)
            assert got.eve_region == frozenset(map(name, want.eve_region)), (trial, g)
            assert got.adam_region == frozenset(map(name, want.adam_region)), (trial, g)
            for mine, theirs in ((got.eve_strategy, want.eve_strategy),
                                 (got.adam_strategy, want.adam_strategy)):
                assert list(mine.choice.items()) == [
                    (name(v), name(w)) for v, w in theirs.choice.items()], (trial, g)


def test_text_format_round_trip():
    rng = random.Random(408)
    for _ in range(40):
        g = random_game(rng, 6, 3, 3)
        back = game_from_text(game_to_text(g))
        assert back == g
    # Names holding a quote or a line break are written so that they parse.
    quoted = NPTA(BINARY, ('q"x',), 'q"x', (('q"x', "0", 'q"x', 'q"x'),), {'q"x': 0})
    node = "a\nb"
    broken = RegularTree(GAME_ALPHABET, node, {node: "(E,0)"}, {node: node}, {node: node})
    for g in (membership_game(quoted, constant_tree(BINARY, "0")), game_of_tree(broken)):
        back = game_from_text(game_to_text(g))
        assert back.positions == tuple(range(len(g.positions)))
        assert (back.owners, back.prios, back.succs) == (g.owners, g.prios, g.succs)


def test_text_format_relabels_negative_ids():
    # Text ids are nonnegative, so a game with a negative int position is
    # written like any other named game and parses back relabeled.
    g = game({-1: EVE, 0: ADAM, 1: EVE}, {-1: 3, 0: 2, 1: 0},
             {-1: (0,), 0: (-1, 0), 1: (1,)})
    back = game_from_text(game_to_text(g))
    relabel = {-1: 0, 0: 1, 1: 2}
    assert back.positions == (0, 1, 2)
    want, got = solve(g), solve(back)
    assert got.eve_region == frozenset(map(relabel.get, want.eve_region))
    assert got.adam_region == frozenset(map(relabel.get, want.adam_region))


def test_text_format_example():
    text = game_to_text(game({0: EVE, 1: ADAM}, {0: 1, 1: 2},
                             {0: (0, 1), 1: ()}))
    lines = text.strip().splitlines()
    assert lines[0] == "parity 1;"
    assert lines[1] == "0 1 0 0,1;"
    assert lines[2] == "1 2 1;"


def test_readme_game_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"Games use a plain text format.*?```\n(.*?)```", readme, re.S)
    g = game_from_text(block.group(1))
    assert g.positions == (0, 1, 2)
    assert (g.prios, g.owners, g.succs) == ((1, 2, 0), (0, 1, 1), ((0, 1), (2,), ()))


def test_text_parse_errors_name_the_line():
    with pytest.raises(GameError, match="header"):
        game_from_text("0 1 0 0;\n")
    with pytest.raises(GameError, match="line 2"):
        game_from_text("parity 1;\n0 1 0 0\n")
    with pytest.raises(GameError, match="line 3"):
        game_from_text("parity 9;\n0 1 0 0;\nnope;\n")
    with pytest.raises(GameError):
        game_from_text("parity 1;\n0 1 0 0,5;\n")
    with pytest.raises(GameError, match="line 3: duplicate position 0"):
        game_from_text("parity 1;\n0 1 0 0;\n0 1 0 0;\n")
    with pytest.raises(GameError, match="line 1: expected header"):
        game_from_text("")
    assert game_from_text("parity 1;\n\n0 1 0 0;\n") == game({0: EVE}, {0: 1}, {0: (0,)})


SPACES = (" ", "  ", "\t", " \t", "\xa0")
GAPS = ("",) + SPACES
BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")
PARSE_ERRORS = ("does not end with ';'", "expected header", "malformed position record",
                "duplicate position", "is not a position")


def random_game_lines(rng):
    # Header and records of a small game in the text format, positions in
    # random order, with every kind of space the grammar allows; or, half
    # the time, a plain text: ids 0..n-1 in order, no names and only ASCII
    # space around the commas.
    n = rng.randint(0, 6)
    plain = rng.random() < 0.5
    ids = list(range(n)) if plain else rng.sample(range(12), n)

    def gap():
        return rng.choice(GAPS[:-1] if plain else GAPS)

    lines = [f"{gap()}parity{rng.choice(SPACES)}{rng.randint(0, 12)}{gap()};{gap()}"]
    for v in ids:
        record = " ".join(map(str, (v, rng.randint(0, 9), rng.randint(0, 1))))
        record = record.replace(" ", rng.choice(SPACES))
        succ = [str(rng.choice(ids)) for _ in range(rng.randint(0, 3))]
        if succ:
            record += rng.choice(("", " ")) + (gap() + "," + gap()).join(succ)
        if not plain and rng.random() < 0.3:
            record += gap() + '"' + rng.choice(("", "x", "a b", "(0, 'q')", "é")) + '"'
        lines.append(gap() + record + gap() + ";" + gap())
    return lines


def declined_records(n):
    # Records that keep a text from being plain when appended after ids
    # 0..n-1, each for one reason; the line loop reads them all.
    return (
        f'{n} 1 0 {n} "a; b";',        # a quoted name holding ';' and spaces
        f"{n} 1 0{n};",                # the owner glued to the successors
        f"{n} 1 0;{n};",               # a mid-line ';'
        f"{n} 1 0 0,;{n};",            # a ';' inside the successor list
        f'{n} 1 0 "x";',               # a name in the successors' place
        f"{n} 1 0 {n}],[{n};",         # brackets that JSON would read
        f"{n} 1 0 0{n};",              # a successor with a leading zero
        f"{n} 1 0 {n} {n};",           # two successors with no comma
        f"{n}.0 1 0 {n};",             # an id that JSON reads as a number
        f"{n} -1 0 {n};",              # a negative priority
        "".join(chr(0x660 + int(c)) for c in str(n)) + " 1 0 0;",  # Arabic-Indic id
        f"{n} 1 0 {n},\u3000{n};",     # an ideographic space in the list
        f"{n + 1} 1 0 0;",             # a gap in the ids
        f"{n} 1 0 {n + 1};",           # a successor id equal to the count
    )


def mutate(rng, lines):
    # A blank line, one of the slips each parse error names, a record the
    # bulk path must decline or two records swapped.
    i = rng.randrange(len(lines) + 1)
    kind = rng.randrange(9)
    if kind == 0:
        lines.insert(i, rng.choice(("", " ", "\t")))
    elif kind == 1 and i < len(lines):
        lines[i] = lines[i].replace(";", "")
    elif kind == 2 and i < len(lines):
        lines[i] = lines[i].replace("parity", "parity?").replace(";", " x;")
    elif kind == 3:
        lines.insert(i, rng.choice(("0 1;", "1 1 2;", "2 1 0 1,,2;", "3 1 0 1,;", "x 0 0;",
                                    '4 1 0 "a"b";', "5 1 0 1 2;", "-1 0 0;")))
    elif kind == 4 and len(lines) > 1:
        lines.insert(i, lines[rng.randrange(1, len(lines))])
    elif kind == 5:
        lines.insert(max(i, 1), f"{rng.randint(0, 12)} 0 1 {rng.randint(0, 12)};")
    elif kind == 6:
        lines.insert(max(i, 1), "007 3 0 7;")
    elif kind == 7:
        lines.append(rng.choice(declined_records(len(lines) - 1)))
    elif kind == 8 and len(lines) > 2:
        lines[1], lines[-1] = lines[-1], lines[1]   # ids out of order


def test_text_parser_matches_line_by_line_oracle(monkeypatch):
    # Both parsers give equal games or the same first error, on random
    # texts, on texts with slips in them and on blank texts.  Plain texts
    # among them take the bulk path.
    bulk = []

    def counted(lines):
        g = plain_game(lines)
        bulk.append(g is not None)
        return g

    monkeypatch.setattr(games, "_plain_game", counted)
    rng = random.Random(418)
    errors, parsed = set(), 0
    for trial in range(3000):
        lines = random_game_lines(rng)
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            mutate(rng, lines)
        if rng.random() < 0.05:
            lines = [rng.choice(("", " ", "\t"))] * rng.randint(0, 2)
        text = "".join(line + rng.choice(BREAKS) for line in lines)
        try:
            want = game_from_text_by_lines(text)
        except GameError as exc:
            with pytest.raises(GameError) as got:
                game_from_text(text)
            assert str(got.value) == str(exc), (trial, text)
            errors.update(kind for kind in PARSE_ERRORS if kind in str(exc))
            continue
        got = game_from_text(text)
        assert got == want and got.index == want.index, (trial, text)
        parsed += 1
    assert errors == set(PARSE_ERRORS) and parsed > 1000 and bulk.count(True) > 100


def test_bulk_path_declines_what_only_the_line_loop_reads():
    base = ["parity 2;", "0 1 0 1;", "1 2 1 0, 1 ;"]
    assert plain_game(base) is not None
    for record in declined_records(2) + ("0 1 0 1;",):
        try:
            g = plain_game(base + [record])
        except ValueError:
            g = None
        assert g is None, record
    assert plain_game([base[0], base[2], base[1]]) is None
    # A line without its ';' and another with two.
    assert plain_game(["parity 2", "0 1 0 1;;", base[2]]) is None


def test_text_parser_names_a_huge_priority_in_line_order():
    # A priority past int()'s digit limit is converted where it is read, so
    # it is named before a missing successor and before a later duplicate.
    huge = digits_past_int_limit()
    if huge is None:
        pytest.skip("int() has no digit limit here")
    for text in (f"parity 1;\n0 {huge} 0 5;\n",
                 f"parity 2;\n0 {huge} 0 1;\n1 1 0 0;\n0 1 0 1;\n"):
        with pytest.raises(GameError) as info:
            game_from_text(text)
        assert str(info.value) == f"line 2: number has more than {len(huge) - 1} digits", text


@pytest.mark.parametrize("record", ["{huge} 1 0 0;", "0 1 0 {huge};", "0 1 0 0,{huge} \"x\";",
                                    "0 {huge} 0 0;"])
def test_numbers_past_the_digit_limit_name_their_line(record):
    # An id, a successor or a lone priority past int()'s digit limit.
    huge = digits_past_int_limit()
    if huge is None:
        pytest.skip("int() has no digit limit here")
    with pytest.raises(GameError, match=r"^line 2: .*digits"):
        game_from_text("parity 1;\n" + record.format(huge=huge) + "\n")


def test_text_of_int_games_takes_the_bulk_path(monkeypatch):
    # game_to_text writes every nonempty game on the positions 0..n-1 as a
    # plain text.
    rng = random.Random(419)
    texts = [game_to_text(random_game(rng, 30, 9, 3)) for _ in range(200)]
    texts.append(game_to_text(game({0: EVE, 1: ADAM}, {0: 3, 1: 0}, {0: (), 1: ()})))
    wants = [games._game_from_lines(text) for text in texts]

    def refuse(text):
        raise AssertionError("the line loop ran on a plain text")

    monkeypatch.setattr(games, "_game_from_lines", refuse)
    for text, want in zip(texts, wants):
        got = game_from_text(text)
        assert got == want and got.index == want.index, text


def test_dot_export_mentions_positions_and_regions():
    g = game({0: EVE, 1: ADAM}, {0: 0, 1: 1}, {0: (1,), 1: (0,)})
    plain = game_to_dot(g)
    assert "digraph" in plain and "shape=box" in plain
    colored = game_to_dot(g, solve(g))
    assert "fillcolor" in colored


def test_dot_labels_are_quoted_strings():
    # A name holding '"' or '\\' is escaped inside its label.
    quoted = NPTA(BINARY, ('q"x', "q\\"), 'q"x', (('q"x', "0", "q\\", 'q"x'),),
                  {'q"x': 0, "q\\": 1})
    member_game = membership_game(quoted, constant_tree(BINARY, "0"))
    named = game({'a\\"b': EVE, "c\\": ADAM}, {'a\\"b': 0, "c\\": 1},
                 {'a\\"b': ("c\\",), "c\\": ('a\\"b',)})
    for g in (member_game, named):
        labels = re.findall(r"label=(.*?), shape=", game_to_dot(g, solve(g)))
        assert len(labels) == len(g.positions)
        for label in labels:
            assert re.fullmatch(r'"(?:[^"\\]|\\.)*"', label), label
    assert '"(\'s\', \'q\\"x\', 0):0"' in game_to_dot(member_game)
    assert 'label="a\\\\\\"b:0"' in game_to_dot(named)
