"""Yes/no decisions read position 0 off the solver's id result.

Each must give the verdict of the named lookup `start in
solve(game).eve_region`, and only the callers that hand back a strategy
put names on the result."""

import contextlib
import io
import json
import random
from collections import deque

from treegames import automata, games
from treegames.games import ADAM, EVE, _solve, game_from_text, game_to_dot, game_to_text, solve
from treegames.trees import Alphabet, constant_tree, rename_tree, tree_to_json
from treegames.automata import (
    BINARY,
    BUILTIN_NAMES,
    DUALITY,
    FALSE,
    GAME_ALPHABET,
    TRUE,
    And,
    Atom,
    acceptance_game,
    builtin,
    emptiness_game,
    member,
    member_alt,
    member_witness,
    membership_game,
    membership_start,
    npta_to_apta,
    strategy_tree,
    witness,
)
from treegames.gamelang import (
    ALL_EXISTS_ZERO,
    ALL_FORALL_ONE,
    _w01_verdicts,
    game_of_tree,
    in_w01,
    in_w01_prime,
    parity_lang_member,
)
from treegames.separation import build_hierarchy, example_pairs
from treegames.cli import main

from helpers import (
    parity_lang_member_by_explore,
    random_apta,
    random_npta,
    random_regular_tree,
    reference_solve,
    write_doc,
)


def test_id_result_names_to_the_named_result():
    # _solve's ids read through `positions` are solve()'s result, strategy
    # maps in the same order, on games with dead ends, duplicate edges and
    # tuple or string names, and solve() still matches the reference.  No
    # sink is left in a region, and every chosen move is an edge out of a
    # position its player owns and wins, so no strategy needs trimming.
    rng = random.Random(431)
    for trial in range(400):
        n = rng.randint(1, 40)
        names = [("p", i, str(i)) for i in range(n)] if trial % 2 else [f"v{i}" for i in range(n)]
        g = games.ParityGame(
            names,
            {v: rng.randint(0, 1) for v in names},
            {v: rng.randint(0, 6) for v in names},
            {v: tuple(rng.choice(names) for _ in range(rng.randint(0, 3))) for v in names})
        res = solve(g)
        assert res == reference_solve(g), trial
        win, strat = _solve(g)
        for player, region, strategy in ((EVE, res.eve_region, res.eve_strategy),
                                         (ADAM, res.adam_region, res.adam_strategy)):
            assert win[player] <= set(range(n)), trial
            assert frozenset(names[i] for i in win[player]) == region, trial
            assert [(names[i], names[j]) for i, j in strat[player].items()] == list(
                strategy.choice.items()), trial
            for i, j in strat[player].items():
                assert g.owners[i] == player and i in win[player] and j in g.succs[i], trial
        assert win[EVE] | win[ADAM] == set(range(n)), trial


def test_decisions_match_the_named_lookup():
    rng = random.Random(432)
    buchi = [builtin("L"), builtin("K-buchi")] + [side for pair in example_pairs()
                                                  for side in (pair.a, pair.b)]
    digits = [Alphabet(("0", "1", "2", "3")), Alphabet(("1", "2", "3"))]
    for trial in range(150):
        a = random_npta(rng, BINARY, 5, 4, density=rng.choice((0.3, 0.7)))
        t = random_regular_tree(BINARY, 12, rng.randrange(10 ** 6))
        named = membership_start(a, t) in solve(membership_game(a, t)).eve_region
        assert member(a, t) == named, trial
        run = member_witness(a, t)
        assert (run is not None) == named and (run is None or run.check()), trial

        for alt in (npta_to_apta(a), build_hierarchy(rng.choice(buchi), rng.randint(0, 3)).top):
            start = ("s", alt.initial, t.root)
            assert member_alt(alt, t) == (start in solve(acceptance_game(alt, t)).eve_region)

        res = solve(emptiness_game(a))
        want = (strategy_tree(a, res.eve_strategy.choice)
                if ("s", a.initial) in res.eve_region else None)
        assert witness(a) == want, trial

        u = random_regular_tree(GAME_ALPHABET, 12, rng.randrange(10 ** 6))
        first = u.root in solve(game_of_tree(u)).eve_region
        second = u.root in solve(game_of_tree(rename_tree(u, DUALITY))).eve_region
        assert (in_w01(u), in_w01_prime(u)) == (first, second) == _w01_verdicts(u), trial

        i = rng.randint(0, 1)
        d = random_regular_tree(digits[i], 8, rng.randrange(10 ** 6))
        assert parity_lang_member(d, i, 3) == parity_lang_member_by_explore(d, i, 3), trial


def test_acceptance_game_of_an_npta_is_its_membership_game():
    # A state position plays its formula itself and an Atom moves straight
    # to the child's state position, so embedding an NPTA changes only the
    # position names of its game.  A position that only passes the play on
    # would change no verdict, only the size.
    rng = random.Random(434)
    pairs = [(builtin(name), random_regular_tree(builtin(name).alphabet, 10, seed))
             for name in (*BUILTIN_NAMES, "Mik(1,3)") for seed in range(5)]
    for _ in range(600):
        alphabet = rng.choice((BINARY, GAME_ALPHABET))
        a = random_npta(rng, alphabet, 5, 4, density=rng.choice((0.2, 0.5, 0.8)))
        pairs.append((a, random_regular_tree(alphabet, 12, rng.randrange(10 ** 6))))
    for trial, (a, t) in enumerate(pairs):
        alt, run = acceptance_game(npta_to_apta(a), t), membership_game(a, t)
        assert (alt.owners, alt.prios, alt.succs) == (run.owners, run.prios, run.succs), trial

    buchi = [builtin("L"), builtin("K-buchi")] + [side for pair in example_pairs()
                                                  for side in (pair.a, pair.b)]
    for a in buchi:
        for level in range(4):
            top = build_hierarchy(a, level).top
            for seed in range(5):
                g = acceptance_game(top, random_regular_tree(a.alphabet, 10, seed))
                assert not any(p[0] == "f" and isinstance(p[3], Atom) for p in g.positions)


def test_acceptance_game_follows_its_definition():
    # A queue walk over the game's definition, on random alternating
    # automata whose formulas put an Atom, TRUE or FALSE at the top and
    # TRUE or FALSE inside And and Or, and on the separator levels.
    def definition(a, t, pos):
        q, v = pos[1], pos[2]
        f = a.delta[q, t.label[v]] if pos[0] == "s" else pos[3]
        parts = [f] if isinstance(f, Atom) else list(f.parts)
        moves = [("s", part.state, t.step(v, part.direction)) if isinstance(part, Atom)
                 else ("f", q, v, part) for part in parts]
        return (ADAM if isinstance(f, And) else EVE), a.rank[q], moves

    rng = random.Random(435)
    pairs = []
    for _ in range(600):
        alphabet = rng.choice((BINARY, GAME_ALPHABET))
        a = random_apta(rng, alphabet, 4, 4, depth=rng.randint(0, 3))
        pairs.append((a, random_regular_tree(alphabet, 10, rng.randrange(10 ** 6))))
    buchi = [builtin("L"), builtin("K-buchi")] + [side for pair in example_pairs()
                                                  for side in (pair.a, pair.b)]
    for a in buchi:
        for level in range(4):
            top = build_hierarchy(a, level).top
            pairs += [(top, random_regular_tree(a.alphabet, 10, seed)) for seed in range(3)]

    seen = set()
    for trial, (a, t) in enumerate(pairs):
        start = ("s", a.initial, t.root)
        order, index, queue = [start], {start: 0}, deque([start])
        while queue:
            for w in definition(a, t, queue.popleft())[2]:
                if w not in index:
                    index[w] = len(order)
                    order.append(w)
                    queue.append(w)
        labels = [definition(a, t, v) for v in order]
        g = acceptance_game(a, t)
        assert g.positions == tuple(order), trial
        assert g.owners == tuple(owner for owner, _, _ in labels), trial
        assert g.prios == tuple(prio for _, prio, _ in labels), trial
        assert g.succs == tuple(tuple(index[w] for w in moves) for _, _, moves in labels), trial
        for v in order:
            f = a.delta[v[1], t.label[v[2]]] if v[0] == "s" else v[3]
            seen.add((v[0], {TRUE: "TRUE", FALSE: "FALSE"}.get(f, type(f).__name__)))
    assert {("s", "Atom"), ("s", "TRUE"), ("s", "FALSE"), ("f", "TRUE"), ("f", "FALSE"),
            ("f", "And"), ("f", "Or")} <= seen


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_decisions_put_no_names_on_the_result(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a yes/no decision named the solve result")

    monkeypatch.setattr(games, "_named", refuse)
    monkeypatch.setattr(automata, "_named", refuse)
    ones, zeros = constant_tree(BINARY, "1"), constant_tree(BINARY, "0")
    L = builtin("L")
    assert member(L, ones) and not member(L, zeros)
    assert member_alt(npta_to_apta(L), ones) and not member_alt(npta_to_apta(L), zeros)
    assert member_witness(L, zeros) is None
    assert in_w01(ALL_EXISTS_ZERO) and not in_w01(ALL_FORALL_ONE)
    assert in_w01_prime(ALL_FORALL_ONE) and not in_w01_prime(ALL_EXISTS_ZERO)
    assert parity_lang_member(zeros, 0, 1) and not parity_lang_member(ones, 0, 1)
    tree, game_tree = tmp_path / "ones.json", tmp_path / "game.json"
    write_doc(tree, tree_to_json(ones))
    write_doc(game_tree, tree_to_json(ALL_EXISTS_ZERO))
    assert run_quietly(["member", "--automaton", "L", "--tree", str(tree)])[0] == 0
    assert run_quietly(["member-alt", "--automaton", "L", "--tree", str(tree)])[0] == 0
    assert run_quietly(["gtl", "--tree", str(game_tree)]) == (
        0, '{\n  "in_W01": true,\n  "in_W01_prime": false\n}\n')

    # A witness run is the one decision that names, and only when it is won.
    monkeypatch.undo()
    calls = []
    named = automata._named

    def recording(*args):
        calls.append(args)
        return named(*args)

    monkeypatch.setattr(automata, "_named", recording)
    run = member_witness(L, ones)
    assert len(calls) == 1 and run is not None and run.check()


def test_solve_command_sorts_ids_as_names(tmp_path):
    # The command sorts ids; a parsed text's positions are its ints in
    # ascending order, so its document is the one sorted by name.
    rng = random.Random(433)
    for trial in range(60):
        n = rng.randint(1, 30)
        names = rng.sample(range(1000), n)
        g = games.ParityGame(
            names,
            {v: rng.randint(0, 1) for v in names},
            {v: rng.randint(0, 5) for v in names},
            {v: tuple(rng.choice(names) for _ in range(rng.randint(0, 3))) for v in names})
        path, dot = tmp_path / "g.txt", tmp_path / "g.dot"
        path.write_text(game_to_text(g))
        res = solve(game_from_text(path.read_text()))
        want = {
            "eve_region": sorted(res.eve_region),
            "adam_region": sorted(res.adam_region),
            "eve_strategy": sorted([v, w] for v, w in res.eve_strategy.choice.items()),
            "adam_strategy": sorted([v, w] for v, w in res.adam_strategy.choice.items()),
        }
        code, out = run_quietly(["solve", "--game", str(path), "--dot", str(dot)])
        assert code == 0 and out == json.dumps(want, indent=2, sort_keys=True) + "\n", trial
        assert dot.read_text() == game_to_dot(game_from_text(path.read_text()), res), trial
