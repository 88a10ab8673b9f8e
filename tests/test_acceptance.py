"""Acceptance suite: one test per criterion, timed where a budget applies.

Each test prints a single summary line; run with -s (or read the -v test
lines) for the per-criterion verdicts.
"""

import itertools
import json
import random
import time

from treegames.trees import (
    bisimilar,
    constant_tree,
    load_tree,
    rename_tree,
    tree_from_json,
    tree_to_json,
)
from treegames.games import (
    ParityGame,
    game_from_text,
    game_to_text,
    solve,
)
from treegames.automata import (
    BINARY,
    BIT_SWAP,
    DUALITY,
    GAME_ALPHABET,
    Index,
    NPTA,
    automaton_from_json,
    automaton_to_json,
    builtin,
    index_of,
    member,
    member_alt,
    membership_game,
    rename_automaton,
)
from treegames.gamelang import eval_borel, in_w01, in_w01_prime, reduce_borel
from treegames.separation import (
    build_hierarchy,
    example_pairs,
    sample_language,
    synthesize_separator,
    verify_separation,
)
from treegames.cli import main as cli_main

from helpers import brute_force_solve, random_code, random_game, random_regular_tree, write_doc


def test_criterion_1_solver_matches_brute_force():
    """Exhaustive tiny games plus random mid-size games: the
    solver and the strategy-enumerating solver produce identical regions."""
    start = time.monotonic()

    def subsets(n):
        out = [()]
        out += [(i,) for i in range(n)]
        out += list(itertools.combinations(range(n), 2))
        return out

    checked = 0
    for n in (1, 2, 3):
        options = [(o, p, s) for o in (0, 1) for p in (0, 1, 2)
                   for s in subsets(n)]
        for combo in itertools.product(options, repeat=n):
            g = ParityGame(tuple(range(n)),
                           {i: combo[i][0] for i in range(n)},
                           {i: combo[i][1] for i in range(n)},
                           {i: combo[i][2] for i in range(n)})
            got = solve(g)
            want = brute_force_solve(g)
            assert got.eve_region == want.eve_region, g
            assert got.adam_region == want.adam_region, g
            checked += 1
    assert checked == 74676

    rng = random.Random(20260822)
    for trial in range(500):
        g = random_game(rng, 8, 3, 2)
        got = solve(g)
        want = brute_force_solve(g)
        assert got.eve_region == want.eve_region, (trial, g)
        assert got.adam_region == want.adam_region, (trial, g)

    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 1 budget exceeded: {elapsed:.1f}s"
    print(f"criterion 1: PASS ({checked} exhaustive + 500 random games, "
          f"{elapsed:.1f}s)")


def test_criterion_2_dichotomy_of_the_game_languages():
    """The two languages never overlap, the duality renaming swaps them,
    and some sampled tree avoids both."""
    start = time.monotonic()
    neither = 0
    for s in range(1000):
        t = random_regular_tree(GAME_ALPHABET, 8, 9000 + s)
        first, second = in_w01(t), in_w01_prime(t)
        assert not (first and second), t
        if not first and not second:
            neither += 1
        assert first == in_w01_prime(rename_tree(t, DUALITY)), t
    assert neither > 0, "sample never left both languages"
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"criterion 2 budget exceeded: {elapsed:.1f}s"
    print(f"criterion 2: PASS (1000 trees, {neither} in neither language, "
          f"{elapsed:.1f}s)")


def test_criterion_3_automaton_equals_game_semantics():
    agree = 0
    for s in range(500):
        t = random_regular_tree(GAME_ALPHABET, 8, 17000 + s)
        if member(builtin("W01"), t) == in_w01(t):
            agree += 1
    assert agree == 500, f"only {agree}/500 agreed"
    print("criterion 3: PASS (500/500 membership agreements)")


def test_criterion_4_reduction_lands_in_the_right_language():
    start = time.monotonic()
    rng = random.Random(26000)
    for trial in range(200):
        code = random_code(rng, 3)
        u = random_regular_tree(GAME_ALPHABET, 6, rng.randrange(10 ** 6))
        image = reduce_borel(code, u)
        if eval_borel(code, u):
            assert in_w01(image), (trial, code)
        else:
            assert in_w01_prime(image), (trial, code)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 4 budget exceeded: {elapsed:.1f}s"
    print(f"criterion 4: PASS (200 code/tree pairs, both implications, "
          f"{elapsed:.1f}s)")


def test_criterion_5_rightmost_branch_separator():
    det, buchi = builtin("K-det"), builtin("K-buchi")
    for s in range(500):
        t = random_regular_tree(BINARY, 6, 35000 + s)
        assert member(det, t) == member(buchi, t), t

    inside = sample_language(builtin("M01"), 300, 51).trees
    outside = sample_language(rename_automaton(builtin("M01"), BIT_SWAP),
                              300, 52).trees
    assert inside and outside
    for t in inside:
        assert member(det, t), "a tree of the chain language escaped"
    for t in outside:
        assert not member(det, t), "a renamed-language tree got in"
    print(f"criterion 5: PASS (500 det/Büchi agreements, "
          f"{len(inside)}+{len(outside)} inclusion samples)")


def test_criterion_6_separator_synthesis_corpus():
    start = time.monotonic()
    pairs = example_pairs()
    assert len(pairs) >= 5
    for pair in pairs:
        separator = synthesize_separator(pair.a, pair.b, level=pair.level)
        report = verify_separation(separator, pair.a, pair.b, 100, 42)
        assert report.passed, (pair.name, report.failures)

        cap = pair.level if pair.level is not None else 3
        levels = [build_hierarchy(pair.a, n).top for n in range(cap + 1)]
        for seed_shift, side in enumerate((pair.a, pair.b)):
            for t in sample_language(side, 100, 42 + seed_shift).trees:
                verdicts = [member_alt(level, t) for level in levels]
                for n in range(cap):
                    assert verdicts[n + 1] <= verdicts[n], (pair.name, n)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 6 budget exceeded: {elapsed:.1f}s"
    print(f"criterion 6: PASS ({len(pairs)} pairs verified at 100 "
          f"samples/side, levels monotone, {elapsed:.1f}s)")


def test_criterion_7_builtin_tables_are_verbatim():
    l = builtin("L")
    assert l.rank == {"q": 1, "p": 2, "T": 2}
    assert set(l.transitions) == {
        ("q", "0", "q", "T"), ("q", "0", "T", "q"),
        ("q", "1", "p", "T"), ("q", "1", "T", "p"),
        ("p", "0", "q", "T"), ("p", "0", "T", "q"),
        ("p", "1", "p", "T"), ("p", "1", "T", "p"),
        ("T", "0", "T", "T"), ("T", "1", "T", "T"),
    }
    m01 = builtin("M01")
    assert m01.rank == {"0": 0, "1": 1}
    assert set(m01.transitions) == {(b, s, s, s)
                                    for b in ("0", "1") for s in ("0", "1")}
    det = builtin("K-det")
    assert det.rank == {"0": 0, "1": 1, "T": 0}
    assert set(det.transitions) == (
        {(q, s, "T", s) for q in ("0", "1") for s in ("0", "1")}
        | {("T", s, "T", "T") for s in ("0", "1")})
    buchi = builtin("K-buchi")
    assert buchi.rank == {"q": 1, "p": 2, "T": 2}
    assert set(buchi.transitions) == (
        {("q", s, "T", q2) for s in ("0", "1") for q2 in ("q", "p")}
        | {("p", "0", "T", "p")}
        | {("T", s, "T", "T") for s in ("0", "1")})
    w01 = builtin("W01")
    assert w01.rank == {"0": 0, "1": 1, "T": 0}
    expected = set()
    for l_ in ("0", "1"):
        for m in ("0", "1"):
            expected |= {(l_, f"(A,{m})", m, m),
                         (l_, f"(E,{m})", m, "T"), (l_, f"(E,{m})", "T", m)}
    expected |= {("T", sym, "T", "T") for sym in GAME_ALPHABET}
    assert set(w01.transitions) == expected

    indices = [index_of(builtin(n)) for n in ("L", "M01", "K-det", "W01")]
    assert indices == [Index(1, 2), Index(0, 1), Index(0, 1), Index(0, 1)]
    print("criterion 7: PASS (tables and indices verbatim)")


def test_criterion_8_cli_contract(tmp_path, capsys):
    """Round-trips through the CLI for every document kind, the exit-code
    table, and the golden outputs for the builtin emitter."""
    import os

    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # Golden outputs.
    golden_dir = os.path.join(os.path.dirname(__file__), "golden")
    for name in ("L", "M01", "K-det", "K-buchi", "W01", "W01-prime", "UBbin"):
        with open(os.path.join(golden_dir, f"builtin_{name}.json")) as fh:
            want = fh.read()
        code, out, _ = run("builtin", name)
        assert code == 0 and out == want, name

    # Tree documents round-trip through double dualization.
    rng = random.Random(60)
    for i in range(10):
        t = random_regular_tree(GAME_ALPHABET, 6, rng.randrange(10 ** 6))
        path = tmp_path / f"t{i}.json"
        write_doc(path, tree_to_json(t))
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        assert run("dual", "--tree", str(path), "-o", str(once))[0] == 0
        assert run("dual", "--tree", str(once), "-o", str(twice))[0] == 0
        assert bisimilar(load_tree(twice), t)

    # Automaton documents survive emission and reparsing.
    for name in ("L", "K-buchi", "UBbin"):
        code, out, _ = run("builtin", name)
        assert automaton_from_json(json.loads(out)) == builtin(name)

    # Game text round-trips through the solver with identical regions.
    g = game_from_text(game_to_text(
        membership_game(builtin("W01"), constant_tree(GAME_ALPHABET, "(E,0)"))))
    game_path = tmp_path / "g.txt"
    game_path.write_text(game_to_text(g))
    code, out, _ = run("solve", "--game", str(game_path))
    assert code == 0
    doc = json.loads(out)
    res = solve(g)
    assert set(doc["eve_region"]) == res.eve_region
    assert set(doc["adam_region"]) == res.adam_region

    # Code documents drive reduce; the emitted tree parses and classifies.
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps({"kind": "cyl", "assign": {}}))
    tree_path = tmp_path / "u.json"
    write_doc(tree_path, tree_to_json(constant_tree(GAME_ALPHABET, "(A,1)")))
    out_path = tmp_path / "image.json"
    code, out, _ = run("reduce", "--code", str(code_path),
                       "--tree", str(tree_path), "-o", str(out_path))
    assert code == 0 and json.loads(out)["landed_in"] == "W01"
    assert run("gtl", "--tree", str(out_path))[0] == 0

    # Exit codes: 0 positive, 1 negative, 2 input error, 3 precondition.
    one_path = tmp_path / "one.json"
    write_doc(one_path, tree_to_json(constant_tree(BINARY, "1")))
    zero_path = tmp_path / "zero.json"
    write_doc(zero_path, tree_to_json(constant_tree(BINARY, "0")))
    assert run("member", "--automaton", "L", "--tree", str(one_path))[0] == 0
    assert run("member", "--automaton", "L", "--tree", str(zero_path))[0] == 1
    bad_game = tmp_path / "bad.txt"
    bad_game.write_text("parity 1;\n0 1 0 0\n")
    code, _, err = run("solve", "--game", str(bad_game))
    assert code == 2 and "line 2" in err
    assert run("member", "--automaton", "L", "--tree", "missing.json")[0] == 2
    code, out, _ = run("separate", "L", "L", "--samples", "5")
    assert code == 3
    witness_doc = json.loads(out)["witness"]
    assert member(builtin("L"), tree_from_json(witness_doc))
    dead = tmp_path / "dead.json"
    write_doc(dead, automaton_to_json(NPTA(BINARY, ("q",), "q", (), {"q": 0})))
    assert run("sample", "--automaton", str(dead))[0] == 3
    print("criterion 8: PASS (round-trips, exit codes, goldens)")
