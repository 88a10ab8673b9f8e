"""Command-line interface: document round-trips, exit codes, play mode."""

import argparse
import gc
import importlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from treegames.trees import (
    bisimilar,
    constant_tree,
    doc_text,
    load_tree,
    tree_from_json,
    tree_to_json,
)
from treegames.games import game_from_text, game_to_text, solve
from treegames.automata import (
    BINARY,
    GAME_ALPHABET,
    NPTA,
    apta_to_json,
    automaton_from_json,
    automaton_to_json,
    builtin,
    member,
    membership_game,
    npta_to_apta,
)
from treegames.gamelang import ALL_EXISTS_ZERO, ALL_FORALL_ONE
from treegames import cli
from treegames.cli import main

from helpers import ampersand_pair, digits_past_int_limit, write_doc

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, hash_seed="0"):
    """`python -m treegames.cli argv` in a new process, on this source tree."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "treegames.cli", *argv],
                          env=env, capture_output=True, timeout=120)


def write_tree(tmp_path, name, t):
    path = tmp_path / name
    write_doc(path, tree_to_json(t))
    return str(path)


def singleton_file(tmp_path, symbol):
    a = NPTA(BINARY, ("s",), "s", (("s", symbol, "s", "s"),), {"s": 2})
    path = tmp_path / f"single{symbol}.json"
    write_doc(path, automaton_to_json(a))
    return str(path)


# ---------------------------------------------------------------------------
# solve

def test_solve_single_position(tmp_path, capsys):
    game = tmp_path / "g.txt"
    game.write_text("parity 0;\n0 0 0 0;\n")
    code, out, _ = run(capsys, "solve", "--game", str(game))
    assert code == 0
    doc = json.loads(out)
    assert doc["eve_region"] == [0]
    assert doc["adam_region"] == []


def test_solve_golden_file(capsys):
    # A 40-position game with dead ends of both owners and priorities
    # spread over 0..40; pins the regions and every strategy tie-break.
    with open(os.path.join(GOLDEN, "solve_sparse40.json")) as fh:
        want = fh.read()
    code, out, _ = run(capsys, "solve", "--game", os.path.join(GOLDEN, "solve_sparse40.txt"))
    assert code == 0
    assert out == want


def test_solve_reports_parse_error_line(tmp_path, capsys):
    game = tmp_path / "g.txt"
    game.write_text("parity 1;\n0 1 0 0\n")
    code, _, err = run(capsys, "solve", "--game", str(game))
    assert code == 2
    assert "line 2" in err


def test_solve_reads_the_readme_game_example(tmp_path, capsys):
    # The documented format, with a named record and a dead end, still
    # parses: Adam's dead end at 2 is lost by Adam, so Eve wins everywhere.
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"Games use a plain text format.*?```\n(.*?)```", fh.read(), re.S)
    game = tmp_path / "readme.txt"
    game.write_text(block.group(1))
    code, out, err = run(capsys, "solve", "--game", str(game))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"eve_region": [0, 1, 2], "adam_region": [],
                               "eve_strategy": [[0, 1]], "adam_strategy": []}


def test_solve_round_trips_a_membership_game(tmp_path, capsys):
    g = membership_game(builtin("W01"), ALL_EXISTS_ZERO)
    relabeled = game_from_text(game_to_text(g))
    game = tmp_path / "m.txt"
    game.write_text(game_to_text(relabeled))
    code, out, _ = run(capsys, "solve", "--game", str(game))
    assert code == 0
    doc = json.loads(out)
    want = solve(relabeled)
    assert set(doc["eve_region"]) == want.eve_region
    assert set(doc["adam_region"]) == want.adam_region


def test_solve_writes_dot(tmp_path, capsys):
    game = tmp_path / "g.txt"
    game.write_text("parity 1;\n0 1 0 0,1;\n1 0 1 1;\n")
    dot = tmp_path / "g.dot"
    code, _, _ = run(capsys, "solve", "--game", str(game), "--dot", str(dot))
    assert code == 0
    assert "digraph" in dot.read_text()


# ---------------------------------------------------------------------------
# member / member-alt / empty

def test_member_exit_codes(tmp_path, capsys):
    one = write_tree(tmp_path, "one.json", constant_tree(BINARY, "1"))
    zero = write_tree(tmp_path, "zero.json", constant_tree(BINARY, "0"))
    code, out, _ = run(capsys, "member", "--automaton", "L", "--tree", one)
    assert code == 0 and json.loads(out)["member"] is True
    code, out, _ = run(capsys, "member", "--automaton", "L", "--tree", zero)
    assert code == 1 and json.loads(out)["member"] is False


def test_member_requires_a_nondeterministic_automaton(tmp_path, capsys):
    path = tmp_path / "alt.json"
    write_doc(path, apta_to_json(npta_to_apta(builtin("M01"))))
    zero = write_tree(tmp_path, "zero.json", constant_tree(BINARY, "0"))
    code, _, err = run(capsys, "member", "--automaton", str(path), "--tree", zero)
    assert code == 2 and "alternating" in err


def test_member_alt_accepts_both_kinds(tmp_path, capsys):
    path = tmp_path / "alt.json"
    write_doc(path, apta_to_json(npta_to_apta(builtin("M01"))))
    zero = write_tree(tmp_path, "zero.json", constant_tree(BINARY, "0"))
    for ref in (str(path), "M01"):
        code, out, _ = run(capsys, "member-alt", "--automaton", ref, "--tree", zero)
        assert code == 0 and json.loads(out)["member"] is True


def test_member_alt_rejects_bad_ranks_on_load(tmp_path, capsys):
    zero = write_tree(tmp_path, "zero.json", constant_tree(BINARY, "0"))
    for rank in (-1, True):
        doc = apta_to_json(npta_to_apta(builtin("M01")))
        doc["ranks"]["0"] = rank
        path = tmp_path / "alt.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "member-alt", "--automaton", str(path), "--tree", zero)
        assert (code, out) == (2, "") and "rank of" in err, (rank, err)


def test_boolean_node_ids_are_input_errors(tmp_path, capsys):
    # Ids are strings or integers.  JSON's true is neither, though Python
    # takes it for 1, so read as it is it would collide with the id 1.
    two_ids = {"alphabet": ["0", "1"], "root": 1, "nodes": [
        {"id": 1, "label": "1", "left": True, "right": 1},
        {"id": True, "label": "0", "left": 1, "right": 1}]}
    docs = [two_ids]
    for field in ("root", "id", "left", "right"):
        node = {"id": "r", "label": "1", "left": "r", "right": "r"}
        doc = {"alphabet": ["0", "1"], "root": "r", "nodes": [node]}
        (doc if field == "root" else node)[field] = True
        docs.append(doc)
    for doc in docs:
        path = tmp_path / "bool-ids.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "member", "--automaton", "L", "--tree", str(path))
        assert (code, out) == (2, "") and "has the wrong type" in err, (doc, err)


def test_empty_emits_witness_or_flag(tmp_path, capsys):
    code, out, _ = run(capsys, "empty", "--automaton", "UBbin")
    assert code == 0
    doc = json.loads(out)
    assert doc["empty"] is False
    t = tree_from_json(doc["witness"])
    assert member(builtin("UBbin"), t)

    dead = tmp_path / "dead.json"
    write_doc(dead, automaton_to_json(NPTA(BINARY, ("q",), "q", (), {"q": 0})))
    code, out, _ = run(capsys, "empty", "--automaton", str(dead))
    assert code == 1
    assert json.loads(out) == {"empty": True, "witness": None}


# ---------------------------------------------------------------------------
# gtl / reduce

def test_gtl_classifies_the_constants(tmp_path, capsys):
    e0 = write_tree(tmp_path, "e0.json", ALL_EXISTS_ZERO)
    a1 = write_tree(tmp_path, "a1.json", ALL_FORALL_ONE)
    code, out, _ = run(capsys, "gtl", "--tree", e0)
    assert code == 0
    assert json.loads(out) == {"in_W01": True, "in_W01_prime": False}
    code, out, _ = run(capsys, "gtl", "--tree", a1)
    assert code == 0
    assert json.loads(out) == {"in_W01": False, "in_W01_prime": True}


def test_gtl_neither_is_a_negative_decision(tmp_path, capsys):
    from treegames.trees import RegularTree

    t = RegularTree(GAME_ALPHABET, "e", {"e": "(E,1)", "a": "(A,0)"},
                    {"e": "a", "a": "e"}, {"e": "a", "a": "e"})
    path = write_tree(tmp_path, "neither.json", t)
    code, out, _ = run(capsys, "gtl", "--tree", path)
    assert code == 1
    assert json.loads(out) == {"in_W01": False, "in_W01_prime": False}


def test_gtl_rejects_wrong_alphabet(tmp_path, capsys):
    path = write_tree(tmp_path, "bin.json", constant_tree(BINARY, "0"))
    code, _, err = run(capsys, "gtl", "--tree", path)
    assert code == 2 and "alphabet" in err


def test_reduce_pipeline(tmp_path, capsys):
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps({"kind": "cyl", "assign": {}}))
    tree_path = write_tree(tmp_path, "u.json", ALL_FORALL_ONE)
    out_path = tmp_path / "image.json"
    code, out, _ = run(capsys, "reduce", "--code", str(code_path),
                       "--tree", tree_path, "-o", str(out_path))
    assert code == 0
    assert json.loads(out)["landed_in"] == "W01"
    assert bisimilar(load_tree(out_path), ALL_EXISTS_ZERO)

    code_path.write_text(json.dumps(
        {"kind": "neg", "of": {"kind": "cyl", "assign": {}}}))
    code, out, _ = run(capsys, "reduce", "--code", str(code_path),
                       "--tree", tree_path, "-o", str(out_path))
    assert code == 0
    assert json.loads(out)["landed_in"] == "W01_prime"
    assert bisimilar(load_tree(out_path), ALL_FORALL_ONE)


# ---------------------------------------------------------------------------
# separate

def test_separate_singletons(tmp_path, capsys):
    a = singleton_file(tmp_path, "0")
    b = singleton_file(tmp_path, "1")
    out_path = tmp_path / "sep.json"
    code, out, _ = run(capsys, "separate", a, b, "--samples", "5",
                       "-o", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"] is True
    assert doc["report"]["seed"] == 0, "default seed is echoed"
    # The default level is 2^(1*1)+1 = 3: states s@0..s@3, entered at s@3.
    assert doc["separator"]["initial"] == "s@3"
    assert len(doc["separator"]["states"]) == 4
    stored = json.loads(out_path.read_text())
    assert stored == doc["separator"]


def test_separate_level_flag(tmp_path, capsys):
    a = singleton_file(tmp_path, "0")
    b = singleton_file(tmp_path, "1")
    code, out, _ = run(capsys, "separate", a, b, "--samples", "5", "--level", "1")
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True


def test_separate_overlap_exits_3_with_witness(tmp_path, capsys):
    code, out, _ = run(capsys, "separate", "L", "L", "--samples", "5")
    assert code == 3
    doc = json.loads(out)
    t = tree_from_json(doc["witness"])
    assert member(builtin("L"), t)


def test_separate_overlap_of_states_named_with_ampersands(tmp_path, capsys):
    a, b = ampersand_pair()
    a_file, b_file = tmp_path / "a.json", tmp_path / "b.json"
    write_doc(a_file, automaton_to_json(a))
    write_doc(b_file, automaton_to_json(b))
    code, out, _ = run(capsys, "separate", str(a_file), str(b_file))
    assert code == 3
    t = tree_from_json(json.loads(out)["witness"])
    assert member(a, t) and member(b, t)


def test_separate_requires_buchi(tmp_path, capsys):
    a = singleton_file(tmp_path, "0")
    code, _, err = run(capsys, "separate", "K-det", a)
    assert code == 2 and "Büchi" in err


# ---------------------------------------------------------------------------
# dual / sample / builtin / distance

def test_dual_tree_is_an_involution(tmp_path, capsys):
    path = write_tree(tmp_path, "e0.json", ALL_EXISTS_ZERO)
    once = tmp_path / "once.json"
    code, out, _ = run(capsys, "dual", "--tree", path, "-o", str(once))
    assert code == 0
    twice = tmp_path / "twice.json"
    code, _, _ = run(capsys, "dual", "--tree", str(once), "-o", str(twice))
    assert code == 0
    assert bisimilar(load_tree(twice), ALL_EXISTS_ZERO)
    assert bisimilar(load_tree(once), ALL_FORALL_ONE)


def test_dual_automaton_matches_builtin_prime(capsys):
    code, out, _ = run(capsys, "dual", "--automaton", "W01")
    assert code == 0
    assert automaton_from_json(json.loads(out)) == builtin("W01-prime")


def test_dual_needs_exactly_one_input(tmp_path, capsys):
    code, _, err = run(capsys, "dual")
    assert code == 2 and "exactly one" in err


def test_sample_echoes_seed_and_exhaustion(capsys):
    code, out, _ = run(capsys, "sample", "--automaton", "M01",
                       "--samples", "4", "--seed", "11")
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 11 and doc["requested"] == 4
    assert doc["complete"] is False and len(doc["trees"]) == 1
    t = tree_from_json(doc["trees"][0])
    assert member(builtin("M01"), t)


def test_sample_empty_language_is_a_precondition_failure(tmp_path, capsys):
    dead = tmp_path / "dead.json"
    write_doc(dead, automaton_to_json(NPTA(BINARY, ("q",), "q", (), {"q": 2})))
    one = singleton_file(tmp_path, "1")
    for argv in (("sample", "--automaton", str(dead)),
                 ("separate", str(dead), one, "--samples", "5"),
                 ("separate", one, str(dead), "--samples", "5")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and "language is empty" in err, (argv, err)


def test_sample_and_separate_agree_on_a_bad_sample_count(tmp_path, capsys):
    zero, one = singleton_file(tmp_path, "0"), singleton_file(tmp_path, "1")
    for argv in (("sample", "--automaton", zero, "--samples", "0"),
                 ("separate", zero, one, "--samples", "0"),
                 ("separate", "L", "L", "--samples", "0")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "sample count must be positive" in err, (argv, err)


def test_separate_checks_the_level_before_the_overlap(tmp_path, capsys):
    # A negative level is a bad flag value, overlapping languages or not.
    zero, one = singleton_file(tmp_path, "0"), singleton_file(tmp_path, "1")
    for argv in (("separate", zero, one, "--level", "-1"),
                 ("separate", "L", "L", "--level", "-1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "level must be nonnegative" in err, (argv, err)


def test_builtin_output_reparses(capsys):
    for name in ("L", "M01", "K-det", "K-buchi", "W01", "W01-prime", "UBbin"):
        code, out, _ = run(capsys, "builtin", name)
        assert code == 0
        assert automaton_from_json(json.loads(out)) == builtin(name)
    code, _, err = run(capsys, "builtin", "wat")
    assert code == 2 and "wat" in err


def test_mik_past_its_rank_cap_is_an_input_error(tmp_path, capsys):
    # Mik(i,k) has (k+1)^2 transitions, so k from the command line is capped
    # wherever a builtin name is taken.
    code, out, _ = run(capsys, "builtin", "Mik(0,100)")
    assert code == 0 and len(json.loads(out)["transitions"]) == 101 ** 2
    tree = write_tree(tmp_path, "t.json", constant_tree(BINARY, "0"))
    for argv in (("builtin", "Mik(0,101)"), ("member", "--automaton", "Mik(1,101)", "--tree", tree),
                 ("member-alt", "--automaton", "Mik(0,999)", "--tree", tree),
                 ("separate", "L", "Mik(0,101)")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: Mik(i,k) takes k up to 100\n"), argv


def test_console_script_entry_point(monkeypatch, capsys):
    # The target that pyproject.toml names for the installed `treegames`
    # command, called as the script wrapper calls it.
    with open(os.path.join(os.path.dirname(GOLDEN), os.pardir, "pyproject.toml")) as fh:
        scripts = fh.read().split("[project.scripts]\n")[1].split("\n[")[0]
    module, func = re.fullmatch(r'treegames = "([\w.]+):(\w+)"\n*', scripts).groups()
    monkeypatch.setattr(sys, "argv", ["treegames", "builtin", "L"])
    with pytest.raises(SystemExit) as info:
        getattr(importlib.import_module(module), func)()
    assert info.value.code == 0
    with open(os.path.join(GOLDEN, "builtin_L.json")) as fh:
        assert capsys.readouterr().out == fh.read()


def test_builtin_golden_files(capsys):
    for name in ("L", "M01", "K-det", "K-buchi", "W01", "W01-prime", "UBbin"):
        with open(os.path.join(GOLDEN, f"builtin_{name}.json")) as fh:
            want = fh.read()
        _, out, _ = run(capsys, "builtin", name)
        assert out == want, f"golden drift for {name}"


def test_separate_and_empty_golden_files(tmp_path, capsys):
    # Pins the whole separator document, the sampled report, the emptiness
    # witness and a run of sampled trees, none of which other tests compare
    # exactly.
    from treegames.separation import example_pairs

    pair = next(p for p in example_pairs() if p.name == "leftmost0-vs-leftmost1")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_doc(a, automaton_to_json(pair.a))
    write_doc(b, automaton_to_json(pair.b))
    cases = [
        ("separate_leftmost0-vs-leftmost1_level2.json",
         ["separate", str(a), str(b), "--level", "2", "--samples", "5"]),
        ("empty_UBbin.json", ["empty", "--automaton", "UBbin"]),
        ("sample_L_n20_seed5.json",
         ["sample", "--automaton", "L", "--samples", "20", "--seed", "5"]),
    ]
    for golden, argv in cases:
        with open(os.path.join(GOLDEN, golden)) as fh:
            want = fh.read()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == want, f"golden drift for {golden}"


def test_distance_command(tmp_path, capsys):
    e0 = write_tree(tmp_path, "e0.json", ALL_EXISTS_ZERO)
    a1 = write_tree(tmp_path, "a1.json", ALL_FORALL_ONE)
    code, out, _ = run(capsys, "distance", e0, a1)
    assert code == 0
    assert json.loads(out) == {"distance": "1", "bisimilar": False}
    code, out, _ = run(capsys, "distance", e0, e0)
    assert code == 0
    assert json.loads(out) == {"distance": "0", "bisimilar": True}


# ---------------------------------------------------------------------------
# play

def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def test_play_adam_loses_his_own_constant(tmp_path, capsys, monkeypatch):
    path = write_tree(tmp_path, "a1.json", ALL_FORALL_ONE)
    feed(monkeypatch, "1\n1\n1\n")
    code, out, _ = run(capsys, "play", "--tree", path, "--as", "adam")
    assert code == 0
    verdict = json.loads(out.strip().splitlines()[-1])
    assert verdict["verdict"] == "adam"
    assert verdict["cycle_max_priority"] == 1


def test_play_eve_wins_her_constant(tmp_path, capsys, monkeypatch):
    path = write_tree(tmp_path, "e0.json", ALL_EXISTS_ZERO)
    feed(monkeypatch, "2\n2\n")
    code, out, _ = run(capsys, "play", "--tree", path, "--as", "eve")
    assert code == 0
    verdict = json.loads(out.strip().splitlines()[-1])
    assert verdict["verdict"] == "eve"


def test_play_reprompts_on_garbage(tmp_path, capsys, monkeypatch):
    path = write_tree(tmp_path, "e0.json", ALL_EXISTS_ZERO)
    feed(monkeypatch, "x\n\n1\n")
    code, out, _ = run(capsys, "play", "--tree", path, "--as", "eve")
    assert code == 0
    assert "enter 1 or 2" in out


def test_play_eof_dumps_transcript(tmp_path, capsys, monkeypatch):
    path = write_tree(tmp_path, "e0.json", ALL_EXISTS_ZERO)
    feed(monkeypatch, "")
    code, out, _ = run(capsys, "play", "--tree", path, "--as", "eve")
    assert code == 2
    assert json.loads(out.strip().splitlines()[-1])["verdict"] is None


def test_play_engine_turns_left_when_it_must(tmp_path, capsys, monkeypatch):
    from treegames.trees import RegularTree

    # Eve owns every node; only the left subtree keeps the bit at 0, so the
    # engine playing Eve has to move left at the root.
    t = RegularTree(GAME_ALPHABET, "r",
                    {"r": "(E,0)", "good": "(E,0)", "bad": "(E,1)"},
                    {"r": "good", "good": "good", "bad": "bad"},
                    {"r": "bad", "good": "good", "bad": "bad"})
    path = write_tree(tmp_path, "must.json", t)
    feed(monkeypatch, "")
    code, out, _ = run(capsys, "play", "--tree", path, "--as", "adam")
    assert code == 0
    assert "engine moves 1" in out
    assert json.loads(out.strip().splitlines()[-1])["verdict"] == "eve"


# ---------------------------------------------------------------------------
# flag handling

def test_unknown_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gtl", "--tree", "x.json", "--frobnicate"])
    assert info.value.code == 2


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "gtl", "--tree", "no-such-file.json")
    assert code == 2 and err
    tree = write_tree(tmp_path, "t.json", ALL_EXISTS_ZERO)
    missing = str(tmp_path / "missing.json")
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{not json")
    not_utf8 = tmp_path / "not-utf8.txt"
    not_utf8.write_bytes(b"\xff")
    # Documents nested deeper than the readers' recursion goes.
    deep_code = tmp_path / "deep-code.json"
    deep_code.write_text('{"kind": "neg", "of": ' * 3000 + '{"kind": "cyl", "assign": {}}'
                         + "}" * 3000)
    deep_apta = tmp_path / "deep-apta.json"
    doc = apta_to_json(npta_to_apta(builtin("M01")))
    doc["delta"][0]["formula"] = "deep"
    deep_apta.write_text(json.dumps(doc).replace(
        '"deep"', '{"op": "and", "parts": [' * 3000 + '{"op": "true"}' + "]}" * 3000))
    zero = write_tree(tmp_path, "zero.json", constant_tree(BINARY, "0"))
    for argv, expected in (
        (("solve", "--game", missing), missing),
        (("member", "--automaton", missing, "--tree", tree), missing),
        (("reduce", "--code", missing, "--tree", tree), missing),
        (("reduce", "--code", str(invalid), "--tree", tree), str(invalid)),
        (("solve", "--game", str(not_utf8)), str(not_utf8)),
        (("reduce", "--code", str(deep_code), "--tree", tree), "recursion"),
        (("member-alt", "--automaton", str(deep_apta), "--tree", zero), "recursion"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and expected in err, (argv, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_numbers_past_the_digit_limit_are_input_errors(tmp_path, capsys):
    # int()'s digit-limit error used to escape with no line or file named.
    huge = digits_past_int_limit()
    if huge is None:
        pytest.skip("int() has no digit limit here")
    game = tmp_path / "huge.txt"
    game.write_text(f"parity 1;\n0 {huge} 0 0;\n")
    tree = tmp_path / "huge.json"
    tree.write_text(f'{{"alphabet": ["0"], "root": {huge}, "nodes": []}}')
    for argv, expected in ((("solve", "--game", str(game)), "error: line 2: "),
                           (("gtl", "--tree", str(tree)), f"error: {tree}: not valid JSON: "),
                           (("builtin", f"Mik(0,{huge})"), "error: Mik(i,k): "),
                           (("empty", "--automaton", f"Mik({huge},1)"), "error: Mik(i,k): "),
                           (("separate", f"Mik(1,{huge})", "L"), "error: Mik(i,k): ")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(expected), (argv, err)
        # The library's own words, not int()'s advice to raise the limit.
        assert err == f"{expected}number has more than {len(huge) - 1} digits\n", (argv, err)
        assert "set_int_max_str_digits" not in err, (argv, err)


def test_unhashable_symbols_and_states_are_input_errors(tmp_path, capsys):
    # A list among the symbols or states used to escape main as a TypeError
    # from a set() taken before the type check, exiting 1 like a verdict.
    header = {"states": ["q"], "initial": "q", "ranks": {"q": 0}, "transitions": []}
    cases = {
        "list-symbol.json": ("empty", "--automaton", dict(header, alphabet=["0", ["0", "1"]])),
        "list-state.json": ("empty", "--automaton",
                            dict(header, alphabet=["0", "1"], states=["q", ["x"]])),
        "list-tree-symbol.json": ("gtl", "--tree", {
            "alphabet": ["(E,0)", ["(E,1)"]], "root": "r",
            "nodes": [{"id": "r", "label": "(E,0)", "left": "r", "right": "r"}]}),
    }
    messages = ("symbol ['0', '1'] is not a string", "state ['x'] is not a string",
                "symbol ['(E,1)'] is not a string")
    for (name, (command, flag, doc)), message in zip(cases.items(), messages):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, flag, str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n"), name


def test_repeated_calls_do_not_leak_flags(tmp_path, capsys):
    # The argument parser is built once per process; a flag given to one
    # call is not seen by the next.
    a, b = singleton_file(tmp_path, "0"), singleton_file(tmp_path, "1")
    runs = [run(capsys, "separate", a, b, "--samples", "5", *level)
            for level in ((), ("--level", "2"), ())]
    assert runs[0] == runs[2] and runs[0][0] == 0
    assert json.loads(runs[1][1])["separator"] != json.loads(runs[0][1])["separator"]
    game = tmp_path / "g.txt"
    game.write_text("parity 1;\n0 1 0 0,1;\n1 0 1 1;\n")
    dot = tmp_path / "g.dot"
    with_dot = run(capsys, "solve", "--game", str(game), "--dot", str(dot))
    dot.unlink()
    assert run(capsys, "solve", "--game", str(game)) == with_dot
    assert not dot.exists()


def test_main_restores_the_collector_state(tmp_path, capsys, monkeypatch):
    # A command runs with the cyclic collector paused.  However it ends (an
    # answer, an input error, a precondition failure or an exception main
    # does not catch), the collector is left on or off as the caller had it.
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    cases = ((("builtin", "L"), 0), (("gtl", "--tree", str(bad)), 2),
             (("separate", "L", "L", "--samples", "5"), 3))
    during = []

    def interrupt(name):
        during.append(gc.isenabled())
        raise KeyboardInterrupt

    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, code in cases:
                assert run(capsys, *argv)[0] == code, argv
                assert gc.isenabled() is enabled, (enabled, argv)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "builtin", interrupt)
                with pytest.raises(KeyboardInterrupt):
                    main(["builtin", "L"])
            assert gc.isenabled() is enabled, (enabled, "interrupted")
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]


def document_commands(tmp_path) -> list:
    """(argv, part) for one run of every command but play: each prints one
    document, and -o writes the printed document's `part` there, or the
    whole document when part is None."""
    e0 = write_tree(tmp_path, "e0.json", ALL_EXISTS_ZERO)
    a1 = write_tree(tmp_path, "a1.json", ALL_FORALL_ONE)
    zero = write_tree(tmp_path, "zero.json", constant_tree(BINARY, "0"))
    game = tmp_path / "g.txt"
    game.write_text("parity 1;\n0 1 0 0,1;\n1 0 1 1;\n")
    code = tmp_path / "code.json"
    code.write_text(json.dumps({"kind": "cyl", "assign": {}}))
    return [
        (("solve", "--game", str(game)), None),
        (("member", "--automaton", "L", "--tree", zero), None),
        (("member-alt", "--automaton", "M01", "--tree", zero), None),
        (("empty", "--automaton", "UBbin"), None),
        (("gtl", "--tree", e0), None),
        (("reduce", "--code", str(code), "--tree", a1), "tree"),
        (("separate", singleton_file(tmp_path, "0"), singleton_file(tmp_path, "1"),
          "--samples", "5"), "separator"),
        (("dual", "--tree", e0), None),
        (("sample", "--automaton", "L", "--samples", "3"), None),
        (("builtin", "M01"), None),
        (("distance", e0, a1), None),
    ]


def test_document_commands_are_every_command_but_play(tmp_path):
    commands = next(action.choices for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert sorted(argv[0] for argv, _ in document_commands(tmp_path)) == sorted(
        set(commands) - {"play"})


# Each command's arguments in order, as (option strings, dest, required,
# default, type, choices, metavar, nargs, help); argparse's own -h left out.
OUTPUT = (("-o", "--output"), "output", False, None, None, None, "FILE", None,
          "also write the artifact to FILE")
AUTOMATON = (("--automaton",), "automaton", True, None, None, None, "FILE", None,
             "automaton JSON file or builtin name")
TREE = (("--tree",), "tree", True, None, None, None, "FILE", None, None)
ARGUMENTS = {
    "solve": [
        (("--game",), "game", True, None, None, None, "FILE", None, None),
        (("--dot",), "dot", False, None, None, None, "FILE", None,
         "write a DOT rendering with winning regions colored"),
        OUTPUT],
    "member": [AUTOMATON, TREE, OUTPUT],
    "member-alt": [AUTOMATON, TREE, OUTPUT],
    "empty": [AUTOMATON, OUTPUT],
    "gtl": [TREE, OUTPUT],
    "reduce": [(("--code",), "code", True, None, None, None, "FILE", None, None),
               TREE, OUTPUT],
    "separate": [
        ((), "a", True, None, None, None, "A", None, "automaton JSON file or builtin name"),
        ((), "b", True, None, None, None, "B", None, "automaton JSON file or builtin name"),
        (("--samples",), "samples", False, 100, int, None, "N", None, None),
        (("--seed",), "seed", False, 0, int, None, "N", None, None),
        (("--level",), "level", False, None, int, None, "N", None,
         "hierarchy level to emit (default: the full bound)"),
        OUTPUT],
    "dual": [(("--tree",), "tree", False, None, None, None, "FILE", None, None),
             (("--automaton",), "automaton", False, None, None, None, "FILE", None, None),
             OUTPUT],
    "play": [TREE, (("--as",), "side", True, None, None, ("eve", "adam"), None, None, None)],
    "sample": [AUTOMATON,
               (("--samples",), "samples", False, 10, int, None, "N", None, None),
               (("--seed",), "seed", False, 0, int, None, "N", None, None),
               OUTPUT],
    "builtin": [((), "name", True, None, None, None, None, None,
                 "one of: L, M01, K-det, K-buchi, W01, W01-prime, UBbin, Mik(i,k)"),
                OUTPUT],
    "distance": [((), "t1", True, None, None, None, "T1", None, None),
                 ((), "t2", True, None, None, None, "T2", None, None),
                 OUTPUT],
}


def test_every_command_keeps_its_arguments_in_order():
    # The actions, not the help text, which argparse words differently
    # from one Python version to the next.  -o comes last on every
    # command but play, so usage lines and errors keep their order.
    commands = next(action.choices for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert list(commands) == list(ARGUMENTS)
    for name, parser in commands.items():
        got = [(tuple(a.option_strings), a.dest, a.required, a.default, a.type, a.choices,
                a.metavar, a.nargs, a.help)
               for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert got == ARGUMENTS[name], name
        assert (got[-1] == OUTPUT) == (name != "play") and (OUTPUT in got) == (name != "play")


def test_output_file_holds_the_printed_document(tmp_path, capsys):
    # -o changes nothing that is printed, and writes the printed bytes:
    # reduce writes its tree alone and separate its separator alone.
    written = tmp_path / "out.json"
    for argv, part in document_commands(tmp_path):
        code, out, err = run(capsys, *argv, "-o", str(written))
        assert code in (0, 1) and err == "", (argv, err)
        assert run(capsys, *argv) == (code, out, err), argv
        want = out if part is None else doc_text(json.loads(out)[part])
        assert written.read_text() == want, argv


def test_unwritable_output_prints_nothing(tmp_path, capsys):
    nowhere = str(tmp_path / "nodir" / "x.json")
    commands = [argv for argv, _ in document_commands(tmp_path)]
    solve = commands[0]
    dot = tmp_path / "g.dot"
    for argv in [argv + ("-o", nowhere) for argv in commands] + [
            solve + ("--dot", nowhere), solve + ("--dot", str(dot), "-o", nowhere)]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert nowhere in err
    # The DOT file is written before the document is, so it is whole.
    assert dot.read_text().startswith("digraph")


def test_module_run_prints_a_builtin():
    proc = run_module("builtin", "M01")
    assert (proc.returncode, proc.stderr) == (0, b"")
    with open(os.path.join(GOLDEN, "builtin_M01.json"), "rb") as fh:
        assert proc.stdout == fh.read()


def test_separate_output_does_not_depend_on_the_hash_seed(tmp_path):
    # Positions are hashed tuples of strings and formulas; two string hash
    # seeds give two iteration orders of every set and dict keyed by them.
    from treegames.separation import example_pairs

    pair = next(p for p in example_pairs() if p.name == "leftmost0-vs-leftmost1")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_doc(a, automaton_to_json(pair.a))
    write_doc(b, automaton_to_json(pair.b))
    outs = []
    for hash_seed in ("0", "1"):
        proc = run_module("separate", str(a), str(b), "--level", "2", "--samples", "5",
                          hash_seed=hash_seed)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
