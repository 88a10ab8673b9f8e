"""Seeded fuzzing of the command line on structurally mutated documents.

Each run takes valid inputs (a builtin NPTA, an APTA, random trees, a
Borel code, a game text and a disjoint Büchi pair), changes one of them by one to three
structural mutations and runs every command that reads it through
cli.main in process.  Whatever the input, no exception may escape main,
the exit code must be one of the documented 0..3, no run may take longer
than RUN_SECONDS, and a game text that `solve` rejects is rejected with
its line, the game or the file named.  No run may leave a reference cycle
behind: main pauses the cyclic collector, so garbage in cycles would only
be found later, if at all."""

import contextlib
import copy
import gc
import io
import json
import random
import re
import time

import pytest

from treegames.automata import (
    BINARY,
    BUILTIN_NAMES,
    GAME_ALPHABET,
    apta_to_json,
    automaton_to_json,
    builtin,
    npta_to_apta,
)
from treegames.gamelang import code_to_json
from treegames.games import game_to_text
from treegames.separation import build_hierarchy, example_pairs
from treegames.trees import tree_to_json
from treegames.cli import main

from helpers import digits_past_int_limit, random_code, random_game, random_regular_tree

# Values a mutation may put in place of another: every JSON type, the
# edges of the int range the readers take, and names the documents use.
ODD_VALUES = [None, True, False, 0, -1, 1.5, 10 ** 30, "", "0", "1", "q", "(E,0)",
              "s@0", [], {}, [[[]]], {"op": "atom"}, {"kind": "neg"}]

# A token past int()'s digit limit where there is one, a long number where
# there is none, so that the random stream is the same everywhere.
HUGE = digits_past_int_limit() or "9" * 4301

# Bound on one run's wall-clock time; runs take a few milliseconds, so a
# run past it has hit a blow-up rather than a slow machine.
RUN_SECONDS = 5

# Commands and their inputs by role: "npta", "apta", "tree" (binary),
# "gtree" (game alphabet), "code", "game", and "a" and "b" (a disjoint
# Büchi pair).  Separation runs at a low level and the samplers draw few
# trees, so every run stays small.
COMMANDS = [
    ["member", "--automaton", "npta", "--tree", "tree"],
    ["member-alt", "--automaton", "apta", "--tree", "tree"],
    ["member-alt", "--automaton", "npta", "--tree", "tree"],
    ["empty", "--automaton", "npta"],
    ["gtl", "--tree", "gtree"],
    ["reduce", "--code", "code", "--tree", "gtree"],
    ["separate", "a", "b", "--samples", "3", "--level", "1"],
    ["sample", "--automaton", "npta", "--samples", "3"],
    ["dual", "--tree", "gtree"],
    ["dual", "--automaton", "npta"],
    ["distance", "tree", "tree2"],
    ["solve", "--game", "game"],
]


def odd_value(rng):
    # A fresh copy: a mutation may later change what it inserted.
    return copy.deepcopy(rng.choice(ODD_VALUES))


def containers(doc):
    """Every list and dict inside doc, doc itself included."""
    found, todo = [], [doc]
    while todo:
        v = todo.pop()
        if isinstance(v, (list, dict)):
            found.append(v)
            todo.extend(v.values() if isinstance(v, dict) else v)
    return found


def leaves(doc):
    return [v for c in containers(doc) for v in (c.values() if isinstance(c, dict) else c)
            if not isinstance(v, (list, dict))]


def mutate(rng, doc):
    """One structural change somewhere in doc, in place."""
    target = rng.choice(containers(doc))
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    kind = rng.randrange(6) if keys else 5
    if kind == 0:
        del target[rng.choice(keys)]
    elif kind == 1:
        target[rng.choice(keys)] = odd_value(rng)
    elif kind == 2:
        # A value taken from elsewhere in the document: a state where a
        # letter was, a node id where a label was, and the like.
        target[rng.choice(keys)] = rng.choice(leaves(doc) or [None])
    elif kind == 3 and isinstance(target, list):
        target.insert(rng.randrange(len(target) + 1), copy.deepcopy(rng.choice(target)))
    elif kind == 3:
        key = rng.choice(keys)
        renamed = key + "x" if rng.random() < 0.5 else rng.choice(["", "0", "q", "(E,0)"])
        target[renamed] = target.pop(key)
    elif kind == 4:
        a, b = rng.choice(keys), rng.choice(keys)
        target[a], target[b] = target[b], target[a]
    elif isinstance(target, list):
        target.append(odd_value(rng))
    else:
        target[rng.choice(["id", "root", "states", "delta", "tail", "left"])] = odd_value(rng)


def mutate_text(rng, text):
    """One structural change to a game text: a line dropped, repeated or
    swapped, or a token dropped, repeated or replaced, among others by a
    number past int()'s digit limit."""
    lines = text.splitlines()
    kind = rng.randrange(4)
    i = rng.randrange(len(lines))
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = lines[i].split(" ")
        k = rng.randrange(len(tokens))
        tokens[k] = rng.choice(["", "-1", "2", "99", "0,0", ";", '"x"', "1e3", tokens[k] * 2,
                                HUGE])
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def valid_inputs(rng):
    a = builtin(rng.choice([n for n in BUILTIN_NAMES if n not in ("W01", "W01-prime")]))
    apta = rng.choice([npta_to_apta(builtin("M01")), build_hierarchy(builtin("L"), 1).top])
    pair = rng.choice(example_pairs())
    return {
        "a": automaton_to_json(pair.a),
        "b": automaton_to_json(pair.b),
        "npta": automaton_to_json(a),
        # Read back from its text: apta_to_json shares the document of a
        # formula object held in several places, and mutate edits in place.
        "apta": json.loads(json.dumps(apta_to_json(apta))),
        "tree": tree_to_json(random_regular_tree(BINARY, 5, rng.randrange(10 ** 6))),
        "tree2": tree_to_json(random_regular_tree(BINARY, 5, rng.randrange(10 ** 6))),
        "gtree": tree_to_json(random_regular_tree(GAME_ALPHABET, 5, rng.randrange(10 ** 6))),
        "code": code_to_json(random_code(rng, 2)),
        "game": game_to_text(random_game(rng, 8, 4, 3)),
    }


def run(argv):
    # main's exit code and what it wrote to stderr.
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@pytest.fixture
def fresh_heap():
    # The first call builds the argument parser, which leaves garbage in
    # cycles once per process.  After it is collected, every object there
    # is is left out of later collections, so each gc.collect() in the
    # test scans only what the test made since.
    run(["builtin", "L"])
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


def test_mutated_documents_never_crash_the_cli(tmp_path, fresh_heap):
    rng = random.Random(20261019)
    codes = set()
    for trial in range(300):
        docs = valid_inputs(rng)
        role = rng.choice(sorted(docs))
        if role == "game":
            for _ in range(rng.randint(1, 3)):
                docs[role] = mutate_text(rng, docs[role])
        else:
            for _ in range(rng.randint(1, 3)):
                mutate(rng, docs[role])
        paths = {}
        for name, doc in docs.items():
            path = tmp_path / name
            path.write_text(doc if name == "game" else json.dumps(doc))
            paths[name] = str(path)
        for argv in COMMANDS:
            if role not in argv:
                continue
            argv = [paths.get(arg, arg) for arg in argv]
            # Paused for the whole run, so that no collection after main
            # returns can take away what the command left.
            gc.disable()
            try:
                start = time.perf_counter()
                code, err = run(argv)
                seconds = time.perf_counter() - start
            finally:
                gc.enable()
            assert gc.collect() == 0, (trial, argv)
            assert code in (0, 1, 2, 3), (trial, argv, docs[role])
            assert seconds <= RUN_SECONDS, (trial, argv, seconds)
            if argv[0] == "solve" and code == 2:
                assert (re.search(r"line \d+: |inconsistent game: ", err)
                        or paths["game"] in err), (trial, err)
            codes.add(code)
    # The mutations reach both the decisions and the input checks.
    assert {0, 1, 2} <= codes
