"""Command-line front end.

Every command reads its inputs from files (or builtin automaton names),
prints one JSON document to stdout, and exits with:

    0   success / positive decision
    1   negative decision (non-member, empty language, failed report)
    2   input error (unreadable, malformed or over-deep file, bad flag value)
    3   precondition failure (separator requested for overlapping languages,
        sampling an empty language)

`-o FILE` additionally writes the command's artifact to FILE.  `play` is
the one interactive command: a human plays one side of the tree game
against the solver's strategy until the play closes a cycle.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .trees import (
    TreeError,
    doc_text,
    load_tree,
    read_doc,
    read_text,
    rename_tree,
    tree_distance,
    tree_to_json,
)
from .games import (
    ADAM,
    EVE,
    GameError,
    game_from_text,
    game_to_dot,
    solve,
)
from .automata import (
    BUILTIN_NAMES,
    DUALITY,
    NPTA,
    AutomatonError,
    apta_to_json,
    automaton_to_json,
    builtin,
    is_builtin_name,
    load_automaton,
    member,
    member_alt,
    npta_to_apta,
    rename_automaton,
    witness,
)
from .gamelang import (
    _w01_verdicts,
    code_from_json,
    game_of_tree,
    in_w01,
    reduce_borel,
)
from .separation import (
    EmptyLanguage,
    NotDisjoint,
    report_to_json,
    sample_language,
    synthesize_separator,
    verify_separation,
)


def _emit(doc, out_path=None, artifact=None) -> None:
    """Print doc; with out_path, also write artifact (default: doc) there.
    The file is opened first, so an unwritable path prints nothing."""
    text = doc_text(doc)
    with open(out_path, "w") if out_path else nullcontext() as fh:
        sys.stdout.write(text)
        if fh:
            fh.write(text if artifact is None else doc_text(artifact))


def _load_npta(ref: str) -> NPTA:
    a = _load_any_automaton(ref)
    if not isinstance(a, NPTA):
        raise AutomatonError(f"{ref} is an alternating automaton; "
                             "a nondeterministic one is required")
    return a


def _load_any_automaton(ref: str):
    # Builtin names double as automaton arguments; anything else is a path.
    if is_builtin_name(ref):
        return builtin(ref)
    return load_automaton(ref)


# ---------------------------------------------------------------------------
# Commands.

def cmd_solve(args) -> int:
    g = game_from_text(read_text(args.game, GameError, "game text"))
    res = solve(g)
    eve, adam = res.eve_strategy.choice, res.adam_strategy.choice
    doc = {
        "eve_region": sorted(res.eve_region),
        "adam_region": sorted(res.adam_region),
        "eve_strategy": [[v, eve[v]] for v in sorted(eve)],
        "adam_strategy": [[v, adam[v]] for v in sorted(adam)],
    }
    # Opened before anything is printed, as _emit does with -o.
    with open(args.dot, "w") if args.dot else nullcontext() as dot:
        _emit(doc, args.output)
        if dot:
            dot.write(game_to_dot(g, res))
    return 0


def cmd_member(args) -> int:
    a = _load_npta(args.automaton)
    t = load_tree(args.tree)
    verdict = member(a, t)
    _emit({"member": verdict}, args.output)
    return 0 if verdict else 1


def cmd_member_alt(args) -> int:
    a = _load_any_automaton(args.automaton)
    if isinstance(a, NPTA):
        a = npta_to_apta(a)
    t = load_tree(args.tree)
    verdict = member_alt(a, t)
    _emit({"member": verdict}, args.output)
    return 0 if verdict else 1


def cmd_empty(args) -> int:
    a = _load_npta(args.automaton)
    w = witness(a)
    doc = {"empty": w is None,
           "witness": None if w is None else tree_to_json(w)}
    _emit(doc, args.output)
    return 1 if w is None else 0


def cmd_gtl(args) -> int:
    t = load_tree(args.tree)
    first, second = _w01_verdicts(t)
    _emit({"in_W01": first, "in_W01_prime": second}, args.output)
    return 0 if first or second else 1


def cmd_reduce(args) -> int:
    code = code_from_json(read_doc(args.code, TreeError))
    t = load_tree(args.tree)
    image = reduce_borel(code, t)
    landed = "W01" if in_w01(image) else "W01_prime"
    tree = tree_to_json(image)
    # The artifact is the tree document alone, for other commands to load.
    _emit({"landed_in": landed, "tree": tree}, args.output, tree)
    return 0


def cmd_separate(args) -> int:
    a = _load_npta(args.a)
    b = _load_npta(args.b)
    if args.samples < 1:
        raise ValueError("sample count must be positive")
    separator = synthesize_separator(a, b, level=args.level)
    report = verify_separation(separator, a, b, args.samples, args.seed)
    artifact = apta_to_json(separator)
    _emit({"separator": artifact, "report": report_to_json(report)}, args.output, artifact)
    return 0 if report.passed else 1


def cmd_dual(args) -> int:
    if (args.tree is None) == (args.automaton is None):
        raise TreeError("dual needs exactly one of --tree or --automaton")
    if args.tree is not None:
        doc = tree_to_json(rename_tree(load_tree(args.tree), DUALITY))
    else:
        doc = automaton_to_json(rename_automaton(_load_npta(args.automaton), DUALITY))
    _emit(doc, args.output)
    return 0


def cmd_sample(args) -> int:
    a = _load_npta(args.automaton)
    result = sample_language(a, args.samples, args.seed)
    doc = {
        "seed": args.seed,
        "requested": result.requested,
        "complete": result.complete,
        "trees": [tree_to_json(t) for t in result.trees],
    }
    _emit(doc, args.output)
    return 0


def cmd_builtin(args) -> int:
    a = builtin(args.name)
    _emit(automaton_to_json(a), args.output)
    return 0


def cmd_distance(args) -> int:
    t1 = load_tree(args.t1)
    t2 = load_tree(args.t2)
    d = tree_distance(t1, t2)
    _emit({"distance": str(d), "bisimilar": d == 0}, args.output)
    return 0


def cmd_play(args) -> int:
    t = load_tree(args.tree)
    g = game_of_tree(t)
    res = solve(g)
    human = EVE if args.side == "eve" else ADAM
    engine = 1 - human
    engine_choice = (res.eve_strategy if engine == EVE else res.adam_strategy).choice
    names, index = g.positions, g.index

    # The play runs on position ids; names are read to talk to the human.
    current = 0
    path = [current]
    seen = {current: 0}
    print(f"playing {'Eve' if human == EVE else 'Adam'}; "
          "moves are 1 (left) or 2 (right)")
    while True:
        v = names[current]
        succ = g.succs[current]
        label = t.label[v]
        if g.owners[current] == human:
            move = None
            while move is None:
                try:
                    raw = input(f"at {v} [{label}] your move (1/2): ").strip()
                except EOFError:
                    print()
                    print(json.dumps({"transcript": [names[i] for i in path], "verdict": None},
                                     sort_keys=True))
                    return 2
                if raw == "1":
                    move = succ[0]
                elif raw == "2":
                    move = succ[1]
                else:
                    print("enter 1 or 2")
        else:
            move = index[engine_choice[v]] if v in engine_choice else succ[0]
            direction = "1" if move == succ[0] else "2"
            print(f"at {v} [{label}] engine moves {direction}")
        current = move
        if current in seen:
            cycle = path[seen[current]:]
            top = max(g.prios[i] for i in cycle)
            verdict = "eve" if top % 2 == 0 else "adam"
            print()
            print(json.dumps({"transcript": [names[i] for i in path + [current]],
                              "cycle": [names[i] for i in cycle],
                              "cycle_max_priority": top,
                              "verdict": verdict}, sort_keys=True))
            return 0
        seen[current] = len(path)
        path.append(current)


# ---------------------------------------------------------------------------
# Argument parsing.

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treegames",
        description="parity games, tree automata and separators "
                    "on regular infinite binary trees")
    sub = parser.add_subparsers(dest="command", required=True)

    def output_flag(p):
        p.add_argument("-o", "--output", metavar="FILE", default=None,
                       help="also write the artifact to FILE")

    def automaton_flag(p):
        p.add_argument("--automaton", required=True, metavar="FILE",
                       help="automaton JSON file or builtin name")

    p = sub.add_parser("solve", help="solve a parity game (text format)")
    p.add_argument("--game", required=True, metavar="FILE")
    p.add_argument("--dot", metavar="FILE", default=None,
                   help="write a DOT rendering with winning regions colored")
    output_flag(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("member", help="run-based membership test")
    automaton_flag(p)
    p.add_argument("--tree", required=True, metavar="FILE")
    output_flag(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("member-alt", help="acceptance-game membership test")
    automaton_flag(p)
    p.add_argument("--tree", required=True, metavar="FILE")
    output_flag(p)
    p.set_defaults(func=cmd_member_alt)

    p = sub.add_parser("empty", help="emptiness test with witness tree")
    automaton_flag(p)
    output_flag(p)
    p.set_defaults(func=cmd_empty)

    p = sub.add_parser("gtl", help="membership in the game tree languages")
    p.add_argument("--tree", required=True, metavar="FILE")
    output_flag(p)
    p.set_defaults(func=cmd_gtl)

    p = sub.add_parser("reduce", help="apply a Borel code's reduction to a tree")
    p.add_argument("--code", required=True, metavar="FILE")
    p.add_argument("--tree", required=True, metavar="FILE")
    output_flag(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("separate",
                       help="synthesize and verify a separator for two "
                            "disjoint Büchi automata")
    p.add_argument("a", metavar="A", help="automaton JSON file or builtin name")
    p.add_argument("b", metavar="B", help="automaton JSON file or builtin name")
    p.add_argument("--samples", type=int, default=100, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--level", type=int, default=None, metavar="N",
                   help="hierarchy level to emit (default: the full bound)")
    output_flag(p)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("dual", help="apply the owner/bit duality renaming")
    p.add_argument("--tree", metavar="FILE", default=None)
    p.add_argument("--automaton", metavar="FILE", default=None)
    output_flag(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("play", help="play the tree game against the solver")
    p.add_argument("--tree", required=True, metavar="FILE")
    p.add_argument("--as", dest="side", choices=("eve", "adam"), required=True)
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("sample", help="sample distinct members of a language")
    automaton_flag(p)
    p.add_argument("--samples", type=int, default=10, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    output_flag(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("builtin", help="emit a builtin automaton as JSON")
    p.add_argument("name", help="one of: " + ", ".join(BUILTIN_NAMES) +
                                ", Mik(i,k)")
    output_flag(p)
    p.set_defaults(func=cmd_builtin)

    p = sub.add_parser("distance", help="ultrametric distance of two trees")
    p.add_argument("t1", metavar="T1")
    p.add_argument("t2", metavar="T2")
    output_flag(p)
    p.set_defaults(func=cmd_distance)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotDisjoint as exc:
        _emit({"error": "languages are not disjoint",
               "witness": tree_to_json(exc.tree)})
        return 3
    except (ValueError, OSError, RecursionError) as exc:
        # unreadable files, TreeError, GameError, AutomatonError, bad schemas,
        # over-deep documents; sampling an empty language is a precondition failure
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, EmptyLanguage) else 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
