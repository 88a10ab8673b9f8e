"""Certificate checks for the outputs of benchmark ops.

Each check takes an op, the exit code it returned and the text it printed,
and returns None when the output is certified or a one-line reason when it
is not.  The checks rebuild what they need from the op's input files and
rely on certificates that do not trust the solver: a winning region counts
only when the winner's positional strategy passes verify_strategy, the
cycle-based checker that is independent of solve().

`tracer.span("games.verify")` times every verify_strategy call, for the
traced run's games.verify_ms.
"""

from __future__ import annotations

import json


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _verified(tg, tracer, game, strategy, region) -> bool:
    with tracer.span("games.verify"):
        return tg.verify_strategy(game, strategy, region)


def _certified_winner(tg, tracer, game, start):
    """EVE or ADAM for the player winning at `start`, certified by that
    player's strategy winning its whole region; None if the check fails."""
    res = tg.solve(game)
    if start in res.eve_region:
        player, region, strategy = tg.EVE, res.eve_region, res.eve_strategy
    else:
        player, region, strategy = tg.ADAM, res.adam_region, res.adam_strategy
    return player if _verified(tg, tracer, game, strategy, region) else None


def check_solve(tg, tracer, op, rc, out):
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    game = tg.game_from_text(_read(op.argv[2]))
    eve, adam = set(doc["eve_region"]), set(doc["adam_region"])
    if eve & adam or eve | adam != set(game.positions):
        return "regions do not partition the positions"
    for player, region, key in ((tg.EVE, eve, "eve_strategy"),
                                (tg.ADAM, adam, "adam_strategy")):
        strategy = tg.Strategy(player, {v: w for v, w in doc[key]})
        if not _verified(tg, tracer, game, strategy, region):
            return f"{key} does not win its region"
    return None


def check_member(tg, tracer, op, rc, out):
    verdict = json.loads(out)["member"]
    if rc != (0 if verdict else 1):
        return f"exit code {rc} disagrees with verdict {verdict}"
    a = tg.builtin(op.info["automaton"])
    t = tg.load_tree(op.argv[4])
    winner = _certified_winner(tg, tracer, tg.membership_game(a, t),
                               tg.automata.membership_start(a, t))
    if winner is None:
        return "membership game strategy fails verification"
    if (winner == tg.EVE) != verdict:
        return f"printed verdict {verdict} disagrees with the certified one"
    return None


def check_gtl(tg, tracer, op, rc, out):
    doc = json.loads(out)
    first, second = doc["in_W01"], doc["in_W01_prime"]
    if first and second:
        return "tree reported in both W01 and W01-prime"
    if rc != (0 if first or second else 1):
        return f"exit code {rc} disagrees with the verdicts"
    t = tg.load_tree(op.argv[2])
    for tree, verdict in ((t, first), (tg.rename_tree(t, tg.DUALITY), second)):
        winner = _certified_winner(tg, tracer, tg.game_of_tree(tree), tree.root)
        if winner is None:
            return "tree game strategy fails verification"
        if (winner == tg.EVE) != verdict:
            return f"printed verdict {verdict} disagrees with the certified one"
    return None


def check_separate(tg, tracer, op, rc, out):
    a = tg.load_automaton(op.argv[1])
    b = tg.load_automaton(op.argv[2])
    doc = json.loads(out)
    if rc == 3:
        if doc["error"] != "languages are not disjoint":
            return "exit 3 without the overlap error"
        w = tg.tree_from_json(doc["witness"])
        for aut in (a, b):
            run = tg.member_witness(aut, w)
            if run is None:
                return "witness is rejected by one of the automata"
            with tracer.span("games.verify"):
                if not run.check():
                    return "witness run fails verification"
        return None
    if rc != 0:
        return f"exit code {rc}"
    report = doc["report"]
    if not report["passed"] or report["failures"]:
        return "report did not pass"
    # Disjointness: Adam wins the emptiness game of the product at its start.
    product = tg.intersection_product(a, b)
    game = tg.emptiness_game(product)
    if _certified_winner(tg, tracer, game, ("s", product.initial)) != tg.ADAM:
        return "languages are not certified disjoint"
    # Replay the report against the printed separator.
    separator = tg.apta_from_json(doc["separator"])
    n, seed = op.info["samples"], op.info["seed"]
    for aut, sample_seed, side, want in ((a, seed, "accept_checked", True),
                                         (b, seed + 1, "reject_checked", False)):
        trees = tg.sample_language(aut, n, sample_seed).trees
        if report[side] != len(trees):
            return f"{side} is {report[side]}, replay drew {len(trees)}"
        for t in trees:
            if not tg.member(aut, t):
                return "a sampled tree is not in its language"
            if tg.member_alt(separator, t) != want:
                return "the printed separator misclassifies a sample"
    return None


CHECKS = {
    "solve": check_solve,
    "member": check_member,
    "gtl": check_gtl,
    "separate": check_separate,
}


def certify(tg, tracer, op, rc, out):
    """None when the op's exit code and output are certified, else why not.
    A crash (rc None) is never certified."""
    if rc is None:
        return f"crashed: {out}"
    try:
        return CHECKS[op.kind](tg, tracer, op, rc, out)
    except (ValueError, KeyError, TypeError) as exc:
        # Unparseable or malformed output is a wrong answer, not a harness
        # error.
        return f"malformed output: {type(exc).__name__}: {exc}"
