"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's solver pipeline: cycle
analysis is done by pairwise reachability, membership for deterministic
automata by direct product-graph inspection.  Agreement between these and
the game-based implementations is what the property tests check.
"""

from __future__ import annotations

import itertools
import random
import re

from treegames.trees import (
    Alphabet,
    RegularTree,
    TreeError,
    bisimilar,
    doc_field,
    label_at,
)
from treegames.games import (
    ADAM,
    EVE,
    GameError,
    ParityGame,
    SolveResult,
    Strategy,
    _ids,
    _sccs,
    explore,
    solve,
    verify_strategy,
)
from treegames.automata import NPTA, emptiness_game, strategy_tree, transition_table
from treegames.gamelang import Cyl, GameLabel, Neg, Union
from treegames.automata import GAME_ALPHABET


def random_game(rng: random.Random, max_positions: int, max_priority: int,
                max_degree: int) -> ParityGame:
    n = rng.randint(1, max_positions)
    owner = {i: rng.randint(0, 1) for i in range(n)}
    prio = {i: rng.randint(0, max_priority) for i in range(n)}
    succ = {}
    for i in range(n):
        degree = rng.randint(0, max_degree)
        succ[i] = tuple(sorted(rng.sample(range(n), min(degree, n))))
    return ParityGame(tuple(range(n)), owner, prio, succ)


def random_npta(rng: random.Random, alphabet: Alphabet, max_states: int,
                max_rank: int, density: float = 0.7) -> NPTA:
    n = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n))
    transitions = []
    for q in states:
        for letter in alphabet:
            for _ in range(2):
                if rng.random() < density:
                    transitions.append((q, letter, rng.choice(states),
                                        rng.choice(states)))
    rank = {q: rng.randint(0, max_rank) for q in states}
    return NPTA(alphabet, states, states[0], tuple(transitions), rank)


def random_code(rng: random.Random, depth: int):
    labels = GAME_ALPHABET.symbols
    if depth == 0 or rng.random() < 0.3:
        assign = {}
        for _ in range(rng.randint(0, 2)):
            word = "".join(rng.choice("12") for _ in range(rng.randint(0, 3)))
            assign[word] = rng.choice(labels)
        return Cyl(tuple(sorted(assign.items())))
    if rng.random() < 0.5:
        return Neg(random_code(rng, depth - 1))
    heads = tuple(random_code(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    tail = random_code(rng, depth - 1) if rng.random() < 0.5 else None
    return Union(heads, tail)


def reachable_within(start, allowed, succ) -> set:
    # Nodes of `allowed` reachable from start's successors through `allowed`.
    out = set()
    frontier = [w for w in succ(start) if w in allowed]
    while frontier:
        v = frontier.pop()
        if v in out:
            continue
        out.add(v)
        frontier.extend(w for w in succ(v) if w in allowed and w not in out)
    return out


def odd_dominated_cycle(nodes, succ, rank) -> bool:
    """Whether some cycle's maximum rank is odd, by plain reachability."""
    odd_ranks = sorted({rank[v] for v in nodes if rank[v] % 2 == 1})
    for c in odd_ranks:
        allowed = {v for v in nodes if rank[v] <= c}
        for v in allowed:
            if rank[v] == c and v in reachable_within(v, allowed, succ):
                return True
    return False


def successor_names(g: ParityGame) -> dict:
    """Each position's successor names, read off the id arrays."""
    names = g.positions
    return {v: tuple(names[j] for j in s) for v, s in zip(names, g.succs)}


def brute_force_solve(g: ParityGame) -> SolveResult:
    """Oracle solver: enumerate positional strategy pairs, walk the forced
    lasso from every position, take the minimax.  Positional determinacy
    makes this exact.  Refuses games whose strategy-pair count (product of
    out-degrees over owned non-dead-end positions) exceeds a million."""
    bound = 10 ** 6
    names = g.positions
    owner = dict(zip(names, g.owners))
    priority = dict(zip(names, g.prios))
    successors = successor_names(g)
    eve_pos = [v for v in names if owner[v] == EVE and successors[v]]
    adam_pos = [v for v in names if owner[v] == ADAM and successors[v]]
    total = 1
    for v in eve_pos + adam_pos:
        total *= len(successors[v])
        if total > bound:
            raise GameError(f"strategy space larger than {bound}")

    def lasso_winner(choice, start):
        at = {}
        path = []
        v = start
        while True:
            if v in at:
                cycle_max = max(priority[u] for u in path[at[v]:])
                return cycle_max % 2
            at[v] = len(path)
            path.append(v)
            nxt = choice.get(v)
            if nxt is None:
                return 1 - owner[v]
            v = nxt

    eve_choices = [dict(zip(eve_pos, combo))
                   for combo in itertools.product(*(successors[v] for v in eve_pos))]
    adam_choices = [dict(zip(adam_pos, combo))
                    for combo in itertools.product(*(successors[v] for v in adam_pos))]

    n = len(g.positions)
    eve_all = [[True] * n for _ in eve_choices]
    adam_all = [[True] * n for _ in adam_choices]
    for ei, ec in enumerate(eve_choices):
        for ai, ac in enumerate(adam_choices):
            combined = {**ec, **ac}
            for s, v in enumerate(g.positions):
                if lasso_winner(combined, v) == EVE:
                    adam_all[ai][s] = False
                else:
                    eve_all[ei][s] = False

    eve_region = frozenset(
        g.positions[s] for s in range(n) if any(mask[s] for mask in eve_all))
    adam_region = frozenset(
        g.positions[s] for s in range(n) if any(mask[s] for mask in adam_all))
    assert eve_region.isdisjoint(adam_region)
    assert len(eve_region) + len(adam_region) == n

    def pick(choices, masks, region, player, owned):
        for choice, mask in zip(choices, masks):
            if all(g.positions[s] in region for s in range(n) if mask[s]) \
                    and all(mask[s] for s in range(n) if g.positions[s] in region):
                return Strategy(player, {v: choice[v] for v in owned if v in region})
        raise AssertionError("no uniform positional strategy found")

    eve_strategy = pick(eve_choices, eve_all, eve_region, EVE, eve_pos)
    adam_strategy = pick(adam_choices, adam_all, adam_region, ADAM, adam_pos)
    return SolveResult(eve_region, adam_region, eve_strategy, adam_strategy)


def _attract(player, targets, region, owner, succ, pred):
    # Attractor of `targets` for `player` inside `region`.  Player-owned
    # positions pulled in record the successor they were attracted through;
    # processing order is fixed by position index, so the result is
    # deterministic.  `todo` grows while it is walked, a FIFO queue.
    attr = set(targets)
    strat = {}
    todo = sorted(targets)
    counts = {}
    for u in todo:
        for v in pred[u]:
            if v in attr or v not in region:
                continue
            if owner[v] == player:
                attr.add(v)
                strat[v] = u
                todo.append(v)
            else:
                # Edges from v into the region that do not lead into attr
                # yet, each duplicate edge counted, as pred lists it too.
                c = counts.get(v)
                if c is None:
                    c = len(succ[v])
                    if not region.issuperset(succ[v]):
                        c = sum(1 for w in succ[v] if w in region)
                c -= 1
                counts[v] = c
                if not c:
                    attr.add(v)
                    todo.append(v)
    return attr, strat


def _zielonka(m, owner, prio, succ, pred):
    # Zielonka's algorithm on positions 0..m-1 of a dead-end-free game.  The
    # second recursive call of the textbook formulation is unrolled into a
    # loop over the shrinking region.  For the first one, on the region
    # minus the attractor of its top priority, the frame waits on `stack`
    # while that subgame is solved, so depth is bounded by memory rather
    # than by Python's recursion limit.
    # Positions are bucketed by priority once; a frame's region only
    # shrinks, so its top priority is found by walking `levels` down from
    # where the frame last found it, and a subgame's starts one level lower.
    bucket = {}
    for v in range(m):
        bucket.setdefault(prio[v], []).append(v)
    levels = sorted(bucket, reverse=True)
    stack = []
    region, k = set(range(m)), 0
    win, strat = (set(), set()), ({}, {})
    while True:
        # Open frames on subgames until one is empty.
        while region:
            while region.isdisjoint(bucket[levels[k]]):
                k += 1
            d = levels[k]
            sigma = d % 2
            tops = region.intersection(bucket[d])
            a, astrat = _attract(sigma, tops, region, owner, succ, pred)
            stack.append((region, k, win, strat, sigma, tops, astrat))
            region, k = region - a, k + 1
            win, strat = (set(), set()), ({}, {})
        # Hand each solved frame's result to the frame below, until one of
        # them still has a region left to solve.
        while stack:
            sub_win, sub_strat = win, strat
            region, k, win, strat, sigma, tops, astrat = stack.pop()
            opp = 1 - sigma
            if not sub_win[opp]:
                win[sigma].update(region)
                strat[sigma].update(sub_strat[sigma])
                strat[sigma].update(astrat)
                for v in sorted(tops):
                    if owner[v] == sigma:
                        strat[sigma][v] = next(u for u in succ[v] if u in region)
                continue
            b, bstrat = _attract(opp, sub_win[opp], region, owner, succ, pred)
            win[opp].update(b)
            strat[opp].update(sub_strat[opp])
            strat[opp].update(bstrat)
            region -= b
            if region:
                break
        else:
            return win, strat


def reference_solve(g: ParityGame) -> SolveResult:
    """Oracle for games.solve: the same Zielonka recursion, in the form
    that copies the region, the won sets and the strategy maps at every
    frame and walks the attractor from the whole target set."""
    n = len(g.positions)
    owner, prio, succ = g.owners, g.prios, g.succs
    if not all(succ):
        sink_even, sink_odd = n, n + 1
        owner += (ADAM, EVE)
        prio += (0, 1)
        succ = [s or ((sink_odd,) if owner[i] == EVE else (sink_even,))
                for i, s in enumerate(succ)]
        succ += [(sink_even,), (sink_odd,)]
    m = len(succ)
    pred = [[] for _ in range(m)]
    for i in range(m):
        for j in succ[i]:
            pred[j].append(i)
    win, strat = _zielonka(m, owner, prio, succ, pred)
    names = g.positions

    def back(player):
        region = frozenset([names[i] for i in win[player] if i < n])
        choice = {names[i]: names[j] for i, j in strat[player].items()
                  if i < n and g.succs[i]}
        return region, Strategy(player, choice)

    eve_region, eve_strategy = back(EVE)
    adam_region, adam_strategy = back(ADAM)
    return SolveResult(eve_region, adam_region, eve_strategy, adam_strategy)


def max_parity_cycle_by_levels(nodes, succ_of, priority, parity) -> bool:
    """Oracle for games.has_cycle_with_max_parity: one Tarjan pass per
    candidate top priority c.  A cycle with maximum exactly c lives inside
    the subgraph of priorities <= c and passes through a priority-c node,
    and vice versa."""
    for c in sorted({priority[v] for v in nodes if priority[v] % 2 == parity}, reverse=True):
        sub = {v for v in nodes if priority[v] <= c}

        def sub_succ(v):
            return [w for w in succ_of(v) if w in sub]

        for comp in _sccs(sub, sub_succ):
            if not any(priority[v] == c for v in comp):
                continue
            if len(comp) > 1 or comp[0] in sub_succ(comp[0]):
                return True
    return False


_RECORD_LINE = re.compile(
    r'^(\d+)\s+(\d+)\s+([01])\s*((?:\d+(?:\s*,\s*\d+)*)?)\s*(?:"([^"]*)")?$')


def game_from_text_by_lines(text: str) -> ParityGame:
    """Oracle for games.game_from_text: each line stripped, its ';' cut off
    and stripped again, then matched, its numbers converted and its
    position checked for a duplicate before the next line is read."""
    records = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise GameError(f"line {lineno}: record does not end with ';'")
        line = line[:-1].strip()
        if not header_seen:
            if not re.fullmatch(r"parity\s+\d+", line):
                raise GameError(f"line {lineno}: expected header 'parity N;'")
            header_seen = True
            continue
        m = _RECORD_LINE.fullmatch(line)
        if m is None:
            raise GameError(f"line {lineno}: malformed position record")
        v, p, o, moves, _ = m.groups()
        v = int(v)
        if v in records:
            raise GameError(f"line {lineno}: duplicate position {v}")
        records[v] = (int(o), int(p), tuple(map(int, moves.split(","))) if moves else ())
    if not header_seen:
        raise GameError("line 1: expected header 'parity N;'")
    positions = sorted(records)
    index = {v: i for i, v in enumerate(positions)}
    rows = [records[v] for v in positions]
    owners, prios, named = zip(*rows) if rows else ((), (), ())
    try:
        succs = [_ids(v, s, index) for v, s in zip(positions, named)]
    except GameError as exc:
        raise GameError(f"inconsistent game: {exc}") from None
    return ParityGame._of(positions, index, owners, prios, succs)


def regular_tree_by_checks(alphabet, root, label, left, right) -> RegularTree:
    """Oracle for RegularTree's bulk check: every reachable node is checked
    in one breadth-first loop and the first failure raised, then the maps
    are trimmed to the reachable nodes in that order."""
    if root not in label:
        raise TreeError(f"root {root!r} has no label")
    order = [root]
    seen = {root}
    for v in order:
        for child_map, side in ((left, "left"), (right, "right")):
            if v not in child_map:
                raise TreeError(f"node {v!r} has no {side} child")
            c = child_map[v]
            if c not in label:
                raise TreeError(f"{side} child {c!r} of {v!r} is not a labeled node")
            if c not in seen:
                seen.add(c)
                order.append(c)
    for v in order:
        if label[v] not in alphabet:
            raise TreeError(f"label {label[v]!r} of node {v!r} is not in the alphabet")
    return RegularTree(alphabet, root, {v: label[v] for v in order},
                       {v: left[v] for v in order}, {v: right[v] for v in order})


def tree_from_json_by_entries(doc) -> RegularTree:
    """Oracle for trees.tree_from_json: four doc_field reads per node entry,
    then regular_tree_by_checks."""
    symbols = doc_field(doc, "alphabet", list, "tree document", TreeError)
    alphabet = Alphabet(tuple(symbols))
    root = doc_field(doc, "root", (str, int), "tree document", TreeError)
    entries = doc_field(doc, "nodes", list, "tree document", TreeError)
    label, left, right = {}, {}, {}
    for entry in entries:
        v = doc_field(entry, "id", (str, int), "tree node", TreeError)
        if v in label:
            raise TreeError(f"duplicate node id {v!r}")
        label[v] = doc_field(entry, "label", str, "tree node", TreeError)
        left[v] = doc_field(entry, "left", (str, int), "tree node", TreeError)
        right[v] = doc_field(entry, "right", (str, int), "tree node", TreeError)
    return regular_tree_by_checks(alphabet, root, label, left, right)


def game_of_tree_by_explore(t: RegularTree) -> ParityGame:
    """Oracle for gamelang.game_of_tree: the induced game found by explore()
    from the root, each node expanded from its label and children."""
    def expand(v):
        lab = GameLabel.from_symbol(t.label[v])
        return (EVE if lab.owner == "E" else ADAM), lab.bit, (t.left[v], t.right[v])

    return explore(t.root, expand)


def parity_lang_member_by_explore(t: RegularTree, i: int, k: int) -> bool:
    """Oracle for gamelang.parity_lang_member: Adam's game on the generator
    found by explore() from the root, each node's label mapped to its
    priority when the node is expanded."""
    if i not in (0, 1) or k < i:
        raise TreeError("labels must run from i in {0,1} to k >= i")
    priority = {str(m): m for m in range(i, k + 1)}

    def expand(v):
        p = priority.get(t.label[v])
        if p is None:
            raise TreeError(f"label {t.label[v]!r} outside {sorted(priority)}")
        return ADAM, p, (t.left[v], t.right[v])

    return t.root in solve(explore(t.root, expand)).eve_region


def det_member_oracle(a: NPTA, t: RegularTree) -> bool:
    """Membership for a deterministic automaton by inspecting the product
    of the generator with the automaton: the unique run exists and no
    branch can dominate a cycle with an odd rank."""
    table = transition_table(a)
    start = (t.root, a.initial)
    nodes = {start}
    frontier = [start]
    while frontier:
        v, q = frontier.pop()
        choices = table.get((q, t.label[v]), ())
        if len(choices) != 1:
            return False
        _, _, l, r = choices[0]
        for nxt in ((t.left[v], l), (t.right[v], r)):
            if nxt not in nodes:
                nodes.add(nxt)
                frontier.append(nxt)

    def succ(pair):
        v, q = pair
        _, _, l, r = table[q, t.label[v]][0]
        return ((t.left[v], l), (t.right[v], r))

    return not odd_dominated_cycle(nodes, succ, {(v, q): a.rank[q] for v, q in nodes})


def unfold_with_tail(t: RegularTree, depth: int, tail_symbol: str) -> RegularTree:
    """Prefix of `t` to the given depth, constant `tail_symbol` below it.
    The result agrees with `t` on every word of length <= depth."""
    label = {"@tail": tail_symbol}
    left = {"@tail": "@tail"}
    right = {"@tail": "@tail"}
    words = [""]
    for word in words:
        label[word] = label_at(t, word)
        if len(word) < depth:
            left[word], right[word] = word + "1", word + "2"
            words.extend((word + "1", word + "2"))
        else:
            left[word] = right[word] = "@tail"
    return RegularTree(t.alphabet, "", label, left, right)


def reference_sample(a: NPTA, n: int, seed: int) -> list:
    """separation.sample_language's trees by the plain loop: every draw is
    walked, verified and compared, repeats included.  Raises ValueError on
    an empty language."""
    game = emptiness_game(a)
    res = solve(game)
    start = ("s", a.initial)
    if start not in res.eve_region:
        raise ValueError("language is empty")
    successors = successor_names(game)
    options = {pos: [w for w in successors[pos] if w in res.eve_region]
               for pos in game.positions if pos[0] == "s" and pos in res.eve_region}
    rng = random.Random(seed)
    trees = []
    for _ in range(max(100, 20 * n)):
        choice = {pos: rng.choice(opts) for pos, opts in options.items()}
        reach = {start}
        frontier = [start]
        while frontier:
            pos = frontier.pop()
            for nxt in (choice[pos],) if pos[0] == "s" else successors[pos]:
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        if not verify_strategy(game, Strategy(EVE, choice), reach):
            continue
        t = strategy_tree(a, choice)
        if not any(bisimilar(t, u) for u in trees):
            trees.append(t)
            if len(trees) == n:
                break
    return trees
