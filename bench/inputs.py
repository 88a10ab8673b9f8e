"""Seeded inputs for the benchmark workloads.

Every workload is a fixed list of CLI invocations ("ops") over input files
written into a work directory.  The list depends only on the workload, the
seed and a size scale (1.0 for measurement, smaller in the smoke tests), so
the same seed always gives the same files in the same order.

Sizes inside a workload are spread evenly over a narrow band instead of
drawn at random: the seed changes the structure of each input but not the
mix of op sizes.  That keeps p50 and p90 on many similar ops and keeps runs
with different seeds comparable.  A run is whole passes over the list, so
each op contributes one block of samples to the sorted latencies; lists of
15 or 35 ops put both the median (op 8 or 18) and the p90 (op 13.5 or
31.5) inside one op's block, never on the seam between two ops whose
costs differ.

The generators take the freshly imported `treegames` package as `tg`,
because set-up re-imports it on every repetition.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("solve", "priorities", "membership", "separation")

# Largest game the priorities workload writes.  solve() recurses once per
# distinct priority, so with the interpreter's default recursion limit of
# 1000 a game with ~985 or more distinct priorities raises RecursionError
# (the known defect of ROADMAP aim 3).  Every op of a workload must
# succeed, so those games are left out; 950 keeps a margin for the
# benchmark's own stack frames.
MAX_DISTINCT_PRIORITIES = 950

# Builtin automata cycled through by `member` ops.
MEMBER_BUILTINS = ("UBbin", "L", "W01", "M01", "K-buchi")


@dataclass(frozen=True)
class Op:
    """One CLI call.  `key` names the input; ops with the same key get the
    same answer, so each key is certified once per run."""

    key: str
    kind: str
    argv: tuple
    # What the certificate check needs besides the files named in argv.
    info: dict = field(default_factory=dict)


def spread(lo: int, hi: int, count: int) -> list:
    """`count` (at least 2) sizes evenly spaced over [lo, hi]."""
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


def scaled(n: int, scale: float, floor: int = 4) -> int:
    return max(floor, int(n * scale))


# ---------------------------------------------------------------------------
# Games, in the text format of `treegames solve --game`.

def game_text(priority, owner, successors) -> str:
    lines = [f"parity {len(priority) - 1};"]
    for v, succ in enumerate(successors):
        lines.append(f"{v} {priority[v]} {owner[v]} {','.join(map(str, succ))};")
    return "\n".join(lines) + "\n"


def random_game(rng: random.Random, n: int, max_priority: int | None,
                degree: tuple) -> str:
    """Random game on n positions with out-degrees drawn from the inclusive
    range `degree` (duplicate edges merged).  Priorities are uniform in
    0..max_priority, or a random permutation of 0..n-1 (every position its
    own priority) when max_priority is None."""
    if max_priority is None:
        priority = list(range(n))
        rng.shuffle(priority)
    else:
        priority = [rng.randint(0, max_priority) for _ in range(n)]
    owner = [rng.randint(0, 1) for _ in range(n)]
    successors = [sorted({rng.randrange(n) for _ in range(rng.randint(*degree))})
                  for _ in range(n)]
    return game_text(priority, owner, successors)


def peel_chain(n: int) -> str:
    """Position i has priority i, owner (i+1) mod 2 and edges to i and i-1.
    solve() peels one position per recursion level: n levels, O(n^2) time."""
    successors = [[0]] + [[i - 1, i] for i in range(1, n)]
    return game_text(list(range(n)), [(i + 1) % 2 for i in range(n)], successors)


# ---------------------------------------------------------------------------
# Trees and automata, as the JSON documents the CLI loads.

def random_tree(tg, rng: random.Random, n: int, alphabet):
    """Random generator with exactly n nodes, all reachable from the root
    0: each node i > 0 takes a free child slot of an earlier node, and the
    slots left over point at random nodes."""
    child = {"1": {}, "2": {}}
    free = [(0, "1"), (0, "2")]
    for i in range(1, n):
        k = rng.randrange(len(free))
        parent, side = free[k]
        free[k] = free[-1]
        free.pop()
        child[side][parent] = i
        free += [(i, "1"), (i, "2")]
    for parent, side in free:
        child[side][parent] = rng.randrange(n)
    label = {i: rng.choice(alphabet.symbols) for i in range(n)}
    return tg.RegularTree(alphabet, 0, label, child["1"], child["2"])


def branch_automaton(tg, direction: str, letter: str, finitely_many: bool):
    """Büchi automaton for "the leftmost (direction '1') or rightmost ('2')
    branch carries finitely many `letter`s" (3 states) or, without
    finitely_many, "that branch carries only `letter`" (2 states)."""
    other = "1" if letter == "0" else "0"

    def down(here):
        return (here, "T") if direction == "1" else ("T", here)

    transitions = [("T", x, "T", "T") for x in "01"]
    if finitely_many:
        # Ride the branch in q, guess the last `letter`, then read only the
        # other letter in p.
        transitions += [("q", x, *down(q2)) for x in "01" for q2 in ("q", "p")]
        transitions.append(("p", other, *down("p")))
        return tg.NPTA(tg.BINARY, ("q", "p", "T"), "q", tuple(transitions),
                       {"q": 1, "p": 2, "T": 2})
    transitions.append(("m", letter, *down("m")))
    return tg.NPTA(tg.BINARY, ("m", "T"), "m", tuple(transitions), {"m": 2, "T": 2})


def constant_automaton(tg, letter: str):
    """The one-tree language of the tree labeled `letter` everywhere."""
    return tg.NPTA(tg.BINARY, ("s",), "s", (("s", letter, "s", "s"),), {"s": 2})


def overlapping_buchi(tg, rng: random.Random, states: int):
    """Random Büchi automaton that accepts the all-0 tree: every state reads
    0 into the accepting last state, which reads 0 into itself.  Any two of
    them overlap.  Each state also gets up to four random transitions."""
    names = [f"q{i}" for i in range(states)]
    rank = {q: rng.choice((1, 2)) for q in names}
    rank[names[-1]] = 2
    transitions = {(q, "0", names[-1], names[-1]) for q in names}
    for q in names:
        for _ in range(rng.randint(0, 4)):
            transitions.add((q, rng.choice("01"), rng.choice(names), rng.choice(names)))
    return tg.NPTA(tg.BINARY, tuple(names), names[0], tuple(sorted(transitions)), rank)


def separation_pairs(tg, rng: random.Random, scale: float):
    """(name, a, b) pairs for `separate`, cheapest kinds first.

    Disjoint pairs all have |a|*|b| <= 6, so the default hierarchy level
    2^(|a||b|)+1 is at most 65.  Pairs with |a|*|b| >= 8 are left out: their
    default level is at least 257 (65,537 for two 4-state automata), and one
    such op would outlast a run (the known defect of ROADMAP aim 3).

    The list is built in cost bands so that p50 and p90 each fall in the
    middle of a band of similar ops: 6 cheap ops (the seeded overlapping
    pairs, which stop at the product's witness, and the two singleton
    pairs), 5 ops at levels 9 and 17 around the median, and 6 costly ops
    (the two L pairs and four level-65 pairs) holding the p90.
    """
    states = scaled(12, scale, floor=2)
    pairs = [(f"random-overlapping-{i}", overlapping_buchi(tg, rng, states),
              overlapping_buchi(tg, rng, states)) for i in range(4)]
    examples = {p.name: (p.a, p.b) for p in tg.example_pairs()}
    for name in ("all0-vs-all1", "all1-vs-all0", "leftmost0-vs-leftmost1",
                 "leftmost-finite1s-vs-all1"):
        pairs.append((name, *examples.pop(name)))
    # Mirror images of the last two examples (levels 17 and 9).
    pairs.append(("rightmost0-vs-rightmost1", branch_automaton(tg, "2", "0", False),
                  branch_automaton(tg, "2", "1", False)))
    pairs.append(("rightmost-finite1s-vs-all1", branch_automaton(tg, "2", "1", True),
                  constant_automaton(tg, "1")))
    pairs.append(("leftmost-finite0s-vs-all0", branch_automaton(tg, "1", "0", True),
                  constant_automaton(tg, "0")))
    pairs += [(name, a, b) for name, (a, b) in examples.items()]
    # "Finitely many x on a branch" vs "only x on it", all four mirror
    # images, at level 65.
    for d in "12":
        for x in "01":
            pairs.append((f"branch{d}-finite{x}s-vs-only{x}s",
                          branch_automaton(tg, d, x, True),
                          branch_automaton(tg, d, x, False)))
    return pairs


# ---------------------------------------------------------------------------
# Workload op lists.

def write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def write_json(path: str, doc) -> str:
    return write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def solve_op(key: str, path: str) -> Op:
    return Op(key, "solve", ("solve", "--game", path))


def solve_ops(tg, rng, workdir, scale):
    return [solve_op(f"game{i}", write(os.path.join(workdir, f"game{i}.txt"),
                                       random_game(rng, n, 8, (1, 3))))
            for i, n in enumerate(spread(scaled(3000, scale), scaled(5000, scale), 35))]


def priorities_ops(tg, rng, workdir, scale):
    """10 peel chains and 5 random games of 600 to 950 positions, every
    position its own priority.  The random games are the cheapest ops, so
    p50 and p90 both fall among the chains, which the seed leaves alone."""
    lo, hi = scaled(600, scale), scaled(MAX_DISTINCT_PRIORITIES, scale)
    ops = []
    for i, n in enumerate(spread(lo, hi, 10)):
        ops.append(solve_op(f"chain{i}", write(os.path.join(workdir, f"chain{i}.txt"),
                                               peel_chain(n))))
        if i % 2:
            ops.append(solve_op(f"distinct{i}", write(
                os.path.join(workdir, f"distinct{i}.txt"), random_game(rng, n, None, (3, 3)))))
    return ops


def membership_ops(tg, rng, workdir, scale):
    """20 `member` ops, the builtins in turn, and 15 `gtl` ops, interleaved."""
    lo, hi = scaled(1500, scale), scaled(2500, scale)
    members, gtls = [], []
    for i, n in enumerate(spread(lo, hi, 4 * len(MEMBER_BUILTINS))):
        name = MEMBER_BUILTINS[i % len(MEMBER_BUILTINS)]
        alphabet = tg.GAME_ALPHABET if name == "W01" else tg.BINARY
        path = write_json(os.path.join(workdir, f"tree{i}.json"),
                          tg.tree_to_json(random_tree(tg, rng, n, alphabet)))
        members.append(Op(f"member{i}", "member",
                          ("member", "--automaton", name, "--tree", path), {"automaton": name}))
    for i, n in enumerate(spread(lo, hi, 15)):
        path = write_json(os.path.join(workdir, f"gtree{i}.json"),
                          tg.tree_to_json(random_tree(tg, rng, n, tg.GAME_ALPHABET)))
        gtls.append(Op(f"gtl{i}", "gtl", ("gtl", "--tree", path)))
    return [op for pair in itertools.zip_longest(members, gtls) for op in pair if op]


# Sampling work swings by about 20% with the sample seed, so every
# `separate` op samples with the same seed; the workload seed varies the
# overlapping pairs.
SAMPLE_SEED = 0


def separation_ops(tg, rng, workdir, scale):
    ops = []
    samples = scaled(100, scale, floor=2)
    for i, (name, a, b) in enumerate(separation_pairs(tg, rng, scale)):
        pa = write_json(os.path.join(workdir, f"sep{i}a.json"), tg.automaton_to_json(a))
        pb = write_json(os.path.join(workdir, f"sep{i}b.json"), tg.automaton_to_json(b))
        argv = ("separate", pa, pb, "--samples", str(samples), "--seed", str(SAMPLE_SEED))
        ops.append(Op(f"sep{i}", "separate", argv,
                      {"pair": name, "samples": samples, "seed": SAMPLE_SEED}))
    return ops


OP_LISTS = {
    "solve": solve_ops,
    "priorities": priorities_ops,
    "membership": membership_ops,
    "separation": separation_ops,
}


def build_ops(tg, workload: str, seed: int, workdir: str, scale: float = 1.0) -> list:
    """Write the workload's inputs into `workdir` and return its op list."""
    rng = random.Random(f"{workload}:{seed}")
    return OP_LISTS[workload](tg, rng, workdir, scale)
