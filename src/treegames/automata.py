"""Parity automata on infinite binary labeled trees.

Nondeterministic automata (NPTA) carry transitions (state, letter, left
state, right state) and a rank per state; a run is accepting when every
branch has an even limsup of ranks.  Alternating automata (APTA) replace the
transition relation by positive boolean formulas over moves Atom(direction,
state).  Acceptance of both kinds reduces to parity games over the tree's
finite generator, which is what member(), member_alt() and witness() solve.

The Rabin-Mostowski index of an automaton is the (min, max) rank pair,
shifted down by an even amount so the low end lands in {0, 1}.  Büchi means
ranks within {1, 2}; co-Büchi ranks within {0, 1}.

State names are strings throughout, so automata serialize directly.

GAME_LABELS gives each game label's (owner, bit) pair; GAME_ALPHABET, the
DUALITY that flips both, W01 and gamelang's tree games are read off it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

from .trees import (
    Alphabet,
    RegularTree,
    LetterRenaming,
    TreeError,
    doc_field,
    read_doc,
    same_symbols,
    _too_many_digits,
)
from .games import (EVE, ADAM, ParityGame, Strategy, _named, _solve, explore,
                    verify_strategy)


class AutomatonError(ValueError):
    """Malformed automaton or document."""


class UnsupportedProduct(AutomatonError):
    """Index combination outside what intersection_product implements;
    callers are expected to fall back to sample-based checks."""


class Index(NamedTuple):
    lo: int
    hi: int


def _check_header(a) -> set:
    """Checks NPTA and APTA share: distinct string states, a known initial
    state, and a nonnegative int rank on every state and no other.  Stores
    states as a tuple and rank as a copy; returns the state set."""
    object.__setattr__(a, "states", tuple(a.states))
    # Types first: a list or dict among the states cannot be hashed.
    for q in a.states:
        if not isinstance(q, str):
            raise AutomatonError(f"state {q!r} is not a string")
    states = set(a.states)
    if len(states) != len(a.states):
        raise AutomatonError("duplicate states")
    if a.initial not in states:
        raise AutomatonError(f"initial state {a.initial!r} unknown")
    if set(a.rank) != states:
        raise AutomatonError("rank must be total on the states")
    for q, k in a.rank.items():
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise AutomatonError(f"rank of {q!r} must be a nonnegative integer")
    object.__setattr__(a, "rank", dict(a.rank))
    return states


@dataclass(frozen=True)
class NPTA:
    """Nondeterministic parity tree automaton over a binary tree alphabet."""

    alphabet: Alphabet
    states: tuple[str, ...]
    initial: str
    transitions: tuple[tuple[str, str, str, str], ...]
    rank: dict

    def __post_init__(self):
        states = _check_header(self)
        normalized = sorted({tuple(t) for t in self.transitions})
        letters = set(self.alphabet.symbols)
        for q, a, l, r in normalized:
            if q not in states or l not in states or r not in states:
                raise AutomatonError(f"transition {(q, a, l, r)!r} uses an unknown state")
            if a not in letters:
                raise AutomatonError(f"transition {(q, a, l, r)!r} uses an unknown letter")
        object.__setattr__(self, "transitions", tuple(normalized))


def index_of(a) -> Index:
    lo = min(a.rank.values())
    hi = max(a.rank.values())
    shift = lo - (lo % 2)
    return Index(lo - shift, hi - shift)


def is_buchi(a) -> bool:
    return set(a.rank.values()) <= {1, 2}


def transition_table(a: NPTA) -> dict:
    """Transitions grouped by (state, letter), in transition order."""
    table = {}
    for t in a.transitions:
        table.setdefault((t[0], t[1]), []).append(t)
    return table


def rename_automaton(a: NPTA, renaming: LetterRenaming) -> NPTA:
    """Automaton for the renamed language: accepts rename_tree(t) exactly
    when `a` accepts t."""
    return replace(
        a,
        transitions=tuple((q, renaming.apply(s), l, r) for q, s, l, r in a.transitions),
    )


# ---------------------------------------------------------------------------
# Membership and emptiness games.

def _check_tree_alphabet(a, t: RegularTree):
    if not same_symbols(a.alphabet, t.alphabet):
        raise AutomatonError("automaton and tree alphabets differ")


def membership_start(a, t: RegularTree):
    return ("s", a.initial, t.root)


def membership_game(a: NPTA, t: RegularTree) -> ParityGame:
    """Acceptance as a parity game on states x generator nodes.

    Eve owns state positions and picks a transition; Adam owns transition
    positions and picks a direction.  Both carry the source state's rank, so
    plays mirror run branches.  A state position without a matching
    transition is an Eve dead end, which is a loss for Eve.

    The game is built on int keys over the N generator nodes in
    breadth-first order, the root being node 0: the position of state q at
    node v has key q·N + v, and the block of transition positions it moves
    to has key |Q|·N + q·N + v, states numbered in the automaton's order.
    Ids are handed out in breadth-first discovery order, and the names
    ("s", q, v) and ("t", transition, v) are made only when read.
    """
    _check_tree_alphabet(a, t)
    states, trans, nodes = a.states, a.transitions, t.nodes
    n, m = len(nodes), len(states)
    node_id = dict(zip(nodes, range(n)))
    state_id = dict(zip(states, range(m)))
    letter_id = {c: i for i, c in enumerate(a.alphabet.symbols)}
    labels = list(map(letter_id.__getitem__, t.label.values()))
    lefts = list(map(node_id.__getitem__, t.left.values()))
    rights = list(map(node_id.__getitem__, t.right.values()))
    # moves[q][c]: the transitions of state q on letter c, by number.
    moves = [[[] for _ in letter_id] for _ in states]
    for k, (q, c, _, _) in enumerate(trans):
        moves[state_id[q]][letter_id[c]].append(k)
    rank = [a.rank[q] for q in states]
    to_left = [state_id[tr[2]] * n for tr in trans]
    to_right = [state_id[tr[3]] * n for tr in trans]

    # The queue holds state keys and block keys in id order.  A transition
    # position's one predecessor is its state position, so the block gets
    # the next ids when that is expanded, and only state keys are looked up.
    start = state_id[a.initial] * n
    add = {start: 0}.setdefault
    queue = [start]
    count = 1
    owners, prios, succs = [], [], []
    for key in queue:
        q, v = divmod(key, n)
        if q < m:
            block = moves[q][labels[v]]
            owners.append(EVE)
            prios.append(rank[q])
            succs.append(tuple(range(count, count + len(block))))
            count += len(block)
            queue.append(key + m * n)
            continue
        q -= m
        left, right = lefts[v], rights[v]
        for k in moves[q][labels[v]]:
            w = to_left[k] + left
            i = add(w, count)
            if i == count:
                count += 1
                queue.append(w)
            w = to_right[k] + right
            j = add(w, count)
            if j == count:
                count += 1
                queue.append(w)
            owners.append(ADAM)
            prios.append(rank[q])
            succs.append((i, j))

    def names():
        yield membership_start(a, t)
        for q, v in map(divmod, queue[1:], repeat(n)):
            if q < m:
                yield "s", states[q], nodes[v]
            else:
                yield from (("t", trans[k], nodes[v]) for k in moves[q - m][labels[v]])

    return ParityGame._of(names, owners, prios, succs)


@dataclass(frozen=True)
class RunWitness:
    """Winning-strategy certificate for acceptance: Eve's positional
    strategy on her winning region of the membership game."""

    game: ParityGame
    strategy: Strategy
    region: frozenset
    start: object

    def check(self) -> bool:
        return self.start in self.region and verify_strategy(self.game, self.strategy, self.region)


def member(a: NPTA, t: RegularTree) -> bool:
    win, _ = _solve(membership_game(a, t))
    return 0 in win[EVE]


def member_witness(a: NPTA, t: RegularTree) -> RunWitness | None:
    game = membership_game(a, t)
    win, strat = _solve(game)
    if 0 not in win[EVE]:
        return None
    res = _named(game, win, strat)
    return RunWitness(game, res.eve_strategy, res.eve_region, game.positions[0])


def emptiness_game(a: NPTA) -> ParityGame:
    """Eve picks a letter and transition per state, Adam a direction; Eve
    wins somewhere exactly when the automaton accepts some tree."""
    by_state = {}
    for t in a.transitions:
        by_state.setdefault(t[0], []).append(t)

    def expand(pos):
        if pos[0] == "s":
            q = pos[1]
            return EVE, a.rank[q], tuple(("t", tr) for tr in by_state.get(q, ()))
        q, _, l, r = pos[1]
        return ADAM, a.rank[q], (("s", l), ("s", r))

    return explore(("s", a.initial), expand)


def strategy_tree(a: NPTA, choice: dict) -> RegularTree:
    """Tree read off a positional emptiness strategy: states become nodes,
    the chosen transition gives label and children.  Choices at states the
    tree never reaches are dropped."""
    label, left, right = {}, {}, {}
    for (_, q), (_, (_, letter, l, r)) in choice.items():
        label[q], left[q], right[q] = letter, l, r
    return RegularTree(a.alphabet, a.initial, label, left, right)


def witness(a: NPTA) -> RegularTree | None:
    """Some accepted tree, or None when the language is empty."""
    game = emptiness_game(a)
    win, strat = _solve(game)
    if 0 not in win[EVE]:
        return None
    names = game.positions
    return strategy_tree(a, {names[i]: names[j] for i, j in strat[EVE].items()})


# ---------------------------------------------------------------------------
# Products.

def _product(a: NPTA, b: NPTA, initial: tuple, carry, rank) -> NPTA:
    """Reachable part of the synchronized product of a and b from `initial`.
    States are tuples (a-state, b-state, *extra): carry(s) gives the extra
    components both children of s get, rank(s) the rank of s.  A state's
    name joins its components with '&', each with '\\' and '&' escaped."""
    ta, tb = transition_table(a), transition_table(b)
    order = [initial]
    seen = {initial}
    transitions = []
    for s in order:
        qa, qb = s[0], s[1]
        extra = carry(s)
        for letter in a.alphabet:
            for _, _, la, ra in ta.get((qa, letter), ()):
                for _, _, lb, rb in tb.get((qb, letter), ()):
                    l, r = (la, lb) + extra, (ra, rb) + extra
                    transitions.append((s, letter, l, r))
                    for nxt in (l, r):
                        if nxt not in seen:
                            seen.add(nxt)
                            order.append(nxt)
    name = {s: "&".join(str(c).replace("\\", "\\\\").replace("&", "\\&") for c in s)
            for s in order}
    return NPTA(
        a.alphabet,
        tuple(name[s] for s in order),
        name[initial],
        tuple((name[q], letter, name[l], name[r]) for q, letter, l, r in transitions),
        {name[s]: rank(s) for s in order},
    )


def intersection_product(a: NPTA, b: NPTA) -> NPTA:
    """Automaton for the intersection, for the two supported shapes, each
    read off the factors' rank sets: Büchi with Büchi (two-phase counter)
    and co-Büchi (ranks within {0, 1}), of any determinism, with Büchi
    (single Rabin pair folded into ranks {1,2,3}).  Anything else raises
    UnsupportedProduct."""
    if not same_symbols(a.alphabet, b.alphabet):
        raise AutomatonError("alphabet mismatch")

    if is_buchi(a) and is_buchi(b):
        # Phase 1 waits for an accepting a-state, phase 2 for an accepting
        # b-state; finishing phase 2 is the accepting event.
        def carry(s):
            qa, qb, phase = s
            if phase == 1:
                return (2 if a.rank[qa] == 2 else 1,)
            return (1 if b.rank[qb] == 2 else 2,)

        def rank(s):
            return 2 if s[2] == 2 and b.rank[s[1]] == 2 else 1

        return _product(a, b, (a.initial, b.initial, 1), carry, rank)

    if set(a.rank.values()) <= {0, 1} and is_buchi(b):
        # Branches must see a-rank 1 finitely often and b-rank 2 infinitely
        # often; priority 3 flags the former, 2 rewards the latter.
        def prio(s):
            if a.rank[s[0]] == 1:
                return 3
            return 2 if b.rank[s[1]] == 2 else 1

        return _product(a, b, (a.initial, b.initial), lambda s: (), prio)

    raise UnsupportedProduct(f"no product for indices {index_of(a)} x {index_of(b)}")


# ---------------------------------------------------------------------------
# Alternating automata.

class Formula:
    """Positive boolean combination of moves; see the subclasses."""


@dataclass(frozen=True)
class Atom(Formula):
    """Send one copy in the given direction ('1' or '2') in the given state."""

    direction: str
    state: str

    def __post_init__(self):
        if self.direction not in ("1", "2"):
            raise AutomatonError(f"direction must be '1' or '2', got {self.direction!r}")


@dataclass(frozen=True)
class _Junction(Formula):
    # The body And and Or share; equality also compares the class.
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


class And(_Junction):
    """Conjunction of its parts; Adam picks one.  TRUE has no parts."""


class Or(_Junction):
    """Disjunction of its parts; Eve picks one.  FALSE has no parts."""


TRUE = And(())
FALSE = Or(())


def _formula_states(f: Formula):
    if isinstance(f, Atom):
        yield f.state
    elif isinstance(f, _Junction):
        for part in f.parts:
            yield from _formula_states(part)


@dataclass(frozen=True)
class APTA:
    """Alternating parity tree automaton; delta maps (state, letter) to a
    formula and must be total."""

    alphabet: Alphabet
    states: tuple[str, ...]
    initial: str
    delta: dict
    rank: dict

    def __post_init__(self):
        states = _check_header(self)
        expected = {(q, letter) for q in self.states for letter in self.alphabet}
        if set(self.delta) != expected:
            raise AutomatonError("delta must be total on states x alphabet")
        for key, f in self.delta.items():
            if not isinstance(f, Formula):
                raise AutomatonError(f"delta{key!r} is not a formula")
            for q in _formula_states(f):
                if q not in states:
                    raise AutomatonError(f"delta{key!r} mentions unknown state {q!r}")
        object.__setattr__(self, "delta", dict(self.delta))


def acceptance_game(a: APTA, t: RegularTree) -> ParityGame:
    """Eve resolves disjunctions, Adam conjunctions.  A state position
    ("s", q, v) plays delta(q, label(v)) itself, and an Atom moves straight
    to the child's state position; only a nested And or Or gets a position
    ("f", q, v, f) of its own.  TRUE, the empty And, strands Adam and FALSE,
    the empty Or, strands Eve, so they are winning and losing sinks for
    Eve.  Every position carries the rank of its governing state."""
    _check_tree_alphabet(a, t)
    rank, delta, label = a.rank, a.delta, t.label
    child = {"1": t.left, "2": t.right}

    def expand(pos):
        q, v = pos[1], pos[2]
        f = delta[q, label[v]] if pos[0] == "s" else pos[3]
        if isinstance(f, Atom):
            owner, parts = EVE, (f,)
        else:
            owner, parts = (EVE if isinstance(f, Or) else ADAM), f.parts
        return owner, rank[q], [("s", p.state, child[p.direction][v]) if isinstance(p, Atom)
                                else ("f", q, v, p) for p in parts]

    return explore(("s", a.initial, t.root), expand)


def member_alt(a: APTA, t: RegularTree) -> bool:
    win, _ = _solve(acceptance_game(a, t))
    return 0 in win[EVE]


def npta_to_apta(a: NPTA) -> APTA:
    """Alternation-free embedding: each transition set becomes a disjunction
    of And(Atom('1', left), Atom('2', right)).  Its acceptance game is a's
    membership_game up to position names."""
    table = transition_table(a)
    delta = {
        (q, letter): transition_formula(table, q, letter, lambda p, d: Atom(d, p))
        for q in a.states
        for letter in a.alphabet
    }
    return APTA(a.alphabet, a.states, a.initial, delta, dict(a.rank))


def transition_formula(table: dict, q: str, letter: str, move) -> Formula:
    """The (q, letter) transitions of a transition_table as a formula: the
    disjunction over (q, letter, l, r) of And(move(l, '1'), move(r, '2')),
    FALSE when there is none."""
    return Or(tuple(
        And((move(l, "1"), move(r, "2")))
        for _, _, l, r in table.get((q, letter), ())
    ))


# ---------------------------------------------------------------------------
# Builtin automata.  Languages of {0,1}-labeled trees unless stated:
#   L        some branch carries infinitely many 1s (Büchi)
#   M01      every branch has limsup 0 (deterministic, index (0,1));
#            Mik(i,k) generalizes to labels/ranks i..k
#   K-det    the rightmost branch carries finitely many 1s (deterministic
#            co-Büchi); K-buchi is the nondeterministic Büchi form
#   W01      game-labeled trees where Eve wins the induced game (index (0,1));
#            W01-prime is its image under the owner/bit duality
#   UBbin    exactly one branch carries infinitely many 1s (index (0,2))

BINARY = Alphabet(("0", "1"))
GAME_LABELS = {"(E,0)": (EVE, 0), "(E,1)": (EVE, 1), "(A,0)": (ADAM, 0), "(A,1)": (ADAM, 1)}
GAME_ALPHABET = Alphabet(tuple(GAME_LABELS))
_GAME_LABEL_OF = dict(zip(GAME_LABELS.values(), GAME_LABELS))
DUALITY = LetterRenaming({s: _GAME_LABEL_OF[1 - o, 1 - b] for s, (o, b) in GAME_LABELS.items()})

BIT_SWAP = LetterRenaming({"0": "1", "1": "0"})


def _automaton_L() -> NPTA:
    transitions = []
    for q in ("q", "p"):
        transitions += [(q, "0", "q", "T"), (q, "0", "T", "q"),
                        (q, "1", "p", "T"), (q, "1", "T", "p")]
    transitions += [("T", "0", "T", "T"), ("T", "1", "T", "T")]
    return NPTA(BINARY, ("q", "p", "T"), "q", tuple(transitions),
                {"q": 1, "p": 2, "T": 2})


def _automaton_Mik(i: int, k: int) -> NPTA:
    if i not in (0, 1):
        raise AutomatonError("first rank must be 0 or 1")
    if k < i:
        raise AutomatonError("empty rank range")
    if k > _MIK_MAX_RANK:
        raise AutomatonError(f"Mik(i,k) takes k up to {_MIK_MAX_RANK}")
    symbols = tuple(str(m) for m in range(i, k + 1))
    alphabet = Alphabet(symbols)
    transitions = tuple((l, s, s, s) for l in symbols for s in symbols)
    return NPTA(alphabet, symbols, symbols[0], transitions,
                {s: int(s) for s in symbols})


def _automaton_K_det() -> NPTA:
    transitions = []
    for q in ("0", "1"):
        transitions += [(q, "0", "T", "0"), (q, "1", "T", "1")]
    transitions += [("T", "0", "T", "T"), ("T", "1", "T", "T")]
    return NPTA(BINARY, ("0", "1", "T"), "0", tuple(transitions),
                {"0": 0, "1": 1, "T": 0})


def _automaton_K_buchi() -> NPTA:
    transitions = [("q", "0", "T", "q"), ("q", "0", "T", "p"),
                   ("q", "1", "T", "q"), ("q", "1", "T", "p"),
                   ("p", "0", "T", "p"),
                   ("T", "0", "T", "T"), ("T", "1", "T", "T")]
    return NPTA(BINARY, ("q", "p", "T"), "q", tuple(transitions),
                {"q": 1, "p": 2, "T": 2})


def _automaton_W01() -> NPTA:
    # A state is the bit its node's parent carries (T: off the play); an
    # Eve label continues the play on one child, an Adam label on both.
    transitions = [("T", s, "T", "T") for s in GAME_LABELS]
    for s, (owner, bit) in GAME_LABELS.items():
        m = str(bit)
        moves = ((m, m),) if owner == ADAM else ((m, "T"), ("T", m))
        transitions += [(l, s, *move) for l in ("0", "1") for move in moves]
    return NPTA(GAME_ALPHABET, ("0", "1", "T"), "0", tuple(transitions),
                {"0": 0, "1": 1, "T": 0})


def _automaton_UBbin() -> NPTA:
    # Guess the unique bad branch; s-states ride it tracking the current
    # label, c-states run the no-bad-branch check on everything hung off it.
    transitions = []
    for b in ("0", "1"):
        for s in ("0", "1"):
            transitions.append((f"s{b}", s, f"s{s}", f"c{s}"))
            transitions.append((f"s{b}", s, f"c{s}", f"s{s}"))
            transitions.append((f"c{b}", s, f"c{s}", f"c{s}"))
    return NPTA(BINARY, ("s0", "s1", "c0", "c1"), "s0", tuple(transitions),
                {"s0": 1, "s1": 2, "c0": 0, "c1": 1})


_MIK = re.compile(r"Mik\((\d+),(\d+)\)")
# Mik(i,k) has (k+1)^2 transitions, and k comes from the command line.
_MIK_MAX_RANK = 100

_BUILTINS = {
    "L": _automaton_L,
    "M01": lambda: _automaton_Mik(0, 1),
    "K-det": _automaton_K_det,
    "K-buchi": _automaton_K_buchi,
    "W01": _automaton_W01,
    "W01-prime": lambda: rename_automaton(_automaton_W01(), DUALITY),
    "UBbin": _automaton_UBbin,
}

BUILTIN_NAMES = tuple(_BUILTINS)


def is_builtin_name(name: str) -> bool:
    """Whether `builtin` knows the name: one of BUILTIN_NAMES or 'Mik(i,k)'."""
    return name in _BUILTINS or _MIK.fullmatch(name) is not None


def builtin(name: str) -> NPTA:
    """Builtin automaton by name; Mik takes its ranks as in 'Mik(1,3)', k <= 100."""
    if name in _BUILTINS:
        return _BUILTINS[name]()
    m = _MIK.fullmatch(name)
    if m:
        try:
            i, k = map(int, m.groups())
        except ValueError:
            raise _too_many_digits("Mik(i,k)", AutomatonError) from None
        return _automaton_Mik(i, k)
    raise AutomatonError(f"unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# Serialization.

def _automaton_doc(a, key: str, entries: list) -> dict:
    """The header fields NPTA and APTA documents share, plus `key` holding
    the transitions or the delta entries."""
    return {"alphabet": list(a.alphabet.symbols), "states": list(a.states),
            "initial": a.initial, "ranks": dict(a.rank), key: entries}


def automaton_to_json(a: NPTA) -> dict:
    return _automaton_doc(a, "transitions", [
        {"from": q, "letter": letter, "left": l, "right": r}
        for q, letter, l, r in a.transitions
    ])


def _header_from_json(doc) -> tuple:
    """Alphabet, states, initial state and ranks of either automaton
    document."""
    try:
        alphabet = Alphabet(tuple(doc_field(doc, "alphabet", list, "automaton", AutomatonError)))
    except TreeError as exc:
        raise AutomatonError(str(exc)) from None
    states = tuple(doc_field(doc, "states", list, "automaton", AutomatonError))
    initial = doc_field(doc, "initial", str, "automaton", AutomatonError)
    ranks = doc_field(doc, "ranks", dict, "automaton", AutomatonError)
    return alphabet, states, initial, ranks


def automaton_from_json(doc: dict) -> NPTA:
    alphabet, states, initial, ranks = _header_from_json(doc)
    transitions = []
    for entry in doc_field(doc, "transitions", list, "automaton", AutomatonError):
        transitions.append((
            doc_field(entry, "from", str, "transition", AutomatonError),
            doc_field(entry, "letter", str, "transition", AutomatonError),
            doc_field(entry, "left", str, "transition", AutomatonError),
            doc_field(entry, "right", str, "transition", AutomatonError),
        ))
    return NPTA(alphabet, states, initial, tuple(transitions), ranks)


def formula_to_json(f: Formula, docs: dict | None = None):
    """f's document.  With `docs`, which maps the id of each formula written
    so far to its document, a formula object met again gets the same
    document, so shared parts give a DAG; the caller keeps those formulas
    alive, so no id in `docs` is reused."""
    if docs is None:
        docs = {}
    doc = docs.get(id(f))
    if doc is None:
        if isinstance(f, Atom):
            doc = {"op": "atom", "direction": f.direction, "state": f.state}
        elif not f.parts:
            doc = {"op": "true" if isinstance(f, And) else "false"}
        else:
            op = "and" if isinstance(f, And) else "or"
            doc = {"op": op, "parts": [formula_to_json(part, docs) for part in f.parts]}
        docs[id(f)] = doc
    return doc


def formula_from_json(doc) -> Formula:
    op = doc_field(doc, "op", str, "formula", AutomatonError)
    if op in ("true", "false"):
        return TRUE if op == "true" else FALSE
    if op == "atom":
        return Atom(doc_field(doc, "direction", str, "formula", AutomatonError),
                    doc_field(doc, "state", str, "formula", AutomatonError))
    if op in ("and", "or"):
        entries = doc_field(doc, "parts", list, "formula", AutomatonError)
        if not entries:
            # TRUE and FALSE have ops of their own.
            raise AutomatonError(f"{op.capitalize()} needs at least one part")
        parts = tuple(formula_from_json(p) for p in entries)
        return And(parts) if op == "and" else Or(parts)
    raise AutomatonError(f"formula: unknown op {op!r}")


def apta_to_json(a: APTA) -> dict:
    """The APTA's document, in which a formula object that a.delta holds in
    several places has one sub-document (copy.deepcopy keeps the sharing,
    so edit a formula in place only in a document read back from text)."""
    docs = {}
    return _automaton_doc(a, "delta", [
        {"state": q, "letter": letter, "formula": formula_to_json(a.delta[q, letter], docs)}
        for q in a.states
        for letter in a.alphabet
    ])


def apta_from_json(doc: dict) -> APTA:
    alphabet, states, initial, ranks = _header_from_json(doc)
    delta = {}
    for entry in doc_field(doc, "delta", list, "automaton", AutomatonError):
        key = (doc_field(entry, "state", str, "delta entry", AutomatonError),
               doc_field(entry, "letter", str, "delta entry", AutomatonError))
        if key in delta:
            raise AutomatonError(f"delta entry {key!r} duplicated")
        formula = doc_field(entry, "formula", dict, "delta entry", AutomatonError)
        delta[key] = formula_from_json(formula)
    return APTA(alphabet, states, initial, delta, ranks)


def load_automaton(path):
    """Load an NPTA or APTA document, telling them apart by their fields."""
    doc = read_doc(path, AutomatonError)
    if isinstance(doc, dict) and "delta" in doc:
        return apta_from_json(doc)
    return automaton_from_json(doc)
