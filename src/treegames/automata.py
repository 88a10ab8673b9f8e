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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

from .trees import (
    Alphabet,
    RegularTree,
    LetterRenaming,
    TreeError,
    doc_field,
    doc_text,
    read_doc,
    same_symbols,
)
from .games import EVE, ADAM, ParityGame, Strategy, explore, solve, verify_strategy


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
    if len(set(a.states)) != len(a.states):
        raise AutomatonError("duplicate states")
    for q in a.states:
        if not isinstance(q, str):
            raise AutomatonError(f"state {q!r} is not a string")
    states = set(a.states)
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
        for q, a, l, r in normalized:
            if q not in states or l not in states or r not in states:
                raise AutomatonError(f"transition {(q, a, l, r)!r} uses an unknown state")
            if a not in self.alphabet:
                raise AutomatonError(f"transition {(q, a, l, r)!r} uses an unknown letter")
        object.__setattr__(self, "transitions", tuple(normalized))


def index_of(a) -> Index:
    lo = min(a.rank.values())
    hi = max(a.rank.values())
    shift = lo - (lo % 2)
    return Index(lo - shift, hi - shift)


def is_buchi(a) -> bool:
    return set(a.rank.values()) <= {1, 2}


def is_deterministic(a: NPTA) -> bool:
    # An NPTA's transitions are distinct, so every group is a single
    # transition exactly when no (state, letter) pair repeats.
    return len(transition_table(a)) == len(a.transitions)


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
    """
    _check_tree_alphabet(a, t)
    table = transition_table(a)
    # Locals keep the per-position callback as cheap as an inline loop.
    rank, label, left, right = a.rank, t.label, t.left, t.right

    def expand(pos):
        if pos[0] == "s":
            _, q, v = pos
            return EVE, rank[q], [("t", tr, v) for tr in table.get((q, label[v]), ())]
        _, (q, _, l, r), v = pos
        return ADAM, rank[q], (("s", l, left[v]), ("s", r, right[v]))

    return explore(membership_start(a, t), expand)


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
    return member_witness(a, t) is not None


def member_witness(a: NPTA, t: RegularTree) -> RunWitness | None:
    game = membership_game(a, t)
    res = solve(game)
    start = membership_start(a, t)
    if start not in res.eve_region:
        return None
    return RunWitness(game, res.eve_strategy, res.eve_region, start)


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
    res = solve(game)
    if game.positions[0] not in res.eve_region:
        return None
    return strategy_tree(a, res.eve_strategy.choice)


# ---------------------------------------------------------------------------
# Products.

def _product(a: NPTA, b: NPTA, initial: tuple, carry, rank) -> NPTA:
    """Reachable part of the synchronized product of a and b from `initial`.
    States are tuples (a-state, b-state, *extra): carry(s) gives the extra
    components both children of s get, rank(s) the rank of s.  A state's
    name joins its components with '&'."""
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
    name = {s: "&".join(map(str, s)) for s in order}
    return NPTA(
        a.alphabet,
        tuple(name[s] for s in order),
        name[initial],
        tuple((name[q], letter, name[l], name[r]) for q, letter, l, r in transitions),
        {name[s]: rank(s) for s in order},
    )


def intersection_product(a: NPTA, b: NPTA) -> NPTA:
    """Automaton for the intersection, for the two supported index shapes:
    Büchi with Büchi (two-phase counter) and deterministic (0,1) with Büchi
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

    if is_deterministic(a) and index_of(a) == Index(0, 1) and is_buchi(b):
        # Branches must see a-rank 1 finitely often and b-rank 2 infinitely
        # often; priority 3 flags the former, 2 rewards the latter.
        def prio(s):
            if a.rank[s[0]] == 1:
                return 3
            return 2 if b.rank[s[1]] == 2 else 1

        return _product(a, b, (a.initial, b.initial), lambda s: (), prio)

    raise UnsupportedProduct(
        f"no product for indices {index_of(a)} x {index_of(b)}"
        f"{'' if is_deterministic(a) else ' (left factor nondeterministic)'}")


# ---------------------------------------------------------------------------
# Alternating automata.

class Formula:
    """Positive boolean combination of moves; see the subclasses.

    Atom, And and Or compute their hash once, in __post_init__, from the
    fields their equality compares, so hashing a game position that holds a
    formula costs one call rather than a walk over the whole formula."""

    __slots__ = ()

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuild from the fields, so that an unpickled formula hashes under
        # its own process's string hash seed.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Constant(Formula):
    """TRUE or FALSE: the formula that holds, or fails, outright."""

    value: bool


@dataclass(frozen=True)
class Atom(Formula):
    """Send one copy in the given direction ('1' or '2') in the given state."""

    direction: str
    state: str

    def __post_init__(self):
        if self.direction not in ("1", "2"):
            raise AutomatonError(f"direction must be '1' or '2', got {self.direction!r}")
        object.__setattr__(self, "_hash", hash((self.direction, self.state)))

    __hash__ = Formula.__hash__


@dataclass(frozen=True)
class _Junction(Formula):
    # The body And and Or share; equality also compares the class.
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise AutomatonError(f"{type(self).__name__} needs at least one part")
        object.__setattr__(self, "_hash", hash((self.parts,)))

    __hash__ = Formula.__hash__


class And(_Junction):
    """Conjunction of its parts; Adam picks one."""


class Or(_Junction):
    """Disjunction of its parts; Eve picks one."""


TRUE = Constant(True)
FALSE = Constant(False)


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
    """Eve resolves disjunctions, Adam conjunctions; an Atom advances to the
    child state position.  TRUE strands Adam and FALSE strands Eve, so
    they are winning and losing sinks for Eve.  Every position
    carries the rank of its governing state."""
    _check_tree_alphabet(a, t)

    def expand(pos):
        q, v = pos[1], pos[2]
        rank = a.rank[q]
        if pos[0] == "s":
            return EVE, rank, (("f", q, v, a.delta[q, t.label[v]]),)
        f = pos[3]
        if isinstance(f, Constant):
            return (ADAM if f.value else EVE), rank, ()
        if isinstance(f, Atom):
            return EVE, rank, (("s", f.state, t.step(v, f.direction)),)
        owner = EVE if isinstance(f, Or) else ADAM
        return owner, rank, tuple(("f", q, v, part) for part in f.parts)

    return explore(("s", a.initial, t.root), expand)


def member_alt(a: APTA, t: RegularTree) -> bool:
    game = acceptance_game(a, t)
    return game.positions[0] in solve(game).eve_region


def npta_to_apta(a: NPTA) -> APTA:
    """Alternation-free embedding: each transition set becomes a disjunction
    of And(Atom('1', left), Atom('2', right))."""
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
    choices = [
        And((move(l, "1"), move(r, "2")))
        for _, _, l, r in table.get((q, letter), ())
    ]
    return Or(tuple(choices)) if choices else FALSE


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
GAME_ALPHABET = Alphabet(("(E,0)", "(E,1)", "(A,0)", "(A,1)"))

DUALITY = LetterRenaming({
    "(E,0)": "(A,1)",
    "(E,1)": "(A,0)",
    "(A,0)": "(E,1)",
    "(A,1)": "(E,0)",
})

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
    transitions = []
    for l in ("0", "1"):
        for m in ("0", "1"):
            transitions.append((l, f"(A,{m})", m, m))
            transitions.append((l, f"(E,{m})", m, "T"))
            transitions.append((l, f"(E,{m})", "T", m))
    for owner in ("E", "A"):
        for m in ("0", "1"):
            transitions.append(("T", f"({owner},{m})", "T", "T"))
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
    """Builtin automaton by name; Mik takes its ranks as in 'Mik(1,3)'."""
    if name in _BUILTINS:
        return _BUILTINS[name]()
    m = _MIK.fullmatch(name)
    if m:
        return _automaton_Mik(int(m.group(1)), int(m.group(2)))
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


def formula_to_json(f: Formula):
    if isinstance(f, Constant):
        return {"op": "true" if f.value else "false"}
    if isinstance(f, Atom):
        return {"op": "atom", "direction": f.direction, "state": f.state}
    op = "and" if isinstance(f, And) else "or"
    return {"op": op, "parts": [formula_to_json(part) for part in f.parts]}


def formula_from_json(doc) -> Formula:
    op = doc_field(doc, "op", str, "formula", AutomatonError)
    if op in ("true", "false"):
        return TRUE if op == "true" else FALSE
    if op == "atom":
        return Atom(doc_field(doc, "direction", str, "formula", AutomatonError),
                    doc_field(doc, "state", str, "formula", AutomatonError))
    if op in ("and", "or"):
        entries = doc_field(doc, "parts", list, "formula", AutomatonError)
        parts = tuple(formula_from_json(p) for p in entries)
        return And(parts) if op == "and" else Or(parts)
    raise AutomatonError(f"formula: unknown op {op!r}")


def apta_to_json(a: APTA) -> dict:
    return _automaton_doc(a, "delta", [
        {"state": q, "letter": letter, "formula": formula_to_json(a.delta[q, letter])}
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


def dump_automaton(a, path) -> None:
    doc = apta_to_json(a) if isinstance(a, APTA) else automaton_to_json(a)
    with open(path, "w") as handle:
        handle.write(doc_text(doc))


def load_automaton(path):
    """Load an NPTA or APTA document, telling them apart by their fields."""
    doc = read_doc(path, AutomatonError)
    if isinstance(doc, dict) and "delta" in doc:
        return apta_from_json(doc)
    return automaton_from_json(doc)
