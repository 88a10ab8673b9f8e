"""Game tree languages over the four-letter game alphabet.

A tree labeled by (owner, bit) pairs induces a parity game on its own
generator: the owner component says who moves at a node, the bit is the
node's priority, and the two children are the moves.  W01 collects the trees
whose induced game Eve wins (highest bit seen infinitely often is 0 on the
play), and W01-prime is the image of W01 under the duality that flips both
owner and bit.  A tree can fall in neither language, but never in both.

BorelCode is a small language of set descriptions: finite-support cylinders,
complement, and countable unions presented as a finite head plus an optional
looped tail.  eval_borel decides membership of a tree in the described set;
reduce_borel maps the tree to a game-labeled tree that lands in W01 when the
tree is in the set and in W01-prime when it is not, reading the input only
at the finitely many node words the cylinders mention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import (
    RegularTree,
    TreeError,
    check_node_word,
    constant_tree,
    doc_field,
    graft_spine,
    label_at,
    rename_tree,
    same_symbols,
)
from .games import EVE, ADAM, ParityGame, _solve
from .automata import GAME_ALPHABET, GAME_LABELS, DUALITY


# Owner and priority of the induced game's position at a node, by label.
_OWNERS = {symbol: owner for symbol, (owner, _) in GAME_LABELS.items()}
_BITS = {symbol: bit for symbol, (_, bit) in GAME_LABELS.items()}
ALL_EXISTS_ZERO = constant_tree(GAME_ALPHABET, "(E,0)")
ALL_FORALL_ONE = constant_tree(GAME_ALPHABET, "(A,1)")


def _require_game_alphabet(t: RegularTree):
    if not same_symbols(t.alphabet, GAME_ALPHABET):
        raise TreeError("tree is not over the game alphabet")


def game_of_tree(t: RegularTree) -> ParityGame:
    """The induced parity game on the tree's generator nodes."""
    _require_game_alphabet(t)
    return _generator_game(t, _OWNERS, _BITS)


def _generator_game(t: RegularTree, owner: dict, priority: dict) -> ParityGame:
    # The game on the generator whose node owners and priorities are read
    # off the tables by label; a label outside them names the first such
    # node in breadth-first order.  The generator keeps its nodes in
    # breadth-first order from the root, the order explore() would find
    # them in, so node i is position i and the successors are read straight
    # off the child maps.
    labels = t.label.values()
    try:
        owners = tuple(map(owner.__getitem__, labels))
        prios = tuple(map(priority.__getitem__, labels))
    except KeyError as exc:
        raise TreeError(f"label {exc.args[0]!r} outside {sorted(priority)}") from None
    nodes = t.nodes
    index = dict(zip(nodes, range(len(nodes))))
    succs = zip(map(index.__getitem__, t.left.values()), map(index.__getitem__, t.right.values()))
    return ParityGame._of(nodes, owners, prios, succs)


def in_w01(t: RegularTree) -> bool:
    """Whether Eve wins the induced game from the root."""
    return 0 in _solve(game_of_tree(t))[0][EVE]


def in_w01_prime(t: RegularTree) -> bool:
    """Whether the dual-renamed tree lands in W01; equivalently, whether
    Adam wins the induced game with the strong requirement that the highest
    bit seen infinitely often is 1.  The dual renaming flips each label's
    owner and bit, so its game is the induced game with both arrays
    flipped."""
    return 0 in _solve(_dual_game(game_of_tree(t)))[0][EVE]


def _dual_game(g: ParityGame) -> ParityGame:
    # Same names source, so neither game makes names unless one is read.
    return ParityGame._of(g._names, [1 - o for o in g.owners], [1 - b for b in g.prios], g.succs)


def _w01_verdicts(t: RegularTree) -> tuple[bool, bool]:
    """(in_w01(t), in_w01_prime(t)) from one build of the induced game."""
    g = game_of_tree(t)
    return 0 in _solve(g)[0][EVE], 0 in _solve(_dual_game(g))[0][EVE]


# ---------------------------------------------------------------------------
# Borel codes.

class BorelCode:
    """A set description: a Cyl, Neg or Union."""

    __slots__ = ()


@dataclass(frozen=True)
class Cyl(BorelCode):
    """Cylinder: all trees matching a finite assignment of game labels to
    node words.  A pair may repeat, but a word given two different labels
    raises TreeError."""

    assign: tuple

    def __post_init__(self):
        entries = {}
        for word, symbol in self.assign:
            check_node_word(word)
            if symbol not in GAME_ALPHABET:
                raise TreeError(f"cylinder value {symbol!r} is not a game label")
            if entries.setdefault(word, symbol) != symbol:
                raise TreeError(f"cylinder word {word!r} has two labels, "
                                f"{entries[word]!r} and {symbol!r}")
        object.__setattr__(self, "assign", tuple(sorted(entries.items())))

    @property
    def rank(self) -> int:
        return 0


@dataclass(frozen=True)
class Neg(BorelCode):
    of: BorelCode

    @property
    def rank(self) -> int:
        return self.of.rank


@dataclass(frozen=True)
class Union(BorelCode):
    """Countable union: the head codes, then the tail code repeating forever
    (no tail means the union is just the finite head)."""

    head: tuple
    tail: BorelCode | None = None

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(self.head))
        if not self.head and self.tail is None:
            raise TreeError("Union needs a head member or a tail")

    @property
    def rank(self) -> int:
        parts = [c.rank for c in self.head]
        if self.tail is not None:
            parts.append(self.tail.rank)
        return 1 + max(parts)


def eval_borel(code: BorelCode, t: RegularTree) -> bool:
    """Membership of the tree in the coded set."""
    _require_game_alphabet(t)
    if isinstance(code, Cyl):
        return all(label_at(t, word) == symbol for word, symbol in code.assign)
    if isinstance(code, Neg):
        return not eval_borel(code.of, t)
    if isinstance(code, Union):
        if any(eval_borel(c, t) for c in code.head):
            return True
        return code.tail is not None and eval_borel(code.tail, t)
    raise TreeError(f"not a Borel code: {code!r}")


def reduce_borel(code: BorelCode, t: RegularTree) -> RegularTree:
    """Continuous reduction to the W01/W01-prime pair: the result is in W01
    exactly when the tree is in the coded set, and in W01-prime exactly when
    it is not.

    Cylinders collapse to the constant witnesses, complement is the duality
    renaming, and unions hang the member reductions off an Eve spine with
    bit 1: Eve wins by leaving the spine into a member that holds, and loses
    strongly if she stays (bit 1 forever) or enters a member that fails.  A
    union without a tail repeats ALL_FORALL_ONE, the empty set's image.
    """
    _require_game_alphabet(t)
    if isinstance(code, Cyl):
        return ALL_EXISTS_ZERO if eval_borel(code, t) else ALL_FORALL_ONE
    if isinstance(code, Neg):
        return rename_tree(reduce_borel(code.of, t), DUALITY)
    if isinstance(code, Union):
        head = [reduce_borel(c, t) for c in code.head]
        tail = ALL_FORALL_ONE if code.tail is None else reduce_borel(code.tail, t)
        return graft_spine(head, tail, "(E,1)")
    raise TreeError(f"not a Borel code: {code!r}")


def read_depth(code: BorelCode) -> int:
    """Length of the longest node word any cylinder reads; -1 when the code
    never looks at the tree.  Trees agreeing on all words up to this length
    reduce to bisimilar outputs."""
    if isinstance(code, Cyl):
        return max((len(word) for word, _ in code.assign), default=-1)
    if isinstance(code, Neg):
        return read_depth(code.of)
    if isinstance(code, Union):
        parts = [read_depth(c) for c in code.head]
        if code.tail is not None:
            parts.append(read_depth(code.tail))
        return max(parts)
    raise TreeError(f"not a Borel code: {code!r}")


# ---------------------------------------------------------------------------
# Membership in the plain parity languages, decided on the generator
# directly.

def parity_lang_member(t: RegularTree, i: int, k: int) -> bool:
    """Whether every branch of a tree labeled by i..k has even limsup.  All
    positions belong to Adam (he picks the branch), so this holds exactly
    when every reachable cycle of the generator has an even maximum."""
    if i not in (0, 1) or k < i:
        raise TreeError("labels must run from i in {0,1} to k >= i")
    prios = {str(m): m for m in range(i, k + 1)}
    return 0 in _solve(_generator_game(t, dict.fromkeys(prios, ADAM), prios))[0][EVE]


# ---------------------------------------------------------------------------
# Serialization:
#   {"kind": "cyl", "assign": {"12": "(E,0)"}}
#   {"kind": "neg", "of": {...}}
#   {"kind": "union", "head": [...], "tail": {...} or null}

def code_to_json(code: BorelCode) -> dict:
    if isinstance(code, Cyl):
        return {"kind": "cyl", "assign": {word: symbol for word, symbol in code.assign}}
    if isinstance(code, Neg):
        return {"kind": "neg", "of": code_to_json(code.of)}
    if isinstance(code, Union):
        return {
            "kind": "union",
            "head": [code_to_json(c) for c in code.head],
            "tail": None if code.tail is None else code_to_json(code.tail),
        }
    raise TreeError(f"not a Borel code: {code!r}")


def code_from_json(doc) -> BorelCode:
    kind = doc_field(doc, "kind", None, "code document", TreeError)
    if kind == "cyl":
        return Cyl(tuple(doc_field(doc, "assign", dict, "cyl code", TreeError).items()))
    if kind == "neg":
        return Neg(code_from_json(doc_field(doc, "of", None, "neg code", TreeError)))
    if kind == "union":
        head = doc_field(doc, "head", list, "union code", TreeError)
        tail = doc.get("tail")
        return Union(tuple(code_from_json(c) for c in head),
                     None if tail is None else code_from_json(tail))
    raise TreeError(f"code document: unknown kind {kind!r}")
