"""Finitely presented infinite binary labeled trees.

An infinite full binary tree assigns a symbol of a finite alphabet to every
node word over the directions {1, 2}.  A tree with finitely many distinct
subtrees is stored as a finite generator graph: a set of nodes, a root, a
label per node and total left/right child maps.  Walking the generator along
a node word and reading the label evaluates the tree; re-rooting the same
generator yields subtrees.

Equality of the generated trees is bisimilarity of generators, and the
standard tree metric d(t1, t2) = 2^-n, with n the length of the shortest
disagreeing node word, is computed exactly by breadth-first search over the
product of the two generators.

All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

LEFT = "1"
RIGHT = "2"
DIRECTIONS = (LEFT, RIGHT)


class TreeError(ValueError):
    """Malformed generator, alphabet mismatch or bad document."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite collection of distinct symbol names."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise TreeError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise TreeError("alphabet symbols must be distinct")
        for s in self.symbols:
            if not isinstance(s, str):
                raise TreeError(f"symbol {s!r} is not a string")

    def __contains__(self, symbol):
        return symbol in self.symbols

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)


def same_symbols(a: Alphabet, b: Alphabet) -> bool:
    """Alphabet compatibility is by symbol set; order is presentation only."""
    return set(a.symbols) == set(b.symbols)


@dataclass(frozen=True)
class RegularTree:
    """Finite generator of an infinite binary labeled tree.

    Construction trims nodes unreachable from the root and checks that the
    label and both child maps are total on what remains, so a RegularTree
    always generates a total labeling of all node words.  One breadth-first
    walk lists the reachable nodes; when it fails, the first error is named
    from the nodes it listed.  Node ids may be any hashable value;
    serialization relabels non-scalar ids.
    """

    alphabet: Alphabet
    root: object
    label: dict
    left: dict
    right: dict

    def __post_init__(self):
        order = self._order()
        # Keep reachable nodes only, in breadth-first order from the root.
        for name in ("label", "left", "right"):
            m = getattr(self, name)
            object.__setattr__(self, name, dict(zip(order, map(m.__getitem__, order))))

    def _order(self):
        # Reachable nodes in breadth-first order, walked without per-node
        # checks.  When some reachable node lacks a child or a label in the
        # alphabet, the nodes the walk listed are scanned for the first
        # error in the order a checked walk would meet it: they are a prefix
        # of its order, and the first bad edge starts inside that prefix.
        label, left, right = self.label, self.left, self.right
        order, seen = [self.root], {self.root}
        try:
            for v in order:
                c = left[v]
                if c not in seen:
                    seen.add(c)
                    order.append(c)
                c = right[v]
                if c not in seen:
                    seen.add(c)
                    order.append(c)
            if set(map(label.__getitem__, order)) <= set(self.alphabet.symbols):
                return order
        except (KeyError, TypeError):
            pass
        if self.root not in label:
            raise TreeError(f"root {self.root!r} has no label")
        for v in order:
            for child_map, side in ((left, "left"), (right, "right")):
                if v not in child_map:
                    raise TreeError(f"node {v!r} has no {side} child")
                if child_map[v] not in label:
                    raise TreeError(f"{side} child {child_map[v]!r} of {v!r} is not a labeled node")
        v = next(v for v in order if label[v] not in self.alphabet)
        raise TreeError(f"label {label[v]!r} of node {v!r} is not in the alphabet")

    @property
    def nodes(self) -> tuple:
        """Generator nodes in breadth-first order from the root."""
        return tuple(self.label)

    def step(self, node, direction):
        if direction == LEFT:
            return self.left[node]
        if direction == RIGHT:
            return self.right[node]
        raise TreeError(f"direction must be '1' or '2', got {direction!r}")

    def walk(self, word: str):
        """Node reached from the root along a word over '1'/'2'."""
        v = self.root
        for d in word:
            v = self.step(v, d)
        return v


def label_at(t: RegularTree, word: str) -> str:
    """Symbol of the generated tree at the given node word."""
    return t.label[t.walk(word)]


def reroot(t: RegularTree, word: str) -> RegularTree:
    """Subtree at the given node word, presented by the same generator."""
    return RegularTree(t.alphabet, t.walk(word), t.label, t.left, t.right)


def constant_tree(alphabet: Alphabet, symbol: str) -> RegularTree:
    if symbol not in alphabet:
        raise TreeError(f"symbol {symbol!r} is not in the alphabet")
    return RegularTree(alphabet, 0, {0: symbol}, {0: 0}, {0: 0})


def _first_disagreement(t1: RegularTree, t2: RegularTree) -> int | None:
    """Length of the shortest node word where the labels differ, or None."""
    if not same_symbols(t1.alphabet, t2.alphabet):
        raise TreeError("alphabet mismatch")
    layer = [(t1.root, t2.root)]
    seen = set(layer)
    depth = 0
    while layer:
        following = []
        for a, b in layer:
            if t1.label[a] != t2.label[b]:
                return depth
            for pair in ((t1.left[a], t2.left[b]), (t1.right[a], t2.right[b])):
                if pair not in seen:
                    seen.add(pair)
                    following.append(pair)
        layer, depth = following, depth + 1
    return None


def bisimilar(t1: RegularTree, t2: RegularTree) -> bool:
    """Whether two generators present the same tree."""
    return _first_disagreement(t1, t2) is None


def tree_distance(t1: RegularTree, t2: RegularTree) -> Fraction:
    """Exact tree metric 2^-n, n the length of the shortest disagreeing word.

    Returns 0 when the trees are equal.  The search runs over the finite
    product of the generators, so it always terminates; a disagreement can
    only surface at depth below the product size.
    """
    depth = _first_disagreement(t1, t2)
    if depth is None:
        return Fraction(0)
    return Fraction(1, 2 ** depth)


@dataclass(frozen=True)
class LetterRenaming:
    """Permutation of a symbol set, applied to labels pointwise."""

    mapping: dict

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))
        values = list(self.mapping.values())
        if len(set(values)) != len(values):
            raise TreeError("renaming is not injective")
        if set(values) != set(self.mapping):
            raise TreeError("renaming must permute its own domain")

    def apply(self, symbol: str) -> str:
        try:
            return self.mapping[symbol]
        except KeyError:
            raise TreeError(f"symbol {symbol!r} outside renaming domain") from None


def rename_tree(t: RegularTree, renaming: LetterRenaming) -> RegularTree:
    """Tree with every label replaced by its image under the renaming."""
    new_label = {v: renaming.apply(s) for v, s in t.label.items()}
    return RegularTree(t.alphabet, t.root, new_label, t.left, t.right)


def graft_spine(subtrees_head, subtrees_tail, spine_label: str) -> RegularTree:
    """Hang subtrees off the rightmost branch.

    The result carries `spine_label` on every node 2^n of the rightmost
    branch; node 2^n 1 roots subtrees_head[n] while the head lasts, and one
    shared copy of subtrees_tail beyond it (the spine loops there, keeping
    the result regular).  The result takes the first input's alphabet.
    """
    head = list(subtrees_head)
    alphabet = (head[0] if head else subtrees_tail).alphabet
    for t in head + [subtrees_tail]:
        if not same_symbols(t.alphabet, alphabet):
            raise TreeError("graft_spine inputs must share an alphabet")
    if spine_label not in alphabet:
        raise TreeError(f"spine label {spine_label!r} is not in the alphabet")

    label, left, right = {}, {}, {}

    def add_copy(tag, t):
        for v in t.nodes:
            label[tag, v] = t.label[v]
            left[tag, v] = (tag, t.left[v])
            right[tag, v] = (tag, t.right[v])
        return (tag, t.root)

    head_roots = [add_copy(("h", i), t) for i, t in enumerate(head)]
    tail_root = add_copy("t", subtrees_tail)
    k = len(head)
    for n in range(k + 1):
        s = ("s", n)
        label[s] = spine_label
        right[s] = ("s", n + 1) if n < k else s
        left[s] = head_roots[n] if n < k else tail_root
    return RegularTree(alphabet, ("s", 0), label, left, right)


def random_regular_tree(alphabet: Alphabet, max_nodes: int, seed: int) -> RegularTree:
    """Random generator with at most max_nodes nodes, deterministic in seed."""
    if max_nodes < 1:
        raise TreeError("max_nodes must be at least 1")
    rng = random.Random(seed)
    n = rng.randint(1, max_nodes)
    label = {i: rng.choice(alphabet.symbols) for i in range(n)}
    left = {i: rng.randrange(n) for i in range(n)}
    right = {i: rng.randrange(n) for i in range(n)}
    return RegularTree(alphabet, 0, label, left, right)


# ---------------------------------------------------------------------------
# Serialization.  Node words travel as strings over '1'/'2'; trees as
#   {"alphabet": [...], "root": id, "nodes": [{"id", "label", "left", "right"}]}
# with scalar (string or integer) node ids.  Other ids are relabeled in
# breadth-first order.

def check_node_word(word) -> str:
    if not isinstance(word, str) or any(d not in DIRECTIONS for d in word):
        raise TreeError(f"node word must be a string over '1'/'2', got {word!r}")
    return word


def _scalar_ids(t: RegularTree) -> dict:
    if all(isinstance(v, (str, int)) and not isinstance(v, bool) for v in t.nodes):
        return {v: v for v in t.nodes}
    return {v: i for i, v in enumerate(t.nodes)}


def tree_to_json(t: RegularTree) -> dict:
    ids = _scalar_ids(t)
    return {
        "alphabet": list(t.alphabet.symbols),
        "root": ids[t.root],
        "nodes": [
            {"id": ids[v], "label": t.label[v], "left": ids[t.left[v]], "right": ids[t.right[v]]}
            for v in t.nodes
        ],
    }


def read_text(path, error, what):
    """The text of the file at `path`; raises `error`, naming the file, when
    it is not valid UTF-8 and so not valid `what`.  A file that cannot be
    opened raises OSError."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not valid {what}: {exc}") from None


def read_doc(path, error):
    """The JSON document in the file at `path`; raises `error` when the file
    is not valid UTF-8 JSON.  A file that cannot be opened raises OSError."""
    text = read_text(path, error, "JSON")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from None


def doc_text(doc) -> str:
    """The text every document file and command output is written in: the
    bytes of `json.dumps(doc, indent=2, sort_keys=True)` plus a newline.
    Documents hold str, int, bool, None, lists, tuples and dicts with str
    keys; any other value raises TypeError."""
    return _json_text(doc, "\n") + "\n"


# json.dumps falls back to its pure-Python encoder when `indent` is set; this
# writer leaves each string to json's C escaper and each int to int.__repr__.
_escape = json.encoder.encode_basestring_ascii
_int_text = int.__repr__


def _json_text(v, nl):
    # v written at the indent that the line break `nl` carries.  Plain
    # loops, not comprehensions, keep one frame per nesting level, so this
    # writes documents as deep as json.dumps did.
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = nl + "  "
        items = []
        for x in v:
            items.append(_int_text(x) if type(x) is int else _json_text(x, inner))
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = nl + "  "
        items = []
        for k, x in sorted(v.items()):
            text = _escape(x) if type(x) is str else _json_text(x, inner)
            items.append(_escape(k) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(v, str):
        return _escape(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return _int_text(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def doc_field(doc, key, kinds, what, error):
    """doc[key] after checking that doc is an object holding the key with a
    value of the given type(s); raises `error` otherwise."""
    if not isinstance(doc, dict) or key not in doc:
        raise error(f"{what}: missing field {key!r}")
    value = doc[key]
    if kinds is not None and not isinstance(value, kinds):
        raise error(f"{what}: field {key!r} has the wrong type")
    return value


def tree_from_json(doc: dict) -> RegularTree:
    symbols = doc_field(doc, "alphabet", list, "tree document", TreeError)
    alphabet = Alphabet(tuple(symbols))
    root = doc_field(doc, "root", (str, int), "tree document", TreeError)
    entries = doc_field(doc, "nodes", list, "tree document", TreeError)
    label, left, right = _bulk_entries(entries) or _checked_entries(entries)
    return RegularTree(alphabet, root, label, left, right)


def _bulk_entries(entries):
    # The label and child maps of node entries read field by field in bulk;
    # None unless every entry is a plain object, every label a str, every
    # id and child a str, int or bool (what JSON gives that doc_field takes)
    # and no id repeats.  _checked_entries reads the rest.
    if not set(map(type, entries)) <= {dict}:
        return None
    try:
        ids = [e["id"] for e in entries]
        labels = [e["label"] for e in entries]
        lefts = [e["left"] for e in entries]
        rights = [e["right"] for e in entries]
    except KeyError:
        return None
    if (not set(map(type, labels)) <= {str}
            or not set(map(type, itertools.chain(ids, lefts, rights))) <= {str, int, bool}):
        return None
    label = dict(zip(ids, labels))
    if len(label) < len(ids):
        return None
    return label, dict(zip(ids, lefts)), dict(zip(ids, rights))


def _checked_entries(entries):
    # Entry by entry, raising the first TreeError.
    label, left, right = {}, {}, {}
    for entry in entries:
        v = doc_field(entry, "id", (str, int), "tree node", TreeError)
        if v in label:
            raise TreeError(f"duplicate node id {v!r}")
        label[v] = doc_field(entry, "label", str, "tree node", TreeError)
        left[v] = doc_field(entry, "left", (str, int), "tree node", TreeError)
        right[v] = doc_field(entry, "right", (str, int), "tree node", TreeError)
    return label, left, right


def dump_tree(t: RegularTree, path) -> None:
    with open(path, "w") as handle:
        handle.write(doc_text(tree_to_json(t)))


def load_tree(path) -> RegularTree:
    return tree_from_json(read_doc(path, TreeError))
