"""Regular tree generators: construction, bisimilarity, metric, grafting,
serialization."""

import glob
import json
import os
import random
import re
import sys
import tracemalloc
from collections import Counter, OrderedDict
from enum import IntEnum
from fractions import Fraction

import pytest

from treegames import trees
from treegames.automata import And, Atom, formula_to_json
from treegames.trees import (
    Alphabet,
    LetterRenaming,
    RegularTree,
    TreeError,
    bisimilar,
    constant_tree,
    doc_text,
    graft_spine,
    label_at,
    load_tree,
    rename_tree,
    tree_distance,
    tree_from_json,
    tree_to_json,
)

from helpers import (
    random_regular_tree,
    regular_tree_by_checks,
    tree_from_json_by_entries,
    unfold_with_tail,
    write_doc,
)

AB = Alphabet(("a", "b"))


def test_alphabet_validation():
    with pytest.raises(TreeError):
        Alphabet(())
    with pytest.raises(TreeError):
        Alphabet(("a", "a"))
    with pytest.raises(TreeError):
        Alphabet(("a", 3))
    assert "a" in AB and "c" not in AB
    assert len(AB) == 2


def test_constant_tree():
    t = constant_tree(AB, "a")
    for word in ("", "1", "2", "1212", "2221"):
        assert label_at(t, word) == "a"
    with pytest.raises(TreeError):
        constant_tree(AB, "c")


def test_generator_is_trimmed_to_reachable_nodes():
    t = RegularTree(AB, 0,
                    {0: "a", 1: "b", 2: "a"},
                    {0: 0, 1: 1, 2: 0},
                    {0: 1, 1: 0, 2: 2})
    assert set(t.nodes) == {0, 1}, "node 2 is unreachable and must be dropped"
    assert 2 not in t.label


def test_generator_validation():
    with pytest.raises(TreeError):
        RegularTree(AB, 0, {0: "a"}, {0: 0}, {0: 1})  # right child missing
    with pytest.raises(TreeError, match="has no left child"):
        RegularTree(AB, 0, {0: "a"}, {}, {0: 0})
    with pytest.raises(TreeError):
        RegularTree(AB, 0, {0: "c"}, {0: 0}, {0: 0})  # label outside alphabet
    with pytest.raises(TreeError):
        RegularTree(AB, 5, {0: "a"}, {0: 0}, {0: 0})  # root not a node


def test_step_and_walk():
    t = RegularTree(AB, 0, {0: "a", 1: "b"}, {0: 1, 1: 1}, {0: 0, 1: 0})
    assert t.step(0, "1") == 1
    assert t.walk("12") == 0
    assert label_at(t, "11") == "b"
    with pytest.raises(TreeError):
        t.walk("10")


def test_bisimilar_identifies_equal_unfoldings():
    one = constant_tree(AB, "a")
    # Two nodes presenting the same all-a tree.
    two = RegularTree(AB, "x", {"x": "a", "y": "a"},
                      {"x": "y", "y": "x"}, {"x": "x", "y": "y"})
    assert bisimilar(one, two)
    assert bisimilar(two, one)
    three = RegularTree(AB, "x", {"x": "a", "y": "b"},
                        {"x": "y", "y": "x"}, {"x": "x", "y": "y"})
    assert not bisimilar(one, three)


def test_distance_frozen_cases():
    ta, tb = constant_tree(AB, "a"), constant_tree(AB, "b")
    assert tree_distance(ta, tb) == 1
    assert tree_distance(ta, ta) == 0
    # Differ first at the left child of the root.
    t = RegularTree(AB, 0, {0: "a", 1: "b"}, {0: 1, 1: 1}, {0: 0, 1: 1})
    s = RegularTree(AB, 0, {0: "a", 1: "a"}, {0: 1, 1: 1}, {0: 0, 1: 1})
    assert tree_distance(t, s) == Fraction(1, 2)
    with pytest.raises(TreeError, match="alphabet mismatch"):
        tree_distance(ta, constant_tree(Alphabet(("a", "c")), "a"))


def test_distance_matches_wordwise_comparison():
    # Oracle: scan all words by increasing length and compare labels.
    rng = random.Random(401)
    for trial in range(120):
        t1 = random_regular_tree(AB, 4, rng.randrange(10 ** 6))
        t2 = random_regular_tree(AB, 4, rng.randrange(10 ** 6))
        first = None
        words = [""]
        for word in words:
            if len(word) > 8:
                break
            if label_at(t1, word) != label_at(t2, word):
                first = len(word)
                break
            words.extend((word + "1", word + "2"))
        got = tree_distance(t1, t2)
        if first is not None:
            assert got == Fraction(1, 2 ** first), (trial, first, got)
        else:
            assert got < Fraction(1, 2 ** 8), (trial, got)


def test_distance_is_an_ultrametric():
    rng = random.Random(402)
    for _ in range(60):
        x, y, z = (random_regular_tree(AB, 4, rng.randrange(10 ** 6))
                   for _ in range(3))
        dxz = tree_distance(x, z)
        assert dxz <= max(tree_distance(x, y), tree_distance(y, z)), (x, y, z)
        assert tree_distance(x, y) == tree_distance(y, x)


def test_distance_of_a_deep_disagreement():
    t = constant_tree(AB, "a")
    # Equal to depth 2, differs at depth 3.
    s = unfold_with_tail(t, 2, "b")
    assert tree_distance(t, s) == Fraction(1, 8)


def test_renaming_validation_and_application():
    with pytest.raises(TreeError):
        LetterRenaming({"a": "b", "b": "b"})  # not injective
    with pytest.raises(TreeError):
        LetterRenaming({"a": "c"})  # image escapes the domain
    swap = LetterRenaming({"a": "b", "b": "a"})
    t = constant_tree(AB, "a")
    assert label_at(rename_tree(t, swap), "12") == "b"
    assert bisimilar(rename_tree(rename_tree(t, swap), swap), t)


def test_graft_spine_shape():
    spine = Alphabet(("a", "b", "s"))
    heads = [constant_tree(spine, "a"), constant_tree(spine, "b")]
    tail = constant_tree(spine, "a")
    t = graft_spine(heads, tail, "s")
    # Rightmost branch carries the spine label forever.
    for n in range(6):
        assert label_at(t, "2" * n) == "s"
    # Node 2^n 1 roots the n-th head while heads last, the tail after.
    assert label_at(t, "1") == "a"
    assert label_at(t, "21") == "b"
    assert label_at(t, "221") == "a"
    assert label_at(t, "22221") == "a"


def test_graft_spine_errors():
    with pytest.raises(TreeError, match="spine label"):
        graft_spine([constant_tree(AB, "a")], constant_tree(AB, "b"), "zzz")
    other = Alphabet(("a", "c"))
    with pytest.raises(TreeError, match="share an alphabet"):
        graft_spine([constant_tree(AB, "a")], constant_tree(other, "a"), "a")


def test_random_tree_is_deterministic_in_seed():
    t1 = random_regular_tree(AB, 6, 99)
    t2 = random_regular_tree(AB, 6, 99)
    assert t1 == t2
    assert bisimilar(t1, t2)
    with pytest.raises(TreeError, match="max_nodes"):
        random_regular_tree(AB, 0, 99)


def test_json_round_trip():
    rng = random.Random(403)
    for _ in range(40):
        t = random_regular_tree(AB, 5, rng.randrange(10 ** 6))
        doc = tree_to_json(t)
        assert bisimilar(tree_from_json(doc), t)
    # Non-scalar ids survive through relabeling.
    grafted = graft_spine([constant_tree(AB, "b")], constant_tree(AB, "a"), "a")
    assert bisimilar(tree_from_json(tree_to_json(grafted)), grafted)


def test_json_schema_errors():
    good = tree_to_json(constant_tree(AB, "a"))
    for key in ("alphabet", "root", "nodes"):
        doc = dict(good)
        del doc[key]
        with pytest.raises(TreeError):
            tree_from_json(doc)
    doc = dict(good)
    doc["nodes"] = [{"id": 0, "label": "a", "left": 0}]  # right missing
    with pytest.raises(TreeError):
        tree_from_json(doc)
    doc["nodes"] = [{"id": 0, "label": "a", "left": 0, "right": 0},
                    {"id": 0, "label": "b", "left": 0, "right": 0}]
    with pytest.raises(TreeError):
        tree_from_json(doc)


def tree_outcome(build, *args):
    """The TreeError message, or the tree with its maps as (type, value)
    pairs in key order, so that 1 and True or key orders tell apart."""
    try:
        t = build(*args)
    except TreeError as exc:
        return str(exc)
    typed = [[(type(k), k, type(x), x) for k, x in m.items()] for m in (t.label, t.left, t.right)]
    return t.alphabet, type(t.root), t.root, typed


# The message of each TreeError kind a tree document can raise.
LOAD_ERRORS = {
    "missing field": r"missing field",
    "wrong type": r"has the wrong type",
    "duplicate id": r"duplicate node id",
    "unlabeled root": r"root .* has no label",
    "child not a node": r"child .* is not a labeled node",
    "label outside the alphabet": r"is not in the alphabet",
}


TREE_DOC_MUTATIONS = (
    "bool id", "bool child", "duplicate id", "not an object", "missing field",
    "mistyped field", "unlabeled root", "child not a node", "bad label", "dead junk",
    "subclass entry", "extra key", "top level")


def mutate_tree_doc(rng, doc, kinds):
    """Apply one mutation to the document in place and record its kind."""
    nodes = doc["nodes"]
    objects = [e for e in nodes if isinstance(e, dict)]
    entry = rng.choice(objects)
    fresh = rng.choice([99, "z9", 10 ** 30])
    kind = rng.choice(TREE_DOC_MUTATIONS)
    if kind == "bool id":
        entry["id"] = rng.choice([True, False])
    elif kind == "bool child":
        entry[rng.choice(["left", "right"])] = rng.choice([True, False])
    elif kind == "duplicate id":
        entry["id"] = rng.choice(objects).get("id", 0)
    elif kind == "not an object":
        nodes[nodes.index(entry)] = rng.choice([[], [entry.get("id")], "node", 3, None, 1.5])
    elif kind == "missing field":
        del entry[rng.choice(["id", "label", "left", "right"])]
    elif kind == "mistyped field":
        entry[rng.choice(["id", "label", "left", "right"])] = rng.choice([1.5, None, [], {}, ["a"]])
    elif kind == "unlabeled root":
        doc["root"] = fresh
    elif kind == "child not a node":
        entry[rng.choice(["left", "right"])] = fresh
    elif kind == "bad label":
        entry["label"] = rng.choice(["c", "", "A", "(E,0)"])
    elif kind == "dead junk":
        # Unreachable: no entry names it as a child.
        nodes.insert(rng.randint(0, len(nodes)), {
            "id": "junk", "label": rng.choice(["a", "c"]),
            "left": rng.choice(["junk", fresh]), "right": rng.choice([fresh, entry.get("id", 0)])})
    elif kind == "subclass entry":
        nodes[nodes.index(entry)] = OrderedDict(entry)
    elif kind == "extra key":
        entry["note"] = rng.choice([None, 1.5, "x"])
    else:
        doc[rng.choice(["alphabet", "root", "nodes"])] = rng.choice([None, 1.5, {}])
    kinds.add(kind)


def test_bulk_tree_loading_matches_the_entry_by_entry_oracle():
    rng = random.Random(427)
    kinds, errors, trimmed = set(), set(), 0
    for trial in range(3000):
        applied = set()
        n = rng.randint(1, 8)
        ids = rng.sample([*range(12), *(f"v{i}" for i in range(12))], n)
        doc = {"alphabet": ["a", "b"], "root": rng.choice(ids), "nodes": [
            {"id": v, "label": rng.choice("ab"), "left": rng.choice(ids), "right": rng.choice(ids)}
            for v in ids]}
        for _ in range(rng.choice([0, 0, 1, 1, 2])):
            if not isinstance(doc["nodes"], list) or not any(isinstance(e, dict) for e in doc["nodes"]):
                break
            mutate_tree_doc(rng, doc, applied)
        kinds |= applied
        text = json.dumps(doc) if rng.random() < 0.5 else None
        got = tree_outcome(tree_from_json, json.loads(text) if text else doc)
        want = tree_outcome(tree_from_json_by_entries, doc)
        assert got == want, (trial, doc)
        if applied and applied <= {"bool id", "bool child"}:
            # A node id is a str or an int, never a bool.
            assert re.search(LOAD_ERRORS["wrong type"], str(want)), (trial, doc, want)
        if isinstance(want, str):
            errors.update(k for k, pattern in LOAD_ERRORS.items() if re.search(pattern, want))
        else:
            trimmed += any(isinstance(e, dict) and e.get("id") == "junk"
                           and (e.get("label") == "c" or e.get("left") != "junk")
                           for e in doc["nodes"])
    assert kinds == set(TREE_DOC_MUTATIONS)
    assert errors == set(LOAD_ERRORS)
    assert trimmed, "no unreachable junk node was trimmed"


# The message of each TreeError kind that RegularTree itself raises.
CHECK_ERRORS = {
    "unlabeled root": r"root .* has no label",
    "missing child": r"node .* has no (left|right) child",
    "child not a node": r"child .* is not a labeled node",
    "label outside the alphabet": r"is not in the alphabet",
}


def test_bulk_tree_check_matches_the_node_by_node_oracle():
    # Direct construction: children may be missing, labels unhashable, and
    # unreachable nodes broken in any way.
    rng = random.Random(428)
    errors = set()
    for trial in range(2000):
        n = rng.randint(1, 7)
        nodes = list(range(n))
        label = {v: rng.choice(["a", "b", "a", "b", "c", ["a"]]) for v in nodes}
        left = {v: rng.choice(nodes + [n]) for v in nodes}
        right = {v: rng.choice(nodes) for v in nodes}
        for m in (label, left, right):
            for _ in range(rng.choice([0, 0, 1])):
                m.pop(rng.choice(nodes), None)
        root = rng.choice(nodes + [True, n])
        got = tree_outcome(RegularTree, AB, root, label, left, right)
        want = tree_outcome(regular_tree_by_checks, AB, root, label, left, right)
        assert got == want, (trial, root, label, left, right)
        if isinstance(want, str):
            errors.update(k for k, pattern in CHECK_ERRORS.items() if re.search(pattern, want))
    assert errors == set(CHECK_ERRORS)
    # Walks that fail partway: an unlabeled left child beside a missing
    # right one; a missing child late in the walk after an unlabeled node
    # listed earlier; an unhashable child after an unlabeled one.
    for label, left, right in (
            ({0: "a"}, {0: 1}, {}),
            ({0: "a", 1: "b", 3: "a"}, {0: 1, 1: 3, 2: 2, 3: 3}, {0: 2, 1: 1, 2: 2}),
            ({0: "a"}, {0: 5}, {0: [1]})):
        want = tree_outcome(regular_tree_by_checks, AB, 0, label, left, right)
        assert isinstance(want, str), want
        assert tree_outcome(RegularTree, AB, 0, label, left, right) == want
    # An unhashable child id with no error before it raises TypeError.
    messages = []
    for build in (RegularTree, regular_tree_by_checks):
        with pytest.raises(TypeError) as info:
            build(AB, 0, {0: "a", 1: "b"}, {0: 1, 1: 1}, {0: 1, 1: [0]})
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_dump_load_files(tmp_path):
    t = random_regular_tree(AB, 5, 7)
    path = tmp_path / "t.json"
    write_doc(path, tree_to_json(t))
    assert bisimilar(load_tree(path), t)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(TreeError):
        load_tree(bad)


def random_string(rng):
    # Quotes, backslashes, control, non-ASCII and astral characters.
    alphabet = 'ab"\\/ \n\t\x00\x1f\x7fé€\u2028\U0001f600'
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))


def random_int(rng):
    return rng.choice([rng.randint(-300, 300), rng.randint(-10 ** 40, 10 ** 40)])


def random_doc(rng, depth):
    kind = rng.randrange(11 if depth else 4)
    if kind == 0:
        return rng.choice([None, True, False, 0, 1, -1])
    if kind == 1:
        return random_int(rng)
    if kind == 2:
        return random_string(rng)
    if kind == 3:
        return rng.choice([[], {}, (), [[]], ([],), [{}], {"": {}}, {"a": []}])
    # Lists of ints and of int pairs, as lists, tuples or both, take the
    # writer's fast paths.
    if kind == 4:
        return [random_int(rng) for _ in range(rng.randint(1, 6))]
    if kind == 5:
        return [rng.choice((list, tuple))((random_int(rng), random_int(rng)))
                for _ in range(rng.randint(1, 6))]
    if kind == 10:
        # One dict, list, tuple, int list or pair list held in several
        # places, at one depth and at deeper ones, which the writer writes
        # once per indent.
        shared = random_doc(rng, depth - 1)
        while not (isinstance(shared, (dict, list, tuple)) and shared):
            shared = random_doc(rng, depth - 1)
        items = [shared] * rng.randint(2, 3) + [{"k": shared}, [shared, {"": [shared]}]]
        rng.shuffle(items)
        return items
    items = [random_doc(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {random_string(rng): v for v in items}


def test_doc_text_matches_json_dumps():
    rng = random.Random(417)
    for _ in range(3000):
        doc = random_doc(rng, rng.randint(0, 5))
        assert doc_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n", doc
    golden = glob.glob(os.path.join(os.path.dirname(__file__), "golden", "*.json"))
    assert golden
    for path in golden:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert doc_text(json.loads(text)) == text, path
    for bad in (1.5, {1, 2}, [0, {"x": 0.0}], {"x": frozenset()}, {1: 0},
                [1, 1.5], [[1, 1.5]], [[1, 2], [3, 1.5]]):
        with pytest.raises(TypeError):
            doc_text(bad)


class Small(IntEnum):
    ONE = 1


def test_doc_text_fast_paths_match_json_dumps():
    # Int lists and int pair lists, written by one format call each, and
    # near misses that must take the item loop, each at depths 1-4.
    ints = list(range(-300, 300, 7)) + [10 ** 40, -(10 ** 40) + 1]
    pairs = [[i, 3 * i - 1] for i in ints]
    cases = [
        ints, tuple(ints), [5], pairs, [tuple(p) for p in pairs],
        [p if i % 3 else tuple(p) for i, p in enumerate(pairs)],
        [0, True], [True, 0], [[1, True]], [[1, None]], [[1]], [[1, 2, 3]],
        [[1, 2], [3]], [Small.ONE], [2, Small.ONE], [[Small.ONE, 2]],
        [[1, 2], 3], [[1, 2], "3"], [[[1, 2], [3, 4]]], [(1, 2), [3, [4]]],
    ]
    for case in cases:
        doc = case
        for depth in range(1, 5):
            assert doc_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n", (depth, case)
            doc = {"k": doc}


def test_doc_text_writes_int_and_pair_lists_in_one_call(monkeypatch):
    # The fast paths' guards choose a cost, never a result, so only counting
    # the writer's calls shows a guard that sends one of these lists to the
    # item loop.
    calls = {"_write": 0, "_int_text": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(trees, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(trees, name, counted)
    doc = {"ints": [3, 1, 2], "lists": [[0, 1], [2, 3]], "mixed": [[0, 1], (2, 3)]}
    assert doc_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # The document and its three lists; the item loop would add a call per
    # pair and per int.
    assert calls == {"_write": 4, "_int_text": 0}


def test_doc_text_writes_a_shared_value_once_per_indent(monkeypatch):
    # The memo changes cost, never the text, so only counting the strings
    # the writer escapes shows that a list or dict the document holds in
    # several places is written once per indent, whatever its length.
    shared = {"op": "atom", "state": "q"}
    equal = dict(shared)
    long = {"s": "x" * 600}
    names = [f"n{i}" for i in range(100)]
    doc = {"three": [shared, shared, shared], "once_more": shared, "equal": [equal, equal],
           "long": [long, long], "long_in": {"a": long, "b": long}, "names": [names, names]}
    escaped = Counter()
    escape = trees._escape
    monkeypatch.setattr(trees, "_escape", lambda s: escaped.update([s]) or escape(s))
    assert doc_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # `shared` at its two indents and `equal`, an equal dict of its own, at
    # one; `long` and `names`, each over 600 characters, at one indent.
    assert [escaped[s] for s in ("atom", "x" * 600, "n0")] == [3, 1, 1]


def test_doc_text_writes_as_deep_as_json_dumps():
    # Each nesting level costs the writer one frame, as it costs json.dumps
    # one generator, so a list json.dumps can write at the current
    # recursion limit is one doc_text can write.
    def nested(depth):
        doc = []
        for _ in range(depth):
            doc = [doc]
        return doc

    def dumps(depth):
        try:
            return json.dumps(nested(depth), indent=2, sort_keys=True)
        except RecursionError:
            return None

    # json.dumps writes `depth` levels and not `too_deep`.
    depth, too_deep = 1, sys.getrecursionlimit()
    while too_deep - depth > 1:
        middle = (depth + too_deep) // 2
        if dumps(middle) is None:
            too_deep = middle
        else:
            depth = middle
    text = dumps(depth)
    assert depth > sys.getrecursionlimit() * 3 // 4
    assert doc_text(nested(depth)) == text + "\n"


def test_doc_text_peak_memory_is_linear_in_the_text():
    # A formula 400 And levels deep: a writer that copies each subtree's
    # text at every level above it peaks at about 4 times the 3.2 MB text
    # (and takes seconds); one that appends pieces to one list at about 2.
    f = Atom("1", "q")
    for i in range(400):
        f = And((f, Atom("2", f"q{i}")))
    doc = formula_to_json(f)
    tracemalloc.start()
    try:
        text = doc_text(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 3_000_000
    assert peak < 3 * len(text)
