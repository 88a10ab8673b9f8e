"""Game tree languages, their dichotomy, and the Borel-code reduction."""

import random

import pytest

from treegames.trees import (
    Alphabet,
    RegularTree,
    TreeError,
    bisimilar,
    constant_tree,
    graft_spine,
    label_at,
    rename_tree,
)
from treegames import gamelang
from treegames.games import ADAM, EVE, _solve
from treegames.automata import BINARY, DUALITY, GAME_ALPHABET, builtin, member
from treegames.gamelang import (
    ALL_EXISTS_ZERO,
    ALL_FORALL_ONE,
    Cyl,
    Neg,
    Union,
    code_from_json,
    code_to_json,
    eval_borel,
    game_of_tree,
    in_w01,
    in_w01_prime,
    parity_lang_member,
    read_depth,
    reduce_borel,
)

from helpers import (
    game_of_tree_by_explore,
    parity_lang_member_by_explore,
    random_code,
    random_regular_tree,
    unfold_with_tail,
)


def neither_tree():
    # Eve must move at an odd node, Adam at an even one, forever: the play
    # alternates 1,0,1,0..., so Adam wins, and the dual looks the same.
    return RegularTree(GAME_ALPHABET, "e",
                       {"e": "(E,1)", "a": "(A,0)"},
                       {"e": "a", "a": "e"}, {"e": "a", "a": "e"})


def test_game_of_tree_structure():
    t = neither_tree()
    g = game_of_tree(t)
    e, a = g.index["e"], g.index["a"]
    assert g.owners[e] == EVE and g.owners[a] == ADAM
    assert g.prios[e] == 1 and g.prios[a] == 0
    assert g.succs[e] == (a, a)


def random_game_trees(rng, count):
    """Random game-alphabet trees with int ids, string ids inserted in
    shuffled order, tuple ids from graft_spine and reduce_borel images, and
    their dual renamings."""
    trees = []
    for _ in range(count):
        t = random_regular_tree(GAME_ALPHABET, 12, rng.randrange(10 ** 6))
        nodes = list(t.nodes)
        rng.shuffle(nodes)
        named = RegularTree(GAME_ALPHABET, f"n{t.root}",
                            {f"n{v}": t.label[v] for v in nodes},
                            {f"n{v}": f"n{t.left[v]}" for v in nodes},
                            {f"n{v}": f"n{t.right[v]}" for v in nodes})
        grafted = graft_spine([t, named][:rng.randint(0, 2)], t, rng.choice(GAME_ALPHABET.symbols))
        image = reduce_borel(random_code(rng, 3), t)
        for u in (t, named, grafted, image):
            trees += [u, rename_tree(u, DUALITY)]
    return trees


def same_game(g, h):
    # Positions and arrays, and the index in the same order.
    return g == h and list(g.index.items()) == list(h.index.items())


def test_game_of_tree_matches_the_explore_oracle():
    rng = random.Random(425)
    trees = random_game_trees(rng, 150)
    assert any(isinstance(v, tuple) and isinstance(v[1], tuple)
               for u in trees for v in u.nodes), "no nested tuple ids"
    for trial, u in enumerate(trees):
        assert same_game(game_of_tree(u), game_of_tree_by_explore(u)), (trial, u)


def test_w01_prime_solves_the_game_of_the_dual_tree(monkeypatch):
    solved = []

    def recording_solve(g):
        solved.append(g)
        return _solve(g)

    monkeypatch.setattr(gamelang, "_solve", recording_solve)
    rng = random.Random(426)
    for trial, u in enumerate(random_game_trees(rng, 60)):
        verdict = in_w01_prime(u)
        dual = rename_tree(u, DUALITY)
        assert same_game(solved[-1], game_of_tree(dual)), (trial, u)
        assert verdict == in_w01(dual), (trial, u)


def test_gtl_verdicts_build_the_game_once(monkeypatch):
    rng = random.Random(427)
    trees = random_game_trees(rng, 60) + [ALL_EXISTS_ZERO, ALL_FORALL_ONE, neither_tree()]
    want = [(in_w01(u), in_w01_prime(u)) for u in trees]
    built = []

    def recording_build(t):
        built.append(t)
        return game_of_tree(t)

    monkeypatch.setattr(gamelang, "game_of_tree", recording_build)
    assert [gamelang._w01_verdicts(u) for u in trees] == want
    assert built == trees


def test_constant_trees_classify():
    assert in_w01(ALL_EXISTS_ZERO) and not in_w01_prime(ALL_EXISTS_ZERO)
    assert in_w01_prime(ALL_FORALL_ONE) and not in_w01(ALL_FORALL_ONE)


def test_some_tree_is_in_neither_language():
    t = neither_tree()
    assert not in_w01(t) and not in_w01_prime(t)


def test_languages_are_disjoint_on_random_trees():
    rng = random.Random(420)
    for _ in range(200):
        t = random_regular_tree(GAME_ALPHABET, 6, rng.randrange(10 ** 6))
        assert not (in_w01(t) and in_w01_prime(t)), t


def test_duality_renaming_swaps_the_languages():
    rng = random.Random(421)
    for _ in range(150):
        t = random_regular_tree(GAME_ALPHABET, 6, rng.randrange(10 ** 6))
        assert in_w01(t) == in_w01_prime(rename_tree(t, DUALITY)), t
        assert in_w01_prime(t) == in_w01(rename_tree(t, DUALITY)), t


def test_automaton_and_game_semantics_agree():
    w01 = builtin("W01")
    rng = random.Random(422)
    for _ in range(150):
        t = random_regular_tree(GAME_ALPHABET, 6, rng.randrange(10 ** 6))
        assert member(w01, t) == in_w01(t), t


def test_wrong_alphabet_is_rejected():
    with pytest.raises(TreeError):
        in_w01(constant_tree(BINARY, "0"))


# ---------------------------------------------------------------------------
# Borel codes.

def test_code_construction_and_rank():
    whole = Cyl(())
    assert whole.rank == 0
    assert Neg(whole).rank == 0
    assert Union((whole,), None).rank == 1
    assert Union((Union((whole,), None),), whole).rank == 2
    with pytest.raises(TreeError):
        Cyl((("10", "(E,0)"),))  # '0' is not a direction
    with pytest.raises(TreeError):
        Cyl((("1", "x"),))
    with pytest.raises(TreeError):
        Union((), None)


def test_cylinder_rejects_two_labels_for_one_word():
    # Keeping either label would make the coded set depend on pair order.
    for pairs in ((("", "(E,0)"), ("", "(A,1)")), (("", "(A,1)"), ("", "(E,0)"))):
        with pytest.raises(TreeError, match="two labels"):
            Cyl(pairs)
    assert Cyl((("", "(E,0)"), ("", "(E,0)"))) == Cyl((("", "(E,0)"),))


def test_eval_borel_frozen_cases():
    whole = Cyl(())
    assert eval_borel(whole, ALL_FORALL_ONE)
    assert not eval_borel(Neg(whole), ALL_FORALL_ONE)
    pin = Cyl((("", "(E,0)"),))
    assert eval_borel(pin, ALL_EXISTS_ZERO)
    assert not eval_borel(pin, ALL_FORALL_ONE)
    assert eval_borel(Union((pin,), None), ALL_EXISTS_ZERO)
    assert eval_borel(Union((), Neg(pin)), ALL_FORALL_ONE)


def test_eval_borel_reads_the_addressed_labels():
    deep = Cyl((("121", "(A,1)"),))
    rng = random.Random(423)
    for _ in range(50):
        t = random_regular_tree(GAME_ALPHABET, 5, rng.randrange(10 ** 6))
        assert eval_borel(deep, t) == (label_at(t, "121") == "(A,1)"), t


def test_reduce_borel_base_cases():
    u = ALL_FORALL_ONE
    assert bisimilar(reduce_borel(Cyl(()), u), ALL_EXISTS_ZERO)
    assert bisimilar(reduce_borel(Neg(Cyl(())), u), ALL_FORALL_ONE)


def test_reduce_borel_union_spine():
    pin = Cyl((("", "(E,0)"),))
    out = reduce_borel(Union((pin,), None), ALL_EXISTS_ZERO)
    assert label_at(out, "") == "(E,1)", "the spine is Eve's with bit 1"
    assert label_at(out, "1") == "(E,0)", "the member's reduction hangs left"
    assert label_at(out, "21") == "(A,1)", "a union without a tail repeats Adam's win"
    assert in_w01(out)
    out = reduce_borel(Union((pin,), None), ALL_FORALL_ONE)
    assert in_w01_prime(out)


def test_reduction_lands_in_the_matching_language():
    rng = random.Random(424)
    for trial in range(120):
        code = random_code(rng, 3)
        u = random_regular_tree(GAME_ALPHABET, 5, rng.randrange(10 ** 6))
        image = reduce_borel(code, u)
        if eval_borel(code, u):
            assert in_w01(image), (trial, code, u)
        else:
            assert in_w01_prime(image), (trial, code, u)


def test_read_depth_and_continuity():
    assert read_depth(Cyl(())) == -1
    assert read_depth(Cyl((("121", "(E,0)"),))) == 3
    assert read_depth(Neg(Union((Cyl((("1", "(E,0)"),)),), Cyl(())))) == 1
    # Trees agreeing on every word the code reads evaluate and reduce alike.
    rng = random.Random(425)
    for trial in range(60):
        code = random_code(rng, 2)
        depth = read_depth(code)
        u = random_regular_tree(GAME_ALPHABET, 5, rng.randrange(10 ** 6))
        trimmed = unfold_with_tail(u, max(depth, 0), "(A,1)")
        assert eval_borel(code, u) == eval_borel(code, trimmed), (trial, code)
        assert bisimilar(reduce_borel(code, u), reduce_borel(code, trimmed)), (trial, code)


def test_code_json_round_trip():
    rng = random.Random(426)
    for _ in range(40):
        code = random_code(rng, 3)
        assert code_from_json(code_to_json(code)) == code
    for not_a_code in (None, "cyl", {"kind": "cyl", "assign": {}}):
        for call in (lambda: eval_borel(not_a_code, ALL_EXISTS_ZERO),
                     lambda: reduce_borel(not_a_code, ALL_EXISTS_ZERO),
                     lambda: read_depth(not_a_code), lambda: code_to_json(not_a_code)):
            with pytest.raises(TreeError, match="not a Borel code"):
                call()
    for doc in ({"kind": "wat"}, {"kind": "union"}, ["cyl"], {}, {"kind": "neg"},
                {"kind": "cyl", "assign": [["1", "(E,0)"]]},
                {"kind": "union", "head": {"kind": "cyl", "assign": {}}}):
        with pytest.raises(TreeError):
            code_from_json(doc)


# ---------------------------------------------------------------------------
# Plain parity languages.

def test_parity_lang_frozen_cases():
    zero = constant_tree(BINARY, "0")
    one = constant_tree(BINARY, "1")
    assert parity_lang_member(zero, 0, 1)
    assert not parity_lang_member(one, 0, 1)
    alphabet12 = builtin("Mik(1,2)").alphabet
    assert parity_lang_member(constant_tree(alphabet12, "2"), 1, 2)
    assert not parity_lang_member(constant_tree(alphabet12, "1"), 1, 2)
    with pytest.raises(ValueError):
        parity_lang_member(zero, 2, 3)
    with pytest.raises(TreeError, match="label '2' outside"):
        parity_lang_member(constant_tree(alphabet12, "2"), 0, 1)


def test_parity_lang_matches_the_chain_automaton():
    rng = random.Random(427)
    m01 = builtin("M01")
    for _ in range(100):
        t = random_regular_tree(BINARY, 5, rng.randrange(10 ** 6))
        assert parity_lang_member(t, 0, 1) == member(m01, t), t


def parity_outcome(decide, t, i, k):
    try:
        return decide(t, i, k)
    except TreeError as exc:
        return str(exc)


def test_parity_lang_matches_the_explore_oracle():
    rng = random.Random(429)
    digits = Alphabet(("0", "1", "2", "3"))
    for trial in range(300):
        t = random_regular_tree(digits, 6, rng.randrange(10 ** 6))
        i = rng.randint(0, 1)
        k = rng.randint(i, 3)
        want = parity_outcome(parity_lang_member_by_explore, t, i, k)
        assert parity_outcome(parity_lang_member, t, i, k) == want, (trial, t, i, k)
    # Two labels outside 0..1: "2" at depth 2 down the left, "3" at depth 1
    # on the right.  Breadth-first order meets the "3" first.
    t = RegularTree(digits, 0, {3: "2", 2: "3", 1: "0", 0: "0"},
                    {0: 1, 1: 3, 2: 2, 3: 3}, {0: 2, 1: 1, 2: 2, 3: 3})
    for decide in (parity_lang_member, parity_lang_member_by_explore):
        assert parity_outcome(decide, t, 0, 1) == "label '3' outside ['0', '1']"
