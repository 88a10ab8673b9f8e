"""Nondeterministic and alternating parity tree automata."""

import os
import random
import subprocess
import sys

import pytest

from treegames.trees import RegularTree, constant_tree, random_regular_tree
from treegames.automata import (
    APTA,
    And,
    Atom,
    AutomatonError,
    BINARY,
    BIT_SWAP,
    DUALITY,
    FALSE,
    GAME_ALPHABET,
    Index,
    NPTA,
    Or,
    TRUE,
    UnsupportedProduct,
    acceptance_game,
    apta_from_json,
    apta_to_json,
    automaton_from_json,
    automaton_to_json,
    builtin,
    dump_automaton,
    emptiness_game,
    formula_from_json,
    formula_to_json,
    index_of,
    intersection_product,
    is_buchi,
    is_deterministic,
    load_automaton,
    member,
    member_alt,
    member_witness,
    membership_game,
    membership_start,
    npta_to_apta,
    rename_automaton,
    transition_table,
    witness,
)

from helpers import brute_force_solve, det_member_oracle, random_npta


def all_zero():
    return constant_tree(BINARY, "0")


def all_one():
    return constant_tree(BINARY, "1")


def leftmost_ones():
    # 1 exactly on the leftmost branch, 0 everywhere else.
    return RegularTree(BINARY, "a", {"a": "1", "z": "0"},
                       {"a": "a", "z": "z"}, {"a": "z", "z": "z"})


# ---------------------------------------------------------------------------
# Construction and classification.

def test_npta_validation():
    with pytest.raises(AutomatonError):
        NPTA(BINARY, ("q",), "p", (), {"q": 0})  # initial unknown
    with pytest.raises(AutomatonError):
        NPTA(BINARY, ("q",), "q", (("q", "2", "q", "q"),), {"q": 0})
    with pytest.raises(AutomatonError):
        NPTA(BINARY, ("q",), "q", (("q", "0", "r", "q"),), {"q": 0})
    with pytest.raises(AutomatonError):
        NPTA(BINARY, ("q",), "q", (), {"q": -1})
    with pytest.raises(AutomatonError):
        NPTA(BINARY, ("q",), "q", (), {})  # rank not total
    with pytest.raises(AutomatonError, match="duplicate states"):
        NPTA(BINARY, ("q", "q"), "q", (), {"q": 0})


def test_transitions_are_sorted_and_deduped():
    a = NPTA(BINARY, ("q",), "q",
             (("q", "1", "q", "q"), ("q", "0", "q", "q"), ("q", "1", "q", "q")),
             {"q": 0})
    assert a.transitions == (("q", "0", "q", "q"), ("q", "1", "q", "q"))


def test_index_normalizes_to_low_rank():
    def idx(ranks):
        states = tuple(f"q{i}" for i in range(len(ranks)))
        return index_of(NPTA(BINARY, states, states[0], (),
                             dict(zip(states, ranks))))

    assert idx([1, 2]) == Index(1, 2)
    assert idx([0, 1]) == Index(0, 1)
    assert idx([2, 3]) == Index(0, 1), "even ranks shift down in pairs"
    assert idx([3, 4]) == Index(1, 2)
    assert idx([2]) == Index(0, 0)


def test_is_deterministic_and_buchi():
    assert is_deterministic(builtin("K-det"))
    assert not is_deterministic(builtin("L"))
    assert is_buchi(builtin("L")) and is_buchi(builtin("K-buchi"))
    assert not is_buchi(builtin("K-det"))


def test_transition_table():
    a = builtin("L")
    table = transition_table(a)
    assert len(table["q", "0"]) == 2
    assert table["T", "1"] == [("T", "1", "T", "T")]


# ---------------------------------------------------------------------------
# Builtin automata: exact tables.

def test_builtin_L_table():
    a = builtin("L")
    assert a.states == ("q", "p", "T") and a.initial == "q"
    assert a.rank == {"q": 1, "p": 2, "T": 2}
    assert len(a.transitions) == 10
    assert set(a.transitions) == {
        ("q", "0", "q", "T"), ("q", "0", "T", "q"),
        ("q", "1", "p", "T"), ("q", "1", "T", "p"),
        ("p", "0", "q", "T"), ("p", "0", "T", "q"),
        ("p", "1", "p", "T"), ("p", "1", "T", "p"),
        ("T", "0", "T", "T"), ("T", "1", "T", "T"),
    }


def test_builtin_M01_table():
    a = builtin("M01")
    assert a.states == ("0", "1") and a.initial == "0"
    assert a.rank == {"0": 0, "1": 1}
    assert set(a.transitions) == {
        ("0", "0", "0", "0"), ("0", "1", "1", "1"),
        ("1", "0", "0", "0"), ("1", "1", "1", "1"),
    }
    assert builtin("Mik(0,1)") == a
    assert builtin("Mik(1,3)").states == ("1", "2", "3")
    with pytest.raises(AutomatonError):
        builtin("Mik(2,3)")
    with pytest.raises(AutomatonError, match="empty rank range"):
        builtin("Mik(1,0)")
    with pytest.raises(AutomatonError):
        builtin("nope")


def test_builtin_K_tables():
    det = builtin("K-det")
    assert det.states == ("0", "1", "T") and det.initial == "0"
    assert det.rank == {"0": 0, "1": 1, "T": 0}
    assert set(det.transitions) == {
        ("0", "0", "T", "0"), ("0", "1", "T", "1"),
        ("1", "0", "T", "0"), ("1", "1", "T", "1"),
        ("T", "0", "T", "T"), ("T", "1", "T", "T"),
    }
    buchi = builtin("K-buchi")
    assert buchi.rank == {"q": 1, "p": 2, "T": 2} and buchi.initial == "q"
    assert set(buchi.transitions) == {
        ("q", "0", "T", "q"), ("q", "0", "T", "p"),
        ("q", "1", "T", "q"), ("q", "1", "T", "p"),
        ("p", "0", "T", "p"),
        ("T", "0", "T", "T"), ("T", "1", "T", "T"),
    }


def test_builtin_W01_table():
    a = builtin("W01")
    assert a.alphabet == GAME_ALPHABET
    assert a.states == ("0", "1", "T") and a.initial == "0"
    assert a.rank == {"0": 0, "1": 1, "T": 0}
    assert len(a.transitions) == 16
    for l in ("0", "1"):
        for m in ("0", "1"):
            assert (l, f"(A,{m})", m, m) in a.transitions
            assert (l, f"(E,{m})", m, "T") in a.transitions
            assert (l, f"(E,{m})", "T", m) in a.transitions
    prime = builtin("W01-prime")
    assert prime.rank == a.rank
    assert ("0", "(E,1)", "0", "0") in prime.transitions, "duality renames (A,0)"


def test_builtin_UBbin_table():
    a = builtin("UBbin")
    assert a.states == ("s0", "s1", "c0", "c1") and a.initial == "s0"
    assert a.rank == {"s0": 1, "s1": 2, "c0": 0, "c1": 1}
    assert len(a.transitions) == 12
    for b in ("0", "1"):
        for s in ("0", "1"):
            assert (f"s{b}", s, f"s{s}", f"c{s}") in a.transitions
            assert (f"s{b}", s, f"c{s}", f"s{s}") in a.transitions
            assert (f"c{b}", s, f"c{s}", f"c{s}") in a.transitions


# ---------------------------------------------------------------------------
# Membership.

def test_membership_frozen_cases():
    assert member(builtin("L"), all_one())
    assert not member(builtin("L"), all_zero())
    assert member(builtin("K-det"), all_zero())
    assert not member(builtin("K-det"), all_one())
    assert member(builtin("M01"), all_zero())
    assert not member(builtin("M01"), all_one())


def test_membership_agrees_with_det_product_oracle():
    rng = random.Random(410)
    for automaton in (builtin("K-det"), builtin("M01")):
        for _ in range(80):
            t = random_regular_tree(BINARY, 5, rng.randrange(10 ** 6))
            assert member(automaton, t) == det_member_oracle(automaton, t), t


def test_membership_game_agrees_with_brute_force():
    # The membership game fed to the exhaustive strategy enumerator: the
    # run-based verdict must be whatever the game's winner is.  Instances
    # stay tiny so the full strategy space is enumerable.
    rng = random.Random(411)
    for trial in range(30):
        a = random_npta(rng, BINARY, 2, 2, density=0.5)
        t = random_regular_tree(BINARY, 2, rng.randrange(10 ** 6))
        g = membership_game(a, t)
        res = brute_force_solve(g)
        assert member(a, t) == (membership_start(a, t) in res.eve_region), (trial, a, t)


def test_member_witness_checks_out():
    a = builtin("L")
    w = member_witness(a, all_one())
    assert w is not None and w.check()
    assert member_witness(a, all_zero()) is None


def test_membership_rejects_foreign_alphabet():
    with pytest.raises(AutomatonError):
        member(builtin("L"), constant_tree(GAME_ALPHABET, "(E,0)"))


def test_unambiguous_branch_language():
    ub = builtin("UBbin")
    assert member(ub, leftmost_ones())
    assert not member(ub, all_one()), "every branch is bad"
    assert not member(ub, all_zero()), "no branch is bad"


# ---------------------------------------------------------------------------
# Emptiness and witnesses.

def test_emptiness_witness_is_a_member():
    for name in ("L", "M01", "K-det", "K-buchi", "UBbin", "W01"):
        a = builtin(name)
        t = witness(a)
        assert t is not None, name
        assert member(a, t), name


def test_empty_automaton_has_no_witness():
    a = NPTA(BINARY, ("q",), "q", (), {"q": 0})
    assert witness(a) is None
    # Reachable only through a state that cannot proceed.
    b = NPTA(BINARY, ("q", "r"), "q", (("q", "0", "r", "r"),), {"q": 0, "r": 0})
    assert witness(b) is None


def test_emptiness_game_positions_are_states_not_tree_nodes():
    g = emptiness_game(builtin("L"))
    kinds = {v[0] for v in g.positions}
    assert kinds == {"s", "t"}


# ---------------------------------------------------------------------------
# Products.

def test_buchi_product_language_is_the_intersection():
    a = builtin("L")
    b = rename_automaton(a, BIT_SWAP)
    product = intersection_product(a, b)
    assert is_buchi(product)
    rng = random.Random(412)
    hits = 0
    for _ in range(150):
        t = random_regular_tree(BINARY, 5, rng.randrange(10 ** 6))
        expected = member(a, t) and member(b, t)
        hits += expected
        assert member(product, t) == expected, t
    assert hits > 0, "sample never hit the intersection; widen the trees"


def test_det_buchi_product_language_is_the_intersection():
    a = builtin("M01")
    b = builtin("K-buchi")
    product = intersection_product(a, b)
    rng = random.Random(413)
    for _ in range(150):
        t = random_regular_tree(BINARY, 5, rng.randrange(10 ** 6))
        assert member(product, t) == (member(a, t) and member(b, t)), t


def test_product_emptiness_detects_disjointness():
    # Trees with finitely many 0s everywhere force infinitely many 1s onto
    # the rightmost branch, so they all escape K.
    swapped = rename_automaton(builtin("M01"), BIT_SWAP)
    assert witness(intersection_product(swapped, builtin("K-buchi"))) is None
    assert witness(intersection_product(builtin("M01"), builtin("K-buchi"))) is not None


def test_unsupported_product_combinations():
    with pytest.raises(UnsupportedProduct):
        intersection_product(builtin("K-det"), builtin("K-det"))
    with pytest.raises(UnsupportedProduct):
        intersection_product(builtin("L"), builtin("K-det"))


def test_product_alphabet_mismatch():
    with pytest.raises(AutomatonError):
        intersection_product(builtin("L"), builtin("W01"))


# ---------------------------------------------------------------------------
# Alternating automata.

def test_formula_validation():
    with pytest.raises(AutomatonError):
        Atom("3", "q")
    with pytest.raises(AutomatonError):
        And(())
    with pytest.raises(AutomatonError):
        Or(())


def test_apta_validation():
    with pytest.raises(AutomatonError):
        APTA(BINARY, ("q",), "q", {("q", "0"): TRUE}, {"q": 0})  # delta partial
    delta = {("q", "0"): Atom("1", "zz"), ("q", "1"): TRUE}
    with pytest.raises(AutomatonError):
        APTA(BINARY, ("q",), "q", delta, {"q": 0})  # formula names unknown state
    with pytest.raises(AutomatonError, match="is not a formula"):
        APTA(BINARY, ("q",), "q", {("q", "0"): TRUE, ("q", "1"): True}, {"q": 0})
    # The header checks NPTA makes too.
    always = {("q", "0"): TRUE, ("q", "1"): TRUE}
    good = apta_to_json(APTA(BINARY, ("q",), "q", always, {"q": 0}))
    for rank in (-1, True):
        with pytest.raises(AutomatonError, match="rank of"):
            APTA(BINARY, ("q",), "q", always, {"q": rank})
        with pytest.raises(AutomatonError, match="rank of"):
            apta_from_json(dict(good, ranks={"q": rank}))
    with pytest.raises(AutomatonError, match="not a string"):
        APTA(BINARY, (7,), 7, {(7, "0"): TRUE, (7, "1"): TRUE}, {7: 0})
    with pytest.raises(AutomatonError, match="not a string"):
        apta_from_json(dict(good, states=[7]))


def test_constant_formulas():
    always = APTA(BINARY, ("q",), "q",
                  {("q", "0"): TRUE, ("q", "1"): TRUE}, {"q": 1})
    never = APTA(BINARY, ("q",), "q",
                 {("q", "0"): FALSE, ("q", "1"): FALSE}, {"q": 0})
    for t in (all_zero(), all_one(), leftmost_ones()):
        assert member_alt(always, t)
        assert not member_alt(never, t)


def test_conjunction_splits_directions():
    # Accept iff the left subtree is all-0 and the right subtree is all-1.
    delta = {
        ("start", "0"): And((Atom("1", "zero"), Atom("2", "one"))),
        ("start", "1"): And((Atom("1", "zero"), Atom("2", "one"))),
        ("zero", "0"): And((Atom("1", "zero"), Atom("2", "zero"))),
        ("zero", "1"): FALSE,
        ("one", "1"): And((Atom("1", "one"), Atom("2", "one"))),
        ("one", "0"): FALSE,
    }
    a = APTA(BINARY, ("start", "zero", "one"), "start", delta,
             {"start": 0, "zero": 0, "one": 0})
    t = RegularTree(BINARY, "r", {"r": "0", "l": "0", "g": "1"},
                    {"r": "l", "l": "l", "g": "g"},
                    {"r": "g", "l": "l", "g": "g"})
    assert member_alt(a, t)
    assert not member_alt(a, all_zero())
    assert not member_alt(a, all_one())


def test_alternating_matches_nondeterministic():
    rng = random.Random(414)
    for trial in range(60):
        a = random_npta(rng, BINARY, 3, 2)
        alt = npta_to_apta(a)
        for _ in range(3):
            t = random_regular_tree(BINARY, 4, rng.randrange(10 ** 6))
            assert member_alt(alt, t) == member(a, t), (trial, a, t)


def test_acceptance_game_priorities_follow_the_owning_state():
    a = npta_to_apta(builtin("L"))
    g = acceptance_game(a, all_one())
    assert set(g.prios) <= {1, 2}


# ---------------------------------------------------------------------------
# Renaming and serialization.

def test_rename_automaton_language():
    swapped = rename_automaton(builtin("L"), BIT_SWAP)
    assert member(swapped, all_zero())
    assert not member(swapped, all_one())
    assert rename_automaton(swapped, BIT_SWAP) == builtin("L")
    from treegames.trees import TreeError
    with pytest.raises(TreeError):
        rename_automaton(builtin("L"), DUALITY)  # wrong alphabet


def test_npta_json_round_trip():
    rng = random.Random(415)
    for name in ("L", "M01", "K-det", "K-buchi", "W01", "UBbin"):
        a = builtin(name)
        assert automaton_from_json(automaton_to_json(a)) == a
    for _ in range(25):
        a = random_npta(rng, BINARY, 4, 3)
        assert automaton_from_json(automaton_to_json(a)) == a


def test_apta_json_round_trip():
    rng = random.Random(416)
    for _ in range(15):
        a = npta_to_apta(random_npta(rng, BINARY, 3, 2))
        assert apta_from_json(apta_to_json(a)) == a
    tricky = APTA(BINARY, ("q",), "q", {("q", "0"): TRUE, ("q", "1"): FALSE},
                  {"q": 0})
    assert apta_from_json(apta_to_json(tricky)) == tricky


def test_equal_formulas_hash_equal():
    # Hashes are cached at construction; equal formulas built apart, or
    # read back from JSON, must still be equal and hash alike.
    def build(d):
        return Or((And((Atom("1", "p"), Atom("2", "q"))), Atom(d, "r"), TRUE))

    f, g = build("2"), build("2")
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != build("1")
    for h in (f, f.parts[0], f.parts[0].parts[1], FALSE):
        back = formula_from_json(formula_to_json(h))
        assert back == h and hash(back) == hash(h)
    assert len({f, g, formula_from_json(formula_to_json(f))}) == 1
    # Unpickled under another string hash seed, a formula hashes like one
    # built there: a set lookup with a freshly built equal formula succeeds.
    setup = ('from treegames.automata import And, Atom, Or, TRUE; '
             'f = Or((And((Atom("1", "p"), Atom("2", "q"))), Atom("2", "r"), TRUE)); ')
    dump = setup + "import pickle, sys; sys.stdout.write(pickle.dumps(f).hex())"
    load = setup + ("import pickle, sys; "
                    "assert pickle.loads(bytes.fromhex(sys.stdin.read())) in {f}")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    data = subprocess.run([sys.executable, "-c", dump], env=dict(env, PYTHONHASHSEED="0"),
                          capture_output=True, text=True, check=True, timeout=60).stdout
    subprocess.run([sys.executable, "-c", load], env=dict(env, PYTHONHASHSEED="1"),
                   input=data, text=True, check=True, timeout=60)


def test_automaton_schema_errors(tmp_path):
    good = automaton_to_json(builtin("M01"))
    for key in ("alphabet", "states", "initial", "transitions", "ranks"):
        doc = dict(good)
        del doc[key]
        with pytest.raises(AutomatonError):
            automaton_from_json(doc)
    doc = dict(good)
    doc["transitions"] = [{"from": "0", "letter": "0", "left": "0"}]
    with pytest.raises(AutomatonError):
        automaton_from_json(doc)
    with pytest.raises(AutomatonError, match="distinct"):
        automaton_from_json(dict(good, alphabet=["0", "0"]))
    good = apta_to_json(npta_to_apta(builtin("M01")))
    with pytest.raises(AutomatonError, match="unknown op 'xor'"):
        formula_from_json({"op": "xor"})
    with pytest.raises(AutomatonError, match="duplicated"):
        apta_from_json(dict(good, delta=good["delta"] + good["delta"][:1]))
    for key in ("alphabet", "states", "initial"):
        doc = dict(good)
        del doc[key]
        with pytest.raises(AutomatonError, match=repr(key)):
            apta_from_json(doc)
    path = tmp_path / "invalid.json"
    for content in (b"{not json", b"\xff{}"):
        path.write_bytes(content)
        with pytest.raises(AutomatonError, match="not valid JSON"):
            load_automaton(path)


def test_dump_load_dispatch(tmp_path):
    npta_path = tmp_path / "a.json"
    dump_automaton(builtin("L"), npta_path)
    assert load_automaton(npta_path) == builtin("L")
    apta_path = tmp_path / "b.json"
    alt = npta_to_apta(builtin("M01"))
    dump_automaton(alt, apta_path)
    assert load_automaton(apta_path) == alt
