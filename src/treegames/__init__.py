"""Parity games, tree automata and separator synthesis on regular
infinite binary trees.

The package works with infinite binary trees that have finitely many
distinct subtrees, presented as finite labeled graphs.  On top of those it
provides max-parity games with a certified solver, nondeterministic and
alternating parity tree automata with game-based membership and emptiness,
the game tree languages induced by owner/bit labels, continuous reductions
of coded Borel sets into those languages, and synthesis of alternating
separators for disjoint Büchi automata.
"""

from .trees import (
    Alphabet,
    LetterRenaming,
    RegularTree,
    TreeError,
    bisimilar,
    constant_tree,
    graft_spine,
    load_tree,
    rename_tree,
    tree_distance,
    tree_from_json,
    tree_to_json,
)
from .games import (
    ADAM,
    EVE,
    GameError,
    ParityGame,
    SolveResult,
    Strategy,
    game_from_text,
    game_to_dot,
    game_to_text,
    solve,
    verify_strategy,
)
from .automata import (
    APTA,
    AutomatonError,
    BINARY,
    BIT_SWAP,
    BUILTIN_NAMES,
    DUALITY,
    GAME_ALPHABET,
    GAME_LABELS,
    NPTA,
    UnsupportedProduct,
    acceptance_game,
    apta_from_json,
    apta_to_json,
    automaton_from_json,
    automaton_to_json,
    builtin,
    emptiness_game,
    index_of,
    intersection_product,
    is_buchi,
    load_automaton,
    member,
    member_alt,
    member_witness,
    membership_game,
    npta_to_apta,
    rename_automaton,
    witness,
)
from .gamelang import (
    BorelCode,
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
from .separation import (
    EmptyLanguage,
    NotDisjoint,
    SampleSet,
    SeparationReport,
    SeparatorHierarchy,
    build_hierarchy,
    disjointness_witness,
    example_pairs,
    sample_language,
    separator_level_bound,
    synthesize_separator,
    verify_separation,
)

__version__ = "0.1.0"
