"""Parity games on finite graphs, with winning strategy extraction.

Max-parity convention throughout: an infinite play is won by Eve exactly
when the highest priority occurring infinitely often is even.  A play that
reaches a dead end is lost by the dead end's owner.  Both players win
positionally, so strategies are position-to-successor maps.

A ParityGame is a name table over int arrays.  Position i is named
positions[i]; owners[i], prios[i] and succs[i] hold its owner, priority
and successor ids, and `index` maps names back to ids.  Names are any
hashable values.  A game holds a names source: the names in id order, as
explore() and game_from_text() have them, or a function that makes them,
as membership_game() gives over its int keys.  `positions` and `index` are
cached properties made from that source the first time each is read.
solve() and verify_strategy() run on the arrays, and names are read only
to take a name in or hand one back.

solve() runs Zielonka's attractor-based algorithm (Zielonka, TCS 1998) with
positions bucketed by priority and its recursion kept on an explicit stack,
so games with any number of distinct priorities solve.  No step copies or
walks a whole region when the pieces it moves are small: frames hand their
sets on instead of copying them, and an attractor whose targets fill most
of its region starts from the few positions outside them.  A game that
peels one position per level, one priority per position, solves in time
and memory linear in its size.  Dead ends are handled by routing them to
internal sink loops of the losing parity, which keeps the algorithm on
dead-end-free games.

The solver answers on ids: the private _solve() gives each player's
winning region as a set of ids and strategy as an id-to-id map, and
solve() puts names on that.  Position 0 is the start of an explore() game
and the root of a generator game, so the library's yes/no decisions read
`0 in win[EVE]` and name nothing; names are made only for callers that
read them.

Games also travel in a line-per-position text format:

    parity 3;
    0 2 0 1,2 "name";
    1 1 1 0;
    2 0 0 ;

Header, then one record per position: id, priority, owner (0 = Eve,
1 = Adam), comma-separated successors (empty for a dead end) and an
optional quoted name.  Every record ends with a semicolon.  Plain texts,
as game_to_text writes games on the positions 0..n-1, are read in bulk:
one findall of a line pattern, a subset of the record grammar with no
names, and JSON converts their numbers.  A line loop converts each record
of any other text as it reads it, and so raises the first error in line order.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

from .trees import _too_many_digits

EVE = 0
ADAM = 1


class GameError(ValueError):
    """Malformed game, strategy or document."""


class ParityGame:
    """Finite game graph: a name table over int arrays.

    Position i is named positions[i], is owned by owners[i], has priority
    prios[i] and moves to the ids succs[i]; `index` maps each name back to
    its id.  Id order is the deterministic tie-break order used by the
    solver, so equal inputs give equal outputs.  `positions` and `index`
    are cached properties made from the game's names source the first time
    either is read, so a caller that only solves never pays for names.

    ParityGame(positions, owner, priority, successors) takes name-keyed
    mappings, validates and converts them.  Games compare and hash by
    positions, owners, prios and succs.  Attributes are plain and
    assignable, and the repr is the default one.  The read-only name-keyed
    `priority` and `successors` views, built on first access, remain only
    for bench/spans.py."""

    def __init__(self, positions, owner, priority, successors):
        positions = tuple(positions)
        index = {v: i for i, v in enumerate(positions)}
        if len(index) != len(positions):
            raise GameError("duplicate positions")
        owners, prios, succs = [], [], []
        for v in positions:
            o, p = owner.get(v), priority.get(v)
            if o not in (EVE, ADAM):
                raise GameError(f"position {v!r}: owner must be 0 (Eve) or 1 (Adam)")
            if not isinstance(p, int) or isinstance(p, bool) or p < 0:
                raise GameError(f"position {v!r}: priority must be a nonnegative integer")
            names = successors.get(v)
            if names is None:
                raise GameError(f"position {v!r}: no successor list")
            owners.append(o)
            prios.append(p)
            succs.append(_ids(v, tuple(names), index))
        self._names, self.owners = positions, tuple(owners)
        self.prios, self.succs = tuple(prios), tuple(succs)

    @classmethod
    def _of(cls, names, owners, prios, succs):
        # From arrays already checked, bypassing the name-keyed constructor.
        # `names` is the names source: the names in id order, or a function
        # of no arguments that returns them.
        g = object.__new__(cls)
        g._names, g.owners = names, tuple(owners)
        g.prios, g.succs = tuple(prios), tuple(succs)
        return g

    def _key(self):
        return self.positions, self.owners, self.prios, self.succs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def positions(self):
        names = self._names
        return tuple(names() if callable(names) else names)

    @cached_property
    def index(self):
        return dict(zip(self.positions, range(len(self.owners))))

    @cached_property
    def priority(self):
        return MappingProxyType(dict(zip(self.positions, self.prios)))

    @cached_property
    def successors(self):
        names = self.positions
        return MappingProxyType(
            {v: tuple(names[j] for j in s) for v, s in zip(names, self.succs)})


def _ids(v, names, index):
    # Successor names of position v as ids.
    ids = tuple(map(index.get, names))
    if None in ids:
        w = names[ids.index(None)]
        raise GameError(f"position {v!r}: successor {w!r} is not a position")
    return ids


def explore(start, expand) -> ParityGame:
    """Game reachable from `start`, ids handed out in breadth-first
    discovery order.  Games on automata are built by it; games on a
    tree's generator are read off it, its nodes already in this order.

    expand(pos) returns (owner, priority, successors), which are trusted:
    owner EVE or ADAM, priority a nonnegative int."""
    positions = [start]
    index = {start: 0}
    # One hash per edge: a name not seen yet gets the next id.
    add = index.setdefault
    owners, prios, succs = [], [], []
    for pos in positions:
        o, p, names = expand(pos)
        owners.append(o)
        prios.append(p)
        ids = []
        for nxt in names:
            i = add(nxt, len(positions))
            if i == len(positions):
                positions.append(nxt)
            ids.append(i)
        succs.append(tuple(ids))
    return ParityGame._of(positions, owners, prios, succs)


@dataclass(frozen=True)
class Strategy:
    """Positional strategy: a chosen successor for each of the player's
    non-dead-end positions inside its stated domain."""

    player: int
    choice: dict


@dataclass(frozen=True)
class SolveResult:
    eve_region: frozenset
    adam_region: frozenset
    eve_strategy: Strategy
    adam_strategy: Strategy


def _attract(player, attr, rest, owner, succ, pred, todo=None):
    # Grows `attr` in place to its attractor for `player` inside the region
    # attr | rest, moving each position it pulls in out of `rest`, and
    # returns the moves that pulled in player-owned positions.  The queue is
    # first-in first-out from the targets in id order, so the result is
    # deterministic.  When the targets fill most of the region, their
    # predecessors are found from the other side: a scan of `rest` queues
    # the positions with a move into the targets by (the target that pulls
    # them in, id), which is the order the walk over the targets gives.
    # The test `4 * len(rest) < len(attr)` is a cost-only switch: either
    # side gives the same attractor and moves, so changing its factor or
    # comparison changes no result.  So is `todo`, sorted(attr) as a list
    # the walk may append to, passed by a caller that has sorted it already;
    # the scan of `rest` ignores it.
    strat, counts = {}, {}
    if 4 * len(rest) < len(attr):
        first = []
        for v in rest:
            inside = [w for w in succ[v] if w in attr]
            if not inside:
                continue
            if owner[v] == player:
                first.append((min(inside), v))
            else:
                c = sum(w in rest for w in succ[v])
                if c:
                    counts[v] = c
                else:
                    first.append((max(inside), v))
        first.sort()
        todo = [v for _, v in first]
        strat = {v: u for u, v in first if owner[v] == player}
        attr.update(todo)
    elif todo is None:
        todo = sorted(attr)
    for u in todo:
        for v in pred[u]:
            if v in attr or v not in rest:
                continue
            if owner[v] == player:
                strat[v] = u
            else:
                # Edges from v into the region that do not lead into attr
                # yet, each duplicate edge counted, as pred lists it too.
                c = counts.get(v)
                if c is None:
                    c = 0
                    for w in succ[v]:
                        if w in rest or w in attr:
                            c += 1
                c -= 1
                counts[v] = c
                if c:
                    continue
            attr.add(v)
            todo.append(v)
    rest.difference_update(todo)
    return strat


def _union(x, y):
    # x | y, made by adding the smaller set to the larger one; both are spent.
    # The size test is a cost-only switch: either order gives the same set.
    if len(x) < len(y):
        x, y = y, x
    x |= y
    return x


def _zielonka(m, owner, prio, succ, pred):
    # Zielonka's algorithm on positions 0..m-1 of a dead-end-free game.  The
    # second recursive call of the textbook formulation is unrolled into a
    # loop over the shrinking region.  For the first one, on the region
    # minus the attractor `a` of its top priority, the frame waits on
    # `stack` while that subgame is solved, so depth is bounded by memory
    # rather than by Python's recursion limit.
    # Positions are bucketed by priority once; a frame's region only
    # shrinks, so its top priority is found by walking `levels` down from
    # where the frame last found it, and a subgame's starts one level lower.
    # No step copies a whole region: the subgame is the region with `a`
    # taken out in place, a frame keeps `a` and gets its region back as `a`
    # and the subgame's two winning regions, won sets are merged smaller
    # into larger, and an empty strategy map takes over the subgame's.
    bucket = {}
    for v in range(m):
        bucket.setdefault(prio[v], []).append(v)
    levels = sorted(bucket, reverse=True)
    stack = []
    region, k = set(range(m)), 0
    win, strat = [set(), set()], [{}, {}]
    while True:
        # Open frames on subgames until one is empty.
        while region:
            while region.isdisjoint(bucket[levels[k]]):
                k += 1
            d = levels[k]
            sigma = d % 2
            a = region.intersection(bucket[d])
            tops = sorted(a)
            region -= a
            astrat = _attract(sigma, a, region, owner, succ, pred, tops[:])
            stack.append((a, k, win, strat, sigma, tops, astrat))
            k += 1
            win, strat = [set(), set()], [{}, {}]
        # Hand each solved frame's result to the frame below, until one of
        # them still has a region left to solve.
        while stack:
            sub_win, sub_strat = win, strat
            a, k, win, strat, sigma, tops, moves = stack.pop()
            # The frame's region less what the opponent won in the subgame;
            # when that is nothing, sigma wins the whole region.
            region = _union(a, sub_win[sigma])
            p = 1 - sigma
            won = sub_win[p]
            if won:
                moves = _attract(p, won, region, owner, succ, pred)
            else:
                p, won, region = sigma, region, set()
                for v in tops:
                    if owner[v] == sigma:
                        moves[v] = next(filter(won.__contains__, succ[v]))
            if strat[p]:
                strat[p].update(sub_strat[p])
            else:
                strat[p] = sub_strat[p]
            strat[p].update(moves)
            win[p] = _union(win[p], won)
            if region:
                break
        else:
            return win, strat


def _solve(g: ParityGame):
    """solve() on ids: (win, strat), where win[player] is the player's
    winning region as a set of ids and strat[player] the player's strategy
    as an id-to-id dict.  Position 0, the start of an explore() game and
    the root of a generator game, is Eve's exactly when 0 in win[EVE]."""
    n = len(g.owners)
    owner, prio, succ = g.owners, g.prios, g.succs

    # Route dead ends to a sink loop of the parity that loses for the owner.
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
    assert win[EVE].isdisjoint(win[ADAM]) and len(win[EVE]) + len(win[ADAM]) == m
    # The sinks leave the regions: Eve wins sink n, Adam n + 1.  No strategy
    # needs trimming: a player chooses only at positions the player owns and
    # wins, and a sink or a dead end routed into one is won by its owner's opponent.
    win[EVE].discard(n)
    win[ADAM].discard(n + 1)
    return win, strat


def _named(g: ParityGame, win, strat) -> SolveResult:
    # _solve's result on g, by position name.
    names = g.positions

    def back(player):
        region = frozenset([names[i] for i in win[player]])
        choice = {names[i]: names[j] for i, j in strat[player].items()}
        return region, Strategy(player, choice)

    eve_region, eve_strategy = back(EVE)
    adam_region, adam_strategy = back(ADAM)
    return SolveResult(eve_region, adam_region, eve_strategy, adam_strategy)


def solve(g: ParityGame) -> SolveResult:
    """Winning regions and positional winning strategies for both players."""
    return _named(g, *_solve(g))


# ---------------------------------------------------------------------------
# Strategy checking.

def _sccs(nodes, succ_of):
    # Iterative Tarjan; recursion-free so large game graphs are fine.
    index, low = {}, {}
    onstack = set()
    stack = []
    result = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ_of(root)))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ_of(w))))
                    advanced = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                result.append(comp)
    return result


def has_cycle_with_max_parity(nodes, succ_of, priority, parity) -> bool:
    """Whether some cycle of the graph has a maximal priority of the given
    parity, by nested SCC decomposition (Emerson & Lei, LICS 1986).  Let
    `top` be the highest priority of that parity in a node set: such a
    cycle lies among the nodes of priority at most `top`.  Every node of a
    nontrivial SCC there lies on a cycle inside it, so one that holds a
    `top` node holds such a cycle; otherwise any such cycle lies in one of
    the other SCCs, each of which has a lower `top`."""
    todo = [set(nodes)]
    while todo:
        sub = todo.pop()
        top = max((priority[v] for v in sub if priority[v] % 2 == parity), default=None)
        if top is None:
            continue
        sub = {v for v in sub if priority[v] <= top}

        def sub_succ(v):
            return [w for w in succ_of(v) if w in sub]

        for comp in _sccs(sub, sub_succ):
            if len(comp) == 1 and comp[0] not in sub_succ(comp[0]):
                continue
            if any(priority[v] == top for v in comp):
                return True
            todo.append(comp)
    return False


def verify_strategy(g: ParityGame, strategy: Strategy, region, diagnostics=None) -> bool:
    """Check that the strategy wins everywhere on the region: the restricted
    subgraph never leaves the region, contains no dead end owned by the
    strategy's player, and every one of its cycles has a favorable maximal
    priority.  Appends a reason to `diagnostics` on failure."""

    def fail(message):
        if diagnostics is not None:
            diagnostics.append(message)
        return False

    player = strategy.player
    if player not in (EVE, ADAM):
        return fail("player must be 0 (Eve) or 1 (Adam)")
    names, index, succs = g.positions, g.index, g.succs
    ids = set()
    for v in set(region):
        i = index.get(v)
        if i is None:
            return fail(f"{v!r} is not a position")
        ids.add(i)
    restricted = {}
    for i in ids:
        v, succ = names[i], succs[i]
        if g.owners[i] == player:
            if not succ:
                return fail(f"{v!r}: dead end owned by the strategy's player")
            choice = strategy.choice.get(v)
            if choice is None:
                return fail(f"{v!r}: no move chosen")
            j = index.get(choice)
            if j not in succ:
                return fail(f"{v!r}: chosen move {choice!r} is not an edge")
            if j not in ids:
                return fail(f"{v!r}: chosen move leaves the region")
            restricted[i] = (j,)
        else:
            for j in succ:
                if j not in ids:
                    return fail(f"{v!r}: opponent can leave the region via {names[j]!r}")
            restricted[i] = succ
    if has_cycle_with_max_parity(ids, restricted.__getitem__, g.prios, 1 - player):
        return fail("cycle with unfavorable maximal priority")
    return True


# ---------------------------------------------------------------------------
# Text format and DOT export.

def game_to_text(g: ParityGame) -> str:
    """Serialize; games with a position that is not a nonnegative int are
    relabeled, the original id surviving as the record's name, with `"`
    written as `'` and line breaks as spaces so that the record parses."""
    named = not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0
                    for v in g.positions)
    ids = range(len(g.positions)) if named else g.positions
    lines = [f"parity {max(ids, default=0)};"]
    for i in sorted(range(len(ids)), key=ids.__getitem__):
        parts = [str(ids[i]), str(g.prios[i]), str(g.owners[i])]
        if g.succs[i]:
            parts.append(",".join(str(ids[j]) for j in g.succs[i]))
        if named:
            name = " ".join(str(g.positions[i]).replace('"', "'").splitlines())
            parts.append(f'"{name}"')
        lines.append(" ".join(parts) + ";")
    return "\n".join(lines) + "\n"


_HEADER = re.compile(r"parity\s+\d+\s*;")
_RECORD = re.compile(
    r'(\d+)\s+(\d+)\s+([01])\s*((?:\d+(?:\s*,\s*\d+)*)?)\s*(?:"[^"]*")?\s*;')
# A subset of _RECORD with no names, matched on the whole lines of joined
# stripped lines; JSON reads the same successors off its list, or raises.
_PLAIN_RECORD = re.compile(
    r"^([0-9]+)[^\S\n]+([0-9]+)[^\S\n]+([01])(?:[^\S\n]+([0-9, \t]*))?[^\S\n]*;$", re.M)
_OWNERS = {"0": EVE, "1": ADAM}


def game_from_text(text: str) -> ParityGame:
    """Parse the text format.  Errors carry the 1-based line number, and
    the first error in line order is the one raised.

    Plain texts, as game_to_text writes games on the positions 0..n-1,
    are read in bulk by one pattern matched with one findall; the line
    loop parses the rest and names the first error."""
    try:
        g = _plain_game(list(filter(None, map(str.strip, text.splitlines()))))
    except ValueError:
        # What the bulk path raises on (an empty game, or a number or list
        # JSON rejects) is left to the line loop, which decides what
        # error, if any, comes first.
        g = None
    return _game_from_lines(text) if g is None else g


def _plain_game(lines):
    # The game of a text's stripped nonblank lines, or None when they are
    # not plain: ids 0..n-1 in file order, successors below n.  Such lines
    # parse one by one, without error, to the same game.  A text with
    # names is declined at its first record, before findall tries each of
    # its lines.
    if len(lines) < 2 or _PLAIN_RECORD.match(lines[1]) is None:
        return None
    n = len(lines) - 1
    records = _PLAIN_RECORD.findall("\n".join(lines[1:]))
    if len(records) != n or _HEADER.fullmatch(lines[0]) is None:
        return None
    ids, prios, owners, moves = zip(*records)
    numbers = json.loads("[" + ",".join(ids + prios) + "]")
    if numbers[:n] != list(range(n)):
        return None
    succs = json.loads("[[" + "],[".join(moves) + "]]")
    if max(chain.from_iterable(succs), default=-1) >= n:
        return None
    return ParityGame._of(range(n), map(_OWNERS.get, owners), numbers[n:], map(tuple, succs))


def _game_from_lines(text):
    # Each record is matched, its numbers converted and its id checked for
    # a duplicate as it is read; the name-keyed constructor checks the
    # successors.
    owner, prio, succ = {}, {}, {}
    header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[-1] != ";":
            raise GameError(f"line {lineno}: record does not end with ';'")
        if not header:
            if _HEADER.fullmatch(line) is None:
                raise GameError(f"line {lineno}: expected header 'parity N;'")
            header = True
            continue
        m = _RECORD.fullmatch(line)
        if m is None:
            raise GameError(f"line {lineno}: malformed position record")
        v, p, o, moves = m.groups()
        try:
            v, p = int(v), int(p)
            moves = tuple(map(int, moves.split(","))) if moves else ()
        except ValueError:
            raise _too_many_digits(f"line {lineno}", GameError) from None
        if v in owner:
            raise GameError(f"line {lineno}: duplicate position {v}")
        owner[v], prio[v], succ[v] = _OWNERS[o], p, moves
    if not header:
        raise GameError("line 1: expected header 'parity N;'")
    try:
        return ParityGame(sorted(owner), owner, prio, succ)
    except GameError as exc:
        raise GameError(f"inconsistent game: {exc}") from None


def game_to_dot(g: ParityGame, result: SolveResult | None = None) -> str:
    """DOT rendering; Eve positions are ellipses, Adam positions boxes, and
    winning regions are colored when a solve result is supplied.  Labels
    escape `\\` and `"`, so any position name gives valid DOT."""
    lines = ["digraph parity {"]
    for i, v in enumerate(g.positions):
        shape = "ellipse" if g.owners[i] == EVE else "box"
        label = f"{v}:{g.prios[i]}".replace("\\", "\\\\").replace('"', '\\"')
        attrs = [f'label="{label}"', f"shape={shape}"]
        if result is not None:
            color = "lightblue" if v in result.eve_region else "lightsalmon"
            attrs.append("style=filled")
            attrs.append(f"fillcolor={color}")
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    for i, succ in enumerate(g.succs):
        for j in succ:
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
