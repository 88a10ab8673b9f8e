"""Spans and per-layer numbers for the traced run.

A traced op repeats what the CLI command does as the same sequence of
public `treegames` calls, with a span around each call; nothing inside
`treegames` is patched.  Spans (name, start, end, parent, op) stay in
memory and are written out as JSON when the run ends.  A span's self time
is its duration minus that of its direct children.  The root span of each
op is named "op"; its self time is what the op does outside the library
calls (file reads, verdict checks) and is reported as cli.untraced_ms.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(list)
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "op": self.op}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def count(self, name: str, value) -> None:
        """Record one op's value of a count metric."""
        self.counts[name].append(value)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


class NullTracer:
    """Stands in for a Tracer when nothing is recorded."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value) -> None:
        pass


def _dumps(doc) -> str:
    # The CLI's output format.
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _count_games(t, games) -> None:
    t.count("games.positions", sum(len(g.positions) for g in games))
    t.count("games.edges", sum(len(s) for g in games for s in g.successors.values()))
    t.count("games.priorities", sum(len(set(g.priority.values())) for g in games))


# ---------------------------------------------------------------------------
# Traced ops.  Each returns (exit code, stdout text, games solved, trees
# loaded); counts are taken after the op's root span closes.

def traced_solve(tg, t, op):
    with open(op.argv[2]) as fh:
        text = fh.read()
    with t.span("games.parse"):
        g = tg.game_from_text(text)
    with t.span("games.solve"):
        res = tg.solve(g)
    with t.span("cli.emit"):
        out = _dumps({
            "eve_region": sorted(res.eve_region),
            "adam_region": sorted(res.adam_region),
            "eve_strategy": sorted([v, w] for v, w in res.eve_strategy.choice.items()),
            "adam_strategy": sorted([v, w] for v, w in res.adam_strategy.choice.items()),
        })
    return 0, out, [g], []


def traced_member(tg, t, op):
    with t.span("automata.load"):
        a = tg.builtin(op.argv[2])
    with t.span("trees.load"):
        tree = tg.load_tree(op.argv[4])
    with t.span("automata.build"):
        g = tg.membership_game(a, tree)
    with t.span("games.solve"):
        res = tg.solve(g)
    verdict = tg.automata.membership_start(a, tree) in res.eve_region
    with t.span("cli.emit"):
        out = _dumps({"member": verdict})
    return (0 if verdict else 1), out, [g], [tree]


def traced_gtl(tg, t, op):
    with t.span("trees.load"):
        tree = tg.load_tree(op.argv[2])
    games, verdicts = [], []
    for current in (tree, None):
        if current is None:
            with t.span("trees.rename"):
                current = tg.rename_tree(tree, tg.DUALITY)
        with t.span("gamelang.build"):
            g = tg.game_of_tree(current)
        with t.span("games.solve"):
            res = tg.solve(g)
        games.append(g)
        verdicts.append(current.root in res.eve_region)
    first, second = verdicts
    with t.span("cli.emit"):
        out = _dumps({"in_W01": first, "in_W01_prime": second})
    return (0 if first or second else 1), out, games, [tree]


def traced_separate(tg, t, op):
    n, seed = op.info["samples"], op.info["seed"]
    with t.span("automata.load"):
        a = tg.load_automaton(op.argv[1])
        b = tg.load_automaton(op.argv[2])
    with t.span("automata.product"):
        product = tg.intersection_product(a, b)
    with t.span("automata.witness"):
        w = tg.witness(product)
    if w is not None:
        with t.span("cli.emit"):
            out = _dumps({"error": "languages are not disjoint",
                          "witness": tg.tree_to_json(w)})
        return 3, out, [], []
    level = tg.separator_level_bound(len(a.states), len(b.states))
    with t.span("separation.hierarchy"):
        separator = tg.build_hierarchy(a, level).top
    t.count("separation.level", level)
    t.count("separation.apta_states", len(separator.states))
    with t.span("separation.sample"):
        sample_a = tg.sample_language(a, n, seed)
        sample_b = tg.sample_language(b, n, seed + 1)
    t.count("separation.sample_yield",
            (len(sample_a.trees) + len(sample_b.trees)) / (2 * n))
    games, failures = [], []
    for side, trees, want in (("accept", sample_a.trees, True),
                              ("reject", sample_b.trees, False)):
        for i, tree in enumerate(trees):
            with t.span("automata.build"):
                g = tg.acceptance_game(separator, tree)
            with t.span("games.solve"):
                got = ("s", separator.initial, tree.root) in tg.solve(g).eve_region
            games.append(g)
            if got != want:
                failures.append(tg.separation.SeparationFailure(side, i, want, got, tree))
    report = tg.SeparationReport(
        accept_checked=len(sample_a.trees), reject_checked=len(sample_b.trees),
        failures=tuple(failures), disjointness_checked=False,
        samples_per_side=n, seed=seed)
    with t.span("cli.emit"):
        out = _dumps({"separator": tg.apta_to_json(separator),
                      "report": tg.separation.report_to_json(report)})
    return (0 if report.passed else 1), out, games, []


TRACED = {
    "solve": traced_solve,
    "member": traced_member,
    "gtl": traced_gtl,
    "separate": traced_separate,
}


def run_traced_op(tg, tracer, op, op_id):
    """One traced op; returns (exit code, output, seconds).  A crash is
    returned as exit code None with the exception as output, as run.run_op
    does."""
    tracer.op = op_id
    start = time.perf_counter()
    try:
        with tracer.span("op"):
            rc, out, games, trees = TRACED[op.kind](tg, tracer, op)
    except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
    finally:
        tracer.op = None
    elapsed = time.perf_counter() - start
    _count_games(tracer, games)
    for tree in trees:
        tracer.count("trees.nodes", len(tree.nodes))
    return rc, out, elapsed


# ---------------------------------------------------------------------------
# Per-layer numbers.

def self_times(spans):
    """Self time in seconds of every span, in span order."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_table(tracer, scale, traced_ops: int, certified_inputs: int):
    """Mean self time per op of every span name in ms, and coverage.

    `scale(op_id)` converts the seconds of that op's spans to reference
    speed (run.Pace); the certificate check's spans have op id None.  Op
    spans are averaged over the traced ops; games.verify spans come from
    the certificate check, which runs once per distinct output, so they
    are averaged over those.  Coverage is the share of the root "op" spans
    that their direct children cover.
    """
    own = self_times(tracer.spans)
    totals = defaultdict(float)
    op_time = covered = 0.0
    for s, t in zip(tracer.spans, own):
        factor = scale(s["op"])
        totals[s["name"]] += t * factor
        if s["name"] == "op":
            op_time += s["end"] - s["start"]
            covered += s["end"] - s["start"] - t
    table = {}
    for name, total in totals.items():
        if name == "games.verify":
            table[name] = 1000 * total / max(1, certified_inputs)
        elif name == "op":
            table["cli.untraced"] = 1000 * total / max(1, traced_ops)
        else:
            table[name] = 1000 * total / max(1, traced_ops)
    return table, (covered / op_time if op_time else 0.0)


def count_means(tracer) -> dict:
    """Mean of each count over the ops that recorded it."""
    return {name: statistics.fmean(values) for name, values in tracer.counts.items()}
