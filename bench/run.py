"""treegames benchmark: certified CLI decisions on four workloads.

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0

One op is one in-process `treegames.cli.main(argv)` call with stdout
captured in memory.  One process, one thread, one closed-loop client: the
workload's fixed op list runs in order, pass after pass, until --seconds
have passed and at least MIN_OPS ops have run.  After the timed loop each
distinct output is checked against a certificate (certify.py).

Times are reported at reference speed.  The machine is shared, and its
speed swings by 20-40% for tens of seconds at a time; the swings hit every
op alike.  So a fixed pure-Python reference loop is timed after every op,
and each op's wall time is scaled by REF_SECONDS over the median reference
time of the ops around it (Pace).  The human-readable lines also give the
raw wall-clock figures and the measured speed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, the per-layer metrics with --trace 1 (spans.py).  Inputs,
and the span file of a traced run, live under .bench_out/ in the checkout.
See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
import certify  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

# A p90 needs at least ten samples beyond it.
MIN_OPS = 100
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS of
# wall time have passed, so that the short set-ups are repeated more;
# setup_s is the median of the repetitions.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
# Ops run once before the timed loop and not counted.
WARMUP_OPS = 3
# Reference-loop time that defines reference speed: about its median on
# an idle 2-vCPU 2.1 GHz machine with Python 3.11.
REF_SECONDS = 0.0013
# Reference samples on each side of an op that set its speed.
PACE_WINDOW = 2


class BenchError(Exception):
    """The benchmark cannot run here (no treegames sources)."""


def reference_loop() -> int:
    """Fixed pure-Python work shaped like the library's inner loops:
    dict lookups, set membership and tuple building over a small graph."""
    succ = {i: ((7 * i + 1) % 500, (13 * i + 5) % 500) for i in range(500)}
    edges = []
    for _ in range(6):
        seen, todo = {0}, [0]
        while todo:
            v = todo.pop()
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
                    edges.append((v, w))
    return len(edges)


class Pace:
    """Machine speed relative to reference speed, from timed runs of
    reference_loop()."""

    def __init__(self):
        self.samples = []

    def tick(self, count: int = 1) -> None:
        # With the cyclic collector off, the loop's cost does not depend on
        # how many live objects the program under test has left behind.
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                reference_loop()
                self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()

    def factor(self, lo: int = 0, hi: int | None = None) -> float:
        """Multiplier from wall time to reference-speed time, from the
        samples in [lo, hi)."""
        return REF_SECONDS / statistics.median(self.samples[max(0, lo):hi])

    def around(self, i: int) -> float:
        """factor() for the op that sample i follows."""
        return self.factor(i - PACE_WINDOW, i + PACE_WINDOW + 1)


def import_treegames():
    """Import treegames afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "treegames" or m.startswith("treegames.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        tg = importlib.import_module("treegames")
        importlib.import_module("treegames.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import treegames from {SRC}: {exc}") from None
    if not os.path.abspath(tg.__file__).startswith(SRC + os.sep):
        raise BenchError(f"treegames was imported from {tg.__file__}, not {SRC}")
    return tg


def setup(workload: str, seed: int, scale: float, repeats: int, min_seconds: float = 0.0):
    """Import treegames, write the inputs and build the op list, at least
    `repeats` times and until `min_seconds` have passed.  Returns
    (reference-speed seconds of each repetition, tg, ops, workdir of the
    last repetition)."""
    pace = Pace()
    times, workdir = [], None
    begin = time.perf_counter()
    while len(times) < repeats or time.perf_counter() - begin < min_seconds:
        if workdir is not None:
            shutil.rmtree(workdir)
        gc.collect()
        pace.tick(3)
        start = time.perf_counter()
        tg = import_treegames()
        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
        ops = inputs.build_ops(tg, workload, seed, workdir, scale)
        gc.collect()
        elapsed = time.perf_counter() - start
        pace.tick(3)
        times.append(elapsed * pace.factor(len(pace.samples) - 6))
    return times, tg, ops, workdir


def run_op(cli, op):
    """One CLI call; returns (exit code, stdout, seconds).  A crash is
    returned as exit code None with the exception as output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op
        elapsed = time.perf_counter() - start
        return None, f"{type(exc).__name__}: {exc}", elapsed
    return rc, out.getvalue(), time.perf_counter() - start


class Outputs:
    """Distinct (exit code, output) pairs seen per input key; ops keep an
    index into them, so repeated identical outputs are stored once."""

    def __init__(self):
        self.variants = {}

    def add(self, key, rc, out) -> int:
        seen = self.variants.setdefault(key, [])
        for i, (rc0, out0) in enumerate(seen):
            if rc0 == rc and out0 == out:
                return i
        seen.append((rc, out))
        return len(seen) - 1


def timed_loop(cli, ops, seconds: float, min_ops: int, outputs: Outputs):
    """Run whole passes over `ops` until `seconds` have passed and at least
    `min_ops` ops are done, timing the reference loop after every op.
    Returns ([(op index, variant, seconds)], pace, wall seconds)."""
    records, pace = [], Pace()
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            rc, out, elapsed = run_op(cli, op)
            records.append((i, outputs.add(op.key, rc, out), elapsed))
            pace.tick()
        if time.perf_counter() - start >= seconds and len(records) >= min_ops:
            return records, pace, time.perf_counter() - start


def certify_outputs(tg, ops, outputs: Outputs, tracer) -> dict:
    """Reason (None when certified) for every (key, variant) seen."""
    op_of = {op.key: op for op in ops}
    return {(key, i): certify.certify(tg, tracer, op_of[key], rc, out)
            for key, seen in outputs.variants.items()
            for i, (rc, out) in enumerate(seen)}


def score(ops, records, outputs: Outputs, verdicts: dict):
    """(failed, wrong, per-op ok flags).  `wrong` counts ops that printed
    an answer the certificate rejects; crashes are failed but not wrong."""
    ok, failed, wrong = [], 0, 0
    for i, variant, _ in records:
        key = ops[i].key
        good = verdicts[key, variant] is None
        ok.append(good)
        if not good:
            failed += 1
            wrong += outputs.variants[key][variant][0] is not None
    return failed, wrong, ok


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def report_failures(ops, verdicts, stream=sys.stderr) -> None:
    argv_of = {op.key: " ".join(op.argv) for op in ops}
    for (key, variant), reason in sorted(verdicts.items()):
        if reason is not None:
            print(f"FAILED {key} [{argv_of[key]}]: {reason}", file=stream)


def end_to_end(workload, seed, seconds, scale):
    setup_times, tg, ops, workdir = setup(workload, seed, scale, SETUP_REPEATS,
                                          SETUP_SECONDS * scale)
    try:
        outputs = Outputs()
        for op in ops[:WARMUP_OPS]:
            run_op(tg.cli, op)
        records, pace, wall = timed_loop(tg.cli, ops, seconds,
                                         max(1, round(MIN_OPS * scale)), outputs)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        verdicts = certify_outputs(tg, ops, outputs, spans.NullTracer())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report_failures(ops, verdicts)
    failed, wrong, ok = score(ops, records, outputs, verdicts)
    attempted = len(records)
    seconds_at_ref = [t * pace.around(k) for k, (_, _, t) in enumerate(records)]
    latencies = [1000 * t if good else math.inf for t, good in zip(seconds_at_ref, ok)]
    raw = [1000 * t if good else math.inf for (_, _, t), good in zip(records, ok)]
    beyond = attempted - math.ceil(0.9 * attempted)
    print(f"{workload} seed {seed}: {attempted} ops over {len(ops)} inputs in "
          f"{wall:.2f} s; p90 from {attempted} samples, {beyond} beyond it")
    print(f"reference loop at {1 / pace.factor():.3f}x its nominal time; wall clock: "
          f"p50 {statistics.median(raw):.2f} ms, p90 {percentile(raw, 0.9):.2f} ms, "
          f"{(attempted - failed) / sum(t for _, _, t in records):.3f} ops/s")
    metrics = {
        "throughput_ops_s": ((attempted - failed) / sum(seconds_at_ref), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9), "ms"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return wrong == 0, attempted, failed, metrics


# Per-layer metrics and their units, in BENCHMARK.json order.
LAYER_METRICS = (
    ("games.parse_ms", "ms"), ("games.solve_ms", "ms"), ("games.verify_ms", "ms"),
    ("games.positions", "count"), ("games.edges", "count"), ("games.priorities", "count"),
    ("trees.load_ms", "ms"), ("trees.rename_ms", "ms"), ("trees.nodes", "count"),
    ("automata.load_ms", "ms"), ("automata.build_ms", "ms"),
    ("automata.product_ms", "ms"), ("automata.witness_ms", "ms"),
    ("gamelang.build_ms", "ms"),
    ("separation.hierarchy_ms", "ms"), ("separation.level", "count"),
    ("separation.apta_states", "count"), ("separation.sample_ms", "ms"),
    ("separation.sample_yield", "ratio"),
    ("cli.emit_ms", "ms"), ("cli.untraced_ms", "ms"),
    ("trace.coverage", "ratio"), ("trace.overhead_ms", "ms"),
)


def per_layer(workload, seed, seconds, scale):
    """Each op runs untraced through the CLI and traced, one right after the
    other, so machine drift hits both alike; whole passes until `seconds`
    have passed.  Layers a workload does not use read 0."""
    _, tg, ops, workdir = setup(workload, seed, scale, repeats=1)
    tracer, pace = spans.Tracer(), Pace()
    outputs, traced_outputs = Outputs(), Outputs()
    plain, traced = [], []
    try:
        for op in ops[:WARMUP_OPS]:
            run_op(tg.cli, op)
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            for i, op in enumerate(ops):
                # Alternate which of the two goes first, so that neither
                # always inherits the other's garbage or warm caches.
                for traced_turn in ((False, True) if len(traced) % 2 else (True, False)):
                    if traced_turn:
                        rc, out, elapsed = spans.run_traced_op(tg, tracer, op, len(traced))
                        traced.append((i, traced_outputs.add(op.key, rc, out), elapsed))
                    else:
                        rc, out, elapsed = run_op(tg.cli, op)
                        plain.append((i, outputs.add(op.key, rc, out), elapsed))
                pace.tick()
        verdicts = certify_outputs(tg, ops, outputs, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report_failures(ops, verdicts)
    _, wrong, ok = score(ops, plain, outputs, verdicts)
    # A traced op must print exactly what the CLI printed for its input; a
    # traced op that crashes is failed, one that prints something else is
    # also wrong.  The k-th traced op and the k-th untraced op ran the same
    # input, so each pair counts as one op.
    crashed = mismatched = failed = 0
    for (i, variant, _), good in zip(traced, ok):
        rc, out = traced_outputs.variants[ops[i].key][variant]
        bad = (rc, out) != outputs.variants[ops[i].key][0]
        crashed += rc is None
        mismatched += bad and rc is not None
        failed += bad or rc is None or not good
    if crashed or mismatched:
        print(f"{crashed} traced ops crashed, {mismatched} differ from the CLI output",
              file=sys.stderr)

    factors = [pace.around(k) for k in range(len(traced))]
    run_factor = pace.factor()
    table, coverage = spans.layer_table(
        tracer, lambda op_id: run_factor if op_id is None else factors[op_id],
        len(traced), sum(len(v) for v in outputs.variants.values()))
    values = {f"{name}_ms": ms for name, ms in table.items()}
    values.update(spans.count_means(tracer))
    values["trace.coverage"] = coverage
    traced_ms = statistics.median(1000 * t * f for (_, _, t), f in zip(traced, factors))
    plain_ms = statistics.median(1000 * t * f for (_, _, t), f in zip(plain, factors))
    values["trace.overhead_ms"] = traced_ms - plain_ms
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    tracer.write(path)

    op_ms = statistics.fmean(1000 * t * f for (_, _, t), f in zip(traced, factors))
    print(f"{workload} seed {seed}: {len(traced)} traced ops, {len(plain)} untraced; "
          f"spans in {os.path.relpath(path, ROOT)}")
    print(f"{'layer':<28}{'self ms/op':>12}{'share':>8}")
    for name, ms in sorted(table.items(), key=lambda kv: -kv[1]):
        share = f"{ms / op_ms:8.1%}" if name != "games.verify" else "  (cert)"
        print(f"{name:<28}{ms:>12.3f}{share}")
    print(f"coverage {coverage:.1%}; traced op {op_ms:.3f} ms mean, median "
          f"{traced_ms:.3f} ms vs {plain_ms:.3f} ms untraced "
          f"(overhead {values['trace.overhead_ms']:.3f} ms)")
    metrics = {name: (values.get(name, 0.0), unit) for name, unit in LAYER_METRICS}
    return wrong == 0 and not mismatched, len(plain), failed, metrics


def main(argv=None, scale: float = 1.0) -> int:
    """Command-line entry; `scale` shrinks every input and MIN_OPS (the
    smoke tests use it to run each workload in seconds)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    measure = per_layer if args.trace else end_to_end
    try:
        correct, attempted, failed, metrics = measure(
            args.workload, args.seed, args.seconds, scale)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
