"""Smoke tests for the benchmark, at tiny sizes:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import certify  # noqa: E402
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

SCALE = 0.05


def run_tiny(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)], scale=SCALE)
    assert rc == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_workload_emits_the_declared_metrics(workload, trace):
    result = run_tiny(workload, trace)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1.0


def test_a_wrong_verdict_counts_as_failed(monkeypatch):
    real = run.run_op

    def tampered(cli, op):
        rc, out, elapsed = real(cli, op)
        if op.key == "member0":
            doc = json.loads(out)
            doc["member"] = not doc["member"]
            rc, out = 1 - rc, json.dumps(doc)
        return rc, out, elapsed

    monkeypatch.setattr(run, "run_op", tampered)
    result = run_tiny("membership", 0)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_a_crash_is_a_failed_op_not_a_harness_error():
    class Crashing:
        @staticmethod
        def main(argv):
            raise RecursionError("maximum recursion depth exceeded")

    op = run.inputs.Op("game0", "solve", ("solve", "--game", "game0.txt"))
    rc, out, _ = run.run_op(Crashing, op)
    assert rc is None
    assert certify.certify(None, None, op, rc, out).startswith("crashed: RecursionError")


def test_a_crash_in_the_traced_run_is_a_failed_op(monkeypatch):
    real = run.spans.TRACED["solve"]

    def crashing(tg, tracer, op):
        if op.key == "game0":
            raise RecursionError("maximum recursion depth exceeded")
        return real(tg, tracer, op)

    monkeypatch.setitem(run.spans.TRACED, "solve", crashing)
    result = run_tiny("solve", 1)
    assert result["correct"] is True
    assert 1 <= result["failed"] < result["attempted"]


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
