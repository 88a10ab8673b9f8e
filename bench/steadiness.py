"""Steadiness report: run one workload as two sets of runs and compare.

    python3 bench/steadiness.py --workload separation

Two sets of RUNS runs: set k runs bench/run.py once per seed
k*RUNS+1 .. (k+1)*RUNS, one run at a time, for run_seconds of
BENCHMARK.json.  For every end-to-end metric it prints each set's quartiles
and median, the spread (distance between the quartiles over the median,
which must stay within the metric's bound and should stay below a third of
it) and the signed change of the second set's median from the first's
(positive is worse), whose size must stay within the bound.  Exits 1 when a
rule is broken, naming the metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# Seeds per set; there are two sets.
RUNS = 10

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: {result['failed']} ops failed\n{proc.stderr}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["attempted"] = result["attempted"]
    return values


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)

    sets = []
    for k in range(2):
        runs = []
        for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
            runs.append(run_once(bench["command"], args.workload, seed, bench["run_seconds"]))
            print(f"set {k + 1} seed {seed}: " + ", ".join(
                f"{name}={value:.4g}" for name, value in runs[-1].items()), flush=True)
        sets.append(runs)

    broken = []
    print(f"\nfewest ops in a run: {min(r['attempted'] for runs in sets for r in runs)}")
    print(f"{'metric':<18}{'set':>4}{'q1':>12}{'median':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for k, runs in enumerate(sets):
            q1, median, q3 = statistics.quantiles([r[name] for r in runs], n=4)
            spread = (q3 - q1) / median
            medians.append(median)
            flag = ""
            if spread > bound:
                flag = "  OVER BOUND"
                broken.append(f"{name} spread {spread:.3f} > {bound}")
            elif spread > bound / 3:
                flag = "  noisy (> bound/3)"
            print(f"{name:<18}{k + 1:>4}{q1:>12.4f}{median:>12.4f}{q3:>12.4f}"
                  f"{spread:>9.3f}{bound:>7}{flag}")
        gap = worse_by(metric, medians[0], medians[1])
        if abs(gap) > bound:
            broken.append(f"{name} second median off by {gap:+.3f}, beyond {bound}")
        print(f"{'':<22}second median worse by {gap:+.3f} "
              f"({'within' if abs(gap) <= bound else 'OUTSIDE'} bound {bound})")
    if broken:
        print("\nNOT STEADY: " + "; ".join(broken))
        return 1
    print("\nsteady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
