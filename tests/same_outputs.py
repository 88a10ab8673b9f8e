"""Check that two source trees print the same on every document command.

    python tests/same_outputs.py BEFORE AFTER

BEFORE and AFTER are checkouts of this repository.  The inputs and ops of
the four benchmark workloads at seeds 1-3 are built once, full size, by
BEFORE's `bench/inputs.build_ops` and `treegames`, into one temporary
directory, so both sides read the same files.  To them are added ops of
the commands the benchmark does not run: `member-alt` on each `member`
op, `dual --tree`, `distance` to the tree before and `reduce` by a seeded
random Borel code (`tests/helpers.random_code`) on each `gtl` op's tree,
whose alphabet is the game alphabet, `separate --level 2` on each
`separate` op's pair, and `builtin`, `empty` and `sample` on each builtin
automaton.  Each side then runs every op through its own
`treegames.cli.main` in a process of its own.  Every op whose exit code,
stdout or stderr differs is printed, and the script exits 1 if any does,
0 otherwise.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

SEEDS = (1, 2, 3)


def import_from(root: str, name: str):
    """Module `name` imported from root's src/ (or bench/ or tests/ for
    bench and test modules)."""
    sys.path[:0] = [os.path.join(root, d) for d in ("src", "bench", "tests")]
    module = __import__(name)
    if not os.path.abspath(module.__file__).startswith(os.path.abspath(root) + os.sep):
        sys.exit(f"{name} was imported from {module.__file__}, not from {root}")
    return module


def build_ops(root: str, workdir: str) -> list:
    """(label, argv) of every op, its inputs written into `workdir`."""
    tg, inputs, helpers = (import_from(root, name) for name in ("treegames", "inputs", "helpers"))
    ops = []
    for workload in inputs.WORKLOADS:
        for seed in SEEDS:
            folder = os.path.join(workdir, f"{workload}-{seed}")
            os.mkdir(folder)
            rng, tree_before = random.Random(seed), None
            for op in inputs.build_ops(tg, workload, seed, folder):
                label, argv = f"{workload} seed {seed} {op.key}", list(op.argv)
                ops.append((label, argv))
                more = []
                if argv[0] == "member":
                    more = [("member-alt", ["member-alt", *argv[1:]])]
                elif argv[0] == "gtl":
                    tree = argv[-1]
                    code = os.path.join(folder, f"code-{op.key}.json")
                    with open(code, "w") as handle:
                        json.dump(tg.code_to_json(helpers.random_code(rng, 3)), handle)
                    more = [("dual", ["dual", "--tree", tree]),
                            ("reduce", ["reduce", "--code", code, "--tree", tree]),
                            ("distance", ["distance", tree_before or tree, tree])]
                    tree_before = tree
                elif argv[0] == "separate":
                    more = [("--level 2", argv + ["--level", "2"])]
                ops += [(f"{label} {suffix}", more_argv) for suffix, more_argv in more]
    for name in tg.BUILTIN_NAMES:
        ops += [(f"builtin {name}", ["builtin", name]),
                (f"empty {name}", ["empty", "--automaton", name])]
        ops += [(f"sample {name} seed {seed}",
                 ["sample", "--automaton", name, "--seed", str(seed)]) for seed in SEEDS]
    return ops


def run_side(root: str, ops_path: str, results_path: str) -> None:
    """Run every op of the file `ops_path` through root's CLI and write the
    (exit code, stdout, stderr) of each to `results_path`."""
    import_from(root, "treegames")
    from treegames import cli

    with open(ops_path) as handle:
        ops = json.load(handle)
    results = []
    for _, argv in ops:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is an output to compare
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        results.append((code, out.getvalue(), err.getvalue()))
    with open(results_path, "w") as handle:
        json.dump(results, handle)


def main(before: str, after: str) -> int:
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as workdir:
        ops = build_ops(before, workdir)
        ops_path = os.path.join(workdir, "ops.json")
        with open(ops_path, "w") as handle:
            json.dump(ops, handle)
        sides = []
        for i, root in enumerate((before, after)):
            results_path = os.path.join(workdir, f"results{i}.json")
            subprocess.run([sys.executable, os.path.abspath(__file__), "--side",
                            root, ops_path, results_path], check=True)
            with open(results_path) as handle:
                sides.append(json.load(handle))
    differing = 0
    for (label, _), one, two in zip(ops, *sides):
        parts = [what for what, x, y in zip(("exit code", "stdout", "stderr"), one, two) if x != y]
        if parts:
            differing += 1
            print(f"{label}: {', '.join(parts)} differ")
    print(f"{len(ops)} ops, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--side"]:
        run_side(*sys.argv[2:])
    elif len(sys.argv) == 3:
        sys.exit(main(*sys.argv[1:]))
    else:
        sys.exit(__doc__)
