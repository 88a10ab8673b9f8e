"""Mutation check: does the test suite notice small changes to a function?

    python tests/mutate.py [-t TEST_FILE]... MODULE.FUNCTION...

Each MODULE.FUNCTION names a top-level function of src/treegames/MODULE.py,
for example `automata.acceptance_game`.  Every operator and int literal
inside it is mutated in turn, one mutant at a time:

    <  <=    >  >=    ==  !=    in  not in    is  is not
    an int literal n becomes n + 1
    +  -     (also +=  -=)

Each mutant is written into one temporary copy of the checkout, since
`pythonpath = ["src"]` in pyproject.toml would otherwise import the
unmutated src/, and the given test files (all of tests/ when none is
given) run there with pytest, stopping at the first failure.  A mutant
that no test fails survives.  Every survivor is listed, and the script
exits 1 if there is one, 0 otherwise.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The operator's token, the token it becomes, for each mutated operator.
_SWAPS = {
    ast.Lt: (r"<", "<="), ast.LtE: (r"<=", "<"),
    ast.Gt: (r">", ">="), ast.GtE: (r">=", ">"),
    ast.Eq: (r"==", "!="), ast.NotEq: (r"!=", "=="),
    ast.In: (r"\bin\b", "not in"), ast.NotIn: (r"\bnot\s+in\b", "in"),
    ast.Is: (r"\bis\b", "is not"), ast.IsNot: (r"\bis\s+not\b", "is"),
    ast.Add: (r"\+", "-"), ast.Sub: (r"-", "+"),
}


def _operator_in(src, start, end, op):
    """The mutant that swaps the operator token found in src[start:end]."""
    pattern, new = _SWAPS[type(op)]
    match = re.search(pattern.encode(), src[start:end])
    if match is None:
        return None
    a, b = start + match.start(), start + match.end()
    return a, b, new.encode()


def mutants(src: bytes, func: ast.FunctionDef):
    """(start, end, replacement) byte edits, one per mutant, in source order."""
    starts = [0]
    for line in src.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    # ast positions are 1-based lines and UTF-8 byte columns.
    def start_of(node):
        return starts[node.lineno - 1] + node.col_offset

    def end_of(node):
        return starts[node.end_lineno - 1] + node.end_col_offset

    # Positions inside f-strings are unreliable before Python 3.12.
    skip = {id(n) for s in ast.walk(func) if isinstance(s, ast.JoinedStr)
            for n in ast.walk(s)}
    edits = []
    for node in ast.walk(func):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if type(op) in _SWAPS:
                    edits.append(_operator_in(src, end_of(left), start_of(right), op))
                left = right
        elif isinstance(node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub):
            edits.append(_operator_in(src, end_of(node.left), start_of(node.right), node.op))
        elif isinstance(node, ast.AugAssign) and type(node.op) in (ast.Add, ast.Sub):
            edits.append(_operator_in(src, end_of(node.target), start_of(node.value), node.op))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            edits.append((start_of(node), end_of(node), str(node.value + 1).encode()))
    return sorted(e for e in edits if e is not None)


def function_node(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no top-level function {name!r}")


def run_tests(copy: str, tests: list, timeout: float) -> bool:
    """Whether every test passes in the copy; a run past `timeout` fails."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("targets", nargs="+", metavar="MODULE.FUNCTION")
    parser.add_argument("-t", "--test", action="append", default=[], metavar="TEST_FILE",
                        help="test file to run, relative to the checkout (repeatable)")
    args = parser.parse_args(argv)
    tests = args.test or ["tests"]

    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_out", "*.egg-info", "build"))
        started = time.perf_counter()
        if not run_tests(copy, tests, timeout=600):
            print("the tests fail on the unmutated source", file=sys.stderr)
            return 2
        # A mutant that runs ten times as long as the clean run is looping.
        timeout = 10 * (time.perf_counter() - started) + 30

        survivors, count = [], 0
        for target in args.targets:
            module, _, name = target.partition(".")
            rel = os.path.join("src", "treegames", f"{module}.py")
            path = os.path.join(copy, rel)
            with open(path, "rb") as handle:
                src = handle.read()
            func = function_node(ast.parse(src), name)
            try:
                for start, end, new in mutants(src, func):
                    line = src.count(b"\n", 0, start) + 1
                    what = f"{rel}:{line} {name}: {src[start:end].decode()} -> {new.decode()}"
                    with open(path, "wb") as handle:
                        handle.write(src[:start] + new + src[end:])
                    count += 1
                    killed = not run_tests(copy, tests, timeout)
                    print(("killed   " if killed else "SURVIVED ") + what, flush=True)
                    if not killed:
                        survivors.append(what)
            finally:
                with open(path, "wb") as handle:
                    handle.write(src)

    print(f"{count} mutants, {count - len(survivors)} killed, {len(survivors)} survived")
    for what in survivors:
        print(f"survivor: {what}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
