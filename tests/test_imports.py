"""Every name imported by a package module or a test module is used,
every module-level name of the package is exported or used, every public
function of the package other than a documented few is used outside the
tests, every method or property of a package class is used outside the
tests, and only the command line's main prints a command's document."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "treegames").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")))


def unused_imports(path: Path) -> list:
    """(line, name) of each name the module imports and never references."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    assert SOURCES
    found = {str(p.relative_to(ROOT)): unused_imports(p) for p in SOURCES}
    assert not {k: v for k, v in found.items() if v}


PACKAGE = ROOT / "src" / "treegames"


def _defined_names(tree) -> dict:
    """name -> (first line, last line) of each module-level function, class
    and constant."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            spans[name] = (node.lineno, node.end_lineno)
    return spans


def dead_names() -> list:
    """(module, name) of each module-level function, class or constant of
    the package that __init__.py does not export and that no package module
    references outside its own definition.  Console-script entry points in
    pyproject.toml count as references."""
    modules = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    exported = {alias.name for node in ast.walk(modules.pop("__init__.py"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported |= set(re.findall(r'"treegames\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    references = _references(modules)
    dead = []
    for module, tree in modules.items():
        for name, (first, last) in _defined_names(tree).items():
            if name in exported:
                continue
            if not _referenced(name, module, first, last, references):
                dead.append((module, name))
    return dead


def _references(modules: dict) -> list:
    """(module, line, name) of each name, attribute and imported name that
    the parsed modules mention."""
    references = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                references.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                references += [(module, node.lineno, alias.name) for alias in node.names]
    return references


def _referenced(name, module, first, last, references) -> bool:
    """Whether some reference to `name` lies outside lines first..last of
    `module`, the definition itself."""
    return any(ref == name and not (where == module and first <= line <= last)
               for where, line, ref in references)


def test_no_dead_names():
    assert dead_names() == []


def dead_members() -> list:
    """(module, class, member) of each method or property that a package
    class defines and that no package module and no bench/*.py file
    references outside the member's own definition.  Dunder methods are
    exempt.  Like dead_names, this matches by name alone, so it misses a
    dead member whose name is used for anything else, such as an attribute
    of another class."""
    modules = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    references = _references_with_bench(modules)
    dead = []
    for module, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or re.fullmatch(r"__\w+__", node.name):
                    continue
                if not _referenced(node.name, module, node.lineno, node.end_lineno, references):
                    dead.append((module, cls.name, node.name))
    return dead


def test_no_dead_members():
    assert dead_members() == []


def _references_with_bench(modules: dict) -> list:
    """_references of the parsed modules and of every bench/*.py file."""
    readers = dict(modules)
    readers.update({f"bench/{p.name}": ast.parse(p.read_text(), str(p))
                    for p in sorted((ROOT / "bench").glob("*.py"))})
    return _references(readers)


# Public functions that the README documents and that only tests call in
# this repository: the W01-prime and plain parity language tests, the
# Borel code depth, and the writers paired with the game and code loaders.
DOCUMENTED = {"in_w01_prime", "parity_lang_member", "read_depth", "game_to_text", "code_to_json"}


def test_documented_functions_are_exported_functions():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    functions = {node.name for p in PACKAGE.glob("*.py")
                 for node in ast.parse(p.read_text(), str(p)).body
                 if isinstance(node, ast.FunctionDef)}
    assert DOCUMENTED <= exported & functions


def functions_only_tests_read() -> list:
    """(module, function) of each public module-level function of the
    package that no package module and no bench/*.py file references
    outside its own definition: one that only tests read, its export in
    __init__.py aside.  DOCUMENTED functions and console-script entry
    points are kept."""
    modules = {p.name: ast.parse(p.read_text(), str(p))
               for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    references = _references_with_bench(modules)
    kept = DOCUMENTED | set(re.findall(r'"treegames\.\w+:(\w+)"',
                                       (ROOT / "pyproject.toml").read_text()))
    return [(module, node.name) for module, tree in modules.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in kept
            and not _referenced(node.name, module, node.lineno, node.end_lineno, references)]


def test_no_functions_only_tests_read():
    assert functions_only_tests_read() == []


def cli_output_faults() -> list:
    """(function, fault) of each way cli.py leaves its one output path:
    main alone calls _emit, and no command but the interactive cmd_play
    prints, writes sys.stdout or reads args.output."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    faults = []
    for function in tree.body:
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_emit" and function.name != "main"):
                faults.append((function.name, "calls _emit"))
            if not function.name.startswith("cmd_") or function.name == "cmd_play":
                continue
            if isinstance(node, ast.Name) and node.id == "print":
                faults.append((function.name, "prints"))
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and (node.value.id, node.attr) in {("sys", "stdout"), ("args", "output")}):
                faults.append((function.name, f"reads {node.value.id}.{node.attr}"))
    return faults


def test_main_alone_writes_command_output():
    assert cli_output_faults() == []
