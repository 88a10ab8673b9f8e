"""Every name imported by a package module or a test module is used,
every module-level name of the package is exported or used, and every
method or property of a package class is used outside the tests."""

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
    readers = dict(modules)
    readers.update({f"bench/{p.name}": ast.parse(p.read_text(), str(p))
                    for p in sorted((ROOT / "bench").glob("*.py"))})
    references = _references(readers)
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
