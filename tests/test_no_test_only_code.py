"""Every public function, class and class member of the package is used by
the program.

A public module-level function or class of src/starspec must be referenced
from another package module, from its own module, from the benchmark
(perfbench/*.py) or from a script (scripts/*.py).  A public method, property
or dataclass field of a package class must be read as an attribute in one of
those files, and a public exception class must be named in an except clause
of one: an error that no caller tells apart from its base raises the base.
Code that only the tests reach is deleted together with its tests; a name
kept for a planned caller goes in RESERVED with the reason.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "starspec"

RESERVED = {
    "replay_bound": "the report checker (ROADMAP item 9) replays every bound of a report with it",
    "config_to_dict": "the report checker (ROADMAP item 9) embeds the configuration in the report with it",
}


def _definitions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _members(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, member) for each public method, property and annotated
    (dataclass) field of every class in the module."""
    out = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_"):
                    out.append((cls.name, name))
    return out


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _attribute_reads(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _caught(tree: ast.Module) -> set[str]:
    """The names in the except clauses of a file."""
    return set().union(*(_references(h.type) for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and h.type))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _program() -> tuple[dict, list]:
    """The package modules by path, and every parsed file of the program."""
    modules = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    callers = [*modules.values(), *map(_parse, sorted((ROOT / "perfbench").glob("*.py"))),
               *map(_parse, sorted((ROOT / "scripts").glob("*.py")))]
    return modules, callers


def test_every_public_definition_has_a_caller_outside_the_tests():
    modules, callers = _program()
    used = set().union(*map(_references, callers))
    unused = [
        f"{path.stem}.{name}"
        for path, tree in modules.items()
        for name in _definitions(tree)
        if name not in used and name not in RESERVED
    ]
    assert unused == [], f"only the tests reach {', '.join(unused)}"


def test_every_public_member_is_read_outside_the_tests():
    modules, callers = _program()
    read = set().union(*map(_attribute_reads, callers))
    unread = [
        f"{path.stem}.{cls}.{name}"
        for path, tree in modules.items()
        for cls, name in _members(tree)
        if name not in read
    ]
    assert unread == [], f"only the tests read {', '.join(unread)}"


def test_every_public_exception_class_is_caught_by_name_outside_the_tests():
    modules, callers = _program()
    caught = set().union(*map(_caught, callers))
    uncaught = []
    for path, tree in modules.items():
        for name in _definitions(tree):
            obj = getattr(importlib.import_module(f"starspec.{path.stem}"), name)
            if isinstance(obj, type) and issubclass(obj, BaseException) and name not in caught:
                uncaught.append(f"{path.stem}.{name}")
    assert uncaught == [], f"only the tests catch {', '.join(uncaught)}"


def test_every_reserved_name_is_still_defined():
    defined = {name for p in PACKAGE.glob("*.py") for name in _definitions(_parse(p))}
    assert set(RESERVED) <= defined
