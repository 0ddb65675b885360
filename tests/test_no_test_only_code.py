"""Every public function and class of the package is used by the program.

A public module-level function or class of src/starspec must be referenced
from another package module, from its own module, from the benchmark
(perfbench/*.py) or from a script (scripts/*.py).  Code that only the tests
reach is deleted together with its tests; a name kept for a planned caller
goes in RESERVED with the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "starspec"

RESERVED = {
    "replay_bound": "the report checker (ROADMAP item 4) replays every bound of a report with it",
    "config_to_dict": "the report checker (ROADMAP item 4) embeds the configuration in the report with it",
    "sector_gap_certificate": "the acceptance oracle for the rounded-corner sector gaps (criterion 7)",
}


def _definitions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


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


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_definition_has_a_caller_outside_the_tests():
    modules = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    callers = [*modules.values(), *map(_parse, sorted((ROOT / "perfbench").glob("*.py"))),
               *map(_parse, sorted((ROOT / "scripts").glob("*.py")))]
    used = set().union(*map(_references, callers))
    unused = [
        f"{path.stem}.{name}"
        for path, tree in modules.items()
        for name in _definitions(tree)
        if name not in used and name not in RESERVED
    ]
    assert unused == [], f"only the tests reach {', '.join(unused)}"


def test_every_reserved_name_is_still_defined():
    defined = {name for p in PACKAGE.glob("*.py") for name in _definitions(_parse(p))}
    assert set(RESERVED) <= defined
