"""geom imports no other starspec module, so a reader of a report can bind
a center to its family's alpha without the certification rule tables."""

import ast
from pathlib import Path

GEOM = Path(__file__).resolve().parents[1] / "src" / "starspec" / "geom.py"


def _from_starspec(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "starspec"
    return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "starspec" for a in node.names)


def test_geom_imports_no_other_starspec_module():
    tree = ast.parse(GEOM.read_text(), filename=str(GEOM))
    package = [ast.unparse(node) for node in ast.walk(tree) if _from_starspec(node)]
    assert package == [], f"geom imports {'; '.join(package)}"
