"""Source hygiene: no module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "overcast").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by an import, never read, and not listed in `__all__`."""
    bound = set()
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
        elif isinstance(node, ast.Name):
            used.add(node.id)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return bound - used - exported


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = unused_imports(tree)
    assert not unused, f"{path.name}: imported but never used: {sorted(unused)}"


def test_unused_imports_flags_leftovers():
    source = (
        "import re\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "from .color import FlowEdge, RelayPath\n"
        "__all__ = ['RelayPath']\n"
        "@dataclass\n"
        "class A:\n"
        "    n: np.ndarray\n"
    )
    assert unused_imports(ast.parse(source)) == {"re", "field", "FlowEdge"}
