"""Source hygiene: no module imports a name it never uses, no module
defines a private name it never reads, no public function, class or class
member and no private method is left that nothing reads, and no package
module is left that no other one imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "overcast").glob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


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


def unread_privates(tree: ast.Module) -> set[str]:
    """Underscore-prefixed module-level functions, classes and constants
    that nothing in the module reads."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return private - read


def attributes_read(reading: list[ast.Module]) -> set[str]:
    """Every name that a module in `reading` loads as an attribute."""
    return {
        n.attr
        for tree in reading
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def unread_members(defining: list[ast.Module], reading: list[ast.Module]) -> set[str]:
    """`Class.member` for each public method, property or dataclass field of
    a class in `defining` whose name no module in `reading` loads as an
    attribute."""
    members = set()
    for tree in defining:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            dataclass = any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    members.add((cls.name, node.name))
                elif isinstance(node, ast.AnnAssign) and dataclass:
                    members.add((cls.name, node.target.id))
    read = attributes_read(reading)
    return {f"{c}.{m}" for c, m in members if not m.startswith("_") and m not in read}


def unread_private_methods(defining: list[ast.Module], reading: list[ast.Module]) -> set[str]:
    """`Class._method` for each underscore-prefixed (not dunder) method of a
    class in `defining` whose name no module in `reading` loads as an
    attribute."""
    methods = {
        (cls.name, node.name)
        for tree in defining
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    read = attributes_read(reading)
    return {
        f"{c}.{m}" for c, m in methods
        if m.startswith("_") and not m.startswith("__") and m not in read
    }


def unread_publics(defining: list[ast.Module], reading: list[ast.Module]) -> set[str]:
    """Public module-level functions and classes in `defining` whose name no
    module in `reading` loads as a name or an attribute."""
    defined = {
        node.name
        for tree in defining
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    read = set()
    for tree in reading:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    return {name for name in defined if not name.startswith("_")} - read


def orphan_modules(package: dict[str, ast.Module], entry: set[str]) -> set[str]:
    """Modules of `package` (name -> tree) that no other module of it
    imports relatively, apart from the `entry` modules."""
    imported = set()
    for name, tree in package.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:  # from .gapflow import run_gap_stage
                    targets = {node.module.split(".")[0]}
                else:  # from . import simplex
                    targets = {a.name for a in node.names}
                imported |= targets - {name}
    return set(package) - imported - entry


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_privates(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = unread_privates(tree)
    assert not unread, f"{path.name}: defined but never read: {sorted(unread)}"


def test_unread_privates_flags_leftovers():
    source = (
        "_PIVOT_TOL = 1e-9\n"
        "_PHASE1_TOL = 1e-7\n"
        "_AT_LB, _AT_UB = 0, 1\n"
        "_CACHE: dict = {}\n"
        "__all__ = ['solve']\n"
        "def _unused(v):\n"
        "    return v\n"
        "class _Helper:\n"
        "    pass\n"
        "def solve(x):\n"
        "    _local = 0\n"
        "    return _Helper(), abs(x) > _PIVOT_TOL, _AT_LB, _local\n"
    )
    assert unread_privates(ast.parse(source)) == {"_PHASE1_TOL", "_AT_UB", "_CACHE", "_unused"}


def test_no_unread_members():
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    unread = unread_members([parse(p) for p in SOURCES], [parse(p) for p in READERS])
    assert not unread, f"public members nothing reads: {sorted(unread)}"


def test_unread_members_flags_leftovers():
    defining = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Cert:\n"
        "    t: float\n"
        "    rows: list\n"
        "    _cache: dict\n"
        "    @property\n"
        "    def ok(self):\n"
        "        return self.t > 0\n"
        "    def z_hat(self):\n"
        "        return self.t\n"
        "    def __repr__(self):\n"
        "        return 'Cert'\n"
        "class Plain:\n"
        "    limit: int = 3\n"
        "    def run(self):\n"
        "        self.rows = []\n"
    )
    reading = ast.parse("def use(cert, plain):\n    return cert.ok, plain.run()\n")
    assert unread_members([defining], [defining, reading]) == {"Cert.rows", "Cert.z_hat"}


def test_no_unread_private_methods():
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    unread = unread_private_methods([parse(p) for p in SOURCES], [parse(p) for p in SOURCES])
    assert not unread, f"private methods nothing in the package reads: {sorted(unread)}"


def test_unread_private_methods_flags_leftovers():
    defining = ast.parse(
        "class _Revised:\n"
        "    def __init__(self):\n"
        "        self._start(0)\n"
        "    def _start(self, columns):\n"
        "        return self._factorize\n"
        "    def _factorize(self):\n"
        "        pass\n"
        "    def _refresh(self):\n"
        "        self._start(1)\n"
        "    def run(self):\n"
        "        pass\n"
        "class Layout:\n"
        "    def _dense(self):\n"
        "        pass\n"
    )
    assert unread_private_methods([defining], [defining]) == {"_Revised._refresh", "Layout._dense"}


def test_no_unread_publics():
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    unread = unread_publics([parse(p) for p in SOURCES], [parse(p) for p in READERS])
    assert not unread, f"public functions and classes nothing reads: {sorted(unread)}"


def test_unread_publics_flags_leftovers():
    defining = ast.parse(
        "from .model import Instance\n"
        "__all__ = ['normalize_doc']\n"
        "def normalize_doc(doc):\n"
        "    return doc\n"
        "def instance_from_doc(doc):\n"
        "    return Instance(doc)\n"
        "def load(path):\n"
        "    return instance_from_doc(path)\n"
        "def _private():\n"
        "    pass\n"
        "class Spec:\n"
        "    pass\n"
        "class Used:\n"
        "    def normalize_doc(self):\n"
        "        pass\n"
    )
    reading = ast.parse("from overcast import model\nmodel.Used()\n")
    assert unread_publics([defining], [defining, reading]) == {"normalize_doc", "load", "Spec"}


def test_no_orphan_modules():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    package = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SOURCES}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    scripts = {target.split(":")[0].split(".")[-1] for target in project["scripts"].values()}
    orphans = orphan_modules(package, {"__init__"} | scripts)
    assert not orphans, f"modules no other module imports: {sorted(orphans)}"


def test_orphan_modules_flags_leftovers():
    package = {
        name: ast.parse(source)
        for name, source in {
            "__init__": "from .pipeline import run\n",
            "cli": "from .pipeline import run\n",
            "pipeline": "from . import simplex\nfrom .gapflow import run_gap_stage\n",
            "gapflow": "import heapq\nfrom .simplex import solve\n",
            "simplex": "",
            "flow": "from .flow import MinCostFlow\nfrom .simplex import solve\n",
            "tracing": "from overcast import pipeline\n",
        }.items()
    }
    assert orphan_modules(package, {"__init__", "cli"}) == {"flow", "tracing"}
