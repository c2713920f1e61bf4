"""Every function and method of the package has a reader.

A function or method defined in src/lpplab (dunders aside) must be
referenced somewhere in src/lpplab, tests/ or perfbench/: as a name, as
an attribute, or inside a string, split at dots (the benchmark's tracer
names what it wraps as "module", "Class.method").  A helper that nothing
reads is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lpplab"
NAMED_TUPLES = {"typing.NamedTuple", "collections.namedtuple"}


def _trees(folder: Path):
    for path in sorted(folder.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_every_function_is_referenced():
    defined = {}
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    referenced = set()
    for folder in (PACKAGE, ROOT / "tests", ROOT / "perfbench"):
        for _, tree in _trees(folder):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    referenced.update(node.value.split("."))
    assert defined
    unread = sorted(f"{where} {name}" for name, where in defined.items()
                    if name not in referenced)
    assert not unread, "defined but never referenced:\n" + "\n".join(unread)


def test_no_module_imports_dataclasses():
    """Records are ``model.record`` classes: a dataclass, a
    ``typing.NamedTuple`` and a ``collections.namedtuple`` each exec
    generated source for each class they build, at import."""
    importers = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                modules += [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                modules = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" or m in NAMED_TUPLES for m in modules):
                importers.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not importers, "dataclasses or named tuples used at " + ", ".join(importers)
