"""Every public top-level name of the package has a caller outside the tests.

The sources of `src/lioup` and `perfbench` are parsed, not imported.  A name
counts as referenced when it appears, as a name, an attribute, an imported
name or a string constant (the benchmark's tracer names its targets by
string), in any top-level statement other than the one that defines it.
Helpers that only tests call belong in the tests.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lioup"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(ROOT.glob("perfbench/*.py"))


def _defined(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _used(stmt):
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreferenced_public_names():
    statements = []  # (module path, statement)
    for path in SOURCES:
        statements += [(path, stmt) for stmt in ast.parse(path.read_text()).body]
    used = [_used(stmt) for _, stmt in statements]
    unused = []
    for k, (path, stmt) in enumerate(statements):
        if path.parent != PACKAGE:
            continue
        for name in sorted(_defined(stmt)):
            if not name.startswith("_") and not any(
                    name in names for j, names in enumerate(used) if j != k):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_sources_found():
    assert any(p.name == "cli.py" for p in SOURCES)
    assert any(p.parent.name == "perfbench" for p in SOURCES)


def test_every_public_name_has_a_program_caller():
    assert unreferenced_public_names() == []
