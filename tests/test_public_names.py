"""Every top-level name of the package, public or private, and every public
method of its top-level classes, has a caller outside the tests.

The sources of `src/lioup` and `perfbench` are parsed, not imported.  A name
counts as referenced when it appears, as a name, an attribute, an imported
name or a string constant (the benchmark's tracer names its targets by
string), in any top-level statement other than the one that defines it.  A
method counts as referenced when its name appears as an attribute, so that
a string such as a level named "operator" is not a call, in any top-level
statement or method other than its own definition.  Every field of a
dataclass is read somewhere in that code, as an attribute or a string
constant.  Helpers and fields that only tests use belong in the tests, and
a private helper that no program code calls is left over from a deletion.
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


def unreferenced_names(private=False):
    """The public top-level names of the package, or with `private` those
    that start with '_', that no other top-level statement references."""
    statements = []  # (module path, statement)
    for path in SOURCES:
        statements += [(path, stmt) for stmt in ast.parse(path.read_text()).body]
    used = [_used(stmt) for _, stmt in statements]
    unused = []
    for k, (path, stmt) in enumerate(statements):
        if path.parent != PACKAGE:
            continue
        for name in sorted(_defined(stmt)):
            if name.startswith("_") == private and not any(
                    name in names for j, names in enumerate(used) if j != k):
                unused.append(f"{path.stem}.{name}")
    return unused


def unreferenced_public_methods():
    units = []  # (module path, class name or None, statement)
    for path in SOURCES:
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                units += [(path, stmt.name, item) for item in stmt.body]
            else:
                units.append((path, None, stmt))
    used = [{node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            for _, _, stmt in units]
    unused = []
    for k, (path, cls, stmt) in enumerate(units):
        if (path.parent == PACKAGE and cls is not None
                and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not stmt.name.startswith("_")
                and not any(stmt.name in names for j, names in enumerate(used)
                            if j != k)):
            unused.append(f"{path.stem}.{cls}.{stmt.name}")
    return unused


def test_sources_found():
    assert any(p.name == "cli.py" for p in SOURCES)
    assert any(p.parent.name == "perfbench" for p in SOURCES)


def test_every_public_name_has_a_program_caller():
    assert unreferenced_names() == []


def test_every_private_name_has_a_program_caller():
    assert unreferenced_names(private=True) == []


def test_every_public_method_has_a_program_caller():
    assert unreferenced_public_methods() == []


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def dataclass_fields():
    """(module, class, field) of every field of the package's dataclasses."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef) and _is_dataclass(stmt):
                out += [(path.stem, stmt.name, item.target.id) for item in stmt.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)]
    return out


def fields_read_nowhere():
    """Dataclass fields that appear in no program code as an attribute or a
    string constant (such as a field name handed to getattr)."""
    read = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [f"{mod}.{cls}.{name}" for mod, cls, name in dataclass_fields()
            if name not in read]


def test_every_dataclass_field_is_read_by_the_program():
    assert dataclass_fields()
    assert fields_read_nowhere() == []


def tolerance_constants():
    """The names (last attribute) of the values of cli.TOLERANCES."""
    for stmt in ast.parse((PACKAGE / "cli.py").read_text()).body:
        if isinstance(stmt, ast.Assign) and _defined(stmt) == {"TOLERANCES"}:
            return [v.attr if isinstance(v, ast.Attribute) else v.id
                    for v in stmt.value.values]
    raise AssertionError("no TOLERANCES table in cli.py")


def names_read_in_functions():
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out |= {n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(node)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                        or isinstance(n, ast.Attribute)}
    return out


def test_every_tolerance_is_read_by_a_function():
    names = tolerance_constants()
    assert names
    assert [n for n in names if n not in names_read_in_functions()] == []
