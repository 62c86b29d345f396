"""Every public name of the library has a caller outside the tests.

A public top-level function, class or upper-case constant of a
`demjanenko` module, or a public method or property of one of its public
classes, counts as used when, outside its own definition, it appears as
- a bare name or a `from .<module> import` in `src/demjanenko`;
- an `<x>.<name>` attribute read in `src/demjanenko` or `bench`;
- an entry of `TRACED` in `bench/tracing.py`.
`__init__.py` re-exports names, so it neither defines nor uses them here.
Click commands are reached through their group and are exempt. A name
only the tests call is a test helper: move it into the tests or delete it.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "demjanenko"
_BENCH = _ROOT / "bench"


def _modules():
    for path in sorted(_SRC.glob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(), str(path))


def _public(name):
    return not name.startswith("_")


def _is_click_command(node):
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _definitions():
    """(label, module, name, file, first line, last line) of every public name."""
    defs = []
    for path, tree in _modules():
        module = path.stem
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if _public(node.name) and not _is_click_command(node):
                    defs.append((f"{module}.{node.name}", module, node.name, path,
                                 node.lineno, node.end_lineno))
                if isinstance(node, ast.ClassDef) and _public(node.name):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and _public(item.name):
                            defs.append((f"{module}.{node.name}.{item.name}", module,
                                         item.name, path, item.lineno, item.end_lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and _public(t.id) and t.id.isupper():
                        defs.append((f"{module}.{t.id}", module, t.id, path,
                                     node.lineno, node.end_lineno))
    return defs


def _uses():
    """name -> [(file, line)] of every use, and the (module, name) pairs
    of bench/tracing.py's TRACED."""
    uses = {}

    def add(name, path, line):
        uses.setdefault(name, []).append((path, line))

    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                add(node.id, path, node.lineno)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    add(alias.name, path, node.lineno)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                add(node.attr, path, node.lineno)
    traced = set()
    for path in sorted(_BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                add(node.attr, path, node.lineno)
            elif (
                path.name == "tracing.py"
                and isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
            ):
                for entry in node.value.elts:
                    module, name = (e.value for e in entry.elts[:2])
                    traced.add((module, name))
    return uses, traced


def test_every_public_name_has_a_caller():
    defs = _definitions()
    uses, traced = _uses()
    assert len(defs) > 50 and len(traced) > 10  # the parse sees the library
    unused = [
        label
        for label, module, name, path, first, last in defs
        if (module, name) not in traced
        and not any(p != path or not first <= line <= last for p, line in uses.get(name, ()))
    ]
    assert unused == []
